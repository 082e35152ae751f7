// The persisted arena sections (format v2) under resealed corruption:
// payload edits whose section CRC and directory CRC are recomputed, so the
// CRC layer passes and only the load-time bounds validation (and the
// auditor) stand between the bytes and the hop runtimes.
//
//   * every index-bearing slab, given one out-of-range value, makes
//     ServerEpoch::load throw SnapshotError;
//   * seeded random byte flips in every arena section either throw
//     SnapshotError or load and serve the self-audit batch — never crash
//     (the ASan+UBSan CI job runs this file);
//   * an in-range edit the validation cannot see is caught by the arena
//     auditor, which compares the stored sections with a fresh compile;
//   * a light-profile snapshot loads with zero-length arena sections.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "audit/snapshot_audit.hpp"
#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_arena.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "search/search_tree.hpp"
#include "runtime/server.hpp"

namespace compactroute {
namespace {

constexpr double kEps = 0.5;
constexpr std::size_t kFirstArenaSection = 8;  // directory index of arena-nodes

const std::vector<std::uint8_t>& snapshot_bytes() {
  static const auto* bytes = [] {
    const Graph graph = make_grid(8, 8);
    const MetricSpace metric(graph);
    const NetHierarchy hierarchy(metric);
    const Naming naming = Naming::random(metric.n(), 4242);
    const HierarchicalLabeledScheme hier(metric, hierarchy, kEps);
    const ScaleFreeLabeledScheme sf(metric, hierarchy, kEps);
    const SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier,
                                             kEps);
    const ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf,
                                              kEps);
    return new std::vector<std::uint8_t>(encode_snapshot(
        metric, kEps, hierarchy, naming, hier, sf, simple, sfni));
  }();
  return *bytes;
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

/// Applies `edit` to the payload of directory section `index`, then
/// recomputes that section's CRC and the directory CRC.
std::vector<std::uint8_t> reseal(
    std::vector<std::uint8_t> bytes, std::size_t index,
    const std::function<void(std::uint8_t* payload, std::size_t size)>& edit) {
  const std::vector<SnapshotSection> sections = snapshot_directory(bytes);
  const SnapshotSection& s = sections.at(index);
  std::uint8_t* payload = bytes.data() + s.offset;
  edit(payload, static_cast<std::size_t>(s.size));
  std::uint8_t* entry = bytes.data() + 20 + 24 * index;
  put_u32(entry + 20, snapshot_crc32(payload, static_cast<std::size_t>(s.size)));
  put_u32(bytes.data() + 16,
          snapshot_crc32(bytes.data() + 20, 24 * sections.size()));
  return bytes;
}

std::string write_temp(const std::vector<std::uint8_t>& bytes,
                       const char* name) {
  const std::string path = ::testing::TempDir() + name;
  write_snapshot_file(path, bytes);
  return path;
}

/// A value the load-time validation must reject for a slab of `kind`.
std::uint64_t out_of_range(ArenaSlabKind kind, std::size_t elem_bytes,
                           std::size_t n) {
  const std::uint64_t all_ones = elem_bytes == 8
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << (8 * elem_bytes)) - 1;
  switch (kind) {
    case ArenaSlabKind::kNode:
    case ArenaSlabKind::kNodeOrInvalid:
      return n;  // not a node, and not kInvalidNode either
    case ArenaSlabKind::kTreeOrNone:
    case ArenaSlabKind::kRegion:
      return all_ones - 1;  // -2 as a signed slab
    case ArenaSlabKind::kLevel:
    case ArenaSlabKind::kRegionRow:
    case ArenaSlabKind::kTree:
      return all_ones >> 1;  // the largest positive value
    case ArenaSlabKind::kOffsets:
    case ArenaSlabKind::kRow:
      return all_ones;
    case ArenaSlabKind::kData:
    case ArenaSlabKind::kRingBound:
      break;
  }
  return 0;
}

TEST(ArenaSnapshot, EveryIndexBearingSlabRejectsAnOutOfRangeValue) {
  Executor::global().set_workers(1);
  const std::vector<std::uint8_t>& bytes = snapshot_bytes();
  const std::size_t n = 64;
  const std::vector<SnapshotSection> sections = snapshot_directory(bytes);
  std::size_t exercised = 0;
  for (std::size_t p = 0; p < kNumArenaParts; ++p) {
    const std::size_t index = kFirstArenaSection + p;
    const SnapshotSection& section = sections[index];
    const auto layout = arena_section_layout(
        static_cast<ArenaPart>(p), bytes.data() + section.offset,
        static_cast<std::size_t>(section.size));
    for (const ArenaSlabInfo& slab : layout) {
      if (slab.kind == ArenaSlabKind::kData || slab.count == 0) continue;
      SCOPED_TRACE(section.name + " / " + slab.name);
      // The ring rows' free values end in the scan pads: break the last pad.
      const bool pad = slab.kind == ArenaSlabKind::kRingBound;
      const std::size_t at = pad ? slab.count - 1 : slab.count / 2;
      const std::uint64_t value = out_of_range(slab.kind, slab.elem_bytes, n);
      const std::vector<std::uint8_t> mutated =
          reseal(bytes, index, [&](std::uint8_t* payload, std::size_t) {
            std::uint8_t* cell = payload + slab.offset + at * slab.elem_bytes;
            if (pad) {
              cell[0] ^= 1;
            } else {
              std::memcpy(cell, &value, slab.elem_bytes);
            }
          });
      ASSERT_NO_THROW(snapshot_directory(mutated)) << "reseal is faithful";
      const std::string path = write_temp(mutated, "cr_arena_slab.snap");
      EXPECT_THROW(ServerEpoch::load(path, /*use_mmap=*/true, 1),
                   SnapshotError);
      EXPECT_THROW(restore_serving_snapshot(mutated.data(), mutated.size()),
                   SnapshotError);
      std::remove(path.c_str());
      ++exercised;
    }
  }
  // Every section contributes: node tables, rings, region rows, bank rows.
  EXPECT_GE(exercised, 40u);
}

TEST(ArenaSnapshot, ResealedRandomFlipsThrowOrServe) {
  Executor::global().set_workers(1);
  const std::vector<std::uint8_t>& bytes = snapshot_bytes();
  const std::vector<SnapshotSection> sections = snapshot_directory(bytes);
  std::size_t rejected = 0;
  std::size_t served = 0;
  for (std::size_t p = 0; p < kNumArenaParts; ++p) {
    const std::size_t index = kFirstArenaSection + p;
    Prng prng = Prng::split(0xa7e4a, p);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t size = static_cast<std::size_t>(sections[index].size);
      const std::size_t at = static_cast<std::size_t>(prng.next_below(size));
      const auto bit = static_cast<std::uint8_t>(1u << prng.next_below(8));
      const std::vector<std::uint8_t> mutated =
          reseal(bytes, index, [&](std::uint8_t* payload, std::size_t) {
            payload[at] ^= bit;
          });
      const std::string path = write_temp(mutated, "cr_arena_flip.snap");
      try {
        const auto epoch = ServerEpoch::load(path, /*use_mmap=*/true, 1);
        // It loaded, so the self-audit batch served; serving it again must
        // repeat the load-time digest.
        EXPECT_TRUE(epoch->audit());
        ++served;
      } catch (const SnapshotError&) {
        ++rejected;
      }
      std::remove(path.c_str());
    }
  }
  EXPECT_EQ(rejected + served, kNumArenaParts * 40);
  EXPECT_GT(rejected, 0u);
}

TEST(ArenaSnapshot, AuditorCatchesAnInRangeArenaEdit) {
  Executor::global().set_workers(1);
  const std::vector<std::uint8_t>& bytes = snapshot_bytes();
  EXPECT_TRUE(audit::audit_snapshot_arena(bytes).ok());

  // Names are free values: an edited one passes every bounds check, and
  // the epoch even serves — only the comparison with a fresh compile of the
  // compact sections can tell.
  const SnapshotSection nodes = snapshot_directory(bytes)[kFirstArenaSection];
  const auto layout = arena_section_layout(
      ArenaPart::kNodes, bytes.data() + nodes.offset,
      static_cast<std::size_t>(nodes.size));
  ASSERT_EQ(layout[1].name, "name_of");
  const std::vector<std::uint8_t> mutated =
      reseal(bytes, kFirstArenaSection, [&](std::uint8_t* payload, std::size_t) {
        payload[layout[1].offset] ^= 0x10;
      });
  const std::string path = write_temp(mutated, "cr_arena_audit.snap");
  EXPECT_NO_THROW(ServerEpoch::load(path, /*use_mmap=*/true, 1));
  std::remove(path.c_str());
  const audit::Report report = audit::audit_snapshot_arena(mutated);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("arena-nodes"), std::string::npos)
      << report.summary();
}

TEST(ArenaSnapshot, LoadMatchesAdoptedStackOnEveryScheme) {
  Executor::global().set_workers(1);
  const std::vector<std::uint8_t>& bytes = snapshot_bytes();
  const std::string path = write_temp(bytes, "cr_arena_match.snap");
  for (const bool use_mmap : {true, false}) {
    const auto loaded = ServerEpoch::load(path, use_mmap, 1);
    const auto adopted = ServerEpoch::adopt(decode_snapshot(bytes), 2);
    EXPECT_EQ(loaded->load_info().used_mmap, use_mmap);
    EXPECT_EQ(loaded->load_info().file_bytes, bytes.size());
    EXPECT_EQ(loaded->n(), adopted->n());
    EXPECT_EQ(loaded->epsilon(), kEps);
    EXPECT_EQ(loaded->self_fingerprint(), adopted->self_fingerprint());
    for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
      EXPECT_TRUE(loaded->has(static_cast<ServeScheme>(s)));
    }
  }
  std::remove(path.c_str());
}

// A light-profile snapshot (no scale-free schemes) carries zero-length
// arena-sf / arena-sfni sections and serves the schemes it has.
TEST(ArenaSnapshot, LightSnapshotLoadsWithEmptyArenaSections) {
  Executor::global().set_workers(1);
  const Graph graph = make_grid(8, 8);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::random(metric.n(), 4242);
  const HierarchicalLabeledScheme hier(metric, hierarchy, kEps);
  const std::size_t n = metric.n();
  const std::string path = ::testing::TempDir() + "cr_arena_light.snap";
  {
    SnapshotStreamWriter writer(path);
    writer.add_meta(metric, kEps);
    writer.add_graph(metric);
    writer.add_hierarchy(hierarchy, n);
    writer.add_naming(naming, n);
    writer.add_hier(&hier, n);
    writer.add_scale_free(nullptr, n);
    writer.begin_simple(kEps, hierarchy.top_level() + 1);
    SimpleNameIndependentScheme::build_levels(
        metric, hierarchy, naming, hier, kEps,
        [&](int, std::vector<std::unique_ptr<SearchTree>> trees) {
          writer.add_simple_level(trees);
        });
    writer.end_simple();
    writer.add_sfni(nullptr, n);
    writer.finish();
  }
  const std::vector<SnapshotSection> sections =
      snapshot_directory(read_snapshot_file(path));
  EXPECT_EQ(sections[kFirstArenaSection + 2].size, 0u);  // arena-sf
  EXPECT_EQ(sections[kFirstArenaSection + 4].size, 0u);  // arena-sfni
  EXPECT_GT(sections[kFirstArenaSection + 3].size, 0u);  // arena-simple

  const auto epoch = ServerEpoch::load(path, /*use_mmap=*/true, 1);
  EXPECT_TRUE(epoch->has(ServeScheme::kHierarchical));
  EXPECT_TRUE(epoch->has(ServeScheme::kSimpleNi));
  EXPECT_FALSE(epoch->has(ServeScheme::kScaleFree));
  EXPECT_FALSE(epoch->has(ServeScheme::kScaleFreeNi));
  EXPECT_TRUE(epoch->audit());
  ServerRequest request;
  request.src = 0;
  request.dest = 63;
  request.scheme = ServeScheme::kSimpleNi;
  std::size_t hops = 0;
  (void)epoch->serve(request, 0, &hops);
  EXPECT_GT(hops, 0u);
  EXPECT_TRUE(audit::audit_snapshot_arena(read_snapshot_file(path)).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace compactroute
