#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/snapshot_audit.hpp"
#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/serve.hpp"

namespace compactroute {
namespace {

constexpr double kEps = 0.5;

MetricOptions options_for(MetricBackendKind backend) {
  MetricOptions options;
  options.backend = backend;
  return options;
}

/// The same construction recipe crtool's Stack uses (labeled schemes clamp
/// ε to 0.5; the NI schemes take it raw).
struct FreshStack {
  FreshStack(Graph g, double eps, MetricBackendKind backend)
      : graph(std::move(g)),
        metric(graph, options_for(backend)),
        hierarchy(metric),
        naming(Naming::random(metric.n(), 4242)),
        hier(metric, hierarchy, std::min(eps, 0.5)),
        sf(metric, hierarchy, std::min(eps, 0.5)),
        simple(metric, hierarchy, naming, hier, eps),
        sfni(metric, hierarchy, naming, sf, eps),
        epsilon(eps) {}

  std::vector<std::uint8_t> encode() const {
    return encode_snapshot(metric, epsilon, hierarchy, naming, hier, sf, simple,
                           sfni);
  }

  Graph graph;
  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  HierarchicalLabeledScheme hier;
  ScaleFreeLabeledScheme sf;
  SimpleNameIndependentScheme simple;
  ScaleFreeNameIndependentScheme sfni;
  double epsilon;
};

/// Save → load → serve fingerprints equal to the fresh build, for all four
/// schemes, plus the full corruption battery — one (backend, workers) cell of
/// the acceptance matrix.
void run_roundtrip(MetricBackendKind backend, std::size_t workers) {
  Executor::global().set_workers(workers);
  const FreshStack stack(make_grid(8, 8), kEps, backend);
  const audit::Report report = audit::audit_snapshot_roundtrip(
      stack.metric, stack.hierarchy, stack.naming, stack.hier, stack.sf,
      stack.simple, stack.sfni, kEps, audit::Options{});
  EXPECT_GT(report.checks, 40u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SnapshotRoundTrip, DenseOneWorker) {
  run_roundtrip(MetricBackendKind::kDense, 1);
}
TEST(SnapshotRoundTrip, DenseFourWorkers) {
  run_roundtrip(MetricBackendKind::kDense, 4);
}
TEST(SnapshotRoundTrip, RowFreeOneWorker) {
  run_roundtrip(MetricBackendKind::kRowFree, 1);
}
TEST(SnapshotRoundTrip, RowFreeFourWorkers) {
  run_roundtrip(MetricBackendKind::kRowFree, 4);
}

/// The payload of section `index` (directory order).
std::vector<std::uint8_t> section_payload(const std::vector<std::uint8_t>& bytes,
                                          std::size_t index) {
  const SnapshotSection s = snapshot_directory(bytes).at(index);
  const auto first = bytes.begin() + static_cast<long>(s.offset);
  return {first, first + static_cast<long>(s.size)};
}

TEST(SnapshotRoundTrip, EncodeIsWorkerCountAndBackendInvariant) {
  Executor::global().set_workers(1);
  const std::vector<std::uint8_t> serial =
      FreshStack(make_grid(7, 9), kEps, MetricBackendKind::kDense).encode();
  Executor::global().set_workers(4);
  const std::vector<std::uint8_t> parallel =
      FreshStack(make_grid(7, 9), kEps, MetricBackendKind::kDense).encode();
  const std::vector<std::uint8_t> rowfree =
      FreshStack(make_grid(7, 9), kEps, MetricBackendKind::kRowFree).encode();
  // The arena sections (8..12) first, so a divergence names the section.
  for (std::size_t i = 8; i < 13; ++i) {
    const std::vector<std::uint8_t> want = section_payload(serial, i);
    EXPECT_FALSE(want.empty()) << "arena section " << i;
    EXPECT_EQ(want, section_payload(parallel, i)) << "arena section " << i;
    EXPECT_EQ(want, section_payload(rowfree, i)) << "arena section " << i;
  }
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, rowfree);
}

TEST(SnapshotRoundTrip, DirectoryListsAllThirteenSections) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  const std::vector<std::uint8_t> bytes = stack.encode();
  const auto sections = snapshot_directory(bytes);
  ASSERT_EQ(sections.size(), 13u);
  const char* names[] = {"meta",         "graph",
                         "hierarchy",    "naming",
                         "labeled-hierarchical", "labeled-scale-free",
                         "ni-simple",    "ni-scale-free",
                         "arena-nodes",  "arena-hier",
                         "arena-sf",     "arena-simple",
                         "arena-sfni"};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].id, i + 1);
    EXPECT_EQ(sections[i].name, names[i]);
    EXPECT_GT(sections[i].size, 0u);
  }
  // Payloads tile the file exactly.
  EXPECT_EQ(sections.back().offset + sections.back().size, bytes.size());
}

TEST(SnapshotRoundTrip, MetaSurvives) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  const SnapshotStack loaded = decode_snapshot(stack.encode());
  EXPECT_EQ(loaded.n, stack.metric.n());
  EXPECT_EQ(loaded.epsilon, kEps);
  EXPECT_EQ(loaded.num_levels, stack.metric.num_levels());
  EXPECT_EQ(loaded.graph.num_edges(), stack.graph.num_edges());
  for (NodeId v = 0; v < loaded.n; ++v) {
    EXPECT_EQ(loaded.naming->name_of(v), stack.naming.name_of(v));
    EXPECT_EQ(loaded.hierarchy->leaf_label(v), stack.hierarchy.leaf_label(v));
  }
}

TEST(SnapshotRoundTrip, FileRoundTrip) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  const std::vector<std::uint8_t> bytes = stack.encode();
  const std::string path = ::testing::TempDir() + "cr_test_snapshot.snap";
  write_snapshot_file(path, bytes);
  EXPECT_EQ(read_snapshot_file(path), bytes);
  const SnapshotStack loaded = decode_snapshot(read_snapshot_file(path));
  EXPECT_EQ(loaded.n, stack.metric.n());
  std::remove(path.c_str());
  EXPECT_THROW(read_snapshot_file(path), SnapshotError);
}

// Golden snapshot bytes: file size, directory CRC and every section CRC of
// fixed small stacks. The eight compact-section CRCs are unchanged since
// format v1 (encoder, decoder and CRC changes must leave those payloads
// byte-identical); format v2 appended the five arena sections, which moved
// the file size and the directory CRC and added the pinned arena CRCs. The
// section CRCs are recomputed from the payloads too, which pins
// snapshot_crc32 on real data.
struct GoldenSnapshot {
  const char* name;
  std::size_t bytes;
  std::uint32_t directory_crc;
  std::uint32_t section_crc[8];
  std::uint32_t arena_crc[5];
};

void expect_golden(const FreshStack& stack, const GoldenSnapshot& golden) {
  SCOPED_TRACE(golden.name);
  const std::vector<std::uint8_t> bytes = stack.encode();
  EXPECT_EQ(bytes.size(), golden.bytes);
  ASSERT_GE(bytes.size(), 20u);
  std::uint32_t directory_crc = 0;
  for (int b = 0; b < 4; ++b) {
    directory_crc |= std::uint32_t{bytes[16 + b]} << (8 * b);
  }
  EXPECT_EQ(directory_crc, golden.directory_crc)
      << std::hex << "directory crc 0x" << directory_crc;
  const auto sections = snapshot_directory(bytes);
  ASSERT_EQ(sections.size(), 13u);
  EXPECT_EQ(snapshot_crc32(bytes.data() + 20, sections.size() * 24),
            golden.directory_crc);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const std::uint32_t want =
        i < 8 ? golden.section_crc[i] : golden.arena_crc[i - 8];
    EXPECT_EQ(sections[i].crc, want)
        << std::hex << sections[i].name << " crc 0x" << sections[i].crc;
    EXPECT_EQ(snapshot_crc32(bytes.data() + sections[i].offset,
                             static_cast<std::size_t>(sections[i].size)),
              want);
  }
  EXPECT_NO_THROW(decode_snapshot(bytes));
  EXPECT_NO_THROW(restore_serving_snapshot(bytes.data(), bytes.size()));
}

TEST(SnapshotGolden, Grid8x8Eps050) {
  expect_golden(FreshStack(make_grid(8, 8), 0.5, MetricBackendKind::kDense),
                {"grid-8x8 eps 0.5",
                 460089,
                 0xd51452bau,
                 {0xc949517cu, 0xd54a6104u, 0xc4b84570u, 0xfe4dab99u,
                  0x6cc3ed9au, 0x9a3ed669u, 0x5ab4b5ecu, 0x2a842f71u},
                 {0x5af4f702u, 0x0276a532u, 0x071fecaau, 0x759d062au,
                  0xfaeae7f3u}});
}

TEST(SnapshotGolden, Grid8x8Eps025) {
  expect_golden(FreshStack(make_grid(8, 8), 0.25, MetricBackendKind::kDense),
                {"grid-8x8 eps 0.25",
                 817612,
                 0x357c470fu,
                 {0xfc8f1c62u, 0xd54a6104u, 0xc4b84570u, 0xfe4dab99u,
                  0x18390fbfu, 0x8521c13au, 0xa294a390u, 0xd02b018du},
                 {0x5af4f702u, 0xce72cc0cu, 0xa3b06c18u, 0x9567b372u,
                  0x9a23bab3u}});
}

TEST(SnapshotGolden, PowerLaw128Eps050) {
  expect_golden(
      FreshStack(make_power_law(128, 2, 7), 0.5, MetricBackendKind::kDense),
      {"powerlaw-128 eps 0.5",
       990982,
       0xd9bccc21u,
       {0x8629e03bu, 0xd7091eb5u, 0xc8a0dcd5u, 0x581e7106u, 0x9d2b1c45u,
        0x60299ef8u, 0x3afe5d57u, 0xbf8e547fu},
       {0x57012d79u, 0xd4c521e3u, 0x07920c4fu, 0x4c6689e3u,
        0x217f466cu}});
}

// snapshot_crc32 is IEEE 802.3 CRC-32 (reflected 0xEDB88320, init and final
// xor 0xFFFFFFFF). The bytewise table loop below is the reference definition
// the word-at-a-time implementation must reproduce for every length and
// every start alignment.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0);
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SnapshotCrc, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(snapshot_crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(snapshot_crc32(nullptr, 0), 0u);
}

// Lengths up to 1100 cross the 64-byte fold block and the 16-byte tail of
// the PCLMULQDQ kernel many times over; offsets 0..15 cover every 16-byte
// misalignment. The dispatched entry point and both kernels are checked.
TEST(SnapshotCrc, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Prng prng(1234);
  std::vector<std::uint8_t> buffer(1100 + 16);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(prng.next_u64());
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 1100; ++length) {
      const std::uint8_t* start = buffer.data() + offset;
      const std::uint32_t want = reference_crc32(start, length);
      ASSERT_EQ(snapshot_crc32(start, length), want)
          << "dispatched, offset " << offset << " length " << length;
      ASSERT_EQ(snapshot_crc32_slicing_by_8(start, length), want)
          << "slicing-by-8, offset " << offset << " length " << length;
      ASSERT_EQ(snapshot_crc32_clmul(start, length), want)
          << "pclmulqdq, offset " << offset << " length " << length;
    }
  }
}

TEST(SnapshotCrc, ExtendContinuesARunningCrc) {
  Prng prng(99);
  std::vector<std::uint8_t> buffer(3000);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(prng.next_u64());
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{64},
                                  std::size_t{1234}, std::size_t{3000}}) {
    const std::uint32_t head = snapshot_crc32(buffer.data(), split);
    EXPECT_EQ(snapshot_crc32_extend(head, buffer.data() + split,
                                    buffer.size() - split),
              snapshot_crc32(buffer.data(), buffer.size()))
        << "split " << split;
  }
  EXPECT_EQ(snapshot_crc32_extend(0, nullptr, 0), 0u);
}

// Loader fuzz: every truncation at a section boundary and every per-section
// byte flip must surface as SnapshotError — exercised directly here (the
// audit battery repeats this inside run_roundtrip, but this spells out the
// exact mutation set the ASan/UBSan CI job runs).
TEST(SnapshotFuzz, TruncationAtEveryBoundaryIsRejected) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  const std::vector<std::uint8_t> bytes = stack.encode();
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 12, 19, 20,
                                   bytes.size() - 1};
  for (const SnapshotSection& s : snapshot_directory(bytes)) {
    cuts.push_back(static_cast<std::size_t>(s.offset));
    cuts.push_back(static_cast<std::size_t>(s.offset + s.size) - 1);
  }
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    const std::vector<std::uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_snapshot(truncated), SnapshotError)
        << "truncation to " << cut << " bytes was accepted";
  }
}

TEST(SnapshotFuzz, ByteFlipInEverySectionIsRejected) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  const std::vector<std::uint8_t> bytes = stack.encode();
  std::vector<std::size_t> positions = {0, 9, 13, 17, 21};  // header + dir
  for (const SnapshotSection& s : snapshot_directory(bytes)) {
    positions.push_back(static_cast<std::size_t>(s.offset));
    positions.push_back(static_cast<std::size_t>(s.offset + s.size / 2));
    positions.push_back(static_cast<std::size_t>(s.offset + s.size) - 1);
  }
  for (std::size_t pos : positions) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[pos] ^= mask;
      EXPECT_THROW(decode_snapshot(mutated), SnapshotError)
          << "flip of byte " << pos << " (mask " << int{mask}
          << ") was accepted";
    }
  }
}

/// Re-lays `bytes` with the given (id, payload) directory entries: offsets,
/// section CRCs and the directory CRC all recomputed, so only the id list
/// itself is wrong.
std::vector<std::uint8_t> relay(
    const std::vector<std::uint8_t>& bytes,
    const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>&
        entries) {
  const auto put32 = [](std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int b = 0; b < 4; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  };
  const auto put64 = [](std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  };
  std::vector<std::uint8_t> directory;
  std::uint64_t offset = 20 + 24 * entries.size();
  for (const auto& [id, payload] : entries) {
    put32(directory, id);
    put64(directory, offset);
    put64(directory, payload.size());
    put32(directory, snapshot_crc32(payload.data(), payload.size()));
    offset += payload.size();
  }
  std::vector<std::uint8_t> out(bytes.begin(), bytes.begin() + 12);  // magic+version
  put32(out, static_cast<std::uint32_t>(entries.size()));
  put32(out, snapshot_crc32(directory.data(), directory.size()));
  out.insert(out.end(), directory.begin(), directory.end());
  for (const auto& entry : entries) {
    out.insert(out.end(), entry.second.begin(), entry.second.end());
  }
  return out;
}

void expect_directory_rejected(const std::vector<std::uint8_t>& bytes,
                               const std::string& why, const char* what) {
  SCOPED_TRACE(what);
  try {
    (void)snapshot_directory(bytes);
    ADD_FAILURE() << "directory accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
  EXPECT_THROW(decode_snapshot(bytes), SnapshotError);
  EXPECT_THROW(restore_serving_snapshot(bytes.data(), bytes.size()),
               SnapshotError);
}

// The directory must hold exactly the canonical section ids in canonical
// order; each file below is CRC-valid throughout, so only the id check can
// reject it.
TEST(SnapshotFuzz, NonCanonicalSectionIdsAreRejected) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  const std::vector<std::uint8_t> bytes = stack.encode();
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> honest;
  for (std::size_t i = 0; i < 13; ++i) {
    honest.emplace_back(static_cast<std::uint32_t>(i + 1),
                        section_payload(bytes, i));
  }
  ASSERT_EQ(relay(bytes, honest), bytes);  // the helper itself is faithful

  auto unknown = honest;
  unknown.emplace_back(99, std::vector<std::uint8_t>{1, 2, 3});
  expect_directory_rejected(relay(bytes, unknown), "unknown section id 99",
                            "extra id-99 section");

  auto duplicate = honest;
  duplicate.insert(duplicate.begin() + 4, honest[3]);  // a second naming
  expect_directory_rejected(relay(bytes, duplicate), "duplicate section naming",
                            "second naming entry");

  auto missing = honest;
  missing.erase(missing.begin() + 10);  // no arena-sf
  expect_directory_rejected(relay(bytes, missing), "missing section arena-sf",
                            "arena-sf dropped");

  auto reordered = honest;
  std::swap(reordered[4], reordered[5]);  // hier <-> scale-free
  expect_directory_rejected(relay(bytes, reordered), "out of order",
                            "hier and scale-free swapped");
}

// A format-v1 file (no arena sections) has no load path: it is rejected
// with a typed error naming the version.
TEST(SnapshotFuzz, FormatV1IsRejectedByVersion) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  std::vector<std::uint8_t> bytes = stack.encode();
  ASSERT_EQ(bytes[8], 2);  // the version field (outside every CRC)
  bytes[8] = 1;
  try {
    (void)snapshot_directory(bytes);
    ADD_FAILURE() << "v1 file accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(decode_snapshot(bytes), SnapshotError);
  EXPECT_THROW(restore_serving_snapshot(bytes.data(), bytes.size()),
               SnapshotError);
}

TEST(SnapshotFuzz, EmptyAndGarbageInputsAreRejected) {
  EXPECT_THROW(decode_snapshot({}), SnapshotError);
  EXPECT_THROW(snapshot_directory({}), SnapshotError);
  std::vector<std::uint8_t> garbage(4096, 0x5a);
  EXPECT_THROW(decode_snapshot(garbage), SnapshotError);
  // Right magic, nonsense afterwards.
  const char* magic = "CRSNAP01";
  std::copy(magic, magic + 8, garbage.begin());
  EXPECT_THROW(decode_snapshot(garbage), SnapshotError);
}

TEST(SnapshotServe, LoadedStackServesWithoutMetric) {
  const FreshStack stack(make_grid(8, 8), kEps, MetricBackendKind::kDense);
  const SnapshotStack loaded = decode_snapshot(stack.encode());
  // The loaded schemes carry no metric backend at all; routing runs purely
  // on restored tables.
  const HierarchicalHopScheme hop(*loaded.hier);
  const auto requests = make_requests(loaded.n, 256, 3, [&](NodeId v) {
    return std::uint64_t{loaded.hierarchy->leaf_label(v)};
  });
  const ServeStats stats = serve_batch(loaded.csr, hop, requests);
  EXPECT_EQ(stats.requests, 256u);
  EXPECT_EQ(stats.delivered, 256u);
  EXPECT_GT(stats.total_hops, 0u);
  EXPECT_NE(stats.fingerprint, 0u);

  // The batch fingerprint is worker-count independent.
  Executor::global().set_workers(1);
  const std::uint64_t serial = serve_batch(loaded.csr, hop, requests).fingerprint;
  Executor::global().set_workers(4);
  const std::uint64_t parallel =
      serve_batch(loaded.csr, hop, requests).fingerprint;
  EXPECT_EQ(stats.fingerprint, serial);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace compactroute
