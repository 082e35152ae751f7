#include <gtest/gtest.h>

#include <cstdio>
#include <tuple>
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

TEST(SnapshotRoundTrip, EncodeIsWorkerCountAndBackendInvariant) {
  Executor::global().set_workers(1);
  const std::vector<std::uint8_t> serial =
      FreshStack(make_grid(7, 9), kEps, MetricBackendKind::kDense).encode();
  Executor::global().set_workers(4);
  const std::vector<std::uint8_t> parallel =
      FreshStack(make_grid(7, 9), kEps, MetricBackendKind::kDense).encode();
  const std::vector<std::uint8_t> rowfree =
      FreshStack(make_grid(7, 9), kEps, MetricBackendKind::kRowFree).encode();
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, rowfree);
}

TEST(SnapshotRoundTrip, DirectoryListsAllEightSections) {
  const FreshStack stack(make_grid(6, 6), kEps, MetricBackendKind::kDense);
  const std::vector<std::uint8_t> bytes = stack.encode();
  const auto sections = snapshot_directory(bytes);
  ASSERT_EQ(sections.size(), 8u);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].id, i + 1);
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
  const SnapshotStack loaded = load_snapshot_file(path);
  EXPECT_EQ(loaded.n, stack.metric.n());
  std::remove(path.c_str());
  EXPECT_THROW(read_snapshot_file(path), SnapshotError);
}

// Golden snapshot bytes: file size, directory CRC and every section CRC of
// fixed small stacks. Encoder, decoder and CRC changes must leave format v1
// byte-identical, so these values never change; the section CRCs are
// recomputed from the payloads too, which pins snapshot_crc32 on real data.
struct GoldenSnapshot {
  const char* name;
  std::size_t bytes;
  std::uint32_t directory_crc;
  std::uint32_t section_crc[8];
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
  ASSERT_EQ(sections.size(), 8u);
  EXPECT_EQ(snapshot_crc32(bytes.data() + 20, sections.size() * 24),
            golden.directory_crc);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].crc, golden.section_crc[i])
        << std::hex << sections[i].name << " crc 0x" << sections[i].crc;
    EXPECT_EQ(snapshot_crc32(bytes.data() + sections[i].offset,
                             static_cast<std::size_t>(sections[i].size)),
              golden.section_crc[i]);
  }
  EXPECT_NO_THROW(decode_snapshot(bytes));
}

TEST(SnapshotGolden, Grid8x8Eps050) {
  expect_golden(FreshStack(make_grid(8, 8), 0.5, MetricBackendKind::kDense),
                {"grid-8x8 eps 0.5",
                 116577,
                 0xaf0d0593u,
                 {0xc949517cu, 0xd54a6104u, 0xc4b84570u, 0xfe4dab99u,
                  0x6cc3ed9au, 0x9a3ed669u, 0x5ab4b5ecu, 0x2a842f71u}});
}

TEST(SnapshotGolden, Grid8x8Eps025) {
  expect_golden(FreshStack(make_grid(8, 8), 0.25, MetricBackendKind::kDense),
                {"grid-8x8 eps 0.25",
                 206388,
                 0x0ab86f27u,
                 {0xfc8f1c62u, 0xd54a6104u, 0xc4b84570u, 0xfe4dab99u,
                  0x18390fbfu, 0x8521c13au, 0xa294a390u, 0xd02b018du}});
}

TEST(SnapshotGolden, PowerLaw128Eps050) {
  expect_golden(
      FreshStack(make_power_law(128, 2, 7), 0.5, MetricBackendKind::kDense),
      {"powerlaw-128 eps 0.5",
       247568,
       0x6c74540bu,
       {0x8629e03bu, 0xd7091eb5u, 0xc8a0dcd5u, 0x581e7106u, 0x9d2b1c45u,
        0x60299ef8u, 0x3afe5d57u, 0xbf8e547fu}});
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

TEST(SnapshotCrc, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Prng prng(1234);
  std::vector<std::uint8_t> buffer(257 + 8);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(prng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 257; ++length) {
      const std::uint8_t* start = buffer.data() + offset;
      ASSERT_EQ(snapshot_crc32(start, length), reference_crc32(start, length))
          << "offset " << offset << " length " << length;
    }
  }
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
