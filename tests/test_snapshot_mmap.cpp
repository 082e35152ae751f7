// Satellite battery for the mmap zero-copy snapshot path (io/snapshot_mmap):
//
//   * golden equivalence — a snapshot loaded through MappedSnapshot (borrowed-
//     buffer decode, no heap copy of the file) serves byte-identical
//     fingerprints to the same snapshot decoded from a heap vector, for all
//     four schemes at 1 and 4 workers;
//   * corruption battery — every truncation/bit-flip mutant the heap path
//     rejects is also rejected BY THE MMAP PATH with the same typed
//     SnapshotError (audit_snapshot_corruption_mmap);
//   * subset snapshots (zero-length scheme sections) round-trip through the
//     mapping with absent schemes null and present schemes intact;
//   * MappedSnapshot error paths: missing and empty files throw SnapshotError,
//     never crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "audit/snapshot_audit.hpp"
#include "core/parallel.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_mmap.hpp"
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
constexpr std::size_t kFingerprintRequests = 256;
constexpr std::uint64_t kSeed = 99;

/// A scratch file that cleans up after itself even when a test fails.
struct ScratchFile {
  explicit ScratchFile(std::string p) : path(std::move(p)) {}
  ~ScratchFile() { std::remove(path.c_str()); }
  std::string path;
};

/// One fresh 8x8-grid stack, encoded once, shared by every test in this file.
struct Fixture {
  Fixture()
      : graph(make_grid(8, 8)),
        metric(graph),
        hierarchy(metric),
        naming(Naming::random(metric.n(), 4242)),
        hier(metric, hierarchy, kEps),
        sf(metric, hierarchy, kEps),
        simple(metric, hierarchy, naming, hier, kEps),
        sfni(metric, hierarchy, naming, sf, kEps),
        bytes(encode_snapshot(metric, kEps, hierarchy, naming, hier, sf,
                              simple, sfni)) {}

  Graph graph;
  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  HierarchicalLabeledScheme hier;
  ScaleFreeLabeledScheme sf;
  SimpleNameIndependentScheme simple;
  ScaleFreeNameIndependentScheme sfni;
  std::vector<std::uint8_t> bytes;
};

const Fixture& fixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

void expect_equal_fingerprints(const audit::ServeFingerprints& a,
                               const audit::ServeFingerprints& b) {
  EXPECT_EQ(a.hier, b.hier);
  EXPECT_EQ(a.scale_free, b.scale_free);
  EXPECT_EQ(a.simple, b.simple);
  EXPECT_EQ(a.scale_free_ni, b.scale_free_ni);
}

/// mmap decode == vector decode, certified at the serve-fingerprint level:
/// all four schemes route identically whichever way the bytes came in.
void run_golden_equivalence(std::size_t workers) {
  Executor::global().set_workers(workers);
  const Fixture& f = fixture();
  // One file per worker count: the two cases may run as concurrent
  // processes, and rewriting a file another process maps is a SIGBUS.
  ScratchFile snap("test_snapshot_mmap_golden_" + std::to_string(workers) +
                   ".snap");
  write_snapshot_file(snap.path, f.bytes);

  const SnapshotStack from_vector = decode_snapshot(f.bytes);
  const SnapshotStack from_mmap = MappedSnapshot(snap.path).decode();
  ASSERT_EQ(from_mmap.n, from_vector.n);
  ASSERT_EQ(from_mmap.epsilon, from_vector.epsilon);

  const audit::ServeFingerprints vec_fp =
      audit::serve_fingerprints(from_vector, kFingerprintRequests, kSeed);
  const audit::ServeFingerprints map_fp =
      audit::serve_fingerprints(from_mmap, kFingerprintRequests, kSeed);
  expect_equal_fingerprints(vec_fp, map_fp);

  // The serving restore reads the arena sections straight from the mapping.
  const MappedSnapshot mapped(snap.path);
  const ServingSnapshot serving =
      restore_serving_snapshot(mapped.data(), mapped.size());
  expect_equal_fingerprints(
      vec_fp, audit::serve_fingerprints(serving.csr, serving.arena,
                                        kFingerprintRequests, kSeed));

  // And both match the fresh build — mmap did not trade fidelity for speed.
  const audit::ServeFingerprints fresh_fp = audit::serve_fingerprints(
      f.metric.csr(), f.hierarchy, f.naming, f.hier, f.sf, f.simple, f.sfni,
      kFingerprintRequests, kSeed);
  expect_equal_fingerprints(fresh_fp, map_fp);
}

TEST(SnapshotMmap, GoldenEquivalenceOneWorker) { run_golden_equivalence(1); }
TEST(SnapshotMmap, GoldenEquivalenceFourWorkers) { run_golden_equivalence(4); }

TEST(SnapshotMmap, MappedSpanMatchesFileBytes) {
  const Fixture& f = fixture();
  ScratchFile snap("test_snapshot_mmap_span.snap");
  write_snapshot_file(snap.path, f.bytes);

  MappedSnapshot mapped(snap.path);
  ASSERT_EQ(mapped.size(), f.bytes.size());
  EXPECT_EQ(std::vector<std::uint8_t>(mapped.data(),
                                      mapped.data() + mapped.size()),
            f.bytes);
  EXPECT_EQ(snapshot_directory(mapped.data(), mapped.size()).size(),
            snapshot_directory(f.bytes).size());

  // Move transfers the mapping; the moved-from object is empty and its
  // destructor must not double-unmap (ASan would catch it).
  MappedSnapshot moved(std::move(mapped));
  EXPECT_EQ(moved.size(), f.bytes.size());
  EXPECT_EQ(moved.decode().n, f.metric.n());
}

/// The full corruption battery — every mutant written to disk and pushed
/// through MappedSnapshot + borrowed-buffer decode. The zero-copy path must
/// reject everything the heap path rejects, as the same typed error.
TEST(SnapshotMmap, CorruptionBattery) {
  Executor::global().set_workers(1);
  const Fixture& f = fixture();
  const audit::Report report = audit::audit_snapshot_corruption_mmap(
      f.bytes, "test_snapshot_mmap_corrupt.snap", audit::Options{});
  EXPECT_GT(report.checks, 40u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

/// Subset snapshot (zero-length scheme sections) through the mapping: the
/// stream writer emits nullptr schemes as empty payloads; the mmap loader
/// must restore them as absent and keep the present schemes fully serving.
TEST(SnapshotMmap, SubsetSnapshotZeroLengthSections) {
  Executor::global().set_workers(1);
  const Fixture& f = fixture();
  ScratchFile snap("test_snapshot_mmap_subset.snap");
  {
    SnapshotStreamWriter writer(snap.path);
    writer.add_meta(f.metric, kEps);
    writer.add_graph(f.metric);
    writer.add_hierarchy(f.hierarchy, f.metric.n());
    writer.add_naming(f.naming, f.metric.n());
    writer.add_hier(&f.hier, f.metric.n());
    writer.add_scale_free(nullptr, f.metric.n());
    writer.add_simple(&f.simple);
    writer.add_sfni(nullptr, f.metric.n());
    writer.finish();
  }

  const SnapshotStack loaded = MappedSnapshot(snap.path).decode();
  EXPECT_EQ(loaded.n, f.metric.n());
  EXPECT_NE(loaded.hier, nullptr);
  EXPECT_NE(loaded.simple, nullptr);
  EXPECT_EQ(loaded.sf, nullptr);
  EXPECT_EQ(loaded.sfni, nullptr);

  // The subset's present schemes must still match the heap decode of the
  // same file, byte for byte at the route level.
  const SnapshotStack heap = decode_snapshot(read_snapshot_file(snap.path));
  const auto requests = make_requests(
      loaded.n, kFingerprintRequests, kSeed,
      [&](NodeId v) { return std::uint64_t{loaded.hierarchy->leaf_label(v)}; });
  const auto arena_mmap = loaded.build_arena();
  const auto arena_heap = heap.build_arena();
  ServeOptions fp_only;
  fp_only.collect_latencies = false;
  HierarchicalHopScheme hop_mmap(*loaded.hier, arena_mmap);
  HierarchicalHopScheme hop_heap(*heap.hier, arena_heap);
  EXPECT_EQ(serve_batch(loaded.csr, hop_mmap, requests, fp_only).fingerprint,
            serve_batch(heap.csr, hop_heap, requests, fp_only).fingerprint);
}

TEST(SnapshotMmap, MissingFileThrowsSnapshotError) {
  EXPECT_THROW(MappedSnapshot("definitely_not_a_real_file.snap"),
               SnapshotError);
}

TEST(SnapshotMmap, EmptyFileThrowsSnapshotError) {
  ScratchFile snap("test_snapshot_mmap_empty.snap");
  { std::ofstream out(snap.path, std::ios::binary); }
  EXPECT_THROW(MappedSnapshot{snap.path}, SnapshotError);
}

}  // namespace
}  // namespace compactroute
