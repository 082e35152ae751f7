// Row-free build equivalence suite: the construction pipeline must produce
// byte-identical snapshots whether the metric materializes every row up
// front (dense) or never holds a row at all (rowfree) — for any worker
// count. The snapshot bytes are the
// strongest fingerprint available: they cover every table of all four
// schemes plus the hierarchy and naming, encoded canonically, so a single
// diverged bit anywhere in the build shows up as a byte mismatch.
//
// The second half proves the streaming writer is an identity transform:
// SnapshotStreamWriter (whole-scheme or per-level ni-simple streaming)
// emits the same file write_snapshot_file(encode_snapshot(...)) does, and
// subset snapshots (null scale-free sections) round-trip as absent schemes
// while dependency-violating subsets are rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "audit/snapshot_audit.hpp"
#include "core/parallel.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "routing/naming.hpp"

namespace compactroute {
namespace {

struct WorkerGuard {
  ~WorkerGuard() {
    Executor::global().set_workers(0);
    unsetenv("CR_THREADS");
  }
};

constexpr double kEps = 0.5;

/// One fully built stack plus its canonical snapshot encoding.
struct BuiltStack {
  Graph graph;
  std::unique_ptr<MetricSpace> metric;
  std::unique_ptr<NetHierarchy> hierarchy;
  std::unique_ptr<Naming> naming;
  std::unique_ptr<HierarchicalLabeledScheme> hier;
  std::unique_ptr<ScaleFreeLabeledScheme> sf;
  std::unique_ptr<SimpleNameIndependentScheme> simple;
  std::unique_ptr<ScaleFreeNameIndependentScheme> sfni;

  std::vector<std::uint8_t> encode() const {
    return encode_snapshot(*metric, kEps, *hierarchy, *naming, *hier, *sf,
                           *simple, *sfni);
  }
};

BuiltStack build_stack(const MetricOptions& options) {
  BuiltStack s;
  // This exact instance (n = 256, seed 7) once exposed a 1-ulp delta
  // divergence between the full-APSP maximum and the iFUB diameter —
  // irrational edge weights where Dijkstra path sums from opposite endpoints
  // associate differently. Smaller instances missed it; keep this one.
  s.graph = make_random_geometric(256, 2, 5, 7);
  s.metric = std::make_unique<MetricSpace>(s.graph, options);
  s.hierarchy = std::make_unique<NetHierarchy>(*s.metric);
  s.naming = std::make_unique<Naming>(Naming::random(s.metric->n(), 4242));
  s.hier = std::make_unique<HierarchicalLabeledScheme>(*s.metric, *s.hierarchy,
                                                       kEps);
  s.sf = std::make_unique<ScaleFreeLabeledScheme>(*s.metric, *s.hierarchy,
                                                  kEps);
  s.simple = std::make_unique<SimpleNameIndependentScheme>(
      *s.metric, *s.hierarchy, *s.naming, *s.hier, kEps);
  s.sfni = std::make_unique<ScaleFreeNameIndependentScheme>(
      *s.metric, *s.hierarchy, *s.naming, *s.sf, kEps);
  return s;
}

std::vector<std::uint8_t> snapshot_bytes(std::size_t workers,
                                         const MetricOptions& options) {
  Executor::global().set_workers(workers);
  return build_stack(options).encode();
}

// ---------------------------------------------------------------------------
// Golden equivalence: snapshot bytes across backends × worker counts.
// ---------------------------------------------------------------------------

TEST(RowFreeBuild, SnapshotBytesIdenticalAcrossBackendsAndWorkers) {
  WorkerGuard guard;
  const std::vector<std::uint8_t> reference =
      snapshot_bytes(1, MetricOptions{});
  ASSERT_FALSE(reference.empty());
  const MetricOptions backends[] = {
      MetricOptions{},
      {.backend = MetricBackendKind::kRowFree},
  };
  const auto sections = snapshot_directory(reference);
  for (const MetricOptions& options : backends) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const std::vector<std::uint8_t> bytes = snapshot_bytes(workers, options);
      ASSERT_EQ(bytes.size(), reference.size());
      // The persisted arena sections, one by one, then the whole file.
      for (const SnapshotSection& s : sections) {
        if (s.name.rfind("arena-", 0) != 0) continue;
        const auto at = static_cast<long>(s.offset);
        EXPECT_TRUE(std::equal(reference.begin() + at,
                               reference.begin() + at + static_cast<long>(s.size),
                               bytes.begin() + at))
            << s.name << " diverged: backend=" << backend_name(options.backend)
            << " workers=" << workers;
      }
      EXPECT_TRUE(reference == bytes)
          << "snapshot diverged: backend=" << backend_name(options.backend)
          << " workers=" << workers;
    }
  }
}

#ifndef CR_OBS_DISABLED
// The regression tripwire for the whole refactor: a row-free build must
// never fall back to the legacy row() escape hatch.
TEST(RowFreeBuild, BuildMaterializesNoRows) {
  WorkerGuard guard;
  Executor::global().set_workers(4);
  obs::reset_global();
  const BuiltStack stack =
      build_stack({.backend = MetricBackendKind::kRowFree});
  (void)stack.encode();
  const auto scraped = obs::scrape_global();
  const auto it = scraped->counters().find("metric.rows.materialized");
  const std::uint64_t rows =
      it == scraped->counters().end() ? 0 : it->second.value();
  EXPECT_EQ(rows, 0u) << "row-free build materialized a full metric row";
  const auto issued = scraped->counters().find("balls.issued");
  ASSERT_NE(issued, scraped->counters().end());
  EXPECT_GT(issued->second.value(), 0u);
}
#endif  // CR_OBS_DISABLED

// ---------------------------------------------------------------------------
// Streaming writer: byte identity with the in-memory encoder.
// ---------------------------------------------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(RowFreeBuild, StreamWriterMatchesEncodeSnapshot) {
  WorkerGuard guard;
  Executor::global().set_workers(2);
  const BuiltStack s = build_stack(MetricOptions{});
  const std::vector<std::uint8_t> reference = s.encode();
  const std::size_t n = s.metric->n();

  const std::string path = temp_path("cr_rowfree_stream.snap");
  SnapshotStreamWriter writer(path);
  writer.add_meta(*s.metric, kEps);
  writer.add_graph(*s.metric);
  writer.add_hierarchy(*s.hierarchy, n);
  writer.add_naming(*s.naming, n);
  writer.add_hier(s.hier.get(), n);
  writer.add_scale_free(s.sf.get(), n);
  writer.add_simple(s.simple.get());
  writer.add_sfni(s.sfni.get(), n);
  const std::uint64_t total = writer.finish();

  const std::vector<std::uint8_t> streamed = read_snapshot_file(path);
  EXPECT_EQ(total, streamed.size());
  EXPECT_TRUE(reference == streamed)
      << "streamed snapshot diverged from encode_snapshot";
}

TEST(RowFreeBuild, PerLevelSimpleStreamingMatchesEncodeSnapshot) {
  WorkerGuard guard;
  Executor::global().set_workers(2);
  const BuiltStack s = build_stack(MetricOptions{});
  const std::vector<std::uint8_t> reference = s.encode();
  const std::size_t n = s.metric->n();

  const std::string path = temp_path("cr_rowfree_stream_levels.snap");
  SnapshotStreamWriter writer(path);
  writer.add_meta(*s.metric, kEps);
  writer.add_graph(*s.metric);
  writer.add_hierarchy(*s.hierarchy, n);
  writer.add_naming(*s.naming, n);
  writer.add_hier(s.hier.get(), n);
  writer.add_scale_free(s.sf.get(), n);
  // Rebuild the ni-simple tables level by level, dropping each level after
  // it is encoded — the `crtool build --out` path.
  writer.begin_simple(kEps, s.hierarchy->top_level() + 1);
  SimpleNameIndependentScheme::build_levels(
      *s.metric, *s.hierarchy, *s.naming, *s.hier, kEps,
      [&](int, std::vector<std::unique_ptr<SearchTree>> trees) {
        writer.add_simple_level(trees);
      });
  writer.end_simple();
  writer.add_sfni(s.sfni.get(), n);
  writer.finish();

  const std::vector<std::uint8_t> streamed = read_snapshot_file(path);
  EXPECT_TRUE(reference == streamed)
      << "per-level streamed ni-simple diverged from encode_snapshot";
}

// ---------------------------------------------------------------------------
// Subset snapshots: null schemes round-trip as absent; dependency-violating
// subsets are rejected at decode time.
// ---------------------------------------------------------------------------

TEST(RowFreeBuild, SubsetSnapshotRoundTripsAbsentSchemes) {
  WorkerGuard guard;
  Executor::global().set_workers(2);
  const BuiltStack s = build_stack(MetricOptions{});
  const std::size_t n = s.metric->n();

  const std::string path = temp_path("cr_rowfree_subset.snap");
  SnapshotStreamWriter writer(path);
  writer.add_meta(*s.metric, kEps);
  writer.add_graph(*s.metric);
  writer.add_hierarchy(*s.hierarchy, n);
  writer.add_naming(*s.naming, n);
  writer.add_hier(s.hier.get(), n);
  writer.add_scale_free(nullptr, n);  // light profile: no scale-free schemes
  writer.add_simple(s.simple.get());
  writer.add_sfni(nullptr, n);
  writer.finish();

  const std::vector<std::uint8_t> bytes = read_snapshot_file(path);
  const SnapshotStack loaded = decode_snapshot(bytes);
  EXPECT_EQ(loaded.n, n);
  EXPECT_NE(loaded.hier, nullptr);
  EXPECT_NE(loaded.simple, nullptr);
  EXPECT_EQ(loaded.sf, nullptr);
  EXPECT_EQ(loaded.sfni, nullptr);

  // The directory still lists all 13 sections; the absent schemes' compact
  // sections and their arena sections are empty.
  std::vector<std::string> empty;
  for (const SnapshotSection& sec : snapshot_directory(bytes)) {
    if (sec.size == 0) empty.push_back(sec.name);
  }
  EXPECT_EQ(empty, (std::vector<std::string>{"labeled-scale-free",
                                             "ni-scale-free", "arena-sf",
                                             "arena-sfni"}));

  // The serving restore loads the subset too, with the absent schemes off.
  const ServingSnapshot serving =
      restore_serving_snapshot(bytes.data(), bytes.size());
  EXPECT_TRUE(serving.arena->hier_present);
  EXPECT_TRUE(serving.arena->simple_present);
  EXPECT_FALSE(serving.arena->sf_present);
  EXPECT_FALSE(serving.arena->sfni_present);

  // The corruption battery must cope with zero-size sections — the trailing
  // absent one has offset == file size, which once sent a byte flip one
  // past the buffer.
  const audit::Report report =
      audit::audit_snapshot_corruption(bytes, audit::Options{});
  EXPECT_GT(report.checks, 0u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(RowFreeBuild, SubsetSnapshotRejectsMissingDependencies) {
  WorkerGuard guard;
  Executor::global().set_workers(2);
  const BuiltStack s = build_stack(MetricOptions{});
  const std::size_t n = s.metric->n();

  // ni-simple without labeled-hierarchical is unserveable.
  {
    const std::string path = temp_path("cr_rowfree_bad_simple.snap");
    SnapshotStreamWriter writer(path);
    writer.add_meta(*s.metric, kEps);
    writer.add_graph(*s.metric);
    writer.add_hierarchy(*s.hierarchy, n);
    writer.add_naming(*s.naming, n);
    writer.add_hier(nullptr, n);
    writer.add_scale_free(s.sf.get(), n);
    writer.add_simple(s.simple.get());
    writer.add_sfni(s.sfni.get(), n);
    writer.finish();
    EXPECT_THROW(decode_snapshot(read_snapshot_file(path)), SnapshotError);
  }

  // ni-scale-free without labeled-scale-free is unserveable.
  {
    const std::string path = temp_path("cr_rowfree_bad_sfni.snap");
    SnapshotStreamWriter writer(path);
    writer.add_meta(*s.metric, kEps);
    writer.add_graph(*s.metric);
    writer.add_hierarchy(*s.hierarchy, n);
    writer.add_naming(*s.naming, n);
    writer.add_hier(s.hier.get(), n);
    writer.add_scale_free(nullptr, n);
    writer.add_simple(s.simple.get());
    writer.add_sfni(s.sfni.get(), n);
    writer.finish();
    EXPECT_THROW(decode_snapshot(read_snapshot_file(path)), SnapshotError);
  }
}

// A half-written stream (no finish()) must not decode: the placeholder
// header has no magic, so a crashed build can never be mistaken for a
// valid snapshot.
TEST(RowFreeBuild, UnfinishedStreamIsNotLoadable) {
  WorkerGuard guard;
  Executor::global().set_workers(2);
  const BuiltStack s = build_stack(MetricOptions{});
  const std::string path = temp_path("cr_rowfree_unfinished.snap");
  {
    SnapshotStreamWriter writer(path);
    writer.add_meta(*s.metric, kEps);
    writer.add_graph(*s.metric);
    // Destroyed without finish(): the zeroed placeholder header stays.
  }
  const std::vector<std::uint8_t> bytes = read_snapshot_file(path);
  EXPECT_THROW((void)decode_snapshot(bytes), SnapshotError);
}

}  // namespace
}  // namespace compactroute
