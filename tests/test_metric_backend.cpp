// Metric mode equivalence suite: the row-free metric (every query a bounded
// Dijkstra through BallOracle) must be bit-identical to the dense matrices —
// distances, orders, balls, next hops, paths, and whole four-scheme stack
// fingerprints — for any worker count. Dense is the small-n golden; this is
// the determinism contract of DESIGN.md §6 made executable, one query at a
// time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "routing/naming.hpp"
#include "routing/simulator.hpp"

namespace compactroute {
namespace {

struct WorkerGuard {
  ~WorkerGuard() {
    Executor::global().set_workers(0);
    unsetenv("CR_THREADS");
  }
};

const MetricOptions kRowFree{.backend = MetricBackendKind::kRowFree};

std::vector<std::pair<std::string, Graph>> equivalence_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("geometric-120", make_random_geometric(120, 2, 4, 77));
  graphs.emplace_back("grid-11x11", make_grid(11, 11));
  graphs.emplace_back("cliques-8x6", make_ring_of_cliques(8, 6, 9));
  graphs.emplace_back("spider-9x7", make_exponential_spider(9, 7));
  return graphs;
}

void expect_metrics_identical(const MetricSpace& dense,
                              const MetricSpace& rowfree) {
  ASSERT_EQ(dense.n(), rowfree.n());
  const std::size_t n = dense.n();
  EXPECT_EQ(dense.normalization_scale(), rowfree.normalization_scale());
  EXPECT_EQ(dense.delta(), rowfree.delta());
  EXPECT_EQ(dense.num_levels(), rowfree.num_levels());

  for (NodeId u = 0; u < n; ++u) {
    const auto dense_order = dense.sorted_by_distance(u);
    const auto rowfree_order = rowfree.sorted_by_distance(u);
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(dense.dist(u, v), rowfree.dist(u, v)) << "u=" << u << " v=" << v;
      ASSERT_EQ(dense.next_hop(u, v), rowfree.next_hop(u, v))
          << "u=" << u << " v=" << v;
      ASSERT_EQ(dense_order[v], rowfree_order[v]) << "u=" << u << " k=" << v;
    }
  }

  Prng prng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(n));
    const Weight r = prng.next_double(0, dense.delta());
    ASSERT_EQ(dense.ball(u, r), rowfree.ball(u, r)) << "u=" << u << " r=" << r;
    ASSERT_EQ(dense.ball_size(u, r), rowfree.ball_size(u, r));
    const std::size_t m = 1 + prng.next_below(n + 20);  // incl. the m > n clamp
    ASSERT_EQ(dense.radius_of_count(u, m), rowfree.radius_of_count(u, m))
        << "u=" << u << " m=" << m;
  }
}

TEST(MetricBackend, RowFreeMatchesDenseOnAllQueries) {
  for (const auto& [name, graph] : equivalence_graphs()) {
    SCOPED_TRACE(name);
    const MetricSpace dense(graph);
    const MetricSpace rowfree(graph, kRowFree);
    EXPECT_STREQ(dense.backend_name(), "dense");
    EXPECT_STREQ(rowfree.backend_name(), "rowfree");
    EXPECT_EQ(rowfree.memory_bytes(), 0u);
    expect_metrics_identical(dense, rowfree);
  }
}

TEST(MetricBackend, BoundedBallQueriesMatchFullRows) {
  // Row-free ball/ball_size/radius_of_count run bounded Dijkstras; the dense
  // answers come from full sorted rows.
  const Graph graph = make_random_geometric(150, 2, 4, 12);
  const MetricSpace dense(graph);
  const MetricSpace rowfree(graph, kRowFree);
  Prng prng(5);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(dense.n()));
    const Weight r = prng.next_double(0, dense.delta() * 1.1);
    ASSERT_EQ(dense.ball(u, r), rowfree.ball(u, r)) << "u=" << u << " r=" << r;
    ASSERT_EQ(dense.ball_size(u, r), rowfree.ball_size(u, r));
    const std::size_t m = 1 + prng.next_below(dense.n() + 20);  // incl. clamp
    ASSERT_EQ(dense.radius_of_count(u, m), rowfree.radius_of_count(u, m));
  }
}

TEST(MetricBackend, ShortestPathAndNearestInMatch) {
  const Graph graph = make_grid_with_holes(12, 12, 6, 4, 3);
  const MetricSpace dense(graph);
  const MetricSpace rowfree(graph, kRowFree);
  Prng prng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(dense.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(dense.n()));
    EXPECT_EQ(dense.shortest_path(u, v), rowfree.shortest_path(u, v));
  }
  std::vector<NodeId> candidates;
  for (NodeId c = 0; c < dense.n(); c += 5) candidates.push_back(c);
  for (NodeId u = 0; u < dense.n(); ++u) {
    EXPECT_EQ(dense.nearest_in(u, candidates), rowfree.nearest_in(u, candidates));
  }
}

TEST(MetricBackend, OrderViewSurvivesEviction) {
  // A row-free OrderView owns the only reference to its transient row: every
  // later query reuses the thread's Dijkstra workspace and materializes rows
  // of its own, and the pinned view must stay valid and bit-stable.
  const Graph graph = make_random_geometric(100, 2, 4, 3);
  const MetricSpace dense(graph);
  const MetricSpace rowfree(graph, kRowFree);
  const OrderView pinned = rowfree.sorted_by_distance(0);
  const std::vector<NodeId> snapshot(pinned.begin(), pinned.end());
  for (NodeId u = 0; u < rowfree.n(); ++u) {
    (void)rowfree.row(u);
    (void)rowfree.ball(u, 2.0);
  }
  const OrderView golden = dense.sorted_by_distance(0);
  ASSERT_EQ(snapshot.size(), golden.size());
  for (std::size_t k = 0; k < snapshot.size(); ++k) {
    ASSERT_EQ(pinned[k], snapshot[k]);
    ASSERT_EQ(pinned[k], golden[k]);
  }
}

#ifndef CR_OBS_DISABLED
/// Process total of one counter across every registry shard — workers bump
/// their own shards, so only a scrape sees the whole number.
std::uint64_t scraped_counter(const char* name) {
  const auto scraped = obs::scrape_global();
  const auto it = scraped->counters().find(name);
  return it == scraped->counters().end() ? 0 : it->second.value();
}

TEST(MetricBackend, BoundedQueriesSettleOnlyTheBall) {
  const Graph graph = make_grid(16, 16);  // n = 256
  const MetricSpace rowfree(graph, kRowFree);
  obs::reset_global();  // drop construction telemetry; meter one query
  const NodeId root = 0;
  const std::size_t small = rowfree.ball_size(root, 2.0);
  ASSERT_LT(small, rowfree.n() / 4);
  const std::uint64_t settled = scraped_counter("dijkstra.settled");
  EXPECT_LE(settled, small + 1)
      << "bounded ball_size must not settle nodes outside the ball";
  // Row-free facade queries are oracle queries and count as such.
  EXPECT_EQ(scraped_counter("balls.issued"), 1u);
  EXPECT_EQ(scraped_counter("balls.settled"), small);
  EXPECT_EQ(scraped_counter("metric.rows.materialized"), 0u);
}
#endif  // CR_OBS_DISABLED

// ---------------------------------------------------------------------------
// Stack fingerprints: the full four-scheme pipeline over a row-free metric
// must reproduce the dense pipeline bit for bit, for 1 and 4 workers.
// ---------------------------------------------------------------------------

void push(std::vector<std::uint64_t>& fp, std::uint64_t v) { fp.push_back(v); }

void push_double(std::vector<std::uint64_t>& fp, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  fp.push_back(bits);
}

std::vector<std::uint64_t> stack_fingerprint(std::size_t workers,
                                             const MetricOptions& options) {
  Executor::global().set_workers(workers);
  const double eps = 0.5;
  const Graph graph = make_random_geometric(110, 2, 4, 42);
  const MetricSpace metric(graph, options);
  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::random(metric.n(), 4242);
  const HierarchicalLabeledScheme hier(metric, hierarchy, eps);
  const ScaleFreeLabeledScheme sf(metric, hierarchy, eps);
  const SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier, eps);
  const ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf, eps);
  const std::size_t n = metric.n();

  std::vector<std::uint64_t> fp;
  push_double(fp, metric.normalization_scale());
  push_double(fp, metric.delta());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) push_double(fp, metric.dist(u, v));
  }
  for (int i = 0; i <= hierarchy.top_level(); ++i) {
    for (const NodeId x : hierarchy.net(i)) push(fp, x);
    for (NodeId u = 0; u < n; ++u) push(fp, hierarchy.zoom(i, u));
  }
  for (NodeId u = 0; u < n; ++u) push(fp, hierarchy.leaf_label(u));

  for (NodeId u = 0; u < n; ++u) {
    push(fp, hier.storage_bits(u));
    push(fp, sf.storage_bits(u));
    push(fp, simple.storage_bits(u));
    push(fp, sfni.storage_bits(u));
  }

  const auto push_route = [&](const RouteResult& r) {
    push(fp, r.delivered ? 1 : 0);
    for (const NodeId v : r.path) push(fp, v);
    push_double(fp, r.cost);
  };
  Prng pair_prng(99);
  for (int k = 0; k < 15; ++k) {
    const NodeId src = static_cast<NodeId>(pair_prng.next_below(n));
    NodeId dst = static_cast<NodeId>(pair_prng.next_below(n - 1));
    if (dst >= src) ++dst;
    push_route(hier.route(src, hier.label(dst)));
    push_route(sf.route(src, sf.label(dst)));
    push_route(simple.route(src, naming.name_of(dst)));
    push_route(sfni.route(src, naming.name_of(dst)));
  }
  return fp;
}

TEST(MetricBackend, FourSchemeStackFingerprintMatchesDense) {
  WorkerGuard guard;
  const std::vector<std::uint64_t> reference =
      stack_fingerprint(1, MetricOptions{});
  ASSERT_FALSE(reference.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<std::uint64_t> fp = stack_fingerprint(workers, kRowFree);
    ASSERT_EQ(reference.size(), fp.size()) << "workers=" << workers;
    EXPECT_TRUE(reference == fp)
        << "row-free stack diverged from dense at workers=" << workers;
  }
  // The dense stack itself must also be worker-count invariant (regression
  // guard for the chunked min/max normalization reduction).
  const std::vector<std::uint64_t> dense4 = stack_fingerprint(4, MetricOptions{});
  EXPECT_TRUE(reference == dense4);
}

}  // namespace
}  // namespace compactroute
