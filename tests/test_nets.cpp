#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nets/ball_packing.hpp"
#include "nets/rnet.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "test_util.hpp"

namespace compactroute {
namespace {

using testing::small_graph_zoo;

// An r-net must be r-covering and r-separated (Definition 2.1).
void expect_valid_rnet(const MetricSpace& metric, const std::vector<NodeId>& candidates,
                       const std::vector<NodeId>& net, Weight r) {
  for (std::size_t a = 0; a < net.size(); ++a) {
    for (std::size_t b = a + 1; b < net.size(); ++b) {
      EXPECT_GE(metric.dist(net[a], net[b]), r) << "net points too close";
    }
  }
  for (NodeId u : candidates) {
    Weight best = kInfiniteWeight;
    for (NodeId y : net) best = std::min(best, metric.dist(u, y));
    EXPECT_LE(best, r) << "candidate " << u << " not covered";
  }
}

TEST(RNet, GreedyNetIsValidAcrossZoo) {
  for (const auto& [name, graph] : small_graph_zoo()) {
    SCOPED_TRACE(name);
    const MetricSpace metric(graph);
    std::vector<NodeId> all(metric.n());
    for (NodeId u = 0; u < metric.n(); ++u) all[u] = u;
    for (int level = 0; level <= metric.num_levels(); level += 2) {
      const Weight r = level_radius(level);
      const auto net = build_rnet(metric, all, r);
      expect_valid_rnet(metric, all, net, r);
    }
  }
}

TEST(RNet, SeedIsPreserved) {
  const MetricSpace metric(make_path(32));
  std::vector<NodeId> all(metric.n());
  for (NodeId u = 0; u < metric.n(); ++u) all[u] = u;
  const std::vector<NodeId> seed = {0, 16};
  const auto net = build_rnet(metric, all, 4.0, seed);
  EXPECT_TRUE(std::find(net.begin(), net.end(), 0u) != net.end());
  EXPECT_TRUE(std::find(net.begin(), net.end(), 16u) != net.end());
  expect_valid_rnet(metric, all, net, 4.0);
}

class HierarchyTest : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyTest, NetsAreNestedAndValid) {
  const auto zoo = small_graph_zoo();
  const auto& [name, graph] = zoo[GetParam()];
  SCOPED_TRACE(name);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);

  EXPECT_EQ(hierarchy.net(0).size(), metric.n()) << "Y_0 = V";
  EXPECT_EQ(hierarchy.net(hierarchy.top_level()).size(), 1u);

  std::vector<NodeId> all(metric.n());
  for (NodeId u = 0; u < metric.n(); ++u) all[u] = u;
  for (int i = 0; i <= hierarchy.top_level(); ++i) {
    expect_valid_rnet(metric, all, hierarchy.net(i), level_radius(i));
    if (i > 0) {
      // Eqn (1): Y_i ⊆ Y_{i-1}.
      const std::set<NodeId> lower(hierarchy.net(i - 1).begin(),
                                   hierarchy.net(i - 1).end());
      for (NodeId x : hierarchy.net(i)) {
        EXPECT_TRUE(lower.count(x));
      }
    }
  }
}

TEST_P(HierarchyTest, ZoomingSequenceStepBound) {
  const auto zoo = small_graph_zoo();
  const auto& [name, graph] = zoo[GetParam()];
  SCOPED_TRACE(name);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);

  for (NodeId u = 0; u < metric.n(); ++u) {
    EXPECT_EQ(hierarchy.zoom(0, u), u);
    Weight walked = 0;
    for (int i = 1; i <= hierarchy.top_level(); ++i) {
      const NodeId prev = hierarchy.zoom(i - 1, u);
      const NodeId cur = hierarchy.zoom(i, u);
      EXPECT_TRUE(hierarchy.in_net(i, cur));
      // Each zoom step is a nearest-net-point hop: d <= 2^i by covering.
      EXPECT_LE(metric.dist(prev, cur), level_radius(i) + 1e-9);
      walked += metric.dist(prev, cur);
      // Eqn (2): cumulative zoom cost < 2^{i+1}.
      EXPECT_LT(walked, level_radius(i + 1));
    }
    EXPECT_EQ(hierarchy.zoom(hierarchy.top_level(), u),
              hierarchy.net(hierarchy.top_level()).front());
  }
}

TEST_P(HierarchyTest, LeafLabelsArePermutationAndRangesMatchZoom) {
  const auto zoo = small_graph_zoo();
  const auto& [name, graph] = zoo[GetParam()];
  SCOPED_TRACE(name);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);

  std::set<NodeId> labels;
  for (NodeId v = 0; v < metric.n(); ++v) {
    const NodeId l = hierarchy.leaf_label(v);
    EXPECT_LT(l, metric.n());
    labels.insert(l);
    EXPECT_EQ(hierarchy.node_of_label(l), v);
  }
  EXPECT_EQ(labels.size(), metric.n());

  // The paper's key property: l(u) ∈ Range(x, i)  ⟺  x = u(i).
  for (NodeId u = 0; u < metric.n(); ++u) {
    for (int i = 0; i <= hierarchy.top_level(); ++i) {
      for (NodeId x : hierarchy.net(i)) {
        const bool in_range = hierarchy.range(i, x).contains(hierarchy.leaf_label(u));
        EXPECT_EQ(in_range, x == hierarchy.zoom(i, u))
            << "u=" << u << " i=" << i << " x=" << x;
      }
    }
  }
}

TEST_P(HierarchyTest, NettingParentIsNearest) {
  const auto zoo = small_graph_zoo();
  const auto& [name, graph] = zoo[GetParam()];
  SCOPED_TRACE(name);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);
  for (int i = 0; i < hierarchy.top_level(); ++i) {
    for (NodeId x : hierarchy.net(i)) {
      const NodeId parent = hierarchy.netting_parent(i, x);
      EXPECT_TRUE(hierarchy.in_net(i + 1, parent));
      for (NodeId y : hierarchy.net(i + 1)) {
        EXPECT_GE(metric.dist(x, y) + 1e-12, metric.dist(x, parent));
      }
      // A net point of Y_{i+1} is its own parent at level i.
      if (hierarchy.in_net(i + 1, x)) {
        EXPECT_EQ(parent, x);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, HierarchyTest, ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return testing::small_graph_zoo()[info.param].name;
                         });

TEST(RNet, Lemma22NetPointCountInBall) {
  // |B_u(r') ∩ Y| <= (4 r'/r)^α for an r-net Y. We check the multiplicative
  // flavor: counts stay bounded by (4 r'/r)^α with the greedy-estimated α.
  const Graph g = make_grid(12, 12);
  const MetricSpace metric(g);
  const NetHierarchy hierarchy(metric);
  const double alpha = 3.2;  // generous dimension for an L1 grid
  for (int i = 1; i <= hierarchy.top_level(); ++i) {
    for (NodeId u = 0; u < metric.n(); u += 17) {
      for (int k = 0; k <= 2; ++k) {
        const Weight rp = level_radius(i + k);
        std::size_t count = 0;
        for (NodeId x : hierarchy.net(i)) {
          if (metric.dist(u, x) <= rp) ++count;
        }
        EXPECT_LE(count, std::pow(4 * rp / level_radius(i), alpha) + 1);
      }
    }
  }
}

// The literal Packing Lemma greedy: every candidate in (r_u(j), u) order
// materializes its whole ball, and is kept iff no member is claimed yet.
// The golden reference for BallPacking's early-exit greedy.
std::vector<PackedBall> reference_packing(const MetricSpace& metric, int j) {
  std::vector<std::pair<Weight, NodeId>> order;
  for (NodeId u = 0; u < metric.n(); ++u) {
    order.emplace_back(size_radius(metric, u, j), u);
  }
  std::sort(order.begin(), order.end());
  std::vector<char> claimed(metric.n(), 0);
  std::vector<PackedBall> balls;
  for (const auto& [radius, center] : order) {
    const std::vector<NodeId> members = metric.ball(center, radius);
    bool disjoint = true;
    for (NodeId v : members) disjoint = disjoint && !claimed[v];
    if (!disjoint) continue;
    for (NodeId v : members) claimed[v] = 1;
    balls.push_back({center, radius, members});
  }
  return balls;
}

MetricOptions backend_options(MetricBackendKind backend) {
  MetricOptions options;
  options.backend = backend;
  return options;
}

// Parameter k < zoo size is zoo graph k on a dense metric; k + zoo size is
// the same graph row-free (the ZooRowFree instantiation below).
constexpr int kZooSize = 12;

class PackingTest : public ::testing::TestWithParam<int> {};

TEST_P(PackingTest, PackingLemmaProperties) {
  const auto zoo = small_graph_zoo();
  ASSERT_EQ(zoo.size(), static_cast<std::size_t>(kZooSize));
  const auto& [name, graph] = zoo[GetParam() % kZooSize];
  SCOPED_TRACE(name);
  const MetricBackendKind backend = GetParam() < kZooSize
                                        ? MetricBackendKind::kDense
                                        : MetricBackendKind::kRowFree;
  const MetricSpace metric(graph, backend_options(backend));
  for (int j = 0; j <= max_size_exponent(metric.n()); ++j) {
    const BallPacking& packing = metric.scale_free_substrate().packing(j);
    // Property 1: every ball holds at least 2^j nodes (ties can add more).
    for (const PackedBall& ball : packing.balls()) {
      EXPECT_GE(ball.nodes.size(), std::size_t{1} << j);
      EXPECT_DOUBLE_EQ(ball.radius, size_radius(metric, ball.center, j));
    }
    // Disjointness.
    std::set<NodeId> seen;
    for (const PackedBall& ball : packing.balls()) {
      for (NodeId v : ball.nodes) {
        EXPECT_TRUE(seen.insert(v).second) << "balls intersect at " << v;
      }
    }
    // ball_containing agrees with membership.
    for (NodeId v = 0; v < metric.n(); ++v) {
      const int b = packing.ball_containing(v);
      if (b >= 0) {
        const auto& nodes = packing.balls()[b].nodes;
        EXPECT_TRUE(std::find(nodes.begin(), nodes.end(), v) != nodes.end());
      } else {
        EXPECT_FALSE(seen.count(v));
      }
    }
    // Property 2: covering ball with r_c(j) <= r_u(j) and d(u,c) <= 2 r_u(j).
    for (NodeId u = 0; u < metric.n(); ++u) {
      const int b = packing.covering_ball(metric, u);
      const PackedBall& ball = packing.balls()[b];
      const Weight ru = size_radius(metric, u, j);
      EXPECT_LE(ball.radius, ru + 1e-9);
      EXPECT_LE(metric.dist(u, ball.center), 2 * ru + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, PackingTest, ::testing::Range(0, kZooSize),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return testing::small_graph_zoo()[info.param].name;
                         });
INSTANTIATE_TEST_SUITE_P(ZooRowFree, PackingTest,
                         ::testing::Range(kZooSize, 2 * kZooSize),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return testing::small_graph_zoo()[info.param % kZooSize]
                               .name;
                         });

// The substrate's size-radius table must match the point query size_radius()
// (and clamp to Δ above the top exponent), and its early-exit greedy (center
// test + stop-at-first-claimed probe) must make exactly the reference
// greedy's decisions, level by level, in both metric modes.
TEST(Packing, EarlyExitGreedyMatchesReferenceGreedy) {
  for (const auto& [name, graph] : small_graph_zoo()) {
    for (const MetricBackendKind backend :
         {MetricBackendKind::kDense, MetricBackendKind::kRowFree}) {
      SCOPED_TRACE(name + "/" + backend_name(backend));
      const MetricSpace metric(graph, backend_options(backend));
      const ScaleFreeSubstrate& substrate = metric.scale_free_substrate();
      const int top = max_size_exponent(metric.n());
      ASSERT_EQ(substrate.radius_table().size(), static_cast<std::size_t>(top + 1));
      EXPECT_EQ(substrate.r(top + 1, metric.n() - 1), metric.delta());
      for (int j = 0; j <= top; ++j) {
        SCOPED_TRACE(j);
        for (NodeId u = 0; u < metric.n(); ++u) {
          ASSERT_EQ(substrate.r(j, u), size_radius(metric, u, j)) << u;
        }
        const std::vector<PackedBall> expected = reference_packing(metric, j);
        const BallPacking& packing = substrate.packing(j);
        ASSERT_EQ(packing.balls().size(), expected.size());
        std::vector<int> containing(metric.n(), -1);
        for (std::size_t b = 0; b < expected.size(); ++b) {
          const PackedBall& got = packing.balls()[b];
          EXPECT_EQ(got.center, expected[b].center);
          EXPECT_EQ(got.radius, expected[b].radius);
          EXPECT_EQ(got.nodes, expected[b].nodes);
          for (NodeId v : expected[b].nodes) {
            containing[v] = static_cast<int>(b);
          }
        }
        for (NodeId v = 0; v < metric.n(); ++v) {
          EXPECT_EQ(packing.ball_containing(v), containing[v]) << v;
        }
      }
    }
  }
}

// Two threads that ask for one metric's substrate at the same moment get the
// same object; the TSan job checks the first build for races.
TEST(Packing, ConcurrentRequestsShareOneSubstrate) {
  const MetricSpace metric(make_grid_with_holes(10, 10, 4, 3, 7),
                           backend_options(MetricBackendKind::kRowFree));
  std::atomic<int> waiting{2};
  const ScaleFreeSubstrate* seen[2] = {};
  const auto request = [&](int k) {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) std::this_thread::yield();
    seen[k] = &metric.scale_free_substrate();
  };
  std::thread first(request, 0), second(request, 1);
  first.join();
  second.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], &metric.scale_free_substrate());
}

#ifndef CR_OBS_DISABLED
/// Process total of one counter across every registry shard.
std::uint64_t scraped_counter(const char* name) {
  const auto scraped = obs::scrape_global();
  const auto it = scraped->counters().find(name);
  return it == scraped->counters().end() ? 0 : it->second.value();
}

// Every candidate ends in exactly one of the greedy's three outcomes, and
// the accepted count is the packings' total size.
TEST(Packing, CountersAccountForEveryCandidate) {
  const MetricSpace metric(make_grid_with_holes(10, 10, 4, 3, 7),
                           backend_options(MetricBackendKind::kRowFree));
  obs::reset_global();
  const ScaleFreeSubstrate& substrate = metric.scale_free_substrate();
  std::size_t packed = 0;
  const int top = substrate.max_exponent();
  for (int j = 0; j <= top; ++j) packed += substrate.packing(j).balls().size();
  const std::uint64_t candidates = scraped_counter("packing.candidates");
  const std::uint64_t center_rejects = scraped_counter("packing.center_rejects");
  const std::uint64_t probe_rejects = scraped_counter("packing.probe_rejects");
  const std::uint64_t accepted = scraped_counter("packing.accepted");
  EXPECT_EQ(candidates, metric.n() * static_cast<std::size_t>(top + 1));
  EXPECT_EQ(candidates, center_rejects + probe_rejects + accepted);
  EXPECT_EQ(accepted, packed);
  // Both guards fire on a non-trivial metric.
  EXPECT_GT(center_rejects, 0u);
  EXPECT_GT(probe_rejects, 0u);
}

// Both scale-free schemes read the metric's one substrate: building the
// labeled scheme and then the name-independent scheme on it runs the packing
// greedy over each level's n candidates once, not once per scheme.
TEST(Packing, ScaleFreeSchemesShareOneSubstrate) {
  for (const MetricBackendKind backend :
       {MetricBackendKind::kDense, MetricBackendKind::kRowFree}) {
    SCOPED_TRACE(backend_name(backend));
    const MetricSpace metric(make_grid_with_holes(10, 10, 4, 3, 7),
                             backend_options(backend));
    const NetHierarchy hierarchy(metric);
    const Naming naming = Naming::random(metric.n(), 11);
    obs::reset_global();
    const ScaleFreeLabeledScheme labeled(metric, hierarchy, 0.5);
    const ScaleFreeNameIndependentScheme scheme(metric, hierarchy, naming,
                                                labeled, 0.5);
    const std::size_t levels = max_size_exponent(metric.n()) + 1;
    EXPECT_EQ(scraped_counter("packing.candidates"), levels * metric.n());
  }
}
#endif  // CR_OBS_DISABLED

TEST(Packing, SizeRadiusMonotone) {
  const MetricSpace metric(make_random_geometric(64, 2, 4, 3));
  for (NodeId u = 0; u < metric.n(); u += 5) {
    Weight prev = -1;
    for (int j = 0; j <= max_size_exponent(metric.n()); ++j) {
      const Weight r = size_radius(metric, u, j);
      EXPECT_GE(r, prev);
      prev = r;
    }
  }
}

TEST(Packing, MaxSizeExponent) {
  EXPECT_EQ(max_size_exponent(1), 0);
  EXPECT_EQ(max_size_exponent(2), 1);
  EXPECT_EQ(max_size_exponent(1023), 9);
  EXPECT_EQ(max_size_exponent(1024), 10);
}

}  // namespace
}  // namespace compactroute
