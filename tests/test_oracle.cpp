#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "nets/rnet.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "oracle/distance_oracle.hpp"

namespace compactroute {
namespace {

// Interval-coverage audit of the distance oracle: on every family and both
// metric backends, every certified interval [lower, upper] must contain the
// true distance, the point estimate must stay inside its own interval, and
// the multiplicative error must respect error_factor(). Pairs are exhaustive
// (n is small), so a single off-by-one ring level cannot hide.

struct OracleCase {
  std::string name;
  Graph graph;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  cases.push_back({"grid", make_grid(8, 8)});
  cases.push_back({"spider", make_exponential_spider(6, 5)});
  cases.push_back({"geometric", make_random_geometric(64, 2, 3, 17)});
  return cases;
}

class OracleTest : public ::testing::TestWithParam<MetricBackendKind> {};

TEST_P(OracleTest, IntervalsCoverTrueDistancesOnAllFamilies) {
  MetricOptions metric_options;
  metric_options.backend = GetParam();
  for (const OracleCase& c : oracle_cases()) {
    const MetricSpace metric(c.graph, metric_options);
    const NetHierarchy hierarchy(metric);
    for (const double eps : {0.25, 0.4}) {
      const DistanceOracle oracle(metric, hierarchy, eps);
      for (NodeId u = 0; u < metric.n(); ++u) {
        const auto row = metric.row(u);
        for (NodeId v = 0; v < metric.n(); ++v) {
          const Weight d = row.dist(v);
          const auto est = oracle.estimate(u, oracle.label(v));
          ASSERT_LE(est.lower, d + 1e-9)
              << c.name << " eps=" << eps << " (" << u << "," << v << ")";
          ASSERT_GE(est.upper, d - 1e-9)
              << c.name << " eps=" << eps << " (" << u << "," << v << ")";
          ASSERT_GE(est.distance, est.lower - 1e-9);
          ASSERT_LE(est.distance, est.upper + 1e-9);
          if (est.level == 0) {
            ASSERT_NEAR(est.distance, d, 1e-9)
                << c.name << ": level-0 answers are exact";
          } else {
            ASSERT_LE(std::abs(est.distance - d),
                      oracle.error_factor() * d + 1e-9)
                << c.name << " eps=" << eps << " (" << u << "," << v << ")";
          }
        }
      }
    }
  }
}

TEST_P(OracleTest, SelfEstimateIsZeroAndStorageIsPositive) {
  MetricOptions metric_options;
  metric_options.backend = GetParam();
  const Graph graph = make_grid(6, 6);
  const MetricSpace metric(graph, metric_options);
  const NetHierarchy hierarchy(metric);
  const DistanceOracle oracle(metric, hierarchy, 0.25);
  for (NodeId u = 0; u < metric.n(); ++u) {
    const auto est = oracle.estimate(u, oracle.label(u));
    EXPECT_NEAR(est.distance, 0, 1e-9);
    EXPECT_GT(oracle.storage_bits(u), 0u);
  }
}

TEST(OracleBackends, DenseAndRowFreeAgreeExactly) {
  const Graph graph = make_random_geometric(48, 2, 3, 5);
  MetricOptions dense_options;
  dense_options.backend = MetricBackendKind::kDense;
  MetricOptions rowfree_options;
  rowfree_options.backend = MetricBackendKind::kRowFree;
  const MetricSpace dense(graph, dense_options);
  const MetricSpace rowfree(graph, rowfree_options);
  const NetHierarchy dense_h(dense);
  const NetHierarchy rowfree_h(rowfree);
  const DistanceOracle a(dense, dense_h, 0.3);
  const DistanceOracle b(rowfree, rowfree_h, 0.3);
  for (NodeId u = 0; u < dense.n(); ++u) {
    for (NodeId v = 0; v < dense.n(); ++v) {
      const auto ea = a.estimate(u, a.label(v));
      const auto eb = b.estimate(u, b.label(v));
      ASSERT_EQ(ea.level, eb.level) << u << "," << v;
      ASSERT_NEAR(ea.distance, eb.distance, 1e-9) << u << "," << v;
    }
  }
}

// BallOracle::ball_meets / DijkstraBounds::stop_marked: the early-exit
// intersection probe must answer exactly "does B(center, r) hold a marked
// node?" — the question a scan of ball() members answers — in both metric
// modes, including at the radius boundary.
bool meets_by_scan(const MetricSpace& metric, NodeId center, Weight radius,
                   const std::vector<char>& marked) {
  for (NodeId v : metric.ball(center, radius)) {
    if (marked[v]) return true;
  }
  return false;
}

TEST(BallMeets, AgreesWithBallScanInBothModes) {
  MetricOptions rowfree_options;
  rowfree_options.backend = MetricBackendKind::kRowFree;
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(c.name);
    const MetricSpace dense(c.graph);
    const MetricSpace rowfree(c.graph, rowfree_options);
    const std::size_t n = dense.n();
    Prng rng(7);
    std::size_t hits = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const NodeId center = static_cast<NodeId>(rng.next_below(n));
      std::vector<char> marked(n, 0);
      const std::size_t marks = rng.next_below(4);
      for (std::size_t k = 0; k < marks; ++k) {
        marked[rng.next_below(n)] = 1;
      }
      const Weight radius = rng.next_double() * dense.delta() * 0.6;
      const bool expected = meets_by_scan(dense, center, radius, marked);
      ASSERT_EQ(meets_by_scan(rowfree, center, radius, marked), expected);
      EXPECT_EQ(dense.ball_meets(center, radius, marked), expected)
          << center << " r=" << radius;
      EXPECT_EQ(rowfree.ball_meets(center, radius, marked), expected)
          << center << " r=" << radius;
      hits += expected;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, 300u);

    // Boundary: a lone marked node at distance exactly r is inside the
    // ball; pulled one ulp beyond the radius it is outside.
    for (NodeId center = 0; center < n; center += 7) {
      const NodeId far = static_cast<NodeId>((center * 13 + 5) % n);
      if (far == center) continue;
      std::vector<char> marked(n, 0);
      marked[far] = 1;
      const Weight d = dense.dist(center, far);
      ASSERT_EQ(rowfree.dist(center, far), d);
      const Weight below = std::nextafter(d, 0.0);
      for (const MetricSpace* metric : {&dense, &rowfree}) {
        EXPECT_TRUE(metric->ball_meets(center, d, marked))
            << metric->backend_name() << " " << center << "->" << far;
        EXPECT_FALSE(metric->ball_meets(center, below, marked))
            << metric->backend_name() << " " << center << "->" << far;
        EXPECT_EQ(meets_by_scan(*metric, center, below, marked), false);
      }
      // The center itself is in every ball.
      std::vector<char> self(n, 0);
      self[center] = 1;
      EXPECT_TRUE(rowfree.ball_meets(center, 0, self));
      EXPECT_TRUE(dense.ball_meets(center, 0, self));
    }
  }
}

#ifndef CR_OBS_DISABLED
// A near hit must stop the probe early: the row-free run settles fewer
// nodes than the ball it was asked about.
TEST(BallMeets, EarlyHitSettlesLessThanTheBall) {
  MetricOptions rowfree_options;
  rowfree_options.backend = MetricBackendKind::kRowFree;
  const MetricSpace metric(make_grid(16, 16), rowfree_options);
  const NodeId center = 0;
  const Weight radius = metric.delta();
  const std::size_t ball = metric.ball_size(center, radius);
  ASSERT_EQ(ball, metric.n());
  std::vector<char> marked(metric.n(), 0);
  marked[metric.ball(center, 1.0).back()] = 1;  // a neighbor of the center
  obs::reset_global();
  EXPECT_TRUE(metric.ball_meets(center, radius, marked));
  const auto scraped = obs::scrape_global();
  const auto settled = scraped->counters().find("balls.settled");
  ASSERT_NE(settled, scraped->counters().end());
  EXPECT_LT(settled->second.value(), ball);
  EXPECT_LE(settled->second.value(), 3u);
}
#endif  // CR_OBS_DISABLED

INSTANTIATE_TEST_SUITE_P(Backends, OracleTest,
                         ::testing::Values(MetricBackendKind::kDense,
                                           MetricBackendKind::kRowFree),
                         [](const auto& info) {
                           return info.param == MetricBackendKind::kDense
                                      ? "Dense"
                                      : "RowFree";
                         });

}  // namespace
}  // namespace compactroute
