#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "nets/rnet.hpp"
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
