// Internet-like workload suite (ISSUE 10): the row-free doubling estimate,
// the adversarial traffic shapes, and worst-pair mining.
//
// The contracts under test:
//   * estimate_doubling_dimension is golden-equivalent between the dense
//     path and the BallOracle (rowfree) path — identical dimension and
//     worst cover for an identically seeded Prng — and the rowfree path
//     never materializes a metric row (the metric.rows.materialized
//     tripwire stays 0);
//   * make_traffic streams are pure functions of (n, count, seed, mix,
//     options), honour src != dest and the scheme mix, and each shape has
//     its defining property (Zipf concentrates, incast has one destination,
//     worst-pairs cycles the mined list verbatim);
//   * audit::mine_worst_pairs is deterministic, descending in stretch, and
//     bounded by `keep`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "audit/campaign.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/doubling.hpp"
#include "graph/metric.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "runtime/traffic.hpp"

namespace compactroute {
namespace {

MetricOptions rowfree_options() {
  MetricOptions options;
  options.backend = MetricBackendKind::kRowFree;
  return options;
}

// ---- Row-free doubling estimation (satellite a) ----------------------------

TEST(InternetDoubling, RowFreeMatchesDenseAcrossFamilies) {
  struct Family {
    const char* name;
    Graph graph;
  };
  std::vector<Family> families;
  families.push_back({"geometric", make_random_geometric(72, 2, 4, 5)});
  families.push_back({"powerlaw", make_power_law(72, 2, 5)});
  families.push_back({"hyperbolic", make_hyperbolic_disk(72, 0.75, 6.0, 5)});
  families.push_back({"astopo", make_as_topology(72, 10, 5)});
  families.push_back({"clusters", make_cluster_hierarchy(2, 6, 6, 5)});

  for (const Family& family : families) {
    SCOPED_TRACE(family.name);
    const MetricSpace dense(family.graph);
    const MetricSpace rowfree(family.graph, rowfree_options());
    for (const std::size_t centers : {std::size_t{4}, std::size_t{9}}) {
      Prng dense_prng(21), rowfree_prng(21);
      const DoublingEstimate d =
          estimate_doubling_dimension(dense, centers, dense_prng);
      const DoublingEstimate r =
          estimate_doubling_dimension(rowfree, centers, rowfree_prng);
      EXPECT_DOUBLE_EQ(r.dimension, d.dimension);
      EXPECT_EQ(r.worst_cover_size, d.worst_cover_size);
    }
  }
}

#ifndef CR_OBS_DISABLED
TEST(InternetDoubling, RowFreeEstimationMaterializesNoRows) {
  const Graph graph = make_power_law(96, 2, 9);
  const MetricSpace metric(graph, rowfree_options());
  obs::reset_global();
  Prng prng(3);
  const DoublingEstimate estimate =
      estimate_doubling_dimension(metric, 12, prng);
  EXPECT_GT(estimate.worst_cover_size, 0u);
  const auto scraped = obs::scrape_global();
  const auto it = scraped->counters().find("metric.rows.materialized");
  const std::uint64_t rows =
      it == scraped->counters().end() ? 0 : it->second.value();
  EXPECT_EQ(rows, 0u);
}
#endif

// ---- Traffic shapes (tentpole 3) -------------------------------------------

const std::vector<ServeScheme> kMix = {
    ServeScheme::kHierarchical, ServeScheme::kScaleFree, ServeScheme::kSimpleNi,
    ServeScheme::kScaleFreeNi};

TEST(Traffic, StreamsAreDeterministic) {
  for (const TrafficShape shape :
       {TrafficShape::kUniform, TrafficShape::kZipf, TrafficShape::kIncast}) {
    SCOPED_TRACE(traffic_shape_name(shape));
    TrafficOptions options;
    options.shape = shape;
    const auto a = make_traffic(64, 500, 77, kMix, options);
    const auto b = make_traffic(64, 500, 77, kMix, options);
    ASSERT_EQ(a.size(), 500u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].src, b[i].src);
      EXPECT_EQ(a[i].dest, b[i].dest);
      EXPECT_EQ(a[i].scheme, b[i].scheme);
    }
    // A different seed must not reproduce the same stream.
    const auto c = make_traffic(64, 500, 78, kMix, options);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      any_diff |= a[i].src != c[i].src || a[i].dest != c[i].dest;
    }
    EXPECT_TRUE(any_diff);
  }
}

TEST(Traffic, EveryShapeHonoursSrcNeDestAndMix) {
  for (const TrafficShape shape :
       {TrafficShape::kUniform, TrafficShape::kZipf, TrafficShape::kIncast}) {
    SCOPED_TRACE(traffic_shape_name(shape));
    TrafficOptions options;
    options.shape = shape;
    const auto stream = make_traffic(48, 400, 5, kMix, options);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_NE(stream[i].src, stream[i].dest);
      ASSERT_LT(stream[i].src, 48u);
      ASSERT_LT(stream[i].dest, 48u);
      EXPECT_EQ(stream[i].scheme, kMix[i % kMix.size()]);
    }
  }
}

TEST(Traffic, ZipfConcentratesOnHotDestinations) {
  TrafficOptions uniform;
  TrafficOptions zipf;
  zipf.shape = TrafficShape::kZipf;
  zipf.zipf_skew = 1.5;
  const std::size_t n = 64, count = 4000;
  const auto flat = make_traffic(n, count, 9, kMix, uniform);
  const auto skewed = make_traffic(n, count, 9, kMix, zipf);
  const auto top_share = [&](const std::vector<ServerRequest>& stream) {
    std::map<NodeId, std::size_t> hits;
    for (const ServerRequest& r : stream) ++hits[r.dest];
    std::size_t top = 0;
    for (const auto& [dest, c] : hits) top = std::max(top, c);
    return static_cast<double>(top) / static_cast<double>(stream.size());
  };
  // Under skew 1.5 the hottest destination takes a large constant share;
  // uniform traffic spreads ~1/n per destination.
  EXPECT_GT(top_share(skewed), 4.0 * top_share(flat));
}

TEST(Traffic, IncastTargetsOneDestination) {
  TrafficOptions options;
  options.shape = TrafficShape::kIncast;
  const auto stream = make_traffic(50, 300, 123, kMix, options);
  ASSERT_FALSE(stream.empty());
  const NodeId hotspot = stream.front().dest;
  for (const ServerRequest& r : stream) {
    EXPECT_EQ(r.dest, hotspot);
    EXPECT_NE(r.src, hotspot);
  }
  // The hotspot is seeded, not hardcoded.
  const auto other = make_traffic(50, 300, 124, kMix, options);
  EXPECT_TRUE(other.front().dest != hotspot || other[1].src != stream[1].src);
}

TEST(Traffic, WorstPairsCyclesMinedListVerbatim) {
  TrafficOptions options;
  options.shape = TrafficShape::kWorstPairs;
  options.pairs = {{3, 7, ServeScheme::kScaleFreeNi},
                   {1, 2, ServeScheme::kHierarchical},
                   {9, 4, ServeScheme::kSimpleNi}};
  const auto stream = make_traffic(16, 8, 1, kMix, options);
  ASSERT_EQ(stream.size(), 8u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ServerRequest& want = options.pairs[i % options.pairs.size()];
    EXPECT_EQ(stream[i].src, want.src);
    EXPECT_EQ(stream[i].dest, want.dest);
    // Mined pairs keep the scheme they were mined against, ignoring the mix.
    EXPECT_EQ(stream[i].scheme, want.scheme);
  }
}

// ---- Worst-pair mining (tentpole 3) ----------------------------------------

TEST(MineWorstPairs, DeterministicSortedAndBounded) {
  const Graph graph = make_power_law(64, 2, 11);
  audit::MineOptions options;
  options.samples = 120;
  options.keep = 10;
  options.seed = 11;
  const auto a = audit::mine_worst_pairs(graph, options);
  const auto b = audit::mine_worst_pairs(graph, options);
  ASSERT_FALSE(a.empty());
  ASSERT_LE(a.size(), options.keep);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request.src, b[i].request.src);
    EXPECT_EQ(a[i].request.dest, b[i].request.dest);
    EXPECT_EQ(a[i].request.scheme, b[i].request.scheme);
    EXPECT_DOUBLE_EQ(a[i].stretch, b[i].stretch);
    EXPECT_GE(a[i].stretch, 1.0 - 1e-9);
    EXPECT_NE(a[i].request.src, a[i].request.dest);
    if (i > 0) {
      EXPECT_GE(a[i - 1].stretch, a[i].stretch);
    }
  }
  // Mining must surface genuinely bad pairs on a power-law instance: the
  // name-independent bound is 9 + eps, and hub detours get close to it.
  EXPECT_GT(a.front().stretch, 2.0);
}

TEST(MineWorstPairs, BackendDoesNotChangeTheVerdict) {
  const Graph graph = make_as_topology(56, 8, 4);
  audit::MineOptions dense;
  dense.samples = 80;
  dense.keep = 6;
  dense.seed = 4;
  audit::MineOptions rowfree = dense;
  rowfree.backend = MetricBackendKind::kRowFree;
  const auto a = audit::mine_worst_pairs(graph, dense);
  const auto b = audit::mine_worst_pairs(graph, rowfree);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request.src, b[i].request.src);
    EXPECT_EQ(a[i].request.dest, b[i].request.dest);
    EXPECT_EQ(a[i].request.scheme, b[i].request.scheme);
    EXPECT_NEAR(a[i].stretch, b[i].stretch, 1e-9);
  }
}

}  // namespace
}  // namespace compactroute
