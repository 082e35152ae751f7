// Tests for the telemetry subsystem: histogram/percentile math, the metrics
// registry, JSON export (round-tripped through a tiny in-test parser),
// stretch-stat taxonomy, and per-hop trace invariants for all four hop-by-hop
// runtime schemes.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "obs/trace.hpp"
#include "routing/naming.hpp"
#include "routing/simulator.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_scheme.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "test_util.hpp"

namespace compactroute {
namespace {

// ---------------------------------------------------------------------------
// Histogram math

TEST(Histogram, BucketsKnownValues) {
  obs::Histogram h(0, 10, 10);  // unit buckets [0,1) .. [9,10)
  h.record(0.5);
  h.record(1.5);
  h.record(1.6);
  h.record(9.99);
  h.record(-3);  // underflow
  h.record(12);  // overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -3);
  EXPECT_DOUBLE_EQ(h.max(), 12);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.5 + 1.6 + 9.99 - 3 + 12);
}

TEST(Histogram, TopEdgeRoundingLandsInLastBucket) {
  obs::Histogram h(0, 1, 3);
  h.record(std::nextafter(1.0, 0.0));  // just below hi
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, PercentilesOfUniformDistribution) {
  // 1000 samples uniform over [0, 100) with unit buckets: every quantile is
  // known to within one bucket width.
  obs::Histogram h(0, 100, 100);
  for (int i = 0; i < 1000; ++i) h.record(0.1 * i + 0.05);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.05);   // exact observed min
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 99.95);  // exact observed max
}

TEST(Histogram, PercentileClampsToObservedRange) {
  obs::Histogram h(0, 100, 10);
  h.record(42);
  h.record(43);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, 42.0) << "q=" << q;
    EXPECT_LE(p, 43.0) << "q=" << q;
  }
}

TEST(Histogram, OverflowPercentileReportsObservedMax) {
  obs::Histogram h(0, 10, 10);
  for (int i = 0; i < 99; ++i) h.record(5);
  h.record(5000);
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 5000);
  EXPECT_NEAR(h.percentile(0.5), 5.5, 1.0);
}

TEST(Histogram, MergeMatchesSingleStream) {
  obs::Histogram a(0, 50, 25), b(0, 50, 25), both(0, 50, 25);
  Prng prng(17);
  for (int i = 0; i < 500; ++i) {
    const double x = static_cast<double>(prng.next_below(60));
    ((i % 2) ? a : b).record(x);
    both.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), both.percentile(q)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, CountersTimersHistogramsByName) {
  obs::Registry registry;
  registry.counter("a").inc();
  registry.counter("a").inc(4);
  registry.counter("b").inc();
  EXPECT_EQ(registry.counter("a").value(), 5u);
  EXPECT_EQ(registry.counter("b").value(), 1u);

  registry.timer("t").add_ms(1.5);
  registry.timer("t").add_ms(2.5);
  EXPECT_DOUBLE_EQ(registry.timer("t").total_ms(), 4.0);
  EXPECT_EQ(registry.timer("t").spans(), 2u);

  registry.histogram("h", 0, 10, 5).record(3);
  EXPECT_EQ(registry.histogram("h").count(), 1u);  // geometry fixed by first call

  registry.reset();
  EXPECT_EQ(registry.counter("a").value(), 0u);
  EXPECT_DOUBLE_EQ(registry.timer("t").total_ms(), 0.0);
  EXPECT_EQ(registry.histogram("h").count(), 0u);
}

#ifndef CR_OBS_DISABLED
TEST(Registry, MacrosFeedLocalShard) {
  // The macros write to the calling thread's shard of the process-wide
  // sharded registry; both the shard and a scrape observe the bumps.
  obs::Registry& shard = obs::local_registry();
  const std::uint64_t before = shard.counter("test.macro").value();
  CR_OBS_COUNT("test.macro");
  CR_OBS_ADD("test.macro", 2);
  CR_OBS_HOT_COUNT("test.macro");
  EXPECT_EQ(shard.counter("test.macro").value(), before + 4);

  const std::uint64_t spans = shard.timer("test.span").spans();
  {
    CR_OBS_SCOPED_TIMER("test.span");
  }
  EXPECT_EQ(shard.timer("test.span").spans(), spans + 1);

  const auto scraped = obs::scrape_global();
  EXPECT_GE(scraped->counters().at("test.macro").value(), before + 4);
}
#endif

// ---------------------------------------------------------------------------
// JSON export: emit, then re-parse with the shared MiniParser (test_util.hpp).

using testing::MiniJson;
using testing::MiniParser;

TEST(JsonExport, RoundTripsNestedDocument) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["name"] = "bench \"quoted\"\nline";
  doc["pi"] = 3.25;
  doc["count"] = std::uint64_t{123456789};
  doc["flag"] = true;
  doc["nothing"] = obs::JsonValue();
  doc["rows"] = obs::JsonValue::array();
  for (int i = 0; i < 3; ++i) {
    obs::JsonValue row = obs::JsonValue::object();
    row["i"] = i;
    row["sq"] = static_cast<double>(i * i);
    doc["rows"].push_back(std::move(row));
  }

  for (const int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    MiniParser parser(text);
    const MiniJson::Ptr parsed = parser.parse();
    ASSERT_TRUE(parsed->is_object()) << text;
    EXPECT_EQ(parsed->at("name").str(), "bench \"quoted\"\nline");
    EXPECT_DOUBLE_EQ(parsed->at("pi").num(), 3.25);
    EXPECT_DOUBLE_EQ(parsed->at("count").num(), 123456789.0);
    EXPECT_EQ(std::get<bool>(parsed->at("flag").v), true);
    EXPECT_EQ(parsed->at("nothing").v.index(), 0u);
    ASSERT_EQ(parsed->at("rows").arr().size(), 3u);
    EXPECT_DOUBLE_EQ(parsed->at("rows").arr()[2]->at("sq").num(), 4.0);
  }
}

TEST(JsonExport, RegistrySnapshotRoundTrips) {
  obs::Registry registry;
  registry.counter("hops").inc(42);
  registry.timer("build").add_ms(12.5);
  obs::Histogram& h = registry.histogram("stretch", 1, 5, 4);
  h.record(1.5);
  h.record(2.5);
  h.record(99);  // overflow

  const std::string text = registry_to_json(registry).dump(2);
  MiniParser parser(text);
  const MiniJson::Ptr parsed = parser.parse();
  EXPECT_DOUBLE_EQ(parsed->at("counters").at("hops").num(), 42.0);
  EXPECT_DOUBLE_EQ(parsed->at("timers").at("build").at("total_ms").num(), 12.5);
  const MiniJson& hist = parsed->at("histograms").at("stretch");
  EXPECT_DOUBLE_EQ(hist.at("count").num(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("overflow").num(), 1.0);
  ASSERT_EQ(hist.at("buckets").arr().size(), 4u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").arr()[0]->num(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("buckets").arr()[1]->num(), 1.0);
}

TEST(JsonExport, NonFiniteNumbersBecomeNull) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["inf"] = kInfiniteWeight;
  EXPECT_EQ(doc.dump(0), "{\"inf\":null}");
}

// ---------------------------------------------------------------------------
// StretchStats: sum-based mean, percentiles, failure taxonomy

TEST(StretchStats, AverageIsComputedFromSum) {
  StretchStats stats;
  stats.record(1.0);
  stats.record(2.0);
  stats.record(3.0);
  EXPECT_DOUBLE_EQ(stats.sum_stretch, 6.0);
  EXPECT_DOUBLE_EQ(stats.avg_stretch(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max_stretch, 3.0);
  EXPECT_EQ(stats.histogram.count(), 3u);
}

TEST(StretchStats, MergeCombinesShards) {
  StretchStats a, b;
  a.record(1.0);
  a.record(2.0);
  a.undelivered = 1;
  a.failures = 1;
  b.record(4.0);
  b.misdelivered = 2;
  b.wrong_cost = 1;
  b.failures = 2;
  a.merge(b);
  EXPECT_EQ(a.pairs, 3u);
  EXPECT_DOUBLE_EQ(a.avg_stretch(), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.max_stretch, 4.0);
  EXPECT_EQ(a.failures, 3u);
  EXPECT_EQ(a.undelivered, 1u);
  EXPECT_EQ(a.misdelivered, 2u);
  EXPECT_EQ(a.wrong_cost, 1u);
}

TEST(StretchStats, EvaluatePairsClassifiesFailures) {
  const MetricSpace metric(make_path(8));
  Prng prng(3);
  // A deliberately broken router: to even destinations it reports failure;
  // to node 7 it delivers the right walk but lies about the cost; otherwise
  // it routes correctly along the path graph.
  const auto route = [&](NodeId src, NodeId dst) {
    RouteResult r;
    if (dst % 2 == 0) {
      r.delivered = false;
      return r;
    }
    r.delivered = true;
    const int step = src < dst ? 1 : -1;
    for (NodeId u = src;; u = static_cast<NodeId>(static_cast<int>(u) + step)) {
      r.path.push_back(u);
      if (u == dst) break;
    }
    r.cost = path_cost(metric, r.path);
    if (dst == 7) r.cost *= 3;  // self-reported cost disagrees with the walk
    return r;
  };
  const StretchStats stats = evaluate_pairs(metric, 0, prng, route);
  // 8*7 ordered pairs; 4 even destinations * 7 sources undelivered.
  EXPECT_EQ(stats.undelivered, 28u);
  EXPECT_EQ(stats.misdelivered, 0u);
  EXPECT_EQ(stats.failures, 28u);
  EXPECT_EQ(stats.wrong_cost, 7u);  // every source routing to 7
  EXPECT_EQ(stats.pairs, 28u);      // wrong-cost routes are still recorded
  EXPECT_DOUBLE_EQ(stats.max_stretch, 1.0);
}

TEST(StretchStats, EvaluatePairsSpotsMisdelivery) {
  const MetricSpace metric(make_path(6));
  Prng prng(3);
  const auto route = [&](NodeId src, NodeId dst) {
    RouteResult r;
    r.delivered = true;
    r.path = {src, metric.next_hop(src, dst)};  // stops one hop in
    r.cost = path_cost(metric, r.path);
    return r;
  };
  const StretchStats stats = evaluate_pairs(metric, 0, prng, route);
  EXPECT_EQ(stats.pairs + stats.failures, 30u);
  EXPECT_EQ(stats.undelivered, 0u);
  EXPECT_GT(stats.misdelivered, 0u);
  EXPECT_EQ(stats.misdelivered, stats.failures);
}

// ---------------------------------------------------------------------------
// Trace invariants on the four hop-by-hop runtime schemes

struct TraceFixture {
  explicit TraceFixture(const Graph& graph, double eps = 0.5)
      : metric(graph),
        hierarchy(metric),
        naming(Naming::random(metric.n(), 31)),
        hier(metric, hierarchy, eps),
        sf(metric, hierarchy, eps),
        simple(metric, hierarchy, naming, hier, eps),
        sfni(metric, hierarchy, naming, sf, eps) {}
  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  HierarchicalLabeledScheme hier;
  ScaleFreeLabeledScheme sf;
  SimpleNameIndependentScheme simple;
  ScaleFreeNameIndependentScheme sfni;
};

void expect_trace_invariants(const MetricSpace& metric, const HopScheme& scheme,
                             NodeId src, [[maybe_unused]] NodeId dst,
                             std::uint64_t dest_key) {
  const HopRun r = execute_hops(metric, scheme, src, dest_key);
  ASSERT_TRUE(r.delivered);
#ifdef CR_OBS_DISABLED
  EXPECT_TRUE(r.trace.empty());
  return;
#else
  EXPECT_EQ(r.trace.scheme, scheme.name());
  ASSERT_EQ(r.trace.size(), r.path.size() - 1)
      << "one trace event per physical hop";
  // Hop costs must sum to the reported route cost.
  EXPECT_NEAR(r.trace.total_cost(), r.cost, 1e-9 * (1 + r.cost));
  Weight phase_total = 0;
  for (const Weight c : r.trace.phase_cost()) phase_total += c;
  EXPECT_NEAR(phase_total, r.cost, 1e-9 * (1 + r.cost));
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const TraceHop& hop = r.trace.hops[i];
    EXPECT_EQ(hop.from, r.path[i]);
    EXPECT_EQ(hop.to, r.path[i + 1]);
    EXPECT_GT(hop.cost, 0);
    EXPECT_GT(hop.header_bits, 0u);
    // Every hop carries a phase tag with a printable name.
    EXPECT_LT(static_cast<std::size_t>(hop.phase), kNumTracePhases);
    EXPECT_STRNE(trace_phase_name(hop.phase), "unknown");
  }
  if (src != dst) {
    EXPECT_EQ(r.trace.hops.front().from, src);
    EXPECT_EQ(r.trace.hops.back().to, dst);
  }
#endif
}

TEST(RouteTrace, InvariantsHoldForAllFourRuntimeSchemesOnGrid) {
  const TraceFixture f(make_grid(8, 8));
  const HierarchicalHopScheme hop_hier(f.hier);
  const ScaleFreeHopScheme hop_sf(f.sf);
  const SimpleNameIndependentHopScheme hop_simple(f.simple, f.hier);
  const ScaleFreeNameIndependentHopScheme hop_sfni(f.sfni, f.sf);
  Prng prng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(f.metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(f.metric.n()));
    if (u == v) continue;
    expect_trace_invariants(f.metric, hop_hier, u, v, f.hier.label(v));
    expect_trace_invariants(f.metric, hop_sf, u, v, f.sf.label(v));
    expect_trace_invariants(f.metric, hop_simple, u, v, f.naming.name_of(v));
    expect_trace_invariants(f.metric, hop_sfni, u, v, f.naming.name_of(v));
  }
}

#ifndef CR_OBS_DISABLED
TEST(RouteTrace, DeepSpiderProducesMultiplePhases) {
  // On a log Delta >> log n instance the scale-free machine must hand off to
  // region centers and search — the trace should show more than one phase.
  const TraceFixture f(make_exponential_spider(16, 4), 0.25);
  const ScaleFreeHopScheme hop(f.sf);
  Prng prng(6);
  std::size_t multi_phase_routes = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(f.metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(f.metric.n()));
    if (u == v) continue;
    const HopRun r = execute_hops(f.metric, hop, u, f.sf.label(v));
    ASSERT_TRUE(r.delivered);
    const auto hops = r.trace.phase_hops();
    std::size_t phases_used = 0;
    for (const std::size_t c : hops) phases_used += c > 0 ? 1 : 0;
    if (phases_used > 1) ++multi_phase_routes;
  }
  EXPECT_GT(multi_phase_routes, 0u)
      << "handoff/search phases never appeared on the deep spider";
}

TEST(RouteTrace, TraceToJsonRoundTrips) {
  const TraceFixture f(make_grid(6, 6));
  const SimpleNameIndependentHopScheme hop(f.simple, f.hier);
  const NodeId u = 0, v = 35;
  const HopRun r = execute_hops(f.metric, hop, u, f.naming.name_of(v));
  ASSERT_TRUE(r.delivered);
  ASSERT_FALSE(r.trace.empty());

  const std::string text = obs::trace_to_json(r.trace).dump(2);
  MiniParser parser(text);
  const MiniJson::Ptr parsed = parser.parse();
  EXPECT_EQ(parsed->at("scheme").str(), hop.name());
  ASSERT_EQ(parsed->at("hops").arr().size(), r.trace.size());
  EXPECT_NEAR(parsed->at("total_cost").num(), r.cost, 1e-9 * (1 + r.cost));
  double phase_cost = 0;
  for (const auto& [phase, entry] : std::get<5>(parsed->at("phases").v)) {
    phase_cost += entry->at("cost").num();
  }
  EXPECT_NEAR(phase_cost, r.cost, 1e-6 * (1 + r.cost));
  const MiniJson& first = *parsed->at("hops").arr().front();
  EXPECT_DOUBLE_EQ(first.at("from").num(), 0.0);
  EXPECT_FALSE(first.at("phase").str().empty());
}
#endif  // CR_OBS_DISABLED

}  // namespace
}  // namespace compactroute
