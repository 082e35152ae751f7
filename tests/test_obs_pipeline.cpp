// Tests for the serving-grade telemetry pipeline added in PR 7: golden
// log-histogram percentiles, sharded-registry scrape semantics (merge order
// and worker-count invariance), atomic Timer/LogHistogram under concurrent
// writers (a TSan build turns these into real race detectors), span tracing
// with Chrome trace-event export, the per-worker flight recorder, Prometheus
// text exposition, and the serve loop's instrumentation on/off contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/csr.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "obs/spans.hpp"
#include "routing/naming.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/serve.hpp"
#include "runtime/server.hpp"
#include "test_util.hpp"

namespace compactroute {
namespace {

using testing::MiniJson;
using testing::MiniParser;

// ---------------------------------------------------------------------------
// LogHistogram: golden percentiles. Bucketization is exact integer arithmetic
// on the binary exponent, and the counts below are chosen so every in-bucket
// interpolation is a dyadic rational — the expected values are exact doubles,
// not tolerances.

/// lo=1, hi=1e6, spb=4: 20 octaves (2^20 = 1048576 covers 1e6), 80 buckets.
/// 1024 samples across six decades:
///   4 x 0.5   (underflow)
/// 512 x 3.0   (bucket 6:  [3.0, 3.5))
/// 256 x 70.0  (bucket 24: [64, 80))
/// 248 x 5000  (bucket 48: [4096, 5120))
///   4 x 2e6   (overflow)
obs::LogHistogram make_golden_histogram() {
  obs::LogHistogram h(1.0, 1e6, 4);
  for (int i = 0; i < 4; ++i) h.record(0.5);
  for (int i = 0; i < 512; ++i) h.record(3.0);
  for (int i = 0; i < 256; ++i) h.record(70.0);
  for (int i = 0; i < 248; ++i) h.record(5000.0);
  for (int i = 0; i < 4; ++i) h.record(2e6);
  return h;
}

TEST(LogHistogramGolden, BucketizationIsExact) {
  const obs::LogHistogram h = make_golden_histogram();
  EXPECT_EQ(h.octaves(), 20u);
  EXPECT_EQ(h.buckets(), 80u);
  EXPECT_EQ(h.count(), 1024u);
  EXPECT_EQ(h.underflow(), 4u);
  EXPECT_EQ(h.overflow(), 4u);
  EXPECT_EQ(h.bucket_count(6), 512u);   // 3.0: octave 1, sub 2
  EXPECT_EQ(h.bucket_count(24), 256u);  // 70:  octave 6, sub 0
  EXPECT_EQ(h.bucket_count(48), 248u);  // 5000: octave 12, sub 0
  EXPECT_DOUBLE_EQ(h.bucket_lower(6), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(6), 3.5);
  EXPECT_DOUBLE_EQ(h.bucket_lower(24), 64.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(24), 80.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(48), 4096.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(48), 5120.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 2e6);
  // All addends are exactly representable and the running sum never rounds.
  EXPECT_DOUBLE_EQ(h.sum(), 4 * 0.5 + 512 * 3.0 + 256 * 70.0 + 248 * 5000.0 +
                                4 * 2e6);
}

TEST(LogHistogramGolden, ExactPercentilesAcrossDecades) {
  const obs::LogHistogram h = make_golden_histogram();
  // Rank in the underflow bin reports the exact observed minimum.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(1.0 / 1024.0), 0.5);
  // p50: rank 512 lands in [3.0, 3.5) after 4 underflow samples;
  // inside = 508/512, so x = 3.0 + (508/512) * 0.5 exactly.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 3.49609375);
  // p75: rank 768 lands in [64, 80); inside = 252/256, x = 64 + 15.75.
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 79.75);
  // p87.5: rank 896 lands in [4096, 5120); inside = 124/248 = 1/2 exactly.
  EXPECT_DOUBLE_EQ(h.percentile(0.875), 4608.0);
  // p99.9: rank 1022.976 falls in the overflow bin -> exact observed max.
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 2e6);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 2e6);
}

TEST(LogHistogramGolden, MergeOfSplitStreamIsBitIdentical) {
  obs::LogHistogram a(1.0, 1e6, 4), b(1.0, 1e6, 4);
  const obs::LogHistogram whole = make_golden_histogram();
  // Same multiset split across two shards by parity of a running index.
  std::vector<std::pair<double, int>> parts = {
      {0.5, 4}, {3.0, 512}, {70.0, 256}, {5000.0, 248}, {2e6, 4}};
  int idx = 0;
  for (const auto& [x, reps] : parts) {
    for (int i = 0; i < reps; ++i) ((idx++ % 2) ? a : b).record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.875, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), whole.percentile(q)) << "q=" << q;
  }
}

TEST(LogHistogram, NanAndNegativeLandInUnderflow) {
  obs::LogHistogram h(1.0, 1024.0, 2);
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(-3.0);
  h.record(0.0);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(LogHistogram, PercentileWithinRelativeErrorBound) {
  // Property check behind the goldens: for an arbitrary (deterministic)
  // sample the estimate never strays beyond the quantization bound around
  // the true empirical quantile.
  obs::LogHistogram h(1e-2, 1e7, 16);
  std::vector<double> samples;
  Prng prng(99);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~5 decades.
    const double u =
        static_cast<double>(prng.next_below(1u << 20)) / double(1u << 20);
    const double x = std::pow(10.0, 5.0 * u - 1.0);  // [0.1, 1e4)
    samples.push_back(x);
    h.record(x);
  }
  std::sort(samples.begin(), samples.end());
  const double rel = h.relative_error_bound();
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    const double truth = samples[rank];
    const double est = h.percentile(q);
    EXPECT_GT(est, truth / (1 + 3 * rel)) << "q=" << q;
    EXPECT_LT(est, truth * (1 + 3 * rel)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Sharded scrape: merge order and shard count must not change scraped values.

TEST(ShardedScrape, MergeIsOrderIndependent) {
  // Three shards with overlapping names and dyadic values (so double adds
  // are exact in every order), merged in two different orders.
  obs::Registry a, b, c;
  a.counter("pipe.items").inc(7);
  b.counter("pipe.items").inc(11);
  c.counter("pipe.items").inc(13);
  b.counter("pipe.only_b").inc(2);
  a.timer("pipe.phase").add_ms(1.5);
  b.timer("pipe.phase").add_ms(2.25);
  c.timer("pipe.phase").add_ms(4.125);
  for (const double x : {3.0, 70.0}) a.log_histogram("pipe.lat", 1, 1e6, 4).record(x);
  for (const double x : {5000.0, 0.5}) b.log_histogram("pipe.lat", 1, 1e6, 4).record(x);
  c.log_histogram("pipe.lat", 1, 1e6, 4).record(2e6);

  obs::Registry abc, cba;
  a.merge_into(abc);
  b.merge_into(abc);
  c.merge_into(abc);
  c.merge_into(cba);
  b.merge_into(cba);
  a.merge_into(cba);

  EXPECT_EQ(abc.counter("pipe.items").value(), 31u);
  EXPECT_EQ(abc.counter("pipe.items").value(), cba.counter("pipe.items").value());
  EXPECT_EQ(abc.counter("pipe.only_b").value(), 2u);
  EXPECT_DOUBLE_EQ(abc.timer("pipe.phase").total_ms(), 7.875);
  EXPECT_DOUBLE_EQ(abc.timer("pipe.phase").total_ms(),
                   cba.timer("pipe.phase").total_ms());
  EXPECT_EQ(abc.timer("pipe.phase").spans(), cba.timer("pipe.phase").spans());
  const obs::LogHistogram& h1 = abc.log_histogram("pipe.lat", 1, 1e6, 4);
  const obs::LogHistogram& h2 = cba.log_histogram("pipe.lat", 1, 1e6, 4);
  EXPECT_EQ(h1.count(), 5u);
  EXPECT_DOUBLE_EQ(h1.sum(), h2.sum());
  for (const double q : {0.0, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(h1.percentile(q), h2.percentile(q)) << "q=" << q;
  }
  // The merged JSON snapshots are bit-identical.
  EXPECT_EQ(registry_to_json(abc).dump(2), registry_to_json(cba).dump(2));
}

#ifndef CR_OBS_DISABLED
TEST(ShardedScrape, TotalsIndependentOfWorkerCount) {
  constexpr std::size_t kItems = 4096;
  std::string dumps[3];
  std::size_t w = 0;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Executor::global().set_workers(workers);
    obs::reset_global();
    parallel_for("obs.test", kItems, 64, [&](std::size_t first,
                                             std::size_t last) {
      obs::Registry& shard = obs::local_registry();
      obs::Counter& items = shard.counter("pipe.work");
      obs::LogHistogram& hist = shard.log_histogram("pipe.cost", 1, 1024, 2);
      for (std::size_t i = first; i < last; ++i) {
        items.inc();
        hist.record(static_cast<double>((i % 16) + 1));  // dyadic-safe values
      }
    });
    const auto scraped = obs::scrape_global();
    EXPECT_EQ(scraped->counters().at("pipe.work").value(), kItems);
    const obs::LogHistogram& hist = scraped->log_histograms().at("pipe.cost");
    EXPECT_EQ(hist.count(), kItems);
    obs::JsonValue doc = obs::JsonValue::object();
    doc["work"] = scraped->counters().at("pipe.work").value();
    doc["count"] = hist.count();
    doc["sum"] = hist.sum();
    doc["p50"] = hist.percentile(0.5);
    doc["p99"] = hist.percentile(0.99);
    dumps[w++] = doc.dump(0);
  }
  Executor::global().set_workers(0);
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[1], dumps[2]);
}

TEST(ShardedScrape, RepeatedScrapesOfQuiescentRegistryAreIdentical) {
  obs::reset_global();
  obs::local_registry().counter("pipe.stable").inc(5);
  const std::string s1 = registry_to_json(*obs::scrape_global()).dump(2);
  const std::string s2 = registry_to_json(*obs::scrape_global()).dump(2);
  EXPECT_EQ(s1, s2);
}
#endif  // CR_OBS_DISABLED

// ---------------------------------------------------------------------------
// Concurrency: these tests are exact-value checks under real contention, and
// under -fsanitize=thread they exercise the Timer/LogHistogram write paths
// from many threads at once.

TEST(TimerAtomic, ConcurrentAddsLoseNothing) {
  obs::Timer timer;
  constexpr int kThreads = 8;
  constexpr int kAdds = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timer] {
      for (int i = 0; i < kAdds; ++i) timer.add_ms(0.5);
    });
  }
  for (auto& t : threads) t.join();
  // Every partial sum is a multiple of 0.5 well below 2^53, so the CAS-loop
  // total is exact no matter the interleaving: a lost update would show.
  EXPECT_DOUBLE_EQ(timer.total_ms(), 0.5 * kThreads * kAdds);
  EXPECT_EQ(timer.spans(),
            static_cast<std::uint64_t>(kThreads) * static_cast<std::uint64_t>(kAdds));
}

TEST(LogHistogramAtomic, ConcurrentRecordsLoseNothing) {
  obs::LogHistogram hist(1.0, 1024.0, 2);
  constexpr int kThreads = 8;
  constexpr int kRecords = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecords; ++i) {
        hist.record(static_cast<double>((t % 4) + 1));  // 1, 2, 3, 4
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(),
            static_cast<std::size_t>(kThreads) * static_cast<std::size_t>(kRecords));
  EXPECT_DOUBLE_EQ(hist.sum(), kRecords * (1.0 + 2.0 + 3.0 + 4.0) * 2);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
}

// ---------------------------------------------------------------------------
// Span tracing

TEST(Spans, DisabledCollectorRecordsNothing) {
  obs::SpanCollector& collector = obs::SpanCollector::global();
  collector.enable(false);
  collector.clear();
  {
    obs::SpanScope span("spans.test.ignored", "test");
  }
  EXPECT_TRUE(collector.snapshot().empty());
}

TEST(Spans, NestedSpansCarryDepthAndExportAsChromeTrace) {
  obs::SpanCollector& collector = obs::SpanCollector::global();
  collector.clear();
  collector.enable(true);
  {
    obs::SpanScope outer("spans.test.outer", "test");
    obs::SpanScope inner("spans.test.inner", "test");
  }
  collector.enable(false);
  const std::vector<obs::SpanEvent> spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto find_span = [&](const char* name) -> const obs::SpanEvent& {
    for (const obs::SpanEvent& span : spans) {
      if (span.name == name) return span;
    }
    ADD_FAILURE() << "span not found: " << name;
    return spans.front();
  };
  const obs::SpanEvent& outer = find_span("spans.test.outer");
  const obs::SpanEvent& inner = find_span("spans.test.inner");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  // The inner interval nests inside the outer one.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);

  const std::string text = obs::spans_to_chrome_trace(spans).dump(2);
  MiniParser parser(text);
  const MiniJson::Ptr doc = parser.parse();
  EXPECT_EQ(doc->at("displayTimeUnit").str(), "ms");
  ASSERT_EQ(doc->at("traceEvents").arr().size(), 2u);
  for (const auto& event : doc->at("traceEvents").arr()) {
    EXPECT_EQ(event->at("ph").str(), "X");
    EXPECT_EQ(event->at("cat").str(), "test");
    EXPECT_TRUE(event->has("name"));
    EXPECT_TRUE(event->has("ts"));
    EXPECT_TRUE(event->has("dur"));
    EXPECT_TRUE(event->has("tid"));
    EXPECT_GE(event->at("dur").num(), 0.0);
  }
}

TEST(Spans, SpanStartedBeforeEnableIsDropped) {
  obs::SpanCollector& collector = obs::SpanCollector::global();
  collector.enable(false);
  collector.clear();
  {
    obs::SpanScope span("spans.test.straddle", "test");
    collector.enable(true);
  }  // enabled at close but not at open: must not record
  collector.enable(false);
  EXPECT_TRUE(collector.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, RingKeepsMostRecentEventsPerWorker) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.clear();
  const std::uint16_t scheme = recorder.intern_scheme("test-scheme");
  EXPECT_EQ(recorder.intern_scheme("test-scheme"), scheme);  // idempotent
  EXPECT_EQ(recorder.scheme_name(scheme), "test-scheme");

  const std::size_t total = obs::FlightRecorder::kCapacity + 50;
  for (std::size_t i = 0; i < total; ++i) {
    obs::FlightEvent event;
    event.t_us = static_cast<double>(i);
    event.src = static_cast<std::uint32_t>(i);
    event.dest_key = 0xabcd;
    event.hops = 3;
    event.lat_us = 1.5f;
    event.scheme_id = scheme;
    recorder.record(event);
  }
  const auto dumped = recorder.dump();
  ASSERT_EQ(dumped.size(), obs::FlightRecorder::kCapacity);
  // Oldest surviving event is #50; order is by timestamp ascending.
  EXPECT_DOUBLE_EQ(dumped.front().event.t_us, 50.0);
  EXPECT_DOUBLE_EQ(dumped.back().event.t_us, static_cast<double>(total - 1));
  for (std::size_t i = 1; i < dumped.size(); ++i) {
    EXPECT_LE(dumped[i - 1].event.t_us, dumped[i].event.t_us);
  }

  const std::string text = recorder.dump_text();
  EXPECT_NE(text.find("flight recorder: 256 events"), std::string::npos);
  EXPECT_NE(text.find("scheme=test-scheme"), std::string::npos);
  EXPECT_NE(text.find("dest=0xabcd"), std::string::npos);

  recorder.clear();
  EXPECT_TRUE(recorder.dump().empty());
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, SanitizeNames) {
  EXPECT_EQ(obs::prometheus_sanitize("preprocess.nets"), "preprocess_nets");
  EXPECT_EQ(obs::prometheus_sanitize("serve.latency_us"), "serve_latency_us");
  EXPECT_EQ(obs::prometheus_sanitize("a-b/c d"), "a_b_c_d");
  EXPECT_EQ(obs::prometheus_sanitize("9lives"), "_9lives");
}

TEST(Prometheus, GoldenExposition) {
  obs::Registry registry;
  registry.counter("serve.requests").inc(42);
  registry.timer("build.phase").add_ms(12.5);
  obs::LogHistogram& h = registry.log_histogram("lat", 1.0, 16.0, 1);
  h.record(0.5);  // underflow -> surfaced as a bucket at the lo edge
  h.record(3.0);
  h.record(3.5);
  h.record(20.0);  // overflow -> only inside +Inf
  const std::string expected =
      "# TYPE cr_serve_requests_total counter\n"
      "cr_serve_requests_total 42\n"
      "# TYPE cr_build_phase_ms_total counter\n"
      "cr_build_phase_ms_total 12.5\n"
      "# TYPE cr_build_phase_spans_total counter\n"
      "cr_build_phase_spans_total 1\n"
      "# TYPE cr_lat histogram\n"
      "cr_lat_bucket{le=\"1\"} 1\n"
      "cr_lat_bucket{le=\"4\"} 3\n"
      "cr_lat_bucket{le=\"+Inf\"} 4\n"
      "cr_lat_sum 27\n"
      "cr_lat_count 4\n";
  EXPECT_EQ(obs::registry_to_prometheus(registry), expected);
}

// ---------------------------------------------------------------------------
// Serve instrumentation contract: the telemetry is observational only —
// fingerprints and hop totals are identical with it on or off, at any worker
// count; and an instrumented batch actually feeds the pipeline.

struct ServeFixture {
  ServeFixture()
      : graph(make_grid(8, 8)),
        csr(graph),
        metric(graph),
        hierarchy(metric),
        hier(metric, hierarchy, 0.5),
        hop(hier),
        requests(make_requests(metric.n(), 512, 7, [this](NodeId v) {
          return std::uint64_t{hier.label(v)};
        })) {}
  Graph graph;
  CsrGraph csr;
  MetricSpace metric;
  NetHierarchy hierarchy;
  HierarchicalLabeledScheme hier;
  HierarchicalHopScheme hop;
  std::vector<ServeRequest> requests;
};

TEST(ServeInstrumentation, FingerprintIdenticalOnOffAcrossWorkerCounts) {
  const ServeFixture f;
  std::uint64_t expected_fp = 0;
  std::size_t expected_hops = 0;
  bool first = true;
  for (const bool instrument : {true, false}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      Executor::global().set_workers(workers);
      ServeOptions options;
      options.instrument = instrument;
      const ServeStats stats = serve_batch(f.csr, f.hop, f.requests, options);
      EXPECT_EQ(stats.delivered, f.requests.size());
      if (first) {
        expected_fp = stats.fingerprint;
        expected_hops = stats.total_hops;
        first = false;
      }
      EXPECT_EQ(stats.fingerprint, expected_fp)
          << "instrument=" << instrument << " workers=" << workers;
      EXPECT_EQ(stats.total_hops, expected_hops)
          << "instrument=" << instrument << " workers=" << workers;
    }
  }
  Executor::global().set_workers(0);
}

#ifndef CR_OBS_DISABLED
TEST(ServeInstrumentation, InstrumentedBatchFeedsScrapeAndFlightRecorder) {
  const ServeFixture f;
  obs::reset_global();
  obs::FlightRecorder::global().clear();
  const ServeStats stats = serve_batch(f.csr, f.hop, f.requests, {});
  const auto scraped = obs::scrape_global();
  const obs::LogHistogram& hops = scraped->log_histograms().at("serve.route_hops");
  EXPECT_EQ(hops.count(), f.requests.size());
  EXPECT_DOUBLE_EQ(hops.sum(), static_cast<double>(stats.total_hops));
  const obs::LogHistogram& lat = scraped->log_histograms().at("serve.latency_us");
  EXPECT_EQ(lat.count(), f.requests.size());
  EXPECT_EQ(scraped->counters().at("serve.requests").value(), f.requests.size());
  // Flight recorder holds the most recent routes (capped per worker).
  EXPECT_GT(obs::FlightRecorder::global().dump().size(), 0u);
  EXPECT_GE(obs::FlightRecorder::global().recorded_total(), f.requests.size());
  const std::string text = obs::FlightRecorder::global().dump_text();
  EXPECT_NE(text.find("scheme=" + std::string(f.hop.name())), std::string::npos);
}

TEST(ServeInstrumentation, PreregisteredServingMetricsVisibleAtZero) {
  obs::reset_global();
  preregister_serving_metrics();
  const auto scraped = obs::scrape_global();
  for (const char* name : {"serve.queue.depth", "serve.queue.enqueued",
                           "serve.queue.shed", "serve.epoch.swaps"}) {
    const auto it = scraped->counters().find(name);
    ASSERT_NE(it, scraped->counters().end()) << name;
    EXPECT_EQ(it->second.value(), 0u) << name;
  }
  EXPECT_EQ(scraped->log_histograms().count("serve.latency_us"), 1u);
  EXPECT_EQ(scraped->log_histograms().count("serve.route_hops"), 1u);
  // The Prometheus page carries them too, pinned at zero.
  const std::string prom = obs::registry_to_prometheus(*scraped);
  EXPECT_NE(prom.find("cr_serve_queue_shed_total 0"), std::string::npos);
}

// The preregistered queue/epoch metrics move once runtime/server actually
// runs: a reload cycle (submit a shedding burst, pump, publish twice) must
// leave every serving-surface counter nonzero in the scrape.
TEST(ServeInstrumentation, ServerReloadCycleBumpsQueueAndEpochCounters) {
  Executor::global().set_workers(1);
  obs::reset_global();
  preregister_serving_metrics();

  const Graph graph = make_grid(8, 8);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::random(metric.n(), 4242);
  const HierarchicalLabeledScheme hier(metric, hierarchy, 0.5);
  const ScaleFreeLabeledScheme sf(metric, hierarchy, 0.5);
  const SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier, 0.5);
  const ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf, 0.5);
  const std::vector<std::uint8_t> bytes = encode_snapshot(
      metric, 0.5, hierarchy, naming, hier, sf, simple, sfni);

  ServerOptions options;
  options.queue_depth = 4;  // tiny on purpose: the burst below must shed
  options.shards = 1;
  Server server(options);
  server.publish(ServerEpoch::adopt(decode_snapshot(bytes), 0));

  std::vector<ServerResult> results(16);
  ServerRequest request;
  request.src = 0;
  request.dest = 63;
  std::size_t accepted = 0;
  for (std::uint64_t id = 0; id < 16; ++id) {
    if (server.submit(request, id)) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);
  server.drain(results);
  server.publish(ServerEpoch::adopt(decode_snapshot(bytes), 1));

  const auto scraped = obs::scrape_global();
  const auto counter = [&](const char* name) {
    return scraped->counters().at(name).value();
  };
  EXPECT_EQ(counter("serve.queue.enqueued"), 4u);
  EXPECT_EQ(counter("serve.queue.shed"), 12u);
  EXPECT_EQ(counter("serve.queue.depth"), 4u);  // one pump saw 4 queued
  EXPECT_EQ(counter("serve.epoch.swaps"), 2u);
  // Queue latency rides the shared serve.latency_us histogram.
  EXPECT_EQ(scraped->log_histograms().at("serve.latency_us").count(), 4u);
}

TEST(ServeInstrumentation, SampledServeSpansAppearInTrace) {
  const ServeFixture f;
  obs::SpanCollector& collector = obs::SpanCollector::global();
  collector.clear();
  collector.enable(true);
  ServeOptions options;
  options.span_sample_every = 16;
  serve_batch(f.csr, f.hop, f.requests, options);
  collector.enable(false);
  const std::vector<obs::SpanEvent> spans = collector.snapshot();
  std::size_t batch_spans = 0, request_spans = 0;
  for (const obs::SpanEvent& span : spans) {
    if (span.name == "serve.batch") ++batch_spans;
    if (span.name == "serve.request") ++request_spans;
  }
  EXPECT_EQ(batch_spans, 1u);
  // One span per sampled request: i = 0, 16, 32, ... regardless of workers.
  EXPECT_EQ(request_spans, f.requests.size() / 16);
  collector.clear();
}
#endif  // CR_OBS_DISABLED

// ---------------------------------------------------------------------------
// Scrape JSON: the log-histogram block round-trips through the test parser
// (the same schema `crtool serve --obs-out scrape.json` writes).

TEST(ScrapeJson, LogHistogramBlockRoundTrips) {
  obs::Registry registry;
  obs::LogHistogram& h = registry.log_histogram("lat", 1.0, 1e6, 4);
  h.record(3.0);
  h.record(70.0);
  h.record(5000.0);
  const std::string text = registry_to_json(registry).dump(2);
  MiniParser parser(text);
  const MiniJson::Ptr doc = parser.parse();
  const MiniJson& entry = doc->at("log_histograms").at("lat");
  EXPECT_DOUBLE_EQ(entry.at("count").num(), 3.0);
  EXPECT_DOUBLE_EQ(entry.at("sum").num(), 5073.0);
  EXPECT_DOUBLE_EQ(entry.at("min").num(), 3.0);
  EXPECT_DOUBLE_EQ(entry.at("max").num(), 5000.0);
  EXPECT_DOUBLE_EQ(entry.at("sub_buckets_per_octave").num(), 4.0);
  EXPECT_TRUE(entry.has("p50"));
  EXPECT_TRUE(entry.has("p999"));
  // Sparse bucket pairs: one [lower_edge, count] entry per occupied bucket.
  ASSERT_EQ(entry.at("buckets").arr().size(), 3u);
  EXPECT_DOUBLE_EQ(entry.at("buckets").arr()[0]->arr()[0]->num(), 3.0);
  EXPECT_DOUBLE_EQ(entry.at("buckets").arr()[0]->arr()[1]->num(), 1.0);
}

}  // namespace
}  // namespace compactroute
