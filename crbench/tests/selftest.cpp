// Self-tests of the benchmark harness (not of the library): the percentile
// rule, the clock and memory probes, open-loop due-time accounting, the thread
// budget, and the trace self-time analysis. Exit code 0 when every check
// passes.
//
//   .bench_build/crbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "harness.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "runtime/traffic.hpp"
#include "core/parallel.hpp"
#include "selftime.hpp"
#include "serving.hpp"

using namespace compactroute;
using namespace crbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_percentile_rule() {
  // 1000 samples: p99 is the 990th value and has exactly 10 beyond it.
  const Quantile p99 = quantile_sorted(one_to(1000), 0.99);
  expect(p99.value == 990 && p99.beyond == 10 && p99.supported,
         "p99 of 1..1000 is 990 with 10 samples beyond");
  expect(p99.samples == 1000, "quantile reports its sample count");
  // 999 samples: only 9 lie beyond the p99 rank, so it is not quotable.
  expect(!quantile_sorted(one_to(999), 0.99).supported,
         "p99 of 999 samples is unsupported");
  expect(quantile_sorted(one_to(1000), 0.5).value == 500, "median of 1..1000");
  expect(quantile({3, 1, 2}, 0.5).value == 2, "quantile sorts its input");
  expect(!quantile_sorted({}, 0.5).supported, "empty sample is unsupported");

  expect(highest_supported_quantile(1000) == 0.99, "1000 samples support p99");
  expect(highest_supported_quantile(999) == 0.9, "999 samples stop at p90");
  expect(highest_supported_quantile(10000) == 0.999, "10000 samples support p99.9");
  expect(highest_supported_quantile(20) == 0.5, "20 samples support the median");
  expect(highest_supported_quantile(19) == 0, "19 samples support nothing");
  expect(median({4, 1, 3, 2}) == 2.5, "even-sized median averages the middle");

}

void test_clock_probe() {
  expect(clock_probe_ms() > 0, "the clock probe takes measurable time");
  expect(memory_probe_ms() > 0, "the memory probe takes measurable time");
  expect(speed_scale(kProbeReferenceMs, kProbeReferenceMs) == 1,
         "a phase at reference speed is not scaled");
  expect(speed_scale(2 * kProbeReferenceMs, 4 * kProbeReferenceMs) == 1.0 / 3,
         "a phase on a host 3x slower than reference is scaled by 1/3");
}

void test_due_time_math() {
  OpenLoopStamps st;
  st.due_us = {0, 10, 20};
  st.call_us = {0, 38, 40};
  st.ret_us = {1, 40, 41};
  st.accepted = {1, 1, 0};
  std::vector<ServerResult> results(3);
  for (ServerResult& r : results) {
    r.latency_us = 2;
    r.status.store(ServeStatus::kDelivered);
  }
  std::size_t failed = 0;
  const std::vector<double> lat = due_time_latencies(st, results, &failed);
  expect(lat.size() == 2 && lat[0] == 3 && lat[1] == 32,
         "latency runs from due time to submit return + server latency");
  expect(failed == 1, "a shed request counts as failed");
  const std::vector<double> late = generator_lateness(st);
  expect(late[1] == 28 && late[2] == 20, "generator lateness is call - due");
}

std::shared_ptr<ServerEpoch> tiny_epoch() {
  const Graph g = make_grid(8, 8);
  MetricSpace metric(g);
  NetHierarchy hierarchy(metric);
  Naming naming = Naming::random(metric.n(), 4242);
  HierarchicalLabeledScheme hier(metric, hierarchy, 0.5);
  ScaleFreeLabeledScheme sf(metric, hierarchy, 0.5);
  SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier, 0.5);
  ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf, 0.5);
  return ServerEpoch::adopt(
      decode_snapshot(encode_snapshot(metric, 0.5, hierarchy, naming, hier, sf,
                                      simple, sfni)),
      1);
}

/// Median due-time latency of requests [first, last) of an open-loop run.
double median_latency(const OpenLoopRun& run,
                      const std::vector<ServerResult>& results,
                      std::size_t first, std::size_t last) {
  std::vector<double> v;
  for (std::size_t i = first; i < last; ++i) {
    v.push_back(run.stamps.ret_us[i] + results[i].latency_us - run.stamps.due_us[i]);
  }
  return median(v);
}

void test_open_loop_stall() {
  Executor::global().set_workers(1);
  const auto epoch = tiny_epoch();
  Server server;
  server.publish(epoch);
  const std::vector<ServeScheme> mix = {ServeScheme::kHierarchical,
                                        ServeScheme::kSimpleNi};
  const auto stream = make_traffic(epoch->n(), 4000, 7, mix, TrafficOptions{});

  OpenLoopPlan plan;
  plan.offered_rps = 20000;  // 50 us apart
  plan.stall_at = 2000;
  plan.stall_us = 20000;  // the generator sleeps 20 ms before request 2000
  std::vector<ServerResult> results(stream.size());
  const OpenLoopRun run = run_open_loop(server, stream, results, plan);
  std::size_t failed = 0;
  expect(due_time_latencies(run.stamps, results, &failed).size() == stream.size() &&
             failed == 0,
         "every open-loop request is delivered");
  // The stall delays request 2000 by ~20 ms and, through it, the ~400
  // requests due during the stall (medians: robust to host hiccups).
  const double before = median_latency(run, results, 1000, 1990);
  const double after = median_latency(run, results, 2000, 2100);
  expect(after > 10000, "requests due during the stall carry its delay (median " +
                            std::to_string(after) + " us)");
  expect(after > 5 * before,
         "an injected stall raises the latency of the later requests");
  expect(run.stamps.call_us[2000] - run.stamps.due_us[2000] > 15000,
         "generator lateness shows the stall");
}

void test_thread_budget() {
  for (std::size_t nproc = 1; nproc <= 64; ++nproc) {
    for (const bool reloads : {false, true}) {
      const ThreadPlan plan = plan_threads(nproc, reloads);
      const std::size_t helpers = 1 + (reloads ? 1 : 0);
      expect(plan.workers >= 1, "at least one executor worker");
      expect(plan.total == plan.workers + plan.generator + plan.loader,
             "plan total adds up");
      if (nproc > helpers) {
        expect(plan.within_budget && plan.total <= nproc,
               "thread plan fits " + std::to_string(nproc) + " CPUs");
      } else {
        expect(!plan.within_budget, "an over-budget plan is flagged");
      }
    }
  }
  expect(plan_threads(4, false).workers == 3, "4 CPUs: 3 workers + generator");
  expect(plan_threads(4, true).workers == 2,
         "4 CPUs with reloads: 2 workers + generator + loader");
  expect(available_cpus() >= 1, "at least one CPU is available");
}

void test_self_time() {
  using obs::SpanEvent;
  const auto span = [](const char* name, double ts, double dur, std::size_t tid) {
    SpanEvent e;
    e.name = name;
    e.category = "x";
    e.ts_us = ts;
    e.dur_us = dur;
    e.tid = tid;
    return e;
  };
  // setup [0, 100) holds metric [0, 30) and labeled [30, 90); labeled holds
  // a library span [40, 80). Another thread's span overlaps but is not a child.
  const std::vector<SpanEvent> spans = {
      span("harness.setup", 0, 100, 0),
      span("build.metric", 0, 30, 0),
      span("build.labeled_sf", 30, 60, 0),
      span("preprocess.labeled.scale_free", 40, 40, 0),
      span("server.reload", 10, 50, 1),
  };
  const SpanAnalysis a = analyze_spans(spans);
  const auto self_of = [&](const std::string& layer) {
    for (const LayerSelfTime& row : a.layers) {
      if (row.layer == layer) return row.self_ms;
    }
    return -1.0;
  };
  expect(std::fabs(self_of("harness") - 0.010) < 1e-12, "setup self time is its gap");
  expect(std::fabs(self_of("graph") - 0.030) < 1e-12, "leaf self time is its duration");
  expect(std::fabs(self_of("labeled") - 0.060) < 1e-12,
         "library span shares its layer with the harness span around it");
  expect(std::fabs(self_of("runtime/server") - 0.050) < 1e-12,
         "spans on another thread are not children");
  expect(a.setup_gap_frac.size() == 1 && std::fabs(a.setup_gap_frac[0] - 0.1) < 1e-12,
         "setup gap is the uncovered share");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_clock_probe();
  test_due_time_math();
  test_thread_budget();
  test_self_time();
  test_open_loop_stall();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d harness self-test check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("harness self-tests passed\n");
  return 0;
}
