// Experiment E8 — telemetry overhead on the serving hot path. The PR 7
// acceptance gate: with the sharded registries, log-histogram records, and
// flight-recorder ring writes enabled, batch serving must stay within 3% of
// the uninstrumented loop at n = 1024 on 4 workers (capped at the machine's
// core count for the timed arms — see timed_workers()).
//
// Two runtime arms of the same binary: ServeOptions::instrument on vs off
// (off skips every telemetry store the serve loop owns). In a
// -DCR_OBS_DISABLED=ON build both arms compile to the identical loop, so the
// reported overhead collapses to noise — CI runs that configuration too and
// compares the JSON.
//
// Statistic: arms alternate within each rep (so slow drift cancels) and the
// reported overhead is the MEDIAN of the per-rep paired ratios. On a shared
// or single-core box the rep-to-rep spread is an order of magnitude larger
// than the effect; the paired median is robust to that symmetric noise where
// best-of-N of two independent minima is not.
//
// The fidelity half of the gate: fingerprints must be identical between the
// arms and across worker counts {1, 2, 4} — instrumentation is observational
// only and must never perturb a route.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/serve.hpp"

using namespace compactroute;
using bench::write_bench_json;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kPairs = 50000;
constexpr std::uint64_t kSeed = 1;
constexpr double kEps = 0.5;
constexpr int kRepetitions = 21;
constexpr double kTargetOverheadPct = 3.0;

// Workers used for the *timed* arms. Oversubscribing the machine (4 workers
// time-slicing fewer cores) makes rep-to-rep scheduler noise an order of
// magnitude larger than the sub-1% cost being measured, so the timing loop
// is capped at the hardware; the fingerprint grid below still exercises the
// full {1, 2, 4} worker range.
std::size_t timed_workers() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min(kWorkers, hw == 0 ? 1 : hw));
}

}  // namespace

int main() {
  const std::size_t workers = timed_workers();
  Executor::global().set_workers(workers);

#ifdef CR_OBS_DISABLED
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif

  std::printf("E8: telemetry overhead, grid-32x32 (n = 1024), %zu workers "
              "(%zu requested, %u hardware), %zu pairs, best of %d "
              "(CR_OBS_DISABLED=%s)\n\n",
              workers, kWorkers, std::thread::hardware_concurrency(), kPairs,
              kRepetitions, obs_disabled ? "on" : "off");

  bench::Stack stack(make_grid(32, 32), kEps);
  stack.build_labeled();
  const std::size_t n = stack.metric.n();
  const HierarchicalHopScheme hop(*stack.hier_labeled);
  const auto requests = make_requests(n, kPairs, kSeed, [&](NodeId v) {
    return std::uint64_t{stack.hier_labeled->label(v)};
  });

  // Pure-throughput serving configuration for both arms: latency collection
  // off isolates the cost of the telemetry stores themselves.
  ServeOptions instrumented;
  instrumented.collect_latencies = false;
  instrumented.instrument = true;
  ServeOptions plain = instrumented;
  plain.instrument = false;

  // Warm the executor, the tables, and the telemetry shard registrations.
  (void)serve_batch(stack.metric.csr(), hop, requests, instrumented);
  (void)serve_batch(stack.metric.csr(), hop, requests, plain);

  double best_instr_s = 0, best_plain_s = 0;
  std::vector<double> ratios;
  ratios.reserve(kRepetitions);
  std::uint64_t fingerprint = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    // Alternate arm order so slow drift (thermal, noisy neighbors) cancels
    // instead of biasing one arm.
    const bool instr_first = rep % 2 == 0;
    const ServeStats first = serve_batch(stack.metric.csr(), hop, requests,
                                         instr_first ? instrumented : plain);
    const ServeStats second = serve_batch(stack.metric.csr(), hop, requests,
                                          instr_first ? plain : instrumented);
    const ServeStats& si = instr_first ? first : second;
    const ServeStats& sp = instr_first ? second : first;
    CR_CHECK_MSG(si.fingerprint == sp.fingerprint,
                 "instrumentation changed a route fingerprint");
    fingerprint = si.fingerprint;
    best_instr_s = rep == 0 ? si.elapsed_s : std::min(best_instr_s, si.elapsed_s);
    best_plain_s = rep == 0 ? sp.elapsed_s : std::min(best_plain_s, sp.elapsed_s);
    ratios.push_back(si.elapsed_s / sp.elapsed_s);
    std::printf("rep %2d: instrumented %8.1f ms, plain %8.1f ms (%+.2f%%)\n",
                rep + 1, 1e3 * si.elapsed_s, 1e3 * sp.elapsed_s,
                100.0 * (ratios.back() - 1.0));
  }

  // Fingerprints must also agree across worker counts, in both arms.
  bool fingerprints_identical = true;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    Executor::global().set_workers(workers);
    for (const ServeOptions& options : {instrumented, plain}) {
      const ServeStats s = serve_batch(stack.metric.csr(), hop, requests,
                                       options);
      if (s.fingerprint != fingerprint) fingerprints_identical = false;
    }
  }
  Executor::global().set_workers(workers);
  CR_CHECK_MSG(fingerprints_identical,
               "serve fingerprint depends on worker count or instrumentation");

  const double count = static_cast<double>(kPairs);
  const double instr_rps = count / best_instr_s;
  const double plain_rps = count / best_plain_s;
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];
  const double overhead_pct = 100.0 * (median_ratio - 1.0);
  const bool within_target = overhead_pct <= kTargetOverheadPct;

  std::printf("\n%-22s %12s %12s\n", "arm", "best-ms", "routes/s");
  std::printf("%-22s %12.1f %12.0f\n", "instrumented", 1e3 * best_instr_s,
              instr_rps);
  std::printf("%-22s %12.1f %12.0f\n", "plain", 1e3 * best_plain_s, plain_rps);
  std::printf("\noverhead (median paired ratio): %+.2f%% (target <= %.1f%%)"
              " — %s\n", overhead_pct, kTargetOverheadPct,
              within_target ? "met" : "MISSED");

  obs::JsonValue doc = obs::JsonValue::object();
  doc["bench"] = std::string("obs_overhead");
  doc["graph"] = std::string("grid-32x32");
  doc["n"] = static_cast<std::uint64_t>(n);
  doc["workers"] = static_cast<std::uint64_t>(workers);
  doc["workers_requested"] = static_cast<std::uint64_t>(kWorkers);
  doc["pairs"] = static_cast<std::uint64_t>(kPairs);
  doc["seed"] = kSeed;
  doc["repetitions"] = static_cast<std::uint64_t>(kRepetitions);
  doc["obs_disabled_build"] = obs_disabled;
  obs::JsonValue instr = obs::JsonValue::object();
  instr["best_elapsed_s"] = best_instr_s;
  instr["routes_per_sec"] = instr_rps;
  doc["instrumented"] = std::move(instr);
  obs::JsonValue base = obs::JsonValue::object();
  base["best_elapsed_s"] = best_plain_s;
  base["routes_per_sec"] = plain_rps;
  doc["plain"] = std::move(base);
  doc["overhead_pct"] = overhead_pct;
  doc["overhead_statistic"] = std::string("median_paired_ratio");
  doc["target_overhead_pct"] = kTargetOverheadPct;
  doc["within_target"] = within_target;
  doc["fingerprint"] = obs::hex_u64(fingerprint);
  doc["fingerprints_identical_across_workers_and_arms"] = fingerprints_identical;

  write_bench_json("BENCH_obs_overhead.json", doc);
  return 0;
}
