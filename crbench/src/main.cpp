// crbench — one benchmark run of one workload.
//
//   crbench --workload NAME --graph SPEC --offered-rps R --seconds S
//           --seed N --trace 0|1 --out-dir DIR
//           [--traffic uniform|zipf] [--reload-every K]
//           [--inject digest]
//
// Sets the workload's stack up kSetups times (row-free build -> streamed
// snapshot -> mmap ServerEpoch::load -> Server::publish -> first route), then
// runs kCycles measurement cycles, each one epoch load, a closed-loop
// capacity slice and an open-loop latency slice through Server, and gates
// every served route against serve_batch on the same snapshot. Interleaving
// the cycles spreads every metric's samples over the whole run, so a burst of
// host noise lands on a few samples of each metric instead of all samples of
// one. Prints the wall time of each stage to stderr and, as the last line of
// stdout, one JSON document with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1), provenance, digests and any errors. Exit
// code 0 when every check passed, 1 otherwise, 2 on bad arguments.
//
// The workload parameters live in crbench/workloads.json; crbench/run.py is
// the normal entry point and passes them in.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "graph/ball_oracle.hpp"
#include "harness.hpp"
#include "io/snapshot_mmap.hpp"
#include "obs/json_export.hpp"
#include "obs/mem.hpp"
#include "obs/sharded.hpp"
#include "obs/spans.hpp"
#include "runtime/serve.hpp"
#include "runtime/server.hpp"
#include "runtime/traffic.hpp"
#include "selftime.hpp"
#include "serving.hpp"
#include "stack.hpp"

#ifndef CRBENCH_BUILD_TYPE
#define CRBENCH_BUILD_TYPE "unknown"
#endif

using namespace compactroute;
using namespace crbench;

namespace {

constexpr std::size_t kSetups = 3;
/// Measurement cycles; each does one epoch load, a capacity slice and an
/// open-loop slice.
constexpr std::size_t kCycles = 8;
/// Share of --seconds spent in the closed loop; the rest is open loop.
constexpr double kCapacityShare = 0.4;
/// Requests per closed-loop round: two full waves with three shards, three
/// with two (the 4-CPU plans).
constexpr std::size_t kCapacityRound = 12288;
constexpr std::size_t kQueueDepth = 2048;
/// capacity_rps is this quantile of the per-round wall-clock rates: the rate
/// of a quiet round, which host stalls must hit three rounds in four to move.
constexpr double kQuietRounds = 0.75;
/// Workers pumping the open loop. On a shared host, waking helper workers
/// for pumps of one or two requests makes latency mostly scheduler noise.
constexpr std::size_t kOpenLoopWorkers = 1;
/// Fewest delivered requests per scheme and cycle behind a cycle's median.
constexpr std::size_t kMinCycleSamples = 100;
/// Requests after each publish that reload_p50_us pools, and on workloads
/// without reloads the request cadence that stands in for the publishes.
constexpr std::size_t kPublishWindow = 250;
constexpr std::size_t kMarkEvery = 3750;
/// Pairs per scheme in the stretch sample.
constexpr std::size_t kQualityPairs = 250;
/// The traced run's reconciliation tolerances: a request's latency must
/// split into queue wait + service within this slack for at least
/// kMinReconciled of requests, and the set-up phase spans must cover all but
/// kMaxSetupGap of each set-up.
constexpr double kReconcileSlackUs = 20.0;
constexpr double kMinReconciled = 0.99;
constexpr double kMaxSetupGap = 0.02;

struct Args {
  std::string workload;
  std::string graph;
  std::string traffic = "uniform";
  double offered_rps = 0;
  std::size_t reload_every = 0;
  double seconds = 10;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string out_dir = ".";
  bool inject_digest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "crbench: %s\n(see the comment at the top of main.cpp)\n",
               why.c_str());
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    const auto count = [&] {
      const double x = parse_number(flag, v);
      if (x != std::floor(x)) usage(flag + " must be a whole number");
      return static_cast<std::size_t>(x);
    };
    if (flag == "--workload") a.workload = v;
    else if (flag == "--graph") a.graph = v;
    else if (flag == "--traffic") a.traffic = v;
    else if (flag == "--offered-rps") a.offered_rps = parse_number(flag, v);
    else if (flag == "--reload-every") a.reload_every = count();
    else if (flag == "--seconds") a.seconds = parse_number(flag, v);
    else if (flag == "--seed") a.seed = count();
    else if (flag == "--trace") a.trace = count() != 0;
    else if (flag == "--out-dir") a.out_dir = v;
    else if (flag == "--inject") {
      if (v != "digest") usage("--inject takes 'digest'");
      a.inject_digest = true;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (a.workload.empty() || a.graph.empty()) usage("--workload and --graph are required");
  if (a.traffic != "uniform" && a.traffic != "zipf") usage("--traffic must be uniform or zipf");
  if (a.offered_rps <= 0) usage("--offered-rps must be positive");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.offered_rps * (1 - kCapacityShare) * a.seconds / kCycles < 2) {
    usage("--offered-rps x --seconds is too small for an open loop");
  }
  return a;
}

/// Independent, reproducible seed for one use of the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  return Prng::split(seed, purpose).next_u64();
}

std::uint64_t scraped_counter(const std::string& name) {
  const auto registry = obs::scrape_global();
  const auto it = registry->counters().find(name);
  return it == registry->counters().end() ? 0 : it->second.value();
}

double ms_between(double from_us, double to_us) { return (to_us - from_us) * 1e-3; }

std::uint64_t as_count(std::size_t n) { return static_cast<std::uint64_t>(n); }

/// Adds name.p50 / name.p99 to `metrics` and the sample count to `samples`.
/// A p99 without kMinBeyond samples beyond it is reported but noted.
void put_quantiles(obs::JsonValue& metrics, obs::JsonValue& samples,
                   std::vector<std::string>& notes, const std::string& name,
                   std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const Quantile p50 = quantile_sorted(values, 0.50);
  const Quantile p99 = quantile_sorted(values, 0.99);
  metrics[name + ".p50"] = p50.value;
  metrics[name + ".p99"] = p99.value;
  samples[name] = as_count(values.size());
  if (!p99.supported) {
    notes.push_back(name + ".p99 has only " + std::to_string(p99.beyond) +
                    " samples beyond it (n = " + std::to_string(values.size()) +
                    "; highest quotable quantile " +
                    std::to_string(highest_supported_quantile(values.size())) + ")");
  }
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Measured values together with the same values at reference speed (see
/// clock_probe_ms and memory_probe_ms): a time is multiplied by its phase's
/// scale, a rate divided by it.
struct Scaled {
  std::vector<double> raw, scaled;
  void time(double value, double scale) {
    raw.push_back(value);
    scaled.push_back(value * scale);
  }
  void rate(double value, double scale) {
    raw.push_back(value);
    scaled.push_back(value / scale);
  }
};

/// Everything the closed-loop slices measure, across cycles.
struct CapacityTally {
  std::vector<double> rps_cpu;  // untraced rounds: routes per CPU-second
  Scaled rps_wall;              // untraced rounds: routes per second
  std::vector<double> cpu_plain, cpu_traced;  // CPU seconds per round
  std::uint64_t digest = 0, hops = 0, shed = 0, failed = 0, requests = 0;
  std::uint64_t chunks = 0;  // scraped parallel.chunks over the slices
  std::size_t rounds = 0;
};

/// Everything the open-loop slices measure, across cycles.
struct OpenLoopTally {
  std::vector<double> latencies;  // due-time latency, delivered, in order
  Scaled cycle_p50[kNumServeSchemes];      // per scheme: each cycle's median
  Scaled after_publish[kNumServeSchemes];  // see reload_p50_us
  std::size_t fewest_per_cycle = ~std::size_t{0};  // per scheme and cycle
  std::size_t publish_windows = 0;
  std::vector<double> lateness, submit_ns, pump_us, queue_wait_us, service_us;
  std::size_t pumps = 0, pumped = 0, reconciled = 0, split = 0;
  std::uint64_t attempted = 0, failed = 0, shed = 0, swaps = 0;
  std::uint64_t expected_swaps = 0, digest = 0;
  std::size_t epochs = 0, threads_seen = 0;
};

/// Epoch-load measurements, one set per cycle.
struct LoadTally {
  Scaled cpu_ms;
  std::vector<double> load_ms, self_audit_ms, publish_ms, map_ms, decode_ms,
      arena_ms;
};

}  // namespace

int run_benchmark(const Args& args) {
  std::vector<std::string> errors;
  std::vector<std::string> notes;

  const ThreadPlan plan = plan_threads(available_cpus(), args.reload_every != 0);
  const std::size_t ol_workers = std::min(kOpenLoopWorkers, plan.workers);
  Executor::global().set_workers(plan.workers);
  preregister_build_metrics();
  preregister_serving_metrics();
  obs::SpanCollector::global().enable(args.trace);
  std::filesystem::create_directories(args.out_dir);
  double stage_start = now_us();
  const auto stage_done = [&](const char* stage) {
    const double now = now_us();
    std::fprintf(stderr, "[crbench] %-12s %8.2f s\n", stage, (now - stage_start) * 1e-6);
    stage_start = now;
  };

  const Graph graph = make_graph(args.graph);
  const std::size_t n = graph.num_nodes();
  const std::string stem = args.out_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + (args.trace ? "-t" : "");
  ServerOptions server_options;
  server_options.queue_depth = kQueueDepth;
  std::atomic<std::uint64_t> next_epoch_id{1};

  // The clock probe brackets every set-up and every cycle's phases; the
  // memory probe brackets each open loop.
  std::vector<double> probe_ms = {clock_probe_ms()};
  std::vector<double> memory_ms;
  const auto probe_scale = [&] {
    probe_ms.push_back(clock_probe_ms());
    return speed_scale(probe_ms[probe_ms.size() - 2], probe_ms.back());
  };

  // ------------------------------------------------------------- set-ups
  std::vector<SetupTimes> setups;
  Scaled setup_s;
  SetupResult live;
  Quality built_quality;
  std::string snapshot_path;
  for (std::size_t k = 0; k < kSetups; ++k) {
    live = SetupResult{};  // retire the previous server + epoch first
    if (!snapshot_path.empty()) std::filesystem::remove(snapshot_path);
    SetupOptions options;
    options.snapshot_path = stem + "-setup" + std::to_string(k) + ".snap";
    options.epoch_id = next_epoch_id++;
    options.server = server_options;
    const bool last = k + 1 == kSetups;
    options.quality_pairs = k == 0 || last ? kQualityPairs : 0;
    live = run_setup(graph, options);
    setup_s.time(live.times.total_s, probe_scale());
    snapshot_path = options.snapshot_path;
    if (k == 0) {
      built_quality = live.built_quality;
    } else if (last && !(live.built_quality == built_quality)) {
      // Stretch and table bits must repeat exactly from an independent build.
      errors.push_back("stretch/table bits of set-up " + std::to_string(k) +
                       " differ from set-up 0");
    }
    if (k > 0 && (live.times.snapshot_crc != setups[0].snapshot_crc ||
                  live.times.snapshot_bytes != setups[0].snapshot_bytes)) {
      errors.push_back("set-up " + std::to_string(k) +
                       " wrote a different snapshot than set-up 0");
    }
    setups.push_back(live.times);
  }
  if (built_quality.failures != 0) {
    errors.push_back(std::to_string(built_quality.failures) +
                     " quality-sample routes failed");
  }
  Server& server = *live.server;
  const ServerEpoch& reference_epoch = *live.epoch;
  const HopStack reference(reference_epoch.stack());
  stage_done("set-ups");

  TrafficOptions traffic;
  // Zipf destinations use TrafficOptions' default skew, 1.0.
  traffic.shape = args.traffic == "zipf" ? TrafficShape::kZipf : TrafficShape::kUniform;
  const std::vector<ServeScheme> mix = {ServeScheme::kHierarchical,
                                        ServeScheme::kScaleFree,
                                        ServeScheme::kSimpleNi,
                                        ServeScheme::kScaleFreeNi};
  const std::vector<ServerRequest> cap_stream =
      make_traffic(n, kCapacityRound, derive_seed(args.seed, 3), mix, traffic);
  std::vector<ServerResult> cap_results(cap_stream.size());
  const std::size_t ol_slice = static_cast<std::size_t>(std::llround(
      args.offered_rps * (1 - kCapacityShare) * args.seconds / kCycles));

  CapacityTally cap;
  OpenLoopTally ol;
  LoadTally loads;
  Server scratch(server_options);  // receives the timed epoch loads

  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    // ---------------------------------------------------------- epoch load
    {
      double t0 = now_us();
      const double cpu0 = process_cpu_seconds();
      std::shared_ptr<ServerEpoch> epoch;
      {
        obs::SpanScope span("load.epoch", "server");
        epoch = ServerEpoch::load(snapshot_path, true, next_epoch_id++);
      }
      double t1 = now_us();
      const double load_cpu_ms = (process_cpu_seconds() - cpu0) * 1e3;
      loads.load_ms.push_back(ms_between(t0, t1));
      loads.self_audit_ms.push_back(ms_between(t0, t1) - epoch->load_info().load_ms -
                                    epoch->load_info().arena_ms);
      {
        obs::SpanScope span("server.publish", "server");
        scratch.publish(std::move(epoch));
      }
      loads.publish_ms.push_back(ms_between(t1, now_us()));
      loads.cpu_ms.time(load_cpu_ms, probe_scale());
      if (args.trace) {
        // The same load, layer by layer through the public calls.
        t0 = now_us();
        std::optional<MappedSnapshot> mapped;
        {
          obs::SpanScope span("load.map", "io");
          mapped.emplace(snapshot_path);
        }
        t1 = now_us();
        SnapshotStack stack;
        {
          obs::SpanScope span("load.decode", "io");
          stack = mapped->decode();
        }
        const double t2 = now_us();
        {
          obs::SpanScope span("load.arena", "runtime");
          const auto arena = stack.build_arena();
        }
        loads.map_ms.push_back(ms_between(t0, t1));
        loads.decode_ms.push_back(ms_between(t1, t2));
        loads.arena_ms.push_back(ms_between(t2, now_us()));
      }
    }

    // ------------------------------------------------------ closed loop
    const double budget_s = kCapacityShare * args.seconds / kCycles;
    std::vector<double> round_rps;
    const std::uint64_t chunks0 = scraped_counter("parallel.chunks");
    const double start = now_us();
    do {
      // Traced runs alternate span recording per round, so the run itself
      // measures what tracing costs.
      const std::size_t r = cap.rounds++;
      obs::SpanCollector::global().enable(args.trace && r % 2 == 1);
      const CapacityRound round =
          run_capacity_round(server, kQueueDepth, cap_stream, cap_results);
      obs::SpanCollector::global().enable(args.trace);
      cap.shed += round.shed;
      cap.requests += round.requests;
      (round.traced ? cap.cpu_traced : cap.cpu_plain).push_back(round.cpu_seconds);
      if (!round.traced) {
        cap.rps_cpu.push_back(static_cast<double>(round.requests) / round.cpu_seconds);
        round_rps.push_back(static_cast<double>(round.requests) / round.seconds);
      }
      // Round 0 is gated against serve_batch; every later round must repeat
      // its digest and hop total exactly.
      const std::uint64_t digest = Server::delivered_digest(cap_results);
      std::uint64_t hops = 0;
      for (const ServerResult& res : cap_results) hops += res.hops;
      if (r == 0) {
        const GateReport gate = check_against_serve_batch(
            reference_epoch, reference, cap_stream, cap_results, false, &errors);
        cap.failed += gate.mismatched;
        cap.digest = digest;
        cap.hops = hops;
      } else if (digest != cap.digest || hops != cap.hops) {
        errors.push_back("capacity round " + std::to_string(r) + " digest " +
                         hex64(digest) + " / hops " + std::to_string(hops) +
                         " differ from round 0 (" + hex64(cap.digest) + " / " +
                         std::to_string(cap.hops) + ")");
        cap.failed += round.requests;
      }
    } while ((now_us() - start) * 1e-6 < budget_s);
    cap.chunks += scraped_counter("parallel.chunks") - chunks0;
    const double cap_scale = probe_scale();
    for (const double rps : round_rps) cap.rps_wall.rate(rps, cap_scale);
    const double memory_before_ms = memory_probe_ms();
    memory_ms.push_back(memory_before_ms);

    // -------------------------------------------------------- open loop
    const std::vector<ServerRequest> stream =
        make_traffic(n, ol_slice, derive_seed(args.seed, 100 + cycle), mix, traffic);
    std::vector<ServerResult> results(stream.size());
    OpenLoopPlan ol_plan;
    ol_plan.offered_rps = args.offered_rps;
    ol_plan.reload_every = args.reload_every;
    ol_plan.load_epoch = [&] {
      return ServerEpoch::load(snapshot_path, true, next_epoch_id++);
    };
    const ServerCounters before = server.counters();
    Executor::global().set_workers(ol_workers);
    const OpenLoopRun run = run_open_loop(server, stream, results, ol_plan);
    Executor::global().set_workers(plan.workers);
    // A hop both computes and waits on memory, so the open loop's latencies
    // are scaled by the geometric mean of the clock and memory scales.
    const double clock_scale = probe_scale();
    const double memory_after_ms = memory_probe_ms();
    memory_ms.push_back(memory_after_ms);
    const double open_scale = std::sqrt(
        clock_scale * kMemoryProbeReferenceMs / (0.5 * (memory_before_ms + memory_after_ms)));
    const ServerCounters after = server.counters();
    ol.swaps += after.swaps - before.swaps;
    ol.shed += after.shed - before.shed;
    if (args.reload_every != 0) ol.expected_swaps += (stream.size() - 1) / args.reload_every;
    ol.threads_seen = std::max(ol.threads_seen, run.threads_seen);

    std::size_t failed = 0;
    const std::vector<double> lat = due_time_latencies(run.stamps, results, &failed);
    ol.latencies.insert(ol.latencies.end(), lat.begin(), lat.end());
    std::vector<double> by_scheme[kNumServeSchemes];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      double latency = 0;
      if (due_time_latency(run.stamps, results, i, &latency)) {
        by_scheme[static_cast<std::size_t>(stream[i].scheme)].push_back(latency);
      }
    }
    for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
      ol.fewest_per_cycle = std::min(ol.fewest_per_cycle, by_scheme[s].size());
      ol.cycle_p50[s].time(median(by_scheme[s]), open_scale);
    }
    // Requests due just after each publish began (or, without reloads,
    // after every kMarkEvery-th request), per scheme.
    std::vector<std::size_t> marks;
    const std::vector<double>& due = run.stamps.due_us;
    for (const double start : run.publish_start_us) {
      marks.push_back(static_cast<std::size_t>(
          std::lower_bound(due.begin(), due.end(), start) - due.begin()));
    }
    if (args.reload_every == 0) {
      for (std::size_t i = kMarkEvery; i < stream.size(); i += kMarkEvery) marks.push_back(i);
    }
    for (const std::size_t first : marks) {
      for (std::size_t i = first; i < std::min(stream.size(), first + kPublishWindow); ++i) {
        double latency = 0;
        if (due_time_latency(run.stamps, results, i, &latency)) {
          ol.after_publish[static_cast<std::size_t>(stream[i].scheme)].time(latency,
                                                                            open_scale);
        }
      }
    }
    ol.publish_windows += marks.size();
    const GateReport gate = check_against_serve_batch(
        reference_epoch, reference, stream, results,
        args.inject_digest && cycle == 0, &errors);
    ol.failed += failed + gate.mismatched;
    ol.attempted += stream.size();
    ol.digest ^= gate.digest;
    ol.epochs += gate.epochs;
    if (args.trace) {
      const std::vector<double> late = generator_lateness(run.stamps);
      ol.lateness.insert(ol.lateness.end(), late.begin(), late.end());
      for (std::size_t i = 0; i < stream.size(); ++i) {
        ol.submit_ns.push_back((run.stamps.ret_us[i] - run.stamps.call_us[i]) * 1e3);
      }
      for (const PumpRecord& p : run.pumps) {
        ol.pump_us.push_back(p.end_us - p.start_us);
        ol.pumped += p.served;
      }
      ol.pumps += run.pumps.size();
      const LatencySplit split = split_latency(run, results, kReconcileSlackUs);
      ol.queue_wait_us.insert(ol.queue_wait_us.end(), split.queue_wait_us.begin(),
                              split.queue_wait_us.end());
      ol.service_us.insert(ol.service_us.end(), split.service_us.begin(),
                           split.service_us.end());
      ol.reconciled += split.reconciled;
      ol.split += split.delivered;
    }
  }
  stage_done("cycles");

  // The latency checks: enough samples, the swap cadence, the thread budget.
  // End-to-end p50: per scheme, the median over cycles of each cycle's
  // median, averaged over the schemes. The mix is half labeled (short
  // routes) and half name-independent (4-5x longer), so the overall median
  // sits on the gap between the two clusters and jumps across it with small
  // speed changes; each scheme's own median does not. Each is computed raw
  // and at reference speed.
  const auto mean_over_schemes = [](const Scaled (&per_scheme)[kNumServeSchemes],
                                    std::vector<double> Scaled::*which) {
    double sum = 0;
    for (const Scaled& s : per_scheme) sum += median(s.*which);
    return sum / static_cast<double>(kNumServeSchemes);
  };
  if (ol.fewest_per_cycle < kMinCycleSamples) {
    errors.push_back("a scheme delivered only " + std::to_string(ol.fewest_per_cycle) +
                     " open-loop requests in a cycle (need " +
                     std::to_string(kMinCycleSamples) + ")");
  }
  // End-to-end reload_p50_us: the same per-scheme mean of medians, over the
  // requests due just after each publish began, pooled over the run, so it
  // sees reads slowed by the publish (its audits, the swap, a cold new epoch)
  // beside them.
  std::size_t reload_samples = 0;
  for (const Scaled& s : ol.after_publish) {
    if (s.raw.empty()) {
      errors.push_back("a scheme served no request just after a publish");
    }
    reload_samples += s.raw.size();
  }
  if (args.reload_every != 0) {
    if (ol.swaps != ol.expected_swaps) {
      errors.push_back("made " + std::to_string(ol.swaps) + " epoch swaps, expected " +
                       std::to_string(ol.expected_swaps));
    }
    if (ol.epochs <= kCycles) {
      errors.push_back("reloads ran but open-loop slices saw only " +
                       std::to_string(ol.epochs) + " (epoch, slice) pairs");
    }
  }
  if (plan.within_budget && ol.threads_seen > plan.nproc) {
    errors.push_back("process ran " + std::to_string(ol.threads_seen) +
                     " threads on " + std::to_string(plan.nproc) + " CPUs");
  }
  const double delivered_frac =
      static_cast<double>(ol.attempted - std::min(ol.failed, ol.attempted)) /
      static_cast<double>(ol.attempted);

  // -------------------------------------------------------------- results
  obs::JsonValue metrics = obs::JsonValue::object();
  obs::JsonValue samples = obs::JsonValue::object();
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(v);
  };

  if (!args.trace) {
    metrics["setup_s"] = median(setup_s.scaled);
    metrics["peak_rss_mb"] = static_cast<double>(obs::peak_rss_bytes()) / 1e6;
    metrics["epoch_load_cpu_ms"] = median(loads.cpu_ms.scaled);
    metrics["capacity_rps"] = quantile(cap.rps_wall.scaled, kQuietRounds).value;
    metrics["p50_us"] = mean_over_schemes(ol.cycle_p50, &Scaled::scaled);
    metrics["reload_p50_us"] = mean_over_schemes(ol.after_publish, &Scaled::scaled);
    metrics["delivered_frac"] = delivered_frac;
    metrics["stretch_avg"] = built_quality.stretch_avg();
    metrics["stretch_max"] = built_quality.stretch_max;
    metrics["table_bits_per_node"] = built_quality.table_bits_per_node;
    samples["setup_s"] = as_count(setups.size());
    samples["epoch_loads"] = as_count(loads.cpu_ms.raw.size());
    samples["capacity_rounds"] = as_count(cap.rps_wall.raw.size());
    samples["latency"] = as_count(ol.latencies.size());
    samples["latency_cycles"] = as_count(kCycles);
    samples["latency_fewest_per_scheme_and_cycle"] = as_count(ol.fewest_per_cycle);
    samples["reload_latency"] = as_count(reload_samples);
    samples["reload_windows"] = as_count(ol.publish_windows);
    samples["stretch_pairs"] = as_count(built_quality.pairs);
  } else {
    metrics["build.metric_ms"] = setup_median(&SetupTimes::metric_ms);
    metrics["build.hierarchy_ms"] = setup_median(&SetupTimes::hierarchy_ms);
    metrics["build.labeled_hier_ms"] = setup_median(&SetupTimes::labeled_hier_ms);
    metrics["build.labeled_sf_ms"] = setup_median(&SetupTimes::labeled_sf_ms);
    metrics["build.ni_simple_ms"] = setup_median(&SetupTimes::ni_simple_ms);
    metrics["build.ni_sf_ms"] = setup_median(&SetupTimes::ni_sf_ms);
    metrics["build.balls_issued"] = setups[0].balls_issued;
    metrics["build.balls_settled"] = setups[0].balls_settled;
    metrics["build.snapshot_write_ms"] = setup_median(&SetupTimes::snapshot_write_ms);
    metrics["build.snapshot_bytes"] = setups[0].snapshot_bytes;
    metrics["load.epoch_wall_ms"] = median(loads.load_ms);
    metrics["load.map_ms"] = median(loads.map_ms);
    metrics["load.decode_ms"] = median(loads.decode_ms);
    metrics["load.arena_ms"] = median(loads.arena_ms);
    metrics["load.self_audit_ms"] = median(loads.self_audit_ms);
    metrics["server.publish_ms"] = median(loads.publish_ms);
    metrics["server.capacity_cpu_rps"] = median(cap.rps_cpu);

    // Hop steppers: serve_batch on one worker, latencies and telemetry off.
    const SchemeBatches batches = split_by_scheme(reference_epoch, cap_stream);
    static const char* kHopNames[] = {"hier", "sf", "simple", "sfni"};
    ServeOptions bare;
    bare.collect_latencies = false;
    bare.instrument = false;
    Executor::global().set_workers(1);
    for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
      const HopScheme& scheme = reference.scheme(static_cast<ServeScheme>(s));
      std::vector<double> ns_per_hop;
      ServeStats stats;
      for (int rep = 0; rep < 5; ++rep) {
        stats = serve_batch(reference.csr(), scheme, batches.requests[s], bare);
        ns_per_hop.push_back(stats.elapsed_s * 1e9 /
                             static_cast<double>(std::max<std::size_t>(1, stats.total_hops)));
      }
      const std::string prefix = std::string("hop.") + kHopNames[s];
      metrics[prefix + ".ns_per_hop"] = median(ns_per_hop);
      metrics[prefix + ".hops_per_route"] =
          static_cast<double>(stats.total_hops) / static_cast<double>(stats.requests);
    }
    Executor::global().set_workers(plan.workers);

    // The queue-free ceiling and the telemetry cost, all workers, whole mix.
    std::vector<double> batch_rps, instrumented_s, plain_s;
    for (int rep = 0; rep < 5; ++rep) {
      double bare_s = 0, on_s = 0, off_s = 0;
      const ServeOptions on;  // serving defaults: latencies + telemetry on
      ServeOptions off = on;
      off.instrument = false;
      for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
        const HopScheme& scheme = reference.scheme(static_cast<ServeScheme>(s));
        const auto& batch = batches.requests[s];
        bare_s += serve_batch(reference.csr(), scheme, batch, bare).elapsed_s;
        // Alternate which arm runs first.
        const bool on_first = rep % 2 == 0;
        const double first =
            serve_batch(reference.csr(), scheme, batch, on_first ? on : off).elapsed_s;
        const double second =
            serve_batch(reference.csr(), scheme, batch, on_first ? off : on).elapsed_s;
        on_s += on_first ? first : second;
        off_s += on_first ? second : first;
      }
      batch_rps.push_back(static_cast<double>(cap_stream.size()) / bare_s);
      instrumented_s.push_back(on_s);
      plain_s.push_back(off_s);
    }
    metrics["serve_batch.rps"] = median(batch_rps);
    metrics["obs.instrument_overhead_frac"] =
        median(instrumented_s) / median(plain_s) - 1.0;

    // Server internals, from the open-loop slices.
    put_quantiles(metrics, samples, notes, "server.submit_ns", ol.submit_ns);
    put_quantiles(metrics, samples, notes, "server.pump_us", ol.pump_us);
    metrics["server.pump_batch"] =
        ol.pumps == 0 ? 0.0 : static_cast<double>(ol.pumped) / static_cast<double>(ol.pumps);
    put_quantiles(metrics, samples, notes, "server.queue_wait_us", ol.queue_wait_us);
    put_quantiles(metrics, samples, notes, "server.service_us", ol.service_us);
    metrics["server.shed"] = cap.shed + ol.shed;
    metrics["server.swaps"] = ol.swaps;
    metrics["parallel.chunks_per_kreq"] =
        static_cast<double>(cap.chunks) / (static_cast<double>(cap.requests) / 1000.0);
    put_quantiles(metrics, samples, notes, "gen.late_us", ol.lateness);
    put_quantiles(metrics, samples, notes, "latency.all_us", ol.latencies);
    metrics["trace.overhead_frac"] = median(cap.cpu_traced) / median(cap.cpu_plain) - 1.0;

    // The two reconciliations, each against a stated tolerance.
    const double reconciled_frac =
        ol.split == 0 ? 0.0
                      : static_cast<double>(ol.reconciled) / static_cast<double>(ol.split);
    metrics["trace.latency_reconciled_frac"] = reconciled_frac;
    if (reconciled_frac < kMinReconciled) {
      errors.push_back("only " + std::to_string(reconciled_frac) +
                       " of open-loop latencies split into queue wait + service "
                       "(need " + std::to_string(kMinReconciled) + ")");
    }
    const auto spans = obs::SpanCollector::global().snapshot();
    const SpanAnalysis analysis = analyze_spans(spans);
    double setup_gap = 0;
    for (const double g : analysis.setup_gap_frac) setup_gap = std::max(setup_gap, g);
    metrics["trace.setup_gap_frac"] = setup_gap;
    if (analysis.setup_gap_frac.size() != setups.size() || setup_gap > kMaxSetupGap) {
      errors.push_back("set-up phase spans leave " + std::to_string(setup_gap) +
                       " of set-up uncovered (tolerance " +
                       std::to_string(kMaxSetupGap) + ")");
    }
    std::fprintf(stderr, "\nself time by layer (traced run, %zu spans):\n%s",
                 spans.size(), format_self_time(analysis).c_str());
    const std::string trace_path = stem + ".trace.json";
    if (!obs::write_text_file(trace_path,
                              obs::spans_to_chrome_trace(spans).dump(0) + "\n")) {
      errors.push_back("could not write " + trace_path);
    }
    std::fprintf(stderr, "chrome trace: %s\n", trace_path.c_str());
  }
  // In every run's result document: the end-to-end timings as measured,
  // before scaling to reference speed, and the probes behind the scaling (per-layer metrics; an untraced run's document keeps them so
  // raw and scaled figures of the same runs can be compared).
  metrics["raw.setup_s"] = median(setup_s.raw);
  metrics["raw.epoch_load_cpu_ms"] = median(loads.cpu_ms.raw);
  metrics["raw.capacity_rps"] = quantile(cap.rps_wall.raw, kQuietRounds).value;
  metrics["raw.p50_us"] = mean_over_schemes(ol.cycle_p50, &Scaled::raw);
  metrics["raw.reload_p50_us"] = mean_over_schemes(ol.after_publish, &Scaled::raw);
  metrics["probe.ms"] = median(probe_ms);
  metrics["probe.memory_ms"] = median(memory_ms);
  samples["probe"] = as_count(probe_ms.size());
  samples["memory_probe"] = as_count(memory_ms.size());
  std::filesystem::remove(snapshot_path);
  stage_done("report");

  obs::JsonValue provenance = obs::JsonValue::object();
  provenance["nproc"] = as_count(plan.nproc);
  provenance["cpu_model"] = cpu_model();
  provenance["build_type"] = CRBENCH_BUILD_TYPE;
  provenance["compiler"] = compiler();
  provenance["executor_workers"] = as_count(plan.workers);
  provenance["open_loop_workers"] = as_count(ol_workers);
  provenance["generator_threads"] = as_count(plan.generator);
  provenance["loader_threads"] = as_count(plan.loader);
  provenance["thread_budget_used"] = as_count(plan.total);
  provenance["threads_seen"] = as_count(ol.threads_seen);
  provenance["offered_rps"] = args.offered_rps;
  provenance["reload_every"] = as_count(args.reload_every);
  provenance["graph"] = args.graph;
  provenance["n"] = as_count(n);
  provenance["epsilon"] = kEpsilon;
  provenance["traffic"] = args.traffic;

  obs::JsonValue digests = obs::JsonValue::object();
  digests["snapshot_crc32"] = hex64(setups[0].snapshot_crc);
  digests["epoch_self_fingerprint"] = hex64(reference_epoch.self_fingerprint());
  digests["capacity_round"] = hex64(cap.digest);
  digests["open_loop"] = hex64(ol.digest);

  obs::JsonValue doc = obs::JsonValue::object();
  doc["workload"] = args.workload;
  doc["seed"] = args.seed;
  doc["trace"] = args.trace;
  doc["correct"] = errors.empty();
  doc["attempted"] = as_count(setups.size()) + cap.requests + ol.attempted;
  doc["failed"] = cap.shed + cap.failed + ol.failed + errors.size();
  doc["metrics"] = std::move(metrics);
  doc["samples"] = std::move(samples);
  doc["digests"] = std::move(digests);
  doc["provenance"] = std::move(provenance);
  obs::JsonValue error_list = obs::JsonValue::array();
  for (const std::string& e : errors) error_list.push_back(e);
  doc["errors"] = std::move(error_list);
  obs::JsonValue note_list = obs::JsonValue::array();
  for (const std::string& e : notes) note_list.push_back(e);
  doc["notes"] = std::move(note_list);

  for (const std::string& e : errors) std::fprintf(stderr, "ERROR: %s\n", e.c_str());
  std::printf("%s\n", doc.dump(0).c_str());
  return errors.empty() ? 0 : 1;
}

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crbench: run aborted: %s\n", e.what());
    return 1;
  }
}
