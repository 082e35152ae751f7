// Experiment E7/E10 — serving throughput from a snapshot: the build-once /
// serve-heavy half of the compact-routing story. One stack is built at
// n = 1024, serialized with io/snapshot, reloaded WITHOUT the metric
// backend, and then batch route requests are replayed against the loaded
// tables on 4 workers through runtime/serve. Reported per scheme: routes/s,
// latency percentiles, hops per route, and the batch fingerprint.
//
// The loaded stack serves through one shared HopArena (flat hop-state slabs,
// E10); the fresh in-process stack serves through the REFERENCE FSMs
// (HopTables::kReference, the original nested-container walks). The
// fingerprint equality check below therefore certifies both fidelity axes at
// once: loaded == fresh AND arena == reference, route for route.
//
// Headlines (n = 1024, 4 workers, `*_target_met` in BENCH_serving.json):
//   * hop/labeled-hierarchical >= 1M routes/s
//   * both name-independent schemes >= 200k routes/s
//
// E11 rides the same binary (the stack is already built): the vector-vs-mmap
// snapshot load comparison, the `hot_swap` table — sustained mixed-scheme
// load through runtime/server while background epoch reloads publish
// kSwapCycles times, every fingerprint checked against the no-reload golden
// pass — and the shed-rate vs offered-load curve at fixed queue depth.
//
// Optional argv: `bench_serving ROWS COLS` overrides the grid (CI perf-smoke
// runs 16 32 for a faster n = 512 gate; targets are only asserted at the
// default 32 32).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <vector>

#include "bench_util.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_mmap.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"
#include "runtime/server.hpp"

using namespace compactroute;
using bench::write_bench_json;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kPairs = 20000;
constexpr std::uint64_t kSeed = 1;
constexpr double kEps = 0.5;
constexpr double kHeadlineRoutesPerSec = 1000000.0;  // labeled hierarchical
constexpr double kNiRoutesPerSec = 200000.0;         // each NI scheme

constexpr std::size_t kSwapCycles = 8;  // E11 reload cycles under load

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double percentile_of(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace

int main(int argc, char** argv) {
  Executor::global().set_workers(kWorkers);

  std::size_t rows = 32;
  std::size_t cols = 32;
  if (argc == 3) {
    rows = static_cast<std::size_t>(std::atoi(argv[1]));
    cols = static_cast<std::size_t>(std::atoi(argv[2]));
    CR_CHECK_MSG(rows >= 2 && cols >= 2, "usage: bench_serving [rows cols]");
  }
  char graph_name[64];
  std::snprintf(graph_name, sizeof(graph_name), "grid-%zux%zu", rows, cols);

  std::printf("E7/E10: snapshot serving, %s (n = %zu), eps = %.2f, "
              "%zu workers, %zu pairs/scheme\n\n",
              graph_name, rows * cols, kEps, kWorkers, kPairs);

  bench::Stack stack(make_grid(rows, cols), kEps);
  stack.build_name_independent();
  const std::size_t n = stack.metric.n();

  auto start = std::chrono::steady_clock::now();
  const std::vector<std::uint8_t> bytes = encode_snapshot(
      stack.metric, kEps, stack.hierarchy, stack.naming, *stack.hier_labeled,
      *stack.sf_labeled, *stack.simple_ni, *stack.sf_ni);
  const double encode_ms = elapsed_ms(start);

  start = std::chrono::steady_clock::now();
  const SnapshotStack loaded = decode_snapshot(bytes);
  const double decode_ms = elapsed_ms(start);

  // One arena shared by all four loaded-side hop runtimes (E10).
  start = std::chrono::steady_clock::now();
  const std::shared_ptr<const HopArena> arena = loaded.build_arena();
  const double arena_ms = elapsed_ms(start);
  std::printf("snapshot: %zu bytes (%.1f bits/node), encode %.1f ms, "
              "load %.1f ms; arena: %zu bytes, build %.1f ms\n\n",
              bytes.size(), 8.0 * static_cast<double>(bytes.size()) /
                                static_cast<double>(n),
              encode_ms, decode_ms, arena->memory_bytes(), arena_ms);

  const auto labeled = make_requests(n, kPairs, kSeed, [&](NodeId v) {
    return std::uint64_t{loaded.hierarchy->leaf_label(v)};
  });
  const auto named = make_requests(n, kPairs, kSeed + 1, [&](NodeId v) {
    return loaded.naming->name_of(v);
  });

  obs::JsonValue doc = obs::JsonValue::object();
  doc["bench"] = std::string("serving");
  doc["graph"] = std::string(graph_name);
  doc["n"] = static_cast<std::uint64_t>(n);
  doc["epsilon"] = kEps;
  doc["workers"] = static_cast<std::uint64_t>(kWorkers);
  doc["pairs"] = static_cast<std::uint64_t>(kPairs);
  doc["seed"] = kSeed;
  doc["snapshot_bytes"] = static_cast<std::uint64_t>(bytes.size());
  doc["arena_bytes"] = static_cast<std::uint64_t>(arena->memory_bytes());
  doc["encode_ms"] = encode_ms;
  doc["decode_ms"] = decode_ms;
  doc["arena_build_ms"] = arena_ms;
  doc["schemes"] = obs::JsonValue::array();

  std::printf("%-26s %12s %9s %9s %9s %9s %10s\n", "scheme", "routes/s",
              "p50-us", "p90-us", "p99-us", "p999-us", "hops/rt");

  double headline_routes_per_sec = 0;
  double ni_min_routes_per_sec = -1;
  const auto run = [&](const HopScheme& loaded_hop, const HopScheme& fresh_hop,
                       const std::vector<ServeRequest>& requests,
                       bool headline, bool ni) {
    // Warm the caches and the executor before the measured batch.
    const std::vector<ServeRequest> warmup(requests.begin(),
                                           requests.begin() + 512);
    (void)serve_batch(loaded.csr, loaded_hop, warmup);

    const ServeStats s = serve_batch(loaded.csr, loaded_hop, requests);

    // Fidelity gate: the loaded snapshot serving through the arena must
    // route exactly like the fresh build stepping the reference FSMs.
    ServeOptions fp_only;
    fp_only.collect_latencies = false;
    const ServeStats fresh =
        serve_batch(stack.metric.csr(), fresh_hop, requests, fp_only);
    CR_CHECK_MSG(fresh.fingerprint == s.fingerprint,
                 "loaded arena fingerprint diverges from fresh reference");

    std::printf("%-26s %12.0f %9.2f %9.2f %9.2f %9.2f %10.2f\n",
                loaded_hop.name().c_str(), s.routes_per_sec, s.p50_us, s.p90_us,
                s.p99_us, s.p999_us,
                static_cast<double>(s.total_hops) /
                    static_cast<double>(s.requests));
    if (headline) headline_routes_per_sec = s.routes_per_sec;
    if (ni && (ni_min_routes_per_sec < 0 ||
               s.routes_per_sec < ni_min_routes_per_sec)) {
      ni_min_routes_per_sec = s.routes_per_sec;
    }

    obs::JsonValue entry = obs::JsonValue::object();
    entry["scheme"] = loaded_hop.name();
    entry["requests"] = static_cast<std::uint64_t>(s.requests);
    entry["delivered"] = static_cast<std::uint64_t>(s.delivered);
    entry["total_hops"] = static_cast<std::uint64_t>(s.total_hops);
    entry["elapsed_s"] = s.elapsed_s;
    entry["routes_per_sec"] = s.routes_per_sec;
    entry["p50_us"] = s.p50_us;
    entry["p90_us"] = s.p90_us;
    entry["p99_us"] = s.p99_us;
    entry["p999_us"] = s.p999_us;
    entry["max_us"] = s.max_us;
    entry["fingerprint"] = obs::hex_u64(s.fingerprint);
    entry["matches_fresh_build"] = true;  // CR_CHECK above aborts otherwise
    doc["schemes"].push_back(std::move(entry));
  };

  run(HierarchicalHopScheme(*loaded.hier, arena),
      HierarchicalHopScheme(*stack.hier_labeled, HopTables::kReference),
      labeled, /*headline=*/true, /*ni=*/false);
  run(ScaleFreeHopScheme(*loaded.sf, arena),
      ScaleFreeHopScheme(*stack.sf_labeled, HopTables::kReference), labeled,
      false, false);
  run(SimpleNameIndependentHopScheme(*loaded.simple, *loaded.hier, arena),
      SimpleNameIndependentHopScheme(*stack.simple_ni, *stack.hier_labeled,
                                     HopTables::kReference),
      named, false, /*ni=*/true);
  run(ScaleFreeNameIndependentHopScheme(*loaded.sfni, *loaded.sf, arena),
      ScaleFreeNameIndependentHopScheme(*stack.sf_ni, *stack.sf_labeled,
                                        HopTables::kReference),
      named, false, /*ni=*/true);

  const bool target_met = headline_routes_per_sec >= kHeadlineRoutesPerSec;
  const bool ni_target_met = ni_min_routes_per_sec >= kNiRoutesPerSec;
  doc["headline_routes_per_sec"] = headline_routes_per_sec;
  doc["headline_target"] = kHeadlineRoutesPerSec;
  doc["headline_target_met"] = target_met;
  doc["ni_min_routes_per_sec"] = ni_min_routes_per_sec;
  doc["ni_target"] = kNiRoutesPerSec;
  doc["ni_target_met"] = ni_target_met;
  std::printf("\nheadline: %.0f routes/s on hop/labeled-hierarchical "
              "(target %.0f) — %s\n",
              headline_routes_per_sec, kHeadlineRoutesPerSec,
              target_met ? "met" : "MISSED");
  std::printf("name-independent: %.0f routes/s minimum (target %.0f) — %s\n",
              ni_min_routes_per_sec, kNiRoutesPerSec,
              ni_target_met ? "met" : "MISSED");

  // ---- E11: zero-downtime serving (runtime/server) ------------------------
  // Load-path comparison, the hot_swap table (sustained mixed-scheme load
  // across continuous epoch reloads), and the shed-rate vs offered-load
  // curve. Everything below serves through the Server's bounded shard queues
  // rather than serve_batch, so the numbers include queue hand-off.
  const std::string snap_path = "bench_serving_e11.snap";
  write_snapshot_file(snap_path, bytes);

  // (1) Snapshot load: heap read + decode vs mmap zero-copy decode. Median
  // of 5 warm-cache repetitions each (the mmap advantage being the removed
  // whole-file copy, not cold I/O).
  const auto median_load_ms = [&](bool use_mmap) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      std::size_t decoded_n = 0;
      if (use_mmap) {
        decoded_n = load_snapshot_mmap(snap_path).n;
      } else {
        decoded_n = decode_snapshot(read_snapshot_file(snap_path)).n;
      }
      CR_CHECK(decoded_n == n);
      reps.push_back(elapsed_ms(t0));
    }
    return percentile_of(reps, 0.5);
  };
  const double load_ms_vector = median_load_ms(false);
  const double load_ms_mmap = median_load_ms(true);
  doc["load_ms_vector"] = load_ms_vector;
  doc["load_ms_mmap"] = load_ms_mmap;
  doc["mmap_speedup"] = load_ms_vector / std::max(load_ms_mmap, 1e-9);
  std::printf("\nsnapshot load: vector %.2f ms, mmap %.2f ms (%.2fx)\n",
              load_ms_vector, load_ms_mmap,
              load_ms_vector / std::max(load_ms_mmap, 1e-9));

  // Mixed-scheme request stream: every wave carries all four schemes.
  Prng rng(kSeed ^ 0xE11);
  std::vector<ServerRequest> stream(kPairs);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ServerRequest& r = stream[i];
    r.src = static_cast<NodeId>(rng.next_below(n));
    do {
      r.dest = static_cast<NodeId>(rng.next_below(n));
    } while (r.dest == r.src);
    r.scheme = static_cast<ServeScheme>(i % kNumServeSchemes);
  }

  ServerOptions sopt;
  sopt.queue_depth = 1024;
  sopt.shards = kWorkers;
  Server server(sopt);
  std::uint64_t next_epoch_id = 0;
  server.publish(ServerEpoch::load(snap_path, /*use_mmap=*/true,
                                   next_epoch_id++));
  const std::size_t wave = sopt.queue_depth * server.shards();

  // Golden pass: one full tour of the stream with no reloads, recording each
  // request's fingerprint. Epochs reloaded from the same file must reproduce
  // every one of them during the hot-swap run below.
  std::vector<ServerResult> results(stream.size());
  std::vector<std::uint64_t> golden(stream.size());
  for (std::size_t base = 0; base < stream.size(); base += wave) {
    const std::size_t end = std::min(base + wave, stream.size());
    for (std::size_t i = base; i < end; ++i) {
      CR_CHECK(server.submit(stream[i], i));
    }
    server.drain(results);
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    CR_CHECK_MSG(results[i].status == ServeStatus::kDelivered,
                 "golden pass left a request unserved");
    golden[i] = results[i].fingerprint;
    results[i].status = ServeStatus::kPending;
  }

  // (2) hot_swap: sustained load while a background thread reloads the
  // snapshot (mmap + decode + arena compile) kSwapCycles times; each cycle
  // ends with an atomic publish. Every delivered fingerprint is checked
  // against the golden route for its request — across every flip.
  const ServerCounters before_swap = server.counters();
  std::vector<double> swap_lat;
  std::vector<double> epoch_load_ms;
  std::size_t hot_served = 0;
  std::size_t pos = 0;
  const auto hot_t0 = std::chrono::steady_clock::now();
  for (std::size_t cycle = 0; cycle < kSwapCycles; ++cycle) {
    auto incoming = std::async(std::launch::async, [&, id = next_epoch_id] {
      return ServerEpoch::load(snap_path, /*use_mmap=*/true, id);
    });
    ++next_epoch_id;
    bool ready = false;
    do {  // at least one wave per cycle, more while the load is in flight
      for (std::size_t j = 0; j < wave; ++j) {
        const std::size_t idx = (pos + j) % stream.size();
        CR_CHECK(server.submit(stream[idx], idx));
      }
      hot_served += server.drain(results);
      for (std::size_t j = 0; j < wave; ++j) {
        const std::size_t idx = (pos + j) % stream.size();
        CR_CHECK_MSG(results[idx].status == ServeStatus::kDelivered,
                     "hot-swap wave left a request unserved");
        CR_CHECK_MSG(results[idx].fingerprint == golden[idx],
                     "fingerprint diverged across an epoch flip");
        swap_lat.push_back(results[idx].latency_us);
        results[idx].status = ServeStatus::kPending;
      }
      pos = (pos + wave) % stream.size();
      ready = incoming.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready;
    } while (!ready);
    const std::shared_ptr<ServerEpoch> fresh = incoming.get();
    epoch_load_ms.push_back(fresh->load_info().load_ms +
                            fresh->load_info().arena_ms);
    server.publish(fresh);
  }
  const double hot_elapsed_s =
      elapsed_ms(hot_t0) / 1000.0;
  const ServerCounters after_swap = server.counters();
  const std::uint64_t hot_swaps = after_swap.swaps - before_swap.swaps;
  const std::uint64_t hot_shed = after_swap.shed - before_swap.shed;
  CR_CHECK_MSG(hot_swaps == kSwapCycles, "hot-swap run missed a publish");
  CR_CHECK_MSG(hot_shed == 0, "sized-to-capacity waves must not shed");

  const double hot_routes_per_sec =
      static_cast<double>(hot_served) / std::max(hot_elapsed_s, 1e-9);
  obs::JsonValue hot = obs::JsonValue::object();
  hot["cycles"] = static_cast<std::uint64_t>(kSwapCycles);
  hot["swaps"] = hot_swaps;
  hot["requests"] = static_cast<std::uint64_t>(hot_served);
  hot["elapsed_s"] = hot_elapsed_s;
  hot["routes_per_sec"] = hot_routes_per_sec;
  hot["p50_us"] = percentile_of(swap_lat, 0.50);
  hot["p99_us"] = percentile_of(swap_lat, 0.99);
  hot["p999_us"] = percentile_of(swap_lat, 0.999);
  hot["epoch_load_ms_median"] = percentile_of(epoch_load_ms, 0.5);
  hot["shed"] = hot_shed;
  hot["fingerprints_stable"] = true;  // CR_CHECK above aborts otherwise
  doc["hot_swap"] = std::move(hot);
  std::printf("hot_swap: %zu cycles, %zu routes served at %.0f routes/s, "
              "p99 %.2f us, p999 %.2f us, epoch load %.1f ms\n",
              kSwapCycles, hot_served, hot_routes_per_sec,
              percentile_of(swap_lat, 0.99), percentile_of(swap_lat, 0.999),
              percentile_of(epoch_load_ms, 0.5));

  // (3) Shed-rate vs offered load: bursts of factor x total ring capacity
  // against a fixed-depth server, submit-then-pump (the whole burst lands
  // before any drain, so everything past capacity sheds deterministically).
  ServerOptions shed_opt;
  shed_opt.queue_depth = 256;
  shed_opt.shards = kWorkers;
  Server shed_server(shed_opt);
  shed_server.publish(server.current());
  const std::size_t shed_capacity = shed_opt.queue_depth * shed_server.shards();
  const double factors[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  doc["shed_curve"] = obs::JsonValue::array();
  std::printf("\nshed curve (queue capacity %zu):\n", shed_capacity);
  std::printf("%8s %9s %9s %10s\n", "factor", "offered", "shed", "shed-rate");
  std::vector<ServerResult> shed_results(
      static_cast<std::size_t>(8.0 * static_cast<double>(shed_capacity)));
  for (const double factor : factors) {
    const std::size_t offered =
        static_cast<std::size_t>(factor * static_cast<double>(shed_capacity));
    for (std::size_t i = 0; i < offered; ++i) {
      shed_results[i].status = ServeStatus::kPending;
    }
    const ServerCounters b = shed_server.counters();
    for (std::size_t i = 0; i < offered; ++i) {
      (void)shed_server.submit(stream[i % stream.size()], i);
    }
    const ServerCounters mid = shed_server.counters();
    shed_server.drain(shed_results);
    const std::uint64_t burst_shed = mid.shed - b.shed;
    const double shed_rate = static_cast<double>(burst_shed) /
                             static_cast<double>(offered);
    obs::JsonValue point = obs::JsonValue::object();
    point["factor"] = factor;
    point["offered"] = static_cast<std::uint64_t>(offered);
    point["shed"] = burst_shed;
    point["shed_rate"] = shed_rate;
    doc["shed_curve"].push_back(std::move(point));
    std::printf("%8.1f %9zu %9llu %10.3f\n", factor, offered,
                static_cast<unsigned long long>(burst_shed), shed_rate);
  }
  std::remove(snap_path.c_str());

  write_bench_json("BENCH_serving.json", doc);
  return 0;
}
