#include "runtime/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "obs/spans.hpp"

namespace compactroute {

namespace {

#ifndef CR_OBS_DISABLED
obs::LogHistogram& route_hops_histogram() {
  static thread_local obs::LogHistogram* hist =
      &obs::local_registry().log_histogram("serve.route_hops", 1.0, 65536.0,
                                           4);
  return *hist;
}
#endif

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::vector<ServeRequest> make_requests(
    std::size_t n, std::size_t count, std::uint64_t seed,
    const std::function<std::uint64_t(NodeId)>& dest_key_of) {
  CR_CHECK(n >= 2);
  Prng prng(seed);
  std::vector<ServeRequest> requests(count);
  for (ServeRequest& request : requests) {
    request.src = static_cast<NodeId>(prng.next_below(n));
    NodeId dest = static_cast<NodeId>(prng.next_below(n - 1));
    if (dest >= request.src) ++dest;  // uniform over nodes != src
    request.dest_key = dest_key_of(dest);
  }
  return requests;
}

std::uint64_t serve_one(const CsrGraph& csr, const HopScheme& scheme,
                        const ServeRequest& request, std::size_t max_hops,
                        std::size_t* hops) {
  HopHeader header = scheme.make_header(request.src, request.dest_key);
  RouteFingerprint fp(request.src, request.dest_key);
  const std::size_t hop_count =
      walk_hops(csr, scheme, header, request.src, max_hops,
                [&fp](NodeId, NodeId next, const HopHeader&) { fp.visit(next); });
  if (hops != nullptr) *hops = hop_count;
  return fp.value;
}

ServeStats serve_batch(const CsrGraph& csr, const HopScheme& scheme,
                       const std::vector<ServeRequest>& requests,
                       const ServeOptions& options) {
  CR_OBS_SCOPED_TIMER("serve.batch");
  CR_OBS_SPAN("serve.batch", "serve");
  using Clock = std::chrono::steady_clock;

  const std::size_t count = requests.size();
  const std::size_t n = csr.num_nodes();
  const std::size_t max_hops =
      options.max_hops != 0 ? options.max_hops : default_hop_budget(n);

  // Per-request output slots, preallocated so workers write disjoint state
  // and the hop loop itself never allocates.
  std::vector<std::uint64_t> fingerprints(count, 0);
  std::vector<std::uint32_t> hop_counts(count, 0);
  std::vector<double> latencies_us(options.collect_latencies ? count : 0, 0);

  const auto wall_start = Clock::now();
#ifndef CR_OBS_DISABLED
  const bool instrument = options.instrument;
  const std::uint16_t scheme_id =
      instrument ? obs::FlightRecorder::global().intern_scheme(scheme.name())
                 : 0;
  const std::size_t sample_every =
      obs::SpanCollector::global().enabled() ? options.span_sample_every : 0;
#endif
  std::vector<DispatchKey> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys[i].dest_key = requests[i].dest_key;
    keys[i].item = i;
  }
  dispatch_sorted("serve.batch", keys, [&](const DispatchKey* first,
                                           const DispatchKey* last) {
#ifndef CR_OBS_DISABLED
    // Histogram handles are cached per thread; the steady-state
    // per-request cost is two relaxed histogram updates and one
    // ring-buffer store.
    obs::LogHistogram* lat_hist = nullptr;
    obs::LogHistogram* hops_hist = nullptr;
    double chunk_t_us = 0;
    if (instrument) {
      if (options.collect_latencies) lat_hist = &serve_latency_histogram();
      hops_hist = &route_hops_histogram();
      // Flight events share one timestamp per chunk: the ring is a crash-dump
      // aid, chunk granularity (64 requests) orders dumps well enough, and it
      // keeps a clock read off the per-request path.
      chunk_t_us = obs::trace_now_us();
    }
#endif
    auto run_one = [&](std::size_t i) {
      const auto start =
          options.collect_latencies ? Clock::now() : Clock::time_point{};
      std::size_t hops = 0;
      fingerprints[i] =
          serve_one(csr, scheme, requests[i], max_hops, &hops);
      hop_counts[i] = static_cast<std::uint32_t>(hops);
      double lat_us = 0;
      if (options.collect_latencies) {
        lat_us =
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count();
        latencies_us[i] = lat_us;
      }
#ifndef CR_OBS_DISABLED
      if (instrument) {
        if (lat_hist != nullptr) lat_hist->record(lat_us);
        hops_hist->record(static_cast<double>(hops));
        obs::FlightEvent event;
        event.t_us = chunk_t_us;
        event.dest_key = requests[i].dest_key;
        event.src = requests[i].src;
        event.lat_us = static_cast<float>(lat_us);
        event.hops =
            static_cast<std::uint16_t>(std::min<std::size_t>(hops, 0xffff));
        event.scheme_id = scheme_id;
        obs::FlightRecorder::global().record(event);
      }
#else
      (void)lat_us;
#endif
    };
    for (const DispatchKey* key = first; key != last; ++key) {
      const std::size_t i = key->item;
#ifndef CR_OBS_DISABLED
      if (sample_every != 0 && i % sample_every == 0) {
        obs::SpanScope span("serve.request", "serve");
        run_one(i);
        continue;
      }
#endif
      run_one(i);
    }
  });
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  ServeStats stats;
  stats.requests = count;
  stats.delivered = count;  // serve_one throws on any non-delivery
  stats.workers = Executor::global().workers();
  stats.elapsed_s = elapsed_s;
  stats.routes_per_sec =
      elapsed_s > 0 ? static_cast<double>(count) / elapsed_s : 0;
  for (std::size_t i = 0; i < count; ++i) {
    stats.total_hops += hop_counts[i];
    stats.fingerprint = fold_batch_digest(stats.fingerprint, fingerprints[i], i);
  }
  if (options.collect_latencies && count > 0) {
    std::sort(latencies_us.begin(), latencies_us.end());
    stats.p50_us = percentile(latencies_us, 0.50);
    stats.p90_us = percentile(latencies_us, 0.90);
    stats.p99_us = percentile(latencies_us, 0.99);
    stats.p999_us = percentile(latencies_us, 0.999);
    stats.max_us = latencies_us.back();
  }
  CR_OBS_ADD("serve.requests", count);
  CR_OBS_ADD("serve.hops", stats.total_hops);
  return stats;
}

#ifndef CR_OBS_DISABLED
obs::LogHistogram& serve_latency_histogram() {
  static thread_local obs::LogHistogram* hist =
      &obs::local_registry().log_histogram("serve.latency_us", 1e-2, 1e7, 16);
  return *hist;
}
#endif

void preregister_serving_metrics() {
#ifndef CR_OBS_DISABLED
  obs::Registry& shard = obs::local_registry();
  (void)shard.counter("serve.queue.depth");
  (void)shard.counter("serve.queue.enqueued");
  (void)shard.counter("serve.queue.shed");
  (void)shard.counter("serve.epoch.swaps");
  (void)shard.counter("snapshot.scheme_decodes");
  (void)shard.log_histogram("serve.latency_us", 1e-2, 1e7, 16);
  (void)shard.log_histogram("serve.route_hops", 1.0, 65536.0, 4);
#endif
}

}  // namespace compactroute
