#include "runtime/serve.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <utility>

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

/// Puts `count` keys of one scheme, in item order at `in`, into (dest_key,
/// item) order at `out`, clobbering `in`. A stable LSD radix: one counting
/// pass and one scatter per byte set in `varying` (the dest_key bits that
/// differ among these keys), ping-ponging between the two buffers.
void sort_one_scheme(DispatchKey* in, DispatchKey* out, std::size_t count,
                     std::uint64_t varying) {
  if (count < kDispatchRadixMin) {
    std::sort(in, in + count);
    std::copy(in, in + count, out);
    return;
  }
  DispatchKey* from = in;
  DispatchKey* to = out;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<std::size_t, 256> offset{};
    for (std::size_t k = 0; k < count; ++k) {
      ++offset[(from[k].dest_key >> shift) & 0xff];
    }
    std::size_t sum = 0;
    for (std::size_t& slot : offset) sum += std::exchange(slot, sum);
    for (std::size_t k = 0; k < count; ++k) {
      to[offset[(from[k].dest_key >> shift) & 0xff]++] = from[k];
    }
    std::swap(from, to);
  }
  if (from != out) std::copy(from, from + count, out);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

void sort_dispatch_keys(std::vector<DispatchKey>& keys) {
  const std::size_t count = keys.size();
  if (count < kDispatchRadixMin) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  // Counting pass on the scheme, gathering each scheme's dest_key bits that
  // are set in some key (any) and in every key (all).
  constexpr std::size_t kSchemes = 256;
  std::array<std::size_t, kSchemes + 1> start{};
  std::array<std::uint64_t, kSchemes> any{};
  std::array<std::uint64_t, kSchemes> all;
  all.fill(~std::uint64_t{0});
  for (const DispatchKey& key : keys) {
    ++start[key.scheme + 1];
    any[key.scheme] |= key.dest_key;
    all[key.scheme] &= key.dest_key;
  }
  for (std::size_t s = 0; s < kSchemes; ++s) start[s + 1] += start[s];

  // Stable scatter into scheme buckets, then each bucket in dest_key order
  // back into `keys`.
  static thread_local std::vector<DispatchKey> spare;
  spare.resize(count);
  std::array<std::size_t, kSchemes> fill;
  std::copy(start.begin(), start.end() - 1, fill.begin());
  for (const DispatchKey& key : keys) spare[fill[key.scheme]++] = key;
  for (std::size_t s = 0; s < kSchemes; ++s) {
    const std::size_t first = start[s];
    const std::size_t size = start[s + 1] - first;
    if (size == 0) continue;
    sort_one_scheme(spare.data() + first, keys.data() + first, size,
                    any[s] ^ all[s]);
  }
}

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
