#pragma once
//
// Batch query engine over a loaded (or fresh) scheme stack.
//
// This is the build-once/serve-heavy half of the compact-routing story: the
// hop schemes are pure step functions over per-node tables, so replaying a
// batch of route requests needs only the CSR graph (to certify that every
// forwarded hop is a real edge) and the scheme — no metric backend, no
// preprocessing. Requests shard across the core/parallel Executor in fixed
// chunks; each worker runs the hop loop with no allocation of its own (paths
// and traces are never materialized — the per-request outputs are a hop
// count and a running fingerprint).
//
// Dispatch order: every batch in the library — a serve_batch replay and
// each wave a Server pump drains — is served through dispatch_sorted. The
// whole batch is put in (scheme, destination key) order and then handed to
// the Executor in 64-request chunks, so requests toward one destination run
// back to back and revisit the same arena rows while they are still cached.
// The order is built by a counting pass on the scheme and a stable LSD radix
// over the destination-key bytes the keys actually use (sort_dispatch_keys),
// not by a comparison sort. Results land in per-request slots, so the order
// moves speed, never output.
//
// Fingerprints: each request folds its visited node sequence into a 64-bit
// FNV-style hash (RouteFingerprint); a batch combines per-request
// fingerprints XOR-wise after mixing in the request index (fold_batch_digest),
// so the total is independent of both worker count and scheduling order, and
// equal between a fresh build and a loaded snapshot exactly when every route
// taken is identical. Every serve digest in the library (serve_batch,
// Server::delivered_digest, ServerEpoch's self-fingerprint) folds through
// these two definitions.
//
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/parallel.hpp"
#include "core/types.hpp"
#include "graph/csr.hpp"
#include "runtime/hop_scheme.hpp"

namespace compactroute {

namespace obs {
class LogHistogram;
}  // namespace obs

struct ServeRequest {
  NodeId src = 0;
  std::uint64_t dest_key = 0;  // label (labeled schemes) or name (NI schemes)
};

struct ServeOptions {
  /// 0 means default_hop_budget(n).
  std::size_t max_hops = 0;
  /// Record per-request wall-clock latency (steady_clock, microseconds).
  /// Costs two clock reads per request; disable for pure-throughput runs.
  bool collect_latencies = true;
  /// Feed the sharded telemetry pipeline from the serve loop: per-worker
  /// "serve.latency_us" / "serve.route_hops" log histograms and a flight-
  /// recorder event per route. Purely observational — route decisions,
  /// hop counts, and fingerprints are identical with it on or off (and in a
  /// CR_OBS_DISABLED build it is compiled out entirely).
  bool instrument = true;
  /// When > 0 and span collection is enabled (obs::SpanCollector), emit one
  /// "serve.request" span for every N-th request of the batch. 0 disables
  /// request spans.
  std::size_t span_sample_every = 0;
};

struct ServeStats {
  std::size_t requests = 0;
  std::size_t delivered = 0;
  std::size_t total_hops = 0;
  std::size_t workers = 0;
  double elapsed_s = 0;
  double routes_per_sec = 0;
  // Latency percentiles in microseconds (0 when collect_latencies is off).
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
  /// Order- and thread-count-independent digest of every route taken.
  std::uint64_t fingerprint = 0;
};

/// Requests per Executor chunk of a sorted dispatch.
inline constexpr std::size_t kDispatchChunk = 64;

/// One request's place in the serve order: (scheme, dest_key, item),
/// compared lexicographically. `dest_key` is the key the request is served
/// with, resolved once when the key is built. `item` is the request's index
/// in the caller's batch (serve_batch's request array, a Server pump's
/// drained wave); it is unique, so the order is total and requests toward
/// one destination keep their batch order.
struct DispatchKey {
  std::uint64_t dest_key = 0;
  std::uint64_t item = 0;
  std::uint8_t scheme = 0;

  friend bool operator<(const DispatchKey& a, const DispatchKey& b) {
    if (a.scheme != b.scheme) return a.scheme < b.scheme;
    if (a.dest_key != b.dest_key) return a.dest_key < b.dest_key;
    return a.item < b.item;
  }
};

/// Below this many keys (a whole batch, or one scheme's share of it) the
/// dispatch order is a comparison sort: a radix pass touches 256 counters
/// however few keys it moves.
inline constexpr std::size_t kDispatchRadixMin = 256;

/// Puts `keys` into serve order, exactly the order std::sort gives them
/// under operator<. `keys` must arrive in ascending `item` order (as every
/// caller builds them): a stable counting pass on `scheme`, then per scheme a
/// stable LSD radix over the `dest_key` bytes that differ within that
/// scheme, so equal (scheme, dest_key) keys keep their item order. Schemes
/// with fewer than kDispatchRadixMin keys, and batches that small, take
/// std::sort. Scratch space is the calling thread's, reused across calls.
void sort_dispatch_keys(std::vector<DispatchKey>& keys);

/// Puts `keys` into serve order (sort_dispatch_keys), then runs
/// serve_chunk(first, last) over consecutive kDispatchChunk-key ranges
/// [first, last) on the Executor (parallel_for region `region`, a string
/// literal). serve_chunk must write only per-request slots, so the results
/// do not depend on the order or on the worker count.
template <typename ServeChunk>
void dispatch_sorted(const char* region, std::vector<DispatchKey>& keys,
                     ServeChunk&& serve_chunk) {
  sort_dispatch_keys(keys);
  const DispatchKey* sorted = keys.data();
  parallel_for(region, keys.size(), kDispatchChunk,
               [&](std::size_t first, std::size_t last) {
                 serve_chunk(sorted + first, sorted + last);
               });
}

/// Per-route fingerprint: seeded with the request, then folded with every
/// node the packet is forwarded to (FNV-1a style, 64-bit prime).
struct RouteFingerprint {
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t value;

  RouteFingerprint(NodeId src, std::uint64_t dest_key)
      : value((dest_key * kPrime) ^ src) {}
  void visit(NodeId at) { value = (value ^ at) * kPrime; }
};

/// splitmix64 finalizer.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-batch fold: XORs request `index`'s route fingerprint, mixed with its
/// position, into `digest`. Order-independent, so any dispatch order (and
/// any subset, e.g. only the delivered requests) folds to one value.
inline std::uint64_t fold_batch_digest(std::uint64_t digest,
                                       std::uint64_t fingerprint,
                                       std::size_t index) {
  return digest ^ mix64(fingerprint + 0x9e3779b97f4a7c15ULL * (index + 1));
}

/// Deterministic request batch: `count` (src, dest) pairs with src != dest,
/// drawn from a seeded Prng; dest_key_of maps the destination node to the
/// scheme's key space (leaf label or original name).
std::vector<ServeRequest> make_requests(
    std::size_t n, std::size_t count, std::uint64_t seed,
    const std::function<std::uint64_t(NodeId)>& dest_key_of);

/// Replays the batch and aggregates throughput/latency/fingerprint. Throws
/// InvariantError if the scheme ever forwards to a non-neighbor or exceeds
/// the hop budget (the same contract execute_hops enforces).
ServeStats serve_batch(const CsrGraph& csr, const HopScheme& scheme,
                       const std::vector<ServeRequest>& requests,
                       const ServeOptions& options = {});

/// Fingerprint of one request's route: walk_hops plus the RouteFingerprint
/// fold (the serve_batch inner loop, exposed so audits can compare
/// individual routes); outputs the hop count. Throws InvariantError unless
/// the route is delivered within max_hops.
std::uint64_t serve_one(const CsrGraph& csr, const HopScheme& scheme,
                        const ServeRequest& request, std::size_t max_hops,
                        std::size_t* hops);

/// Registers the serving-surface metrics runtime/server bumps — the
/// serve.queue.{depth,enqueued,shed} queue counters and serve.epoch.swaps
/// (see Server::submit/pump/publish) — in the calling thread's shard, so
/// scrapes and the Prometheus exposition surface them at zero from process
/// start even before any request arrives. No-op under CR_OBS_DISABLED.
void preregister_serving_metrics();

#ifndef CR_OBS_DISABLED
/// The calling thread's "serve.latency_us" log histogram (the one
/// serve_batch and Server::pump record into), looked up once per thread:
/// registry nodes are stable, so the serve paths skip the locked by-name
/// lookup.
obs::LogHistogram& serve_latency_histogram();
#endif

}  // namespace compactroute
