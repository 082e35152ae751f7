#include "routing/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "core/parallel.hpp"

namespace compactroute {

void StretchStats::record(double stretch) {
  max_stretch = std::max(max_stretch, stretch);
  sum_stretch += stretch;
  histogram.record(stretch);
  ++pairs;
}

void StretchStats::merge(const StretchStats& other) {
  max_stretch = std::max(max_stretch, other.max_stretch);
  sum_stretch += other.sum_stretch;
  pairs += other.pairs;
  failures += other.failures;
  undelivered += other.undelivered;
  misdelivered += other.misdelivered;
  wrong_cost += other.wrong_cost;
  histogram.merge(other.histogram);
}

namespace {

/// Samples per parallel work chunk. Each chunk owns a Prng stream split
/// deterministically from the caller's seed and a private StretchStats, so
/// the sampled pair sequence and the merged statistics depend only on
/// (seed, samples) — never on the worker count.
constexpr std::size_t kSamplesPerChunk = 256;

/// Source rows per chunk in exhaustive mode.
constexpr std::size_t kRowsPerChunk = 4;

}  // namespace

StretchStats evaluate_pairs(
    const MetricSpace& metric, std::size_t samples, Prng& prng,
    const std::function<RouteResult(NodeId src, NodeId dst)>& route) {
  const std::size_t n = metric.n();
  const std::size_t all = n * (n - 1);

  // Routes one pair into a chunk-local accumulator. `route` must be
  // thread-safe (scheme route() implementations are pure const walks).
  const auto run_one = [&](NodeId src, NodeId dst, StretchStats& stats) {
    CR_OBS_COUNT("simulator.routes");
    const RouteResult result = route(src, dst);
    if (!result.delivered || result.path.empty()) {
      ++stats.undelivered;
      ++stats.failures;
      CR_OBS_COUNT("simulator.failures.undelivered");
      return;
    }
    if (result.path.front() != src || result.path.back() != dst) {
      ++stats.misdelivered;
      ++stats.failures;
      CR_OBS_COUNT("simulator.failures.misdelivered");
      return;
    }
    const Weight optimal = metric.dist(src, dst);
    CR_CHECK(optimal > 0);
    // Recompute the cost from the walk so schemes cannot under-report; a
    // delivered route whose self-reported cost disagrees is flagged (but
    // still recorded, at the true cost).
    const Weight cost = path_cost(metric, result.path);
    if (std::abs(result.cost - cost) > 1e-6 * (1.0 + cost)) {
      ++stats.wrong_cost;
      CR_OBS_COUNT("simulator.failures.wrong_cost");
    }
    stats.record(cost / optimal);
  };

  // Per-chunk partial statistics, merged in chunk order below — the merge
  // sequence is part of the determinism contract (float sums are ordered).
  std::vector<StretchStats> parts;

  if (samples == 0 || samples >= all) {
    parts.resize(n);
    parallel_for("simulator.eval", n, kRowsPerChunk,
                 [&](std::size_t first, std::size_t last) {
                   for (NodeId src = static_cast<NodeId>(first); src < last;
                        ++src) {
                     for (NodeId dst = 0; dst < n; ++dst) {
                       if (src != dst) run_one(src, dst, parts[src]);
                     }
                   }
                 });
  } else {
    // One draw from the caller's generator roots the split streams; the
    // caller's Prng advances by exactly one step regardless of `samples`.
    const std::uint64_t base = prng.next_u64();
    const std::size_t chunks =
        (samples + kSamplesPerChunk - 1) / kSamplesPerChunk;
    parts.resize(chunks);
    parallel_for("simulator.eval", chunks, 1,
                 [&](std::size_t first, std::size_t last) {
                   for (std::size_t c = first; c < last; ++c) {
                     Prng local = Prng::split(base, c);
                     const std::size_t count = std::min(
                         kSamplesPerChunk, samples - c * kSamplesPerChunk);
                     for (std::size_t s = 0; s < count; ++s) {
                       const NodeId src =
                           static_cast<NodeId>(local.next_below(n));
                       NodeId dst = static_cast<NodeId>(local.next_below(n - 1));
                       if (dst >= src) ++dst;
                       run_one(src, dst, parts[c]);
                     }
                   }
                 });
  }

  StretchStats stats;
  for (const StretchStats& part : parts) stats.merge(part);
  return stats;
}

StretchStats evaluate_labeled(const LabeledScheme& scheme, const MetricSpace& metric,
                              std::size_t samples, Prng& prng) {
  return evaluate_pairs(metric, samples, prng, [&](NodeId src, NodeId dst) {
    return scheme.route(src, scheme.label(dst));
  });
}

StretchStats evaluate_name_independent(const NameIndependentScheme& scheme,
                                       const MetricSpace& metric, const Naming& naming,
                                       std::size_t samples, Prng& prng) {
  return evaluate_pairs(metric, samples, prng, [&](NodeId src, NodeId dst) {
    return scheme.route(src, naming.name_of(dst));
  });
}

}  // namespace compactroute
