#include "runtime/hop_scheme.hpp"

#include <algorithm>

#include "core/bits.hpp"
#include "core/check.hpp"
#include "obs/metrics.hpp"

namespace compactroute {

HopHeader::HopHeader(const HopHeader& other)
    : dest(other.dest),
      phase(other.phase),
      level(other.level),
      exponent(other.exponent),
      target(other.target),
      aux(other.aux),
      inner(other.inner),
      inner_phase(other.inner_phase),
      tree_dfs(other.tree_dfs),
      light(other.light),
      extra(other.extra) {
  if (other.nested) nested = std::make_unique<HopHeader>(*other.nested);
}

HopHeader& HopHeader::operator=(const HopHeader& other) {
  if (this == &other) return *this;
  HopHeader copy(other);
  *this = std::move(copy);
  return *this;
}

std::size_t HopHeader::encoded_bits(std::size_t n, int num_levels) const {
  const std::size_t id = id_bits(n);
  const std::size_t level = id_bits(static_cast<std::size_t>(num_levels) + 2);
  // dest + phase + level + exponent + three ids + nested key + nested phase
  // + carried tree label (dfs + light-edge list with a small count)
  // + recursively, the nested header.
  return id + 3 + level + id_bits(id + 2) + 3 * (id + 1) + id + 3 + (id + 6) +
         light.size() * 2 * id + 1 +
         (nested ? nested->encoded_bits(n, num_levels) : 0);
}

HopRun execute_hops(const MetricSpace& metric, const HopScheme& scheme, NodeId src,
                    std::uint64_t dest_key, std::size_t max_hops) {
  if (max_hops == 0) max_hops = default_hop_budget(metric.n());
  HopRun run;
  run.path.push_back(src);
#ifndef CR_OBS_DISABLED
  run.trace.scheme = scheme.name();
#endif

  HopHeader header = scheme.make_header(src, dest_key);
  run.initial_header_bits = header.encoded_bits(metric.n(), metric.num_levels());
  run.max_header_bits = run.initial_header_bits;

  NodeId at = src;
  NodeId next = kInvalidNode;
  for (std::size_t hop = 0; hop <= max_hops; ++hop) {
    if (scheme.step(at, header, &next)) {
      run.delivered = true;
      CR_OBS_COUNT("runtime.routes");
      return run;
    }
    // The forwarding model: the next node must be a physical neighbor.
    const Weight edge = metric.graph().edge_weight(at, next);
    CR_CHECK_MSG(edge < kInfiniteWeight,
                 "scheme forwarded to a non-neighbor — locality violation");
    const Weight hop_cost = edge / metric.normalization_scale();
    run.cost += hop_cost;
    const std::size_t bits = header.encoded_bits(metric.n(), metric.num_levels());
    run.max_header_bits = std::max(run.max_header_bits, bits);
#ifndef CR_OBS_DISABLED
    run.trace.hops.push_back(
        TraceHop{at, next, hop_cost, scheme.phase_of(header), bits});
    CR_OBS_COUNT("runtime.hops");
#endif
    at = next;
    run.path.push_back(at);
  }
  CR_CHECK_MSG(false, "hop budget exhausted — scheme did not converge");
  return run;
}

RouteResult hop_route(const MetricSpace& metric, const HopScheme& scheme,
                      NodeId src, std::uint64_t dest_key, std::size_t max_hops) {
  HopRun run = execute_hops(metric, scheme, src, dest_key, max_hops);
  RouteResult result;
  result.delivered = run.delivered;
  result.path = std::move(run.path);
  result.cost = run.cost;
  result.trace = std::move(run.trace);
  return result;
}

}  // namespace compactroute
