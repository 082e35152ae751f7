#include "runtime/hop_scheme.hpp"

#include <algorithm>

#include "core/bits.hpp"
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

  const CsrGraph& csr = metric.csr();
  walk_hops(csr, scheme, header, src, max_hops,
            [&](NodeId at, NodeId next, const HopHeader& hop_header) {
              // walk_hops certified the arc; CSR rows are sorted by target.
              const auto targets = csr.arc_targets(at);
              const auto arc = std::lower_bound(targets.begin(), targets.end(), next);
              const Weight hop_cost = csr.arc_weights(at)[arc - targets.begin()] /
                                      metric.normalization_scale();
              run.cost += hop_cost;
              const std::size_t bits =
                  hop_header.encoded_bits(metric.n(), metric.num_levels());
              run.max_header_bits = std::max(run.max_header_bits, bits);
#ifndef CR_OBS_DISABLED
              run.trace.hops.push_back(
                  TraceHop{at, next, hop_cost, scheme.phase_of(hop_header), bits});
              CR_OBS_COUNT("runtime.hops");
#endif
              run.path.push_back(next);
            });
  run.delivered = true;
  CR_OBS_COUNT("runtime.routes");
  return run;
}

}  // namespace compactroute
