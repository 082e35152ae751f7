// Experiment F2 — regenerates Figure 2 as an executable trace: the scale-free
// labeled routing execution (Algorithm 5): the ring-descent walk u_0..u_t,
// the handoff level i_t and packing exponent j, the Voronoi region center c,
// the search in T'(c, r_c(j)), and the final tree leg — plus a check of the
// Claim 4.6 sandwich r_{u_t}(j)/(3 eps) < d(u_t, v) < r_{u_t}(j+1)/5 on each
// trace.
#include <cstdio>

#include "bench_util.hpp"
#include "core/prng.hpp"
#include "nets/ball_packing.hpp"

using namespace compactroute;
using namespace compactroute::bench;

int main() {
  // The packing handoff exists for the levels pruned from R(u), i.e. it can
  // only fire when log Δ >> log n — hence the deep spider instance.
  const double eps = 0.25;
  Stack stack(make_exponential_spider(26, 6), eps);
  stack.build_labeled();
  const ScaleFreeLabeledScheme& scheme = *stack.sf_labeled;
  const ScaleFreeSubstrate& substrate = stack.metric.scale_free_substrate();
  Prng prng(5);

  std::printf("Figure 2 (executable): Algorithm 5 traces on spider-26x6 "
              "(log Delta >> log n), eps=%.2f\n\n", eps);
  std::printf("%5s %5s %9s %5s %4s %3s %6s %9s %9s %9s %9s %8s\n", "src", "dst",
              "d(u,v)", "hops", "i_t", "j", "center", "walk", "to-c", "search",
              "to-v", "stretch");
  print_rule(100);

  std::size_t claim_checked = 0, lower_held = 0, upper_held = 0, escalations = 0;
  std::size_t handoffs = 0, printed = 0;
  double worst = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(stack.metric.n()));
    NodeId v = static_cast<NodeId>(prng.next_below(stack.metric.n() - 1));
    if (v >= u) ++v;
    ScaleFreeLabeledScheme::Trace trace;
    const RouteResult r = scheme.route_with_trace(u, scheme.label(v), &trace);
    const Weight d = stack.metric.dist(u, v);
    const double stretch = r.cost / d;
    worst = std::max(worst, stretch);
    escalations += trace.escalations;

    if (!trace.direct_delivery) {
      ++handoffs;
      // Claim 4.6 sandwich at the handoff node.
      const NodeId ut = trace.handoff_node;
      const int j = trace.packing_exponent;
      const Weight lo = substrate.r(j, ut) / (3 * eps);
      const Weight dut = stack.metric.dist(ut, v);
      // Above the top exponent the upper side of the sandwich is vacuous.
      const Weight hi =
          j < substrate.max_exponent() ? substrate.r(j + 1, ut) / 5 : kInfiniteWeight;
      ++claim_checked;
      if (lo < dut + 1e-9) ++lower_held;
      if (dut < hi + 1e-9) ++upper_held;
    }
    // Print the first few handoff traces (the interesting executions) plus a
    // couple of pure-walk deliveries for contrast.
    if ((printed < 14 && !trace.direct_delivery) || trial < 2) {
      ++printed;
      std::printf("%5u %5u %9.3f %5zu %4d %3d %6d %9.3f %9.3f %9.3f %9.3f %8.3f\n",
                  u, v, d, trace.walk_hops, trace.handoff_level,
                  trace.packing_exponent,
                  trace.region_center == kInvalidNode
                      ? -1
                      : static_cast<int>(trace.region_center),
                  trace.walk_cost, trace.to_center_cost, trace.search_cost,
                  trace.to_dest_cost, stretch);
    }
  }
  std::printf("\n4000 pairs: %zu used the packing handoff, worst stretch %.3f "
              "(paper: 1+O(eps));\nClaim 4.6 on handoffs: lower bound %zu/%zu, "
              "upper bound %zu/%zu; %zu escalations total\n",
              handoffs, worst, lower_held, claim_checked, upper_held,
              claim_checked, escalations);
  return 0;
}
