#pragma once
//
// Strict hop-by-hop packet runtime.
//
// The RouteResult-returning schemes compute a whole walk at once (using only
// per-node tables, but implicitly). This runtime makes the locality claim
// mechanical: a scheme is expressed as a pure *step function*
//     (current node, packet header)  ->  (deliver | next neighbor, header')
// and walk_hops physically forwards the packet, CHECKING that every next hop
// is a graph neighbor of the current node. It is the library's only hop loop:
// execute_hops (paths, costs, header bits, traces) and serve_one (serving
// fingerprints) are walk_hops plus a per-hop action. This is the
// routing-algorithm model of Section 1 of the paper, executable.
//
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/types.hpp"
#include "graph/csr.hpp"
#include "graph/metric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace compactroute {

/// Generic bounded packet header. Schemes assign meaning to the fields; all
/// of them are polylog-sized (ids, levels, phases). encoded_bits() is the
/// exact wire size for the given universe.
struct HopHeader {
  std::uint64_t dest = 0;          // destination key (label or name)
  std::uint8_t phase = 0;          // scheme-specific FSM state
  std::int16_t level = 0;          // hierarchy level / prev walk level
  std::int16_t exponent = 0;       // packing exponent j
  NodeId target = kInvalidNode;    // current intermediate goal (global id)
  NodeId aux = kInvalidNode;       // secondary goal (e.g. search anchor)
  std::uint64_t inner = 0;         // nested (underlying-scheme) state
  std::uint8_t inner_phase = 0;
  // A carried compact tree-routing label (Lemma 4.1): DFS index plus light
  // edges — O(log² n) bits, within the paper's header budget.
  NodeId tree_dfs = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> light;
  NodeId extra = kInvalidNode;  // one more scheme-specific id slot

  /// Nested header of an underlying scheme (layered routing: the outer
  /// machine "rides" the inner one; header sizes add).
  std::unique_ptr<HopHeader> nested;

  HopHeader() = default;
  HopHeader(const HopHeader& other);
  HopHeader& operator=(const HopHeader& other);
  HopHeader(HopHeader&&) = default;
  HopHeader& operator=(HopHeader&&) = default;

  std::size_t encoded_bits(std::size_t n, int num_levels) const;
};

class HopScheme {
 public:
  virtual ~HopScheme() = default;

  virtual std::string name() const = 0;

  /// Header the source attaches for destination key `dest_key`.
  virtual HopHeader make_header(NodeId src, std::uint64_t dest_key) const = 0;

  /// One forwarding decision, a pure function of (at, header) and the tables
  /// of node `at`, mutating `header` in place: returns true to deliver, else
  /// writes the next hop to *next. The arena-backed runtimes step with zero
  /// allocations.
  virtual bool step(NodeId at, HopHeader& header, NodeId* next) const = 0;

  /// Telemetry classification of a hop taken while `header` is in flight —
  /// which phase of the scheme's state machine the hop serves. A pure
  /// function of the header; the executor calls it on the post-decision
  /// header of every physical hop.
  virtual TracePhase phase_of(const HopHeader& header) const {
    (void)header;
    return TracePhase::kForward;
  }
};

/// Hop budget when a caller passes max_hops = 0: generous enough for every
/// scheme's longest legal walk, tight enough to catch a scheme that loops.
inline std::size_t default_hop_budget(std::size_t n) { return 64 * n + 1024; }

/// The one hop loop. Steps `scheme` from `src` with the caller-built
/// `header`, certifies that every forward is a CSR arc of the current node,
/// and calls on_hop(at, next, header) once per certified hop, with the
/// post-decision header. Returns the number of hops once the scheme
/// delivers; throws InvariantError if it forwards to a non-neighbor or has
/// not delivered within max_hops hops. on_hop is a template parameter so
/// the per-hop action inlines into the loop. A delivered route adds its
/// hops + 1 step() calls of `scheme` to the "hop.arena.steps" counter, once
/// per route.
template <typename OnHop>
std::size_t walk_hops(const CsrGraph& csr, const HopScheme& scheme,
                      HopHeader& header, NodeId src, std::size_t max_hops,
                      OnHop&& on_hop) {
  NodeId at = src;
  NodeId next = kInvalidNode;
  for (std::size_t hops = 0; hops <= max_hops; ++hops) {
    // In-place stepping: the arena runtimes mutate the header with zero
    // allocations.
    if (scheme.step(at, header, &next)) {
      CR_OBS_HOT_ADD("hop.arena.steps", hops + 1);
      return hops;
    }
    // The locality contract: every forwarded hop must be a real graph edge.
    // Low-degree spans (the common case in doubling metrics) certify with a
    // branchless sweep; CSR targets are sorted, so high degrees bisect.
    const auto targets = csr.arc_targets(at);
    bool is_edge = false;
    if (targets.size() <= 16) {
      for (const NodeId t : targets) is_edge |= (t == next);
    } else {
      is_edge = std::binary_search(targets.begin(), targets.end(), next);
    }
    CR_CHECK_MSG(is_edge, "scheme forwarded to a non-neighbor — locality violation");
    on_hop(at, next, header);
    at = next;
  }
  CR_CHECK_MSG(false, "hop budget exhausted — scheme did not converge");
  return 0;
}

struct HopRun {
  bool delivered = false;
  Path path;        // every consecutive pair is a graph edge
  Weight cost = 0;  // sum of traversed edge weights (normalized)
  std::size_t max_header_bits = 0;
  /// Bits of the header the source attached, before any hop mutated it.
  /// Recorded even under CR_OBS_DISABLED, so the metering invariant
  /// max_header_bits >= initial_header_bits stays auditable without traces.
  std::size_t initial_header_bits = 0;
  RouteTrace trace;  // phase-tagged hops; empty under CR_OBS_DISABLED
};

/// walk_hops from src, recording the path, the normalized edge-weight cost,
/// the metered header size and the phase-tagged trace. Throws InvariantError
/// if the scheme ever forwards to a non-neighbor or exceeds max_hops.
HopRun execute_hops(const MetricSpace& metric, const HopScheme& scheme, NodeId src,
                    std::uint64_t dest_key, std::size_t max_hops = 0);

}  // namespace compactroute
