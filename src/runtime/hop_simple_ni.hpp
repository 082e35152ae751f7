#pragma once
//
// Hop-by-hop adapter for the simple name-independent scheme (Algorithm 3 as
// a layered packet FSM).
//
// The header stacks two machines: the outer name-independent state (current
// zoom level, search anchor, search cursor, continuation) and the inner
// labeled-ride target — a destination label of the underlying hierarchical
// scheme. Every physical hop is one greedy ring step of the underlying
// scheme toward the inner target; when the ride arrives, the outer machine
// advances (descend the search tree, report back, climb the zooming
// sequence, or take the final leg). Header layout:
//   dest        — the original destination name id(v)
//   level / aux — zoom level i and anchor u(i)
//   target      — search-tree cursor (global id)
//   inner       — current ride target label
//   inner_phase — continuation after the ride arrives
//   tree_dfs    — the retrieved routing label l(v) (once found)
//
// Both machines step against a HopArena (flat ring slab + packed
// search-tree bank).
//
#include <memory>

#include "runtime/hop_scheme.hpp"

namespace compactroute {

class HierarchicalLabeledScheme;
class HopArena;
class SimpleNameIndependentScheme;

class SimpleNameIndependentHopScheme final : public HopScheme {
 public:
  /// Steps against a HopArena carrying the hier + simple slabs (a
  /// snapshot-restored epoch or a shared compile).
  explicit SimpleNameIndependentHopScheme(std::shared_ptr<const HopArena> arena);
  /// Compiles a private arena; `underlying` must be the same scheme the NI
  /// scheme was built over.
  SimpleNameIndependentHopScheme(const SimpleNameIndependentScheme& scheme,
                                 const HierarchicalLabeledScheme& underlying);
  /// Same as the arena-only constructor; the schemes are ignored. Kept for
  /// callers that pass a stack's schemes alongside its shared arena
  /// (crbench/src/stack.cpp).
  SimpleNameIndependentHopScheme(const SimpleNameIndependentScheme& scheme,
                                 const HierarchicalLabeledScheme& underlying,
                                 std::shared_ptr<const HopArena> arena);

  std::string name() const override { return "hop/name-independent-simple"; }

  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  bool step(NodeId at, HopHeader& header, NodeId* next) const override;
  TracePhase phase_of(const HopHeader& header) const override;

 private:
  // Continuations (inner_phase): what the outer machine does when the
  // current labeled ride arrives.
  enum Continuation : std::uint8_t {
    kAtAnchor = 0,    // arrived at u(level): start the local search
    kSearchNode = 1,  // arrived at the next search-tree node: descend
    kSearchBack = 2,  // returning toward the root of the search tree
    kDeliver = 3,     // final leg: arrived at the destination
  };

  std::shared_ptr<const HopArena> arena_;
};

}  // namespace compactroute
