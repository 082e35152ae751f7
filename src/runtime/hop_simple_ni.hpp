#pragma once
//
// Hop-by-hop adapter for the simple name-independent scheme (Algorithm 3 as
// a layered packet FSM): the shared name-independent machine
// (runtime/hop_name_independent.cpp) riding greedy hierarchical ring steps
// toward HopHeader::inner, with every level owning its search tree
// (root = anchor). Steps against a HopArena (flat ring slab + packed
// search-tree bank).
//
#include <memory>
#include <utility>

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
  SimpleNameIndependentHopScheme(const SimpleNameIndependentScheme& /*scheme*/,
                                 const HierarchicalLabeledScheme& /*underlying*/,
                                 std::shared_ptr<const HopArena> arena)
      : SimpleNameIndependentHopScheme(std::move(arena)) {}

  std::string name() const override { return "hop/name-independent-simple"; }

  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  bool step(NodeId at, HopHeader& header, NodeId* next) const override;
  TracePhase phase_of(const HopHeader& header) const override;

 private:
  std::shared_ptr<const HopArena> arena_;
};

}  // namespace compactroute
