#pragma once
//
// Hop-by-hop adapter for the hierarchical labeled scheme: the simplest
// possible compact-routing FSM. The header carries nothing but the
// destination label; every step is "find the minimal ring hit, forward one
// edge toward it" — stateless greedy descent.
//
// The runtime steps against the rings compiled into a HopArena (one
// branchless containment scan over a flat slab, next node's rows
// prefetched).
//
#include <memory>

#include "runtime/hop_scheme.hpp"

namespace compactroute {

class HierarchicalLabeledScheme;
class HopArena;

class HierarchicalHopScheme final : public HopScheme {
 public:
  /// Steps against a HopArena carrying the hier slab (a snapshot-restored
  /// epoch or a shared compile).
  explicit HierarchicalHopScheme(std::shared_ptr<const HopArena> arena);
  /// Compiles a private arena from the scheme.
  explicit HierarchicalHopScheme(const HierarchicalLabeledScheme& scheme);
  /// Same as the arena-only constructor; the scheme is ignored. Kept for
  /// callers that pass a stack's scheme alongside its shared arena
  /// (crbench/src/stack.cpp).
  HierarchicalHopScheme(const HierarchicalLabeledScheme& scheme,
                        std::shared_ptr<const HopArena> arena);

  std::string name() const override { return "hop/labeled-hierarchical"; }

  HopHeader make_header(NodeId /*src*/, std::uint64_t dest_key) const override {
    HopHeader header;
    header.dest = dest_key;
    return header;
  }

  bool step(NodeId at, HopHeader& header, NodeId* next) const override;

  /// Every hop is greedy ring descent toward the destination label.
  TracePhase phase_of(const HopHeader& /*header*/) const override {
    return TracePhase::kLabelLookup;
  }

 private:
  std::shared_ptr<const HopArena> arena_;
};

}  // namespace compactroute
