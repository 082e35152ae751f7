#pragma once
//
// Hop-by-hop adapter for the hierarchical labeled scheme: the simplest
// possible compact-routing FSM. The header carries nothing but the
// destination label; every step is "find the minimal ring hit, forward one
// edge toward it" — stateless greedy descent.
//
// By default the scheme compiles its rings into a private HopArena and steps
// against the flat slab (one branchless containment scan, next node's rows
// prefetched). HopTables::kReference keeps the original nested-vector walk —
// the golden suite proves both take byte-identical routes.
//
#include <memory>

#include "labeled/hierarchical_labeled.hpp"
#include "runtime/hop_scheme.hpp"

namespace compactroute {

class HierarchicalHopScheme final : public HopScheme {
 public:
  explicit HierarchicalHopScheme(const HierarchicalLabeledScheme& scheme,
                                 HopTables tables = HopTables::kArena);
  /// Steps against a shared prebuilt arena (must carry the hier slab).
  HierarchicalHopScheme(const HierarchicalLabeledScheme& scheme,
                        std::shared_ptr<const HopArena> arena);
  /// Arena only — no scheme object at all (a snapshot-restored epoch).
  explicit HierarchicalHopScheme(std::shared_ptr<const HopArena> arena);

  std::string name() const override { return "hop/labeled-hierarchical"; }

  HopHeader make_header(NodeId /*src*/, std::uint64_t dest_key) const override {
    HopHeader header;
    header.dest = dest_key;
    return header;
  }

  Decision step(NodeId at, const HopHeader& header) const override;
  bool step_inplace(NodeId at, HopHeader& header, NodeId* next) const override;

  /// Every hop is greedy ring descent toward the destination label.
  TracePhase phase_of(const HopHeader& /*header*/) const override {
    return TracePhase::kLabelLookup;
  }

 private:
  Decision reference_step(NodeId at, const HopHeader& header) const;
  bool arena_step(NodeId at, HopHeader& header, NodeId* next) const;

  const HierarchicalLabeledScheme* scheme_;
  std::shared_ptr<const HopArena> arena_;
};

}  // namespace compactroute
