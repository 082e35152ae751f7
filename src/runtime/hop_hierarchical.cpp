#include "runtime/hop_hierarchical.hpp"

#include "core/check.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "runtime/hop_arena.hpp"

namespace compactroute {

HierarchicalHopScheme::HierarchicalHopScheme(
    std::shared_ptr<const HopArena> arena)
    : arena_(std::move(arena)) {
  CR_CHECK(arena_ && arena_->hier_present);
}

HierarchicalHopScheme::HierarchicalHopScheme(
    const HierarchicalLabeledScheme& scheme)
    : HierarchicalHopScheme(HopArena::build(scheme.hierarchy(), nullptr,
                                            &scheme, nullptr, nullptr,
                                            nullptr)) {}

HierarchicalHopScheme::HierarchicalHopScheme(
    const HierarchicalLabeledScheme& /*scheme*/,
    std::shared_ptr<const HopArena> arena)
    : HierarchicalHopScheme(std::move(arena)) {}

bool HierarchicalHopScheme::step(NodeId at, HopHeader& header,
                                 NodeId* next) const {
  const HopArena& a = *arena_;
  const NodeId dest = static_cast<NodeId>(header.dest);
  if (a.leaf_label[at] == dest) return true;
  *next = a.hier_ring_next(at, dest);
  a.prefetch_hier_rings(*next);
  return false;
}

}  // namespace compactroute
