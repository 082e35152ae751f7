#include "runtime/hop_hierarchical.hpp"

#include "core/check.hpp"
#include "obs/metrics.hpp"
#include "runtime/hop_arena.hpp"

namespace compactroute {

HierarchicalHopScheme::HierarchicalHopScheme(
    const HierarchicalLabeledScheme& scheme, HopTables tables)
    : scheme_(&scheme) {
  if (tables == HopTables::kArena) {
    arena_ = HopArena::build(scheme.hierarchy(), nullptr, &scheme, nullptr,
                             nullptr, nullptr);
  }
}

HierarchicalHopScheme::HierarchicalHopScheme(
    const HierarchicalLabeledScheme& scheme,
    std::shared_ptr<const HopArena> arena)
    : HierarchicalHopScheme(std::move(arena)) {
  scheme_ = &scheme;
}

HierarchicalHopScheme::HierarchicalHopScheme(
    std::shared_ptr<const HopArena> arena)
    : scheme_(nullptr), arena_(std::move(arena)) {
  CR_CHECK(arena_ && arena_->hier_present);
}

bool HierarchicalHopScheme::arena_step(NodeId at, HopHeader& header,
                                       NodeId* next) const {
  CR_OBS_HOT_COUNT("hop.arena.steps");
  const HopArena& a = *arena_;
  const NodeId dest = static_cast<NodeId>(header.dest);
  if (a.leaf_label[at] == dest) return true;
  *next = a.hier_ring_next(at, dest);
  a.prefetch_hier_rings(*next);
  return false;
}

bool HierarchicalHopScheme::step_inplace(NodeId at, HopHeader& header,
                                         NodeId* next) const {
  if (arena_) return arena_step(at, header, next);
  return HopScheme::step_inplace(at, header, next);
}

HopScheme::Decision HierarchicalHopScheme::step(NodeId at,
                                                const HopHeader& header) const {
  if (arena_) {
    Decision decision;
    decision.header = header;
    decision.deliver = arena_step(at, decision.header, &decision.next);
    return decision;
  }
  return reference_step(at, header);
}

HopScheme::Decision HierarchicalHopScheme::reference_step(
    NodeId at, const HopHeader& header) const {
  CR_OBS_HOT_COUNT("hop.hierarchical.steps");
  CR_OBS_HOT_COUNT("hop.ref.ring_scans");
  Decision decision;
  decision.header = header;
  if (scheme_->hierarchy().leaf_label(at) == header.dest) {
    decision.deliver = true;
    return decision;
  }
  // Minimal ring hit at this node; move one edge toward x = v(i).
  for (int level = 0;; ++level) {
    CR_CHECK(level <= scheme_->hierarchy().top_level());
    for (const auto& entry : scheme_->rings(at)[level]) {
      if (entry.range.contains(static_cast<NodeId>(header.dest))) {
        CR_CHECK(entry.x != at);
        decision.next = entry.next_hop;
        return decision;
      }
    }
  }
}

}  // namespace compactroute
