#include "runtime/hop_simple_ni.hpp"

#include "core/check.hpp"
#include "nameind/simple_nameind.hpp"
#include "obs/metrics.hpp"
#include "runtime/hop_arena.hpp"

namespace compactroute {

SimpleNameIndependentHopScheme::SimpleNameIndependentHopScheme(
    std::shared_ptr<const HopArena> arena)
    : arena_(std::move(arena)) {
  CR_CHECK(arena_ && arena_->hier_present && arena_->simple_present);
  CR_CHECK(arena_->name_of.size() == arena_->n);
}

SimpleNameIndependentHopScheme::SimpleNameIndependentHopScheme(
    const SimpleNameIndependentScheme& scheme,
    const HierarchicalLabeledScheme& underlying)
    : SimpleNameIndependentHopScheme(
          HopArena::build(scheme.hierarchy(), &scheme.naming(), &underlying,
                          nullptr, &scheme, nullptr)) {}

SimpleNameIndependentHopScheme::SimpleNameIndependentHopScheme(
    const SimpleNameIndependentScheme& /*scheme*/,
    const HierarchicalLabeledScheme& /*underlying*/,
    std::shared_ptr<const HopArena> arena)
    : SimpleNameIndependentHopScheme(std::move(arena)) {}

HopHeader SimpleNameIndependentHopScheme::make_header(
    NodeId src, std::uint64_t dest_key) const {
  HopHeader header;
  header.dest = dest_key;
  header.level = 0;
  header.aux = src;  // u(0) = the source itself
  header.inner = arena_->leaf_label[src];
  header.inner_phase = kAtAnchor;
  return header;
}

TracePhase SimpleNameIndependentHopScheme::phase_of(
    const HopHeader& header) const {
  // Every physical hop rides the inner labeled machine; classify it by the
  // outer continuation — what the ride is *for*.
  switch (static_cast<Continuation>(header.inner_phase)) {
    case kAtAnchor:
      return TracePhase::kHandoff;  // climbing the zooming sequence u(i)
    case kSearchNode:
    case kSearchBack:
      return TracePhase::kNetSearch;
    case kDeliver:
      return TracePhase::kLabelLookup;  // final leg toward the found label
  }
  return TracePhase::kForward;
}

bool SimpleNameIndependentHopScheme::step(NodeId at, HopHeader& h,
                                          NodeId* next) const {
  CR_OBS_HOT_COUNT("hop.arena.steps");
  const HopArena& a = *arena_;
  const std::size_t n = a.n;

  // Several levels can be processed at one physical node (tiny search trees
  // answer at their root), so the settle budget scales with the hierarchy.
  const int settle_budget = 8 * (a.top_level + 4) + 64;
  for (int guard = 0; guard < settle_budget; ++guard) {
    // Riding: one greedy ring step of the underlying scheme.
    if (a.leaf_label[at] != static_cast<NodeId>(h.inner)) {
      *next = a.hier_ring_next(at, static_cast<NodeId>(h.inner));
      a.prefetch_hier_rings(*next);
      return false;
    }

    // The ride arrived: advance the outer (name-independent) machine.
    switch (static_cast<Continuation>(h.inner_phase)) {
      case kDeliver: {
        CR_CHECK(a.name_of[at] == h.dest);
        return true;
      }

      case kAtAnchor: {
        if (a.name_of[at] == h.dest) return true;
        // Start the local search at the root (the anchor itself).
        h.target = h.aux;
        h.inner_phase = kSearchNode;
        break;
      }

      case kSearchNode: {
        const std::int32_t t =
            a.simple_tree_of[static_cast<std::size_t>(h.level) * n + h.aux];
        CR_CHECK(t >= 0);
        const std::uint32_t row = a.trees.locate(t, at);
        const std::uint32_t child = a.trees.child_containing(row, h.dest);
        if (child != HopArena::TreeBank::npos) {
          const NodeId next_node = a.trees.child_global[child];
          h.target = next_node;
          h.inner = a.leaf_label[next_node];
          break;  // ride one virtual edge down
        }
        std::uint64_t found_label = 0;
        if (a.trees.holds(row, h.dest, &found_label)) {
          h.tree_dfs = static_cast<NodeId>(found_label);  // remember l(v)
          h.exponent = 1;                                 // "found" flag
        } else {
          h.exponent = 0;
        }
        // Report back toward the root (Algorithm 2 line 10).
        const NodeId parent = a.trees.parent_global[row];
        const NodeId up = parent == kInvalidNode ? at : parent;
        h.target = up;
        h.inner = a.leaf_label[up];
        h.inner_phase = kSearchBack;
        break;
      }

      case kSearchBack: {
        if (at != h.aux) {
          const std::int32_t t =
              a.simple_tree_of[static_cast<std::size_t>(h.level) * n + h.aux];
          CR_CHECK(t >= 0);
          const std::uint32_t row = a.trees.locate(t, at);
          const NodeId up = a.trees.parent_global[row];
          CR_CHECK(up != kInvalidNode);
          h.target = up;
          h.inner = a.leaf_label[up];
          break;
        }
        // Back at the anchor u(level).
        if (h.exponent == 1) {
          h.inner = h.tree_dfs;  // the retrieved label l(v)
          h.inner_phase = kDeliver;
          break;
        }
        // Climb to u(level+1) — its label is stored along the netting tree.
        CR_CHECK_MSG(h.level < a.top_level,
                     "top search ball covers the whole graph");
        const NodeId up =
            a.net_parent[static_cast<std::size_t>(h.level) * n + at];
        h.level = static_cast<std::int16_t>(h.level + 1);
        h.aux = up;
        h.inner = a.leaf_label[up];
        h.inner_phase = kAtAnchor;
        break;
      }
    }
  }
  CR_CHECK_MSG(false, "phase machine did not settle");
  return false;
}

}  // namespace compactroute
