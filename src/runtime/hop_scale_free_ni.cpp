#include "runtime/hop_scale_free_ni.hpp"

#include "core/check.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "obs/metrics.hpp"
#include "runtime/hop_arena.hpp"

namespace compactroute {

ScaleFreeNameIndependentHopScheme::ScaleFreeNameIndependentHopScheme(
    std::shared_ptr<const HopArena> arena)
    : arena_(std::move(arena)), inner_(arena_) {
  CR_CHECK(arena_ && arena_->sf_present && arena_->sfni_present);
  CR_CHECK(arena_->name_of.size() == arena_->n);
}

ScaleFreeNameIndependentHopScheme::ScaleFreeNameIndependentHopScheme(
    const ScaleFreeNameIndependentScheme& scheme,
    const ScaleFreeLabeledScheme& underlying)
    : ScaleFreeNameIndependentHopScheme(
          HopArena::build(underlying.hierarchy(), &scheme.naming(), nullptr,
                          &underlying, nullptr, &scheme)) {}

ScaleFreeNameIndependentHopScheme::ScaleFreeNameIndependentHopScheme(
    const ScaleFreeNameIndependentScheme& /*scheme*/,
    const ScaleFreeLabeledScheme& /*underlying*/,
    std::shared_ptr<const HopArena> arena)
    : ScaleFreeNameIndependentHopScheme(std::move(arena)) {}

HopHeader ScaleFreeNameIndependentHopScheme::make_header(
    NodeId src, std::uint64_t dest_key) const {
  HopHeader header;
  header.dest = dest_key;
  header.level = 0;
  header.aux = src;  // u(0)
  header.inner_phase = kAtAnchor;
  return header;
}

void ScaleFreeNameIndependentHopScheme::start_ride(
    HopHeader& header, NodeId label, Continuation continuation) const {
  header.inner_phase = continuation;
  if (!header.nested) header.nested = std::make_unique<HopHeader>();
  // Reset field-for-field to what inner_.make_header(·, label) returns.
  HopHeader& inner = *header.nested;
  inner.dest = label;
  inner.phase = ScaleFreeHopScheme::kWalk;
  inner.level = ScaleFreeHopScheme::kNoPrevLevel;
  inner.exponent = 0;
  inner.target = kInvalidNode;
  inner.aux = kInvalidNode;
  inner.inner = 0;
  inner.inner_phase = 0;
  inner.tree_dfs = 0;
  inner.light.clear();
  inner.extra = kInvalidNode;
  header.phase = 1;  // ride active
}

TracePhase ScaleFreeNameIndependentHopScheme::phase_of(
    const HopHeader& header) const {
  switch (static_cast<Continuation>(header.inner_phase)) {
    case kAtAnchor:
    case kAtRoot:
    case kBackAtAnchor:
      return TracePhase::kHandoff;  // anchor climbs and ball-tree detours
    case kSearchNode:
    case kSearchBack:
      return TracePhase::kNetSearch;
    case kDeliver:
      return TracePhase::kLabelLookup;  // final leg toward the found label
  }
  return TracePhase::kForward;
}

bool ScaleFreeNameIndependentHopScheme::step(NodeId at, HopHeader& h,
                                             NodeId* next) const {
  CR_OBS_HOT_COUNT("hop.arena.steps");
  const HopArena& a = *arena_;
  const std::size_t n = a.n;

  const int settle_budget = 8 * (a.top_level + 4) + 64;
  for (int guard = 0; guard < settle_budget; ++guard) {
    // A ride of the inner labeled machine is in progress.
    if (h.phase == 1) {
      if (a.leaf_label[at] == static_cast<NodeId>(h.nested->dest)) {
        h.phase = 0;  // arrived; fall through to the continuation
      } else {
        const bool delivered = inner_.step(at, *h.nested, next);
        CR_CHECK_MSG(!delivered, "arrival is checked before stepping");
        return false;
      }
    }

    switch (static_cast<Continuation>(h.inner_phase)) {
      case kDeliver: {
        CR_CHECK(a.name_of[at] == h.dest);
        return true;
      }

      case kAtAnchor: {
        if (a.name_of[at] == h.dest) return true;
        const std::size_t slot = static_cast<std::size_t>(h.level) * n + h.aux;
        const NodeId root = a.sfni_root[slot];
        CR_CHECK(root != kInvalidNode);
        h.extra = root;
        // Algorithm 4: "go to c from u" when the level is delegated.
        start_ride(h, a.leaf_label[root], kAtRoot);
        break;
      }

      case kAtRoot: {
        h.target = at;  // the search cursor starts at the root
        h.inner_phase = kSearchNode;
        break;
      }

      case kSearchNode: {
        const std::int32_t t =
            a.sfni_tree_of[static_cast<std::size_t>(h.level) * n + h.aux];
        CR_CHECK(t >= 0);
        const std::uint32_t row = a.trees.locate(t, at);
        const std::uint32_t child = a.trees.child_containing(row, h.dest);
        if (child != HopArena::TreeBank::npos) {
          const NodeId next_node = a.trees.child_global[child];
          h.target = next_node;
          start_ride(h, a.leaf_label[next_node], kSearchNode);
          break;
        }
        std::uint64_t found_label = 0;
        if (a.trees.holds(row, h.dest, &found_label)) {
          h.tree_dfs = static_cast<NodeId>(found_label);
          h.exponent = 1;
        } else {
          h.exponent = 0;
        }
        const NodeId parent = a.trees.parent_global[row];
        const NodeId up = parent == kInvalidNode ? at : parent;
        h.target = up;
        start_ride(h, a.leaf_label[up], kSearchBack);
        break;
      }

      case kSearchBack: {
        if (at != h.extra) {
          const std::int32_t t =
              a.sfni_tree_of[static_cast<std::size_t>(h.level) * n + h.aux];
          CR_CHECK(t >= 0);
          const std::uint32_t row = a.trees.locate(t, at);
          const NodeId up = a.trees.parent_global[row];
          CR_CHECK(up != kInvalidNode);
          h.target = up;
          start_ride(h, a.leaf_label[up], kSearchBack);
          break;
        }
        // At the structure root: go back from c to u (Algorithm 4 line 7).
        start_ride(h, a.leaf_label[h.aux], kBackAtAnchor);
        break;
      }

      case kBackAtAnchor: {
        if (h.exponent == 1) {
          h.inner = h.tree_dfs;
          start_ride(h, h.tree_dfs, kDeliver);
          break;
        }
        CR_CHECK_MSG(h.level < a.top_level,
                     "the top search ball covers the whole graph");
        const NodeId up =
            a.net_parent[static_cast<std::size_t>(h.level) * n + at];
        h.level = static_cast<std::int16_t>(h.level + 1);
        h.aux = up;
        start_ride(h, a.leaf_label[up], kAtAnchor);
        break;
      }
    }
  }
  CR_CHECK_MSG(false, "phase machine did not settle");
  return false;
}

}  // namespace compactroute
