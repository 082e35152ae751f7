#include "reference_hop.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "nets/rnet.hpp"

namespace compactroute {

bool ReferenceHopScheme::step(NodeId at, HopHeader& header,
                              NodeId* next) const {
  Decision decision = decide(at, header);
  if (decision.deliver) return true;
  header = std::move(decision.header);
  *next = decision.next;
  return false;
}

// ------------------------------------------------------------ hierarchical

HopHeader ReferenceHierarchicalHop::make_header(NodeId /*src*/,
                                                std::uint64_t dest_key) const {
  HopHeader header;
  header.dest = dest_key;
  return header;
}

ReferenceHopScheme::Decision ReferenceHierarchicalHop::decide(
    NodeId at, const HopHeader& header) const {
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

// -------------------------------------------------------------- scale-free

HopHeader ReferenceScaleFreeHop::make_header(NodeId /*src*/,
                                             std::uint64_t dest_key) const {
  HopHeader header;
  header.dest = dest_key;
  header.phase = kWalk;
  header.level = kNoPrevLevel;
  return header;
}

ReferenceHopScheme::Decision ReferenceScaleFreeHop::decide(
    NodeId at, const HopHeader& in) const {
  const NodeId dest_label = static_cast<NodeId>(in.dest);
  Decision decision;
  decision.header = in;
  HopHeader& h = decision.header;

  // Per the routing model (Section 1), every relay first checks delivery —
  // chains through the handoff structures can pass the destination itself.
  if (scheme_->hierarchy().leaf_label(at) == dest_label) {
    decision.deliver = true;
    return decision;
  }

  // Phase transitions that do not move the packet loop here; every exit is
  // either delivery or one edge of movement. Escalations can chain several
  // transitions at one node, so the budget scales with the packing depth.
  const int settle_budget = 8 * (scheme_->max_exponent() + 4) + 64;
  for (int guard = 0; guard < settle_budget; ++guard) {
    switch (static_cast<Phase>(h.phase)) {
      case kWalk: {
        if (scheme_->hierarchy().leaf_label(at) == dest_label) {
          decision.deliver = true;
          return decision;
        }
        const auto [level, entry] = scheme_->minimal_hit(at, dest_label);
        const Weight threshold =
            level_radius(level) / (2 * scheme_->epsilon()) - level_radius(level);
        // The distance test decides only above a density gap (L > 0 and
        // L − 1 ∉ R(at)); without one the walk takes the hierarchical step.
        const std::vector<int>& levels = scheme_->level_set(at);
        const bool gap = level > 0 && !std::binary_search(levels.begin(),
                                                          levels.end(),
                                                          level - 1);
        if (entry->x != at && level <= h.level &&
            (entry->dist_x >= threshold || !gap)) {
          h.level = static_cast<std::int16_t>(level);
          decision.next = entry->next_hop;
          return decision;
        }
        // Handoff (Algorithm 5 line 7).
        h.exponent = static_cast<std::int16_t>(
            scheme_->density_exponent(at, level_radius(level)));
        h.phase = kToCenter;
        break;
      }

      case kToCenter: {
        const auto& region = scheme_->region_of(h.exponent, at);
        if (at == region.center) {
          h.aux = region.center;   // search anchor
          h.target = region.center;  // search cursor starts at the root
          h.phase = kSearch;
          break;
        }
        const int local = region.tree->local_id(at);
        CR_CHECK(local >= 0);
        decision.next = region.tree->global_id(region.tree->parent(local));
        return decision;
      }

      case kSearch: {
        if (at != h.target) {
          // Riding the next-hop chain of a virtual search-tree edge
          // (Lemma 4.3).
          decision.next = scheme_->chain_next(at, h.target);
          return decision;
        }
        const auto& region = scheme_->region_of(h.exponent, h.aux);
        const SearchTree& search = *region.search;
        const int local = search.tree().local_id(at);
        CR_CHECK(local >= 0);
        const int child = search.child_containing(local, in.dest);
        if (child >= 0) {
          h.target = search.tree().global_id(child);
          break;  // next loop iteration emits the chain hop
        }
        SearchTree::Data data = 0;
        if (search.holds(local, in.dest, &data)) {
          // The stored datum IS the local routing label l(v; c, j): copy it
          // into the header for the final tree leg.
          const TreeLabel& label = region.router->label(static_cast<int>(data));
          h.tree_dfs = label.dfs;
          h.light.assign(label.light_edges.begin(), label.light_edges.end());
          h.inner_phase = 1;
        } else {
          h.inner_phase = 0;
        }
        h.phase = kReturn;
        // Return target: parent search node (or self if already the root).
        const int parent = search.tree().parent(local);
        h.target = parent < 0 ? at : search.tree().global_id(parent);
        break;
      }

      case kReturn: {
        if (at != h.target) {
          decision.next = scheme_->chain_next(at, h.target);
          return decision;
        }
        const auto& region = scheme_->region_of(h.exponent, h.aux);
        if (at != region.search->tree().root_global()) {
          const int local = region.search->tree().local_id(at);
          CR_CHECK(local >= 0);
          const int parent = region.search->tree().parent(local);
          CR_CHECK(parent >= 0);
          h.target = region.search->tree().global_id(parent);
          break;
        }
        // Back at the center (search root).
        if (h.inner_phase == 1) {
          h.phase = kToDest;
          break;
        }
        if (h.exponent < scheme_->max_exponent()) {
          // Escalation guard: retry one packing level coarser.
          h.exponent = static_cast<std::int16_t>(h.exponent + 1);
          h.phase = kToCenter;
          break;
        }
        // Final fallback: visit the other top-level centers in order.
        const auto& peers = scheme_->regions(scheme_->max_exponent());
        std::size_t k = static_cast<std::size_t>(h.inner);
        while (k < peers.size() && peers[k].center == at) ++k;
        CR_CHECK_MSG(k < peers.size(),
                     "top-level cells jointly index every node");
        h.inner = k + 1;
        h.aux = peers[k].center;
        h.target = peers[k].center;
        h.phase = kFallbackMove;
        break;
      }

      case kFallbackMove: {
        if (at != h.target) {
          decision.next = scheme_->chain_next(at, h.target);
          return decision;
        }
        h.phase = kSearch;  // target == aux == this center (the search root)
        break;
      }

      case kToDest: {
        const auto& region = scheme_->region_of(h.exponent, h.aux);
        const int local = region.tree->local_id(at);
        CR_CHECK(local >= 0);
        TreeLabel label;
        label.dfs = h.tree_dfs;
        label.light_edges.assign(h.light.begin(), h.light.end());
        const int next_local = region.router->step(local, label);
        if (next_local == local) {
          CR_CHECK(scheme_->hierarchy().leaf_label(at) == dest_label);
          decision.deliver = true;
          return decision;
        }
        decision.next = region.tree->global_id(next_local);
        return decision;
      }
    }
  }
  CR_CHECK_MSG(false, "phase machine did not settle");
  return decision;
}

// ------------------------------------------------ simple name-independent

HopHeader ReferenceSimpleNameIndependentHop::make_header(
    NodeId src, std::uint64_t dest_key) const {
  HopHeader header;
  header.dest = dest_key;
  header.level = 0;
  header.aux = src;  // u(0) = the source itself
  header.inner = underlying_->label(src);
  header.inner_phase = kAtAnchor;
  return header;
}

ReferenceHopScheme::Decision ReferenceSimpleNameIndependentHop::decide(
    NodeId at, const HopHeader& in) const {
  const NetHierarchy& hierarchy = scheme_->hierarchy();
  Decision decision;
  decision.header = in;
  HopHeader& h = decision.header;

  // Several levels can be processed at one physical node (tiny search trees
  // answer at their root), so the settle budget scales with the hierarchy.
  const int settle_budget = 8 * (hierarchy.top_level() + 4) + 64;
  for (int guard = 0; guard < settle_budget; ++guard) {
    // Riding: while the inner labeled target is not reached, take one greedy
    // ring step of the underlying scheme.
    if (hierarchy.leaf_label(at) != static_cast<NodeId>(h.inner)) {
      for (int level = 0;; ++level) {
        CR_CHECK(level <= hierarchy.top_level());
        bool stepped = false;
        for (const auto& entry : underlying_->rings(at)[level]) {
          if (entry.range.contains(static_cast<NodeId>(h.inner))) {
            CR_CHECK(entry.x != at);
            decision.next = entry.next_hop;
            stepped = true;
            break;
          }
        }
        if (stepped) break;
      }
      return decision;
    }

    // The ride arrived: advance the outer (name-independent) machine.
    switch (static_cast<Continuation>(h.inner_phase)) {
      case kDeliver: {
        CR_CHECK(scheme_->naming().name_of(at) == h.dest);
        decision.deliver = true;
        return decision;
      }

      case kAtAnchor: {
        if (scheme_->naming().name_of(at) == h.dest) {
          decision.deliver = true;
          return decision;
        }
        // Start the local search at the root (the anchor itself).
        h.target = h.aux;
        h.inner_phase = kSearchNode;
        break;
      }

      case kSearchNode: {
        const SearchTree& tree = scheme_->level_tree(h.level, h.aux);
        const int local = tree.tree().local_id(at);
        CR_CHECK(local >= 0);
        const int child = tree.child_containing(local, h.dest);
        if (child >= 0) {
          const NodeId next_node = tree.tree().global_id(child);
          h.target = next_node;
          h.inner = underlying_->label(next_node);
          break;  // ride one virtual edge down
        }
        SearchTree::Data found_label = 0;
        if (tree.holds(local, h.dest, &found_label)) {
          h.tree_dfs = static_cast<NodeId>(found_label);  // remember l(v)
          h.exponent = 1;                                 // "found" flag
        } else {
          h.exponent = 0;
        }
        // Report back toward the root (Algorithm 2 line 10).
        const int parent = tree.tree().parent(local);
        const NodeId up = parent < 0 ? at : tree.tree().global_id(parent);
        h.target = up;
        h.inner = underlying_->label(up);
        h.inner_phase = kSearchBack;
        break;
      }

      case kSearchBack: {
        if (at != h.aux) {
          const SearchTree& tree = scheme_->level_tree(h.level, h.aux);
          const int local = tree.tree().local_id(at);
          CR_CHECK(local >= 0);
          const int parent = tree.tree().parent(local);
          CR_CHECK(parent >= 0);
          const NodeId up = tree.tree().global_id(parent);
          h.target = up;
          h.inner = underlying_->label(up);
          break;
        }
        // Back at the anchor u(level).
        if (h.exponent == 1) {
          h.inner = h.tree_dfs;  // the retrieved label l(v)
          h.inner_phase = kDeliver;
          break;
        }
        // Climb to u(level+1) — its label is stored along the netting tree.
        CR_CHECK_MSG(h.level < hierarchy.top_level(),
                     "top search ball covers the whole graph");
        const NodeId up = hierarchy.netting_parent(h.level, at);
        h.level = static_cast<std::int16_t>(h.level + 1);
        h.aux = up;
        h.inner = underlying_->label(up);
        h.inner_phase = kAtAnchor;
        break;
      }
    }
  }
  CR_CHECK_MSG(false, "phase machine did not settle");
  return decision;
}

// -------------------------------------------- scale-free name-independent

HopHeader ReferenceScaleFreeNameIndependentHop::make_header(
    NodeId src, std::uint64_t dest_key) const {
  HopHeader header;
  header.dest = dest_key;
  header.level = 0;
  header.aux = src;  // u(0)
  header.inner_phase = kAtAnchor;
  return header;
}

void ReferenceScaleFreeNameIndependentHop::start_ride(
    HopHeader& header, NodeId at, NodeId label,
    Continuation continuation) const {
  header.inner_phase = continuation;
  header.nested = std::make_unique<HopHeader>(inner_.make_header(at, label));
}

ReferenceHopScheme::Decision ReferenceScaleFreeNameIndependentHop::decide(
    NodeId at, const HopHeader& in) const {
  const NetHierarchy& hierarchy = scheme_->hierarchy();
  Decision decision;
  decision.header = in;
  HopHeader& h = decision.header;

  const int settle_budget = 8 * (hierarchy.top_level() + 4) + 64;
  for (int guard = 0; guard < settle_budget; ++guard) {
    // A ride of the inner labeled machine is in progress.
    if (h.nested) {
      if (hierarchy.leaf_label(at) == static_cast<NodeId>(h.nested->dest)) {
        h.nested.reset();  // arrived; fall through to the continuation
      } else {
        Decision inner_decision = inner_.decide(at, *h.nested);
        CR_CHECK_MSG(!inner_decision.deliver, "arrival is checked before stepping");
        *h.nested = std::move(inner_decision.header);
        decision.next = inner_decision.next;
        return decision;
      }
    }

    switch (static_cast<Continuation>(h.inner_phase)) {
      case kDeliver: {
        CR_CHECK(scheme_->naming().name_of(at) == h.dest);
        decision.deliver = true;
        return decision;
      }

      case kAtAnchor: {
        if (scheme_->naming().name_of(at) == h.dest) {
          decision.deliver = true;
          return decision;
        }
        NodeId root = kInvalidNode;
        scheme_->search_structure(h.level, h.aux, &root);
        h.extra = root;
        // Algorithm 4: "go to c from u" when the level is delegated.
        start_ride(h, at, underlying_->label(root), kAtRoot);
        break;
      }

      case kAtRoot: {
        h.target = at;  // the search cursor starts at the root
        h.inner_phase = kSearchNode;
        break;
      }

      case kSearchNode: {
        const SearchTree& tree =
            scheme_->search_structure(h.level, h.aux, nullptr);
        const int local = tree.tree().local_id(at);
        CR_CHECK(local >= 0);
        const int child = tree.child_containing(local, h.dest);
        if (child >= 0) {
          const NodeId next_node = tree.tree().global_id(child);
          h.target = next_node;
          start_ride(h, at, underlying_->label(next_node), kSearchNode);
          break;
        }
        SearchTree::Data found_label = 0;
        if (tree.holds(local, h.dest, &found_label)) {
          h.tree_dfs = static_cast<NodeId>(found_label);
          h.exponent = 1;
        } else {
          h.exponent = 0;
        }
        const int parent = tree.tree().parent(local);
        const NodeId up = parent < 0 ? at : tree.tree().global_id(parent);
        h.target = up;
        start_ride(h, at, underlying_->label(up), kSearchBack);
        break;
      }

      case kSearchBack: {
        if (at != h.extra) {
          const SearchTree& tree =
              scheme_->search_structure(h.level, h.aux, nullptr);
          const int local = tree.tree().local_id(at);
          CR_CHECK(local >= 0);
          const int parent = tree.tree().parent(local);
          CR_CHECK(parent >= 0);
          const NodeId up = tree.tree().global_id(parent);
          h.target = up;
          start_ride(h, at, underlying_->label(up), kSearchBack);
          break;
        }
        // At the structure root: go back from c to u (Algorithm 4 line 7).
        start_ride(h, at, underlying_->label(h.aux), kBackAtAnchor);
        break;
      }

      case kBackAtAnchor: {
        if (h.exponent == 1) {
          h.inner = h.tree_dfs;
          start_ride(h, at, h.tree_dfs, kDeliver);
          break;
        }
        CR_CHECK_MSG(h.level < hierarchy.top_level(),
                     "the top search ball covers the whole graph");
        const NodeId up = hierarchy.netting_parent(h.level, at);
        h.level = static_cast<std::int16_t>(h.level + 1);
        h.aux = up;
        start_ride(h, at, underlying_->label(up), kAtAnchor);
        break;
      }
    }
  }
  CR_CHECK_MSG(false, "phase machine did not settle");
  return decision;
}

}  // namespace compactroute
