#include "runtime/hop_scale_free.hpp"

#include "core/check.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "runtime/hop_arena.hpp"

namespace compactroute {

namespace {

/// Whether the minimal ring hit `hit` of node `at` sits above a density gap:
/// its level L > 0 and L − 1 ∉ R(at) (the scheme's density_gap). Ring rows
/// are level-ascending per node and no ring of R(at) is empty, so the entry
/// just before hit's level group carries the next lower level of R(at).
bool density_gap(const HopArena& a, NodeId at, std::uint32_t hit) {
  const std::int16_t level = a.sf.level[hit];
  if (level == 0) return false;
  const std::uint32_t first = a.sf.node_off[at];
  std::uint32_t k = hit;
  while (k > first && a.sf.level[k - 1] == level) --k;
  return k == first || a.sf.level[k - 1] != level - 1;
}

}  // namespace

ScaleFreeHopScheme::ScaleFreeHopScheme(std::shared_ptr<const HopArena> arena)
    : arena_(std::move(arena)) {
  CR_CHECK(arena_ && arena_->sf_present);
}

ScaleFreeHopScheme::ScaleFreeHopScheme(const ScaleFreeLabeledScheme& scheme)
    : ScaleFreeHopScheme(HopArena::build(scheme.hierarchy(), nullptr, nullptr,
                                         &scheme, nullptr, nullptr)) {}

ScaleFreeHopScheme::ScaleFreeHopScheme(
    const ScaleFreeLabeledScheme& /*scheme*/,
    std::shared_ptr<const HopArena> arena)
    : ScaleFreeHopScheme(std::move(arena)) {}

HopHeader ScaleFreeHopScheme::make_header(NodeId /*src*/,
                                          std::uint64_t dest_key) const {
  HopHeader header;
  reset_header(header, dest_key);
  return header;
}

void ScaleFreeHopScheme::reset_header(HopHeader& header,
                                      std::uint64_t dest_key) const {
  auto light = std::move(header.light);
  light.clear();
  header = HopHeader{};
  header.light = std::move(light);
  header.dest = dest_key;
  header.phase = kWalk;
  header.level = kNoPrevLevel;
}

TracePhase ScaleFreeHopScheme::phase_of(const HopHeader& header) const {
  switch (static_cast<Phase>(header.phase)) {
    case kWalk:
      return TracePhase::kLabelLookup;  // greedy ring walk toward the label
    case kToCenter:
      return TracePhase::kHandoff;  // Algorithm 5 line 7 handoff
    case kSearch:
    case kReturn:
      return TracePhase::kNetSearch;  // search-tree descent / report back
    case kFallbackMove:
      return TracePhase::kFallback;  // sweep of the top-level centers
    case kToDest:
      return TracePhase::kTreeRoute;  // compact-tree final leg
  }
  return TracePhase::kForward;
}

bool ScaleFreeHopScheme::step(NodeId at, HopHeader& h, NodeId* next) const {
  const HopArena& a = *arena_;
  const std::size_t n = a.n;
  const NodeId dest_label = static_cast<NodeId>(h.dest);

  // Per the routing model (Section 1), every relay first checks delivery —
  // chains through the handoff structures can pass the destination itself.
  if (a.leaf_label[at] == dest_label) return true;

  // Phase transitions that do not move the packet loop here; every exit is
  // either delivery or one edge of movement. Escalations can chain several
  // transitions at one node, so the budget scales with the packing depth.
  const int settle_budget = 8 * (a.sf.max_exponent + 4) + 64;
  for (int guard = 0; guard < settle_budget; ++guard) {
    switch (static_cast<Phase>(h.phase)) {
      case kWalk: {
        // Minimal ring hit: first containment in the level-ascending slab.
        const std::uint32_t end = a.sf.node_off[at + 1];
        const std::uint32_t hit =
            ring_first_hit(a.sf.lo.data(), a.sf.hi.data(), a.sf.node_off[at],
                           end, dest_label);
        CR_CHECK_MSG(hit < end, "top ring always holds the hierarchy root");
        const std::int16_t level = a.sf.level[hit];
        // The distance test first: at ε = 1/2 its threshold is 0, so it
        // always passes and the gap test reads no further entry.
        if (a.sf.x[hit] != at && level <= h.level &&
            (a.sf.dist[hit] >= a.sf.walk_threshold[level] ||
             !density_gap(a, at, hit))) {
          h.level = level;
          *next = a.sf.next[hit];
          a.prefetch_sf_rings(*next);
          return false;
        }
        // Handoff (Algorithm 5 line 7): j = smallest exponent whose cell
        // already covers the walk radius.
        const Weight radius = a.sf.radius[level];
        const std::size_t base = at * static_cast<std::size_t>(a.sf.max_exponent + 1);
        std::int16_t j = 0;
        while (j + 1 <= a.sf.max_exponent &&
               a.sf.size_radius[base + j + 1] <= radius) {
          ++j;
        }
        h.exponent = j;
        h.phase = kToCenter;
        break;
      }

      case kToCenter: {
        const std::size_t jn = static_cast<std::size_t>(h.exponent) * n;
        const std::int32_t rid = a.sf.region_id[jn + at];
        const NodeId center = a.sf.center[rid];
        if (at == center) {
          h.aux = center;     // search anchor
          h.target = center;  // search cursor starts at the root
          h.phase = kSearch;
          break;
        }
        const std::uint32_t idx =
            a.sf.rt_base[rid] +
            static_cast<std::uint32_t>(a.sf.region_local[jn + at]);
        const NodeId up = a.sf.rt_parent_global[idx];
        CR_CHECK(up != kInvalidNode);
        *next = up;
        arena_prefetch(&a.leaf_label[up]);
        arena_prefetch(&a.sf.region_id[jn + up]);
        return false;
      }

      case kSearch: {
        if (at != h.target) {
          // Riding the next-hop chain of a virtual search-tree edge
          // (Lemma 4.3).
          *next = a.chain_next(at, h.target);
          a.prefetch_chains(*next);
          return false;
        }
        const std::size_t jn = static_cast<std::size_t>(h.exponent) * n;
        const std::int32_t rid = a.sf.region_id[jn + h.aux];
        const std::int32_t t = a.sf.search_tree[rid];
        const std::uint32_t row = a.trees.locate(t, at);
        const std::uint32_t child = a.trees.child_containing(row, h.dest);
        if (child != HopArena::TreeBank::npos) {
          h.target = a.trees.child_global[child];
          break;  // next loop iteration emits the chain hop
        }
        std::uint64_t data = 0;
        if (a.trees.holds(row, h.dest, &data)) {
          // The stored datum IS the local routing label l(v; c, j): copy it
          // into the header for the final tree leg.
          const std::uint32_t dest_row =
              a.sf.rt_base[rid] + static_cast<std::uint32_t>(data);
          h.tree_dfs = a.sf.rt_dfs_in[dest_row];
          h.light.clear();
          const std::uint32_t light_end = a.sf.rt_light_off[dest_row + 1];
          for (std::uint32_t e = a.sf.rt_light_off[dest_row]; e < light_end;
               ++e) {
            h.light.emplace_back(a.sf.rt_light_anchor[e], a.sf.rt_light_port[e]);
          }
          h.inner_phase = 1;
        } else {
          h.inner_phase = 0;
        }
        h.phase = kReturn;
        // Return target: parent search node (or self if already the root).
        const NodeId parent = a.trees.parent_global[row];
        h.target = parent == kInvalidNode ? at : parent;
        break;
      }

      case kReturn: {
        if (at != h.target) {
          *next = a.chain_next(at, h.target);
          a.prefetch_chains(*next);
          return false;
        }
        const std::size_t jn = static_cast<std::size_t>(h.exponent) * n;
        const std::int32_t rid = a.sf.region_id[jn + h.aux];
        const std::int32_t t = a.sf.search_tree[rid];
        if (at != a.trees.root_global[t]) {
          const std::uint32_t row = a.trees.locate(t, at);
          const NodeId up = a.trees.parent_global[row];
          CR_CHECK(up != kInvalidNode);
          h.target = up;
          break;
        }
        // Back at the center (search root).
        if (h.inner_phase == 1) {
          h.phase = kToDest;
          break;
        }
        if (h.exponent < a.sf.max_exponent) {
          // Escalation guard: retry one packing level coarser.
          h.exponent = static_cast<std::int16_t>(h.exponent + 1);
          h.phase = kToCenter;
          break;
        }
        // Final fallback: visit the other top-level centers in order.
        std::size_t k = static_cast<std::size_t>(h.inner);
        while (k < a.sf.top_peer.size() && a.sf.top_peer[k] == at) ++k;
        CR_CHECK_MSG(k < a.sf.top_peer.size(),
                     "top-level cells jointly index every node");
        h.inner = k + 1;
        h.aux = a.sf.top_peer[k];
        h.target = a.sf.top_peer[k];
        h.phase = kFallbackMove;
        break;
      }

      case kFallbackMove: {
        if (at != h.target) {
          *next = a.chain_next(at, h.target);
          a.prefetch_chains(*next);
          return false;
        }
        h.phase = kSearch;  // target == aux == this center (the search root)
        break;
      }

      case kToDest: {
        const std::size_t jn = static_cast<std::size_t>(h.exponent) * n;
        const std::int32_t rid = a.sf.region_id[jn + at];
        const std::uint32_t idx =
            a.sf.rt_base[rid] +
            static_cast<std::uint32_t>(a.sf.region_local[jn + at]);
        if (h.tree_dfs == a.sf.rt_dfs_in[idx]) {
          CR_CHECK(a.leaf_label[at] == dest_label);
          return true;
        }
        if (h.tree_dfs < a.sf.rt_dfs_in[idx] ||
            h.tree_dfs > a.sf.rt_dfs_out[idx]) {
          const NodeId up = a.sf.rt_parent_global[idx];
          CR_CHECK_MSG(up != kInvalidNode, "destination outside the tree");
          *next = up;
        } else if (h.tree_dfs >= a.sf.rt_heavy_in[idx] &&
                   h.tree_dfs <= a.sf.rt_heavy_out[idx]) {
          *next = a.sf.rt_heavy_global[idx];
        } else {
          NodeId hop = kInvalidNode;
          for (const auto& [anchor, port] : h.light) {
            if (anchor == a.sf.rt_dfs_in[idx]) {
              CR_CHECK(port < a.sf.rt_child_off[idx + 1] -
                                  a.sf.rt_child_off[idx]);
              hop = a.sf.rt_child_global[a.sf.rt_child_off[idx] + port];
              break;
            }
          }
          CR_CHECK_MSG(
              hop != kInvalidNode,
              "label must record the light edge at every light ancestor");
          *next = hop;
        }
        arena_prefetch(&a.leaf_label[*next]);
        arena_prefetch(&a.sf.region_local[jn + *next]);
        return false;
      }
    }
  }
  CR_CHECK_MSG(false, "phase machine did not settle");
  return false;
}

}  // namespace compactroute
