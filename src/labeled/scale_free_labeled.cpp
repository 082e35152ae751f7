#include "labeled/scale_free_labeled.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/bits.hpp"
#include "core/check.hpp"
#include "core/epoch_marks.hpp"
#include "core/parallel.hpp"
#include "graph/dijkstra.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace compactroute {

ScaleFreeLabeledScheme::ScaleFreeLabeledScheme(const MetricSpace& metric,
                                               const NetHierarchy& hierarchy,
                                               double epsilon)
    : ScaleFreeLabeledScheme(metric, hierarchy, epsilon, Options{}) {}

ScaleFreeLabeledScheme::ScaleFreeLabeledScheme(const MetricSpace& metric,
                                               const NetHierarchy& hierarchy,
                                               double epsilon,
                                               const Options& options)
    : metric_(&metric),
      hierarchy_(&hierarchy),
      epsilon_(epsilon),
      options_(options) {
  CR_OBS_SCOPED_TIMER("preprocess.labeled.scale_free");
  CR_OBS_SPAN("preprocess.labeled.scale_free", "construct");
  CR_CHECK_MSG(epsilon > 0 && epsilon <= 0.5, "scheme requires ε ∈ (0, 1/2]");
  CR_CHECK(options.ring_window > 0);
  max_exponent_ = max_size_exponent(metric.n());
  build_rings();
  build_packings();
}

void ScaleFreeLabeledScheme::build_rings() {
  const std::size_t n = metric_->n();
  const int top = hierarchy_->top_level();

  // Phase 1 — per-node density profile. R(u) is arithmetic on u's size
  // radii, copied from the metric's scale-free substrate (the table this
  // scheme persists); it only writes the u-th slot of each table, so the
  // pass maps over nodes on the parallel executor.
  size_radius_ = metric_->scale_free_substrate().radius_table();
  level_set_.assign(n, {});
  rings_.assign(n, {});
  parallel_for("labeled.sf.rings", n, 16,
               [&](std::size_t first, std::size_t last) {
                 for (NodeId u = static_cast<NodeId>(first); u < last; ++u) {
                   build_node_levels(u);
                 }
               });

  // Phase 2 — the rings themselves, inverted: one batched ball per net
  // point and level instead of a distance probe per (node, net point) pair.
  // A member entry carries the distance and the next hop u -> x (the
  // member's parent in x's shortest-path tree) straight from the ball. The
  // scatter is serial in ascending net order, preserving the ascending-x
  // order within each ring; a node's ring exists only for levels in R(u),
  // located by binary search (level_set_ is ascending by construction).
  for (int i = 0; i <= top; ++i) {
    const Weight reach = level_radius(i) / epsilon_;
    const std::vector<NodeId>& net = hierarchy_->net(i);
    const std::vector<BallView> balls =
        metric_->balls_oracle().balls(net, reach);
    for (std::size_t b = 0; b < net.size(); ++b) {
      const NodeId x = net[b];
      const BallView& ball = balls[b];
      for (std::size_t m = 0; m < ball.size(); ++m) {
        const NodeId u = ball.members[m];
        const std::vector<int>& levels = level_set_[u];
        const auto it = std::lower_bound(levels.begin(), levels.end(), i);
        if (it == levels.end() || *it != i) continue;
        rings_[u][it - levels.begin()].push_back(
            {x, hierarchy_->range(i, x), u == x ? u : ball.parent[m],
             ball.dist[m]});
      }
    }
  }
  // No ring of R(u) is empty: Y_i covers V within 2^i and the ring reaches
  // 2^i/ε ≥ 2·2^i. The walk's density-gap test and the arena stepper, which
  // reads the next lower level of R(u) off the ring slab, rely on it.
  for (NodeId u = 0; u < n; ++u) {
    for (const std::vector<RingEntry>& ring : rings_[u]) {
      CR_CHECK_MSG(!ring.empty(), "a ring of R(u) holds no net point");
    }
  }
}

void ScaleFreeLabeledScheme::build_node_levels(NodeId u) {
  const int top = hierarchy_->top_level();
  // R(u) = { i : ∃j, (ε/6) r_u(j) <= 2^i <= r_u(j) } — the levels around each
  // density scale of u — plus the top level (guard: line 2 of Algorithm 5
  // must always find a candidate; the top ring holds the hierarchy root).
  for (int i = 0; i <= top; ++i) {
    const Weight radius = level_radius(i);
    bool in_set = (i == top);
    for (int j = 1; !in_set && j <= max_exponent_; ++j) {
      const Weight rj = size_radius_[j][u];
      if (rj > 0 && (epsilon_ / options_.ring_window) * rj <= radius &&
          radius <= rj) {
        in_set = true;
      }
    }
    if (in_set) level_set_[u].push_back(i);
  }
  rings_[u].resize(level_set_[u].size());
}

void ScaleFreeLabeledScheme::build_packings() {
  const std::size_t n = metric_->n();
  const std::size_t log_n = id_bits(n);
  chain_bits_.assign(n, 0);
  chain_next_.assign(n, {});
  regions_.resize(max_exponent_ + 1);
  region_of_.assign(max_exponent_ + 1, std::vector<int>(n, -1));

  // Materializes one direction of a Lemma 4.3 next-hop chain: every node on
  // the canonical shortest path a -> b learns its next hop toward b. The hop
  // runtime rides these instead of querying the metric.
  const auto add_chain = [&](NodeId a, NodeId b) {
    if (a == b) return;
    const std::vector<NodeId> path = metric_->shortest_path(a, b);
    for (std::size_t s = 0; s + 1 < path.size(); ++s) {
      chain_next_[path[s]].emplace_back(b, path[s + 1]);
    }
  };

  const ScaleFreeSubstrate& substrate = metric_->scale_free_substrate();
  for (int j = 0; j <= max_exponent_; ++j) {
    const BallPacking& packing = substrate.packing(j);
    std::vector<NodeId> centers;
    centers.reserve(packing.balls().size());
    for (const PackedBall& ball : packing.balls()) centers.push_back(ball.center);
    const VoronoiDiagram voronoi = multi_source_dijkstra(metric_->csr(), centers);

    std::vector<std::vector<NodeId>> cells(packing.balls().size());
    std::vector<int> cell_of_center(n, -1);
    for (std::size_t b = 0; b < centers.size(); ++b) cell_of_center[centers[b]] = static_cast<int>(b);
    for (NodeId u = 0; u < n; ++u) {
      const int b = cell_of_center[voronoi.owner[u]];
      CR_CHECK(b >= 0);
      cells[b].push_back(u);
      region_of_[j][u] = b;
    }

    // Region structures (Voronoi tree, compact router, search tree) are
    // independent per packed ball — each iteration writes only regions_[j][b]
    // — so they build in parallel. The shared-state accounting (label-bit
    // max, Lemma 4.3 chain bits) runs serially afterwards: chain bits of
    // different balls overlap on shared shortest-path nodes.
    regions_[j].resize(packing.balls().size());
    parallel_for("labeled.sf.regions", packing.balls().size(), 1,
                 [&](std::size_t first, std::size_t last) {
      for (std::size_t b = first; b < last; ++b) {
        Region& region = regions_[j][b];
        region.center = centers[b];
        region.tree = std::make_unique<RootedTree>(
            cells[b], centers[b], [&](NodeId v) { return voronoi.parent[v]; },
            [&](NodeId v) { return metric_->dist(v, voronoi.parent[v]); });
        region.router = std::make_unique<CompactTreeRouter>(*region.tree);

        // T'(c, r_c(j)) over the packed ball, holding (global label -> local
        // label) for cell members within r_c(j+1) (all members at the top).
        const PackedBall& ball = packing.balls()[b];
        region.search = std::make_unique<SearchTree>(
            *metric_, ball.center, ball.radius, epsilon_,
            options_.capped_search_trees ? SearchTree::Variant::kCappedVoronoi
                                         : SearchTree::Variant::kBasic);
        const Weight reach = substrate.r(j + 1, ball.center);
        // One bounded ball from the center marks exactly the nodes with
        // d(center, v) <= reach — the same membership the per-node distance
        // probe tested, without a metric query per cell member. Per-thread
        // marks, so thousands of regions pay O(|ball|) each, not O(n).
        static thread_local EpochMarks within;
        within.begin(n);
        for (NodeId v : metric_->ball(ball.center, reach)) within.set(v);
        std::vector<std::pair<SearchTree::Key, SearchTree::Data>> pairs;
        for (NodeId v : cells[b]) {
          if (within.test(v)) {
            pairs.emplace_back(
                hierarchy_->leaf_label(v),
                static_cast<SearchTree::Data>(region.tree->local_id(v)));
          }
        }
        region.search->store(std::move(pairs));
      }
    });

    for (std::size_t b = 0; b < packing.balls().size(); ++b) {
      const Region& region = regions_[j][b];
      max_region_label_bits_ =
          std::max(max_region_label_bits_, region.router->max_label_bits());

      // Lemma 4.3 accounting: net-level virtual edges ride next-hop chains —
      // every node on the canonical shortest path keeps one entry per
      // direction; tail edges ride local tree routing — both endpoints keep a
      // local label (~2 log n bits).
      const RootedTree& stree = region.search->tree();
      for (std::size_t local = 0; local < stree.size(); ++local) {
        const int parent = stree.parent(static_cast<int>(local));
        if (parent < 0) continue;
        const NodeId a = stree.global_id(static_cast<int>(local));
        const NodeId b2 = stree.global_id(parent);
        if (region.search->is_tail(static_cast<int>(local))) {
          chain_bits_[a] += 4 * log_n;
          chain_bits_[b2] += 4 * log_n;
        } else {
          for (NodeId w : metric_->shortest_path(a, b2)) chain_bits_[w] += 2 * log_n;
        }
        // The runtime rides every search-tree edge by iterated next hops, in
        // both directions (descent and report-back), so both chains exist
        // regardless of the tail/non-tail accounting split above.
        add_chain(a, b2);
        add_chain(b2, a);
      }
    }

    // Top-level fallback links: centers of ℬ_{log n} know next hops to each
    // other (a constant-size clique in practice; see header notes).
    if (j == max_exponent_ && centers.size() > 1) {
      for (NodeId a : centers) {
        for (NodeId b : centers) {
          if (a >= b) continue;
          for (NodeId w : metric_->shortest_path(a, b)) chain_bits_[w] += 2 * log_n;
          add_chain(a, b);
          add_chain(b, a);
        }
      }
    }
  }

  // Deterministic lookup order; duplicates from overlapping chains collapse
  // (the next hop toward a fixed target is unique per node).
  for (auto& chains : chain_next_) {
    std::sort(chains.begin(), chains.end());
    chains.erase(std::unique(chains.begin(), chains.end()), chains.end());
  }
}

NodeId ScaleFreeLabeledScheme::chain_next(NodeId at, NodeId target) const {
  const auto& chains = chain_next_[at];
  const auto it = std::lower_bound(chains.begin(), chains.end(),
                                   std::pair<NodeId, NodeId>{target, 0});
  CR_CHECK_MSG(it != chains.end() && it->first == target,
               "missing Lemma 4.3 chain entry");
  return it->second;
}

std::pair<int, const ScaleFreeLabeledScheme::RingEntry*>
ScaleFreeLabeledScheme::minimal_hit(NodeId u, NodeId dest_label) const {
  for (std::size_t k = 0; k < level_set_[u].size(); ++k) {
    for (const RingEntry& entry : rings_[u][k]) {
      if (entry.range.contains(dest_label)) return {level_set_[u][k], &entry};
    }
  }
  CR_CHECK_MSG(false, "top ring always holds the hierarchy root");
  return {-1, nullptr};
}

bool ScaleFreeLabeledScheme::density_gap(NodeId u, int level) const {
  // Rings of R(u) are never empty (build_rings), so "L − 1 ∈ R(u)" and "u
  // has a ring at L − 1" are the same test.
  const std::vector<int>& levels = level_set_[u];
  return level > 0 &&
         !std::binary_search(levels.begin(), levels.end(), level - 1);
}

int ScaleFreeLabeledScheme::density_exponent(NodeId u, Weight radius) const {
  int j = 0;
  while (j + 1 <= max_exponent_ && size_radius_[j + 1][u] <= radius) ++j;
  return j;
}

RouteResult ScaleFreeLabeledScheme::route(NodeId src, std::uint64_t dest_label) const {
  return route_with_trace(src, dest_label, nullptr);
}

RouteResult ScaleFreeLabeledScheme::route_with_trace(NodeId src,
                                                     std::uint64_t dest_label,
                                                     Trace* trace) const {
  CR_CHECK(dest_label < metric_->n());
  const NodeId target_label = static_cast<NodeId>(dest_label);
  Trace local_trace;
  Trace& tr = trace ? *trace : local_trace;
  tr = Trace{};

  RouteResult result;
  result.path.push_back(src);
  RunningPathCost cost(*metric_);
  const auto delivered = [&]() {
    result.cost = cost(result.path);
    result.delivered = true;
    return result;
  };

  NodeId pos = src;
  if (hierarchy_->leaf_label(pos) == target_label) {
    tr.direct_delivery = true;
    return delivered();
  }

  // Walk phase (Algorithm 5 lines 1–6).
  int prev_level = std::numeric_limits<int>::max();
  int handoff_level = -1;
  for (;;) {
    const auto [level, entry] = minimal_hit(pos, target_label);
    const Weight threshold =
        level_radius(level) / (2 * epsilon_) - level_radius(level);
    // entry->x == pos means u_k = v(i_k): no walking can help, hand off.
    // (For ε < 1/2 the distance test already fails; at the ε = 1/2 boundary
    // the threshold degenerates to 0 and needs this explicit guard.)
    // The distance test (line 3) decides only above a density gap; without
    // one the step is the hierarchical scheme's own step (DESIGN.md §4).
    if (entry->x != pos && level <= prev_level &&
        (metric_->dist(pos, entry->x) >= threshold ||
         !density_gap(pos, level))) {
      pos = entry->next_hop;
      result.path.push_back(pos);
      prev_level = level;
      ++tr.walk_hops;
      CR_CHECK_MSG(result.path.size() <= 8 * metric_->n(), "walk did not converge");
      if (hierarchy_->leaf_label(pos) == target_label) {
        tr.direct_delivery = true;
        tr.walk_cost = cost(result.path);
        return delivered();
      }
      continue;
    }
    handoff_level = level;
    break;
  }
  tr.handoff_node = pos;
  tr.handoff_level = handoff_level;
  tr.walk_cost = cost(result.path);

  // Handoff phase (lines 7–10), with the documented escalation guard.
  // Per the routing model (Section 1), every relay first checks whether the
  // packet has reached its destination — so any segment that happens to pass
  // through v ends the route there.
  const NodeId target_node = hierarchy_->node_of_label(target_label);
  const auto append_and_check = [&](NodeId node) {
    result.path.push_back(node);
    return node == target_node;
  };
  const auto append_locals = [&](const Region& region,
                                 const std::vector<int>& locals) {
    for (std::size_t s = 1; s < locals.size(); ++s) {
      if (append_and_check(region.tree->global_id(locals[s]))) return true;
    }
    return false;
  };

  int j = density_exponent(pos, level_radius(handoff_level));
  tr.packing_exponent = j;
  SearchTree::LookupScratch scratch;
  SearchTree::LookupResult lookup;
  for (; j <= max_exponent_; ++j) {
    const Region& region = regions_[j][region_of_[j][pos]];
    if (tr.region_center == kInvalidNode) tr.region_center = region.center;

    const Weight before_center = cost(result.path);
    const bool hit_on_way_to_center = append_locals(
        region, region.router->route(region.tree->local_id(pos),
                                     region.router->label(region.tree->root_local())));
    if (j == tr.packing_exponent) {
      tr.to_center_cost = cost(result.path) - before_center;
    }
    if (hit_on_way_to_center) return delivered();

    const Weight before_search = cost(result.path);
    region.search->lookup(target_label, scratch, &lookup);
    bool hit_in_search = false;
    for (std::size_t s = 1; s < lookup.trail.size() && !hit_in_search; ++s) {
      hit_in_search = append_and_check(lookup.trail[s]);
    }
    if (j == tr.packing_exponent) {
      tr.search_cost = cost(result.path) - before_search;
    }
    if (hit_in_search) return delivered();

    if (lookup.found) {
      const Weight before_dest = cost(result.path);
      append_locals(region,
                    region.router->route(
                        region.tree->root_local(),
                        region.router->label(static_cast<int>(lookup.data))));
      tr.to_dest_cost = cost(result.path) - before_dest;
      CR_CHECK(result.path.back() == target_node);
      return delivered();
    }
    ++tr.escalations;
    pos = region.center;
  }

  // Final fallback: try the other top-level cells via center-to-center links.
  for (const Region& region : regions_[max_exponent_]) {
    if (region.center == pos) continue;
    for (NodeId w : metric_->shortest_path(pos, region.center)) {
      if (w != pos && append_and_check(w)) return delivered();
    }
    pos = region.center;
    region.search->lookup(target_label, scratch, &lookup);
    for (std::size_t s = 1; s < lookup.trail.size(); ++s) {
      if (append_and_check(lookup.trail[s])) return delivered();
    }
    ++tr.escalations;
    if (lookup.found) {
      append_locals(region,
                    region.router->route(
                        region.tree->root_local(),
                        region.router->label(static_cast<int>(lookup.data))));
      return delivered();
    }
  }
  CR_CHECK_MSG(false, "top-level cells jointly index every node");
  return result;
}

std::size_t ScaleFreeLabeledScheme::label_bits() const {
  return static_cast<std::size_t>(id_bits(metric_->n()));
}

std::size_t ScaleFreeLabeledScheme::storage_bits(NodeId u) const {
  const std::size_t log_n = label_bits();
  const std::size_t level_bits = id_bits(hierarchy_->top_level() + 2);
  const std::size_t port =
      id_bits(std::max<std::size_t>(metric_->graph().degree(u), 2));

  std::size_t bits = log_n;  // own label
  // Rings: entries plus a run-length encoding of R(u).
  std::size_t runs = 0;
  for (std::size_t k = 0; k < level_set_[u].size(); ++k) {
    if (k == 0 || level_set_[u][k] != level_set_[u][k - 1] + 1) ++runs;
    bits += rings_[u][k].size() * (2 * log_n + port);
  }
  bits += runs * 2 * level_bits;

  // Per packing level: the local label of the own region's center plus the
  // region router's table.
  for (int j = 0; j <= max_exponent_; ++j) {
    const Region& region = regions_[j][region_of_[j][u]];
    bits += log_n;
    bits += region.router->table_bits(region.tree->local_id(u));
    // Search-tree membership: the packed balls of ℬ_j are disjoint, so u is
    // in at most one search tree per level.
    for (const Region& candidate : regions_[j]) {
      const int local = candidate.search->tree().local_id(u);
      if (local < 0) continue;
      bits += candidate.search->node_bits(local, log_n,
                                          candidate.router->max_label_bits(),
                                          /*link_bits=*/0);
    }
  }
  bits += chain_bits_[u];
  return bits;
}

std::size_t ScaleFreeLabeledScheme::header_bits() const {
  // Destination label, previous level, packing exponent, phase tag, and the
  // retrieved local tree label during the handoff phase.
  return label_bits() + id_bits(hierarchy_->top_level() + 2) +
         id_bits(max_exponent_ + 2) + 2 + max_region_label_bits_;
}

}  // namespace compactroute
