#pragma once
//
// Scale-free (1+ε)-stretch labeled routing (Theorem 1.2, Section 4).
//
// Same greedy ring descent as the hierarchical scheme, but a node keeps rings
// only for the level set R(u) = { i : ∃j, (ε/6) r_u(j) ≤ 2^i ≤ r_u(j) } of
// size O(log n · log(1/ε)) — the levels that "see" a change in local density.
// When the descent stalls (Algorithm 5 line 3: the level would rise, or the
// current ring target is already close while the level just below it is
// missing from R(u) — a density gap), the packet hands off to the ball
// packing ℬ_j at the density scale j matching 2^{i_t} (r_{u_t}(j) ≤ 2^{i_t}
// < r_{u_t}(j+1)): it rides the Voronoi shortest-path tree T_c(j) to its
// region center c, retrieves the destination's *local* tree-routing label
// from the search tree T'(c, r_c(j)) (Lemma 4.5 guarantees v lives in this
// region and ball), and tree-routes to v. Total cost (1 + O(ε)) d(u, v)
// (Lemma 4.7); storage (1/ε)^{O(α)} log³ n bits per node — no log Δ anywhere.
//
// Pragmatic guards (documented in DESIGN.md): the top hierarchy level is
// always included in R(u) so line 2 never comes up empty, and if a handoff
// lookup misses (metric ties can bend Claim 4.6's inequalities), the packet
// escalates to coarser packings j+1, ..., log n; the top packing's search
// structures index every node, so escalation always terminates. Tests track
// that escalation stays rare and stretch stays within the bound.
//
#include <memory>
#include <string>
#include <vector>

#include "nets/ball_packing.hpp"
#include "nets/rnet.hpp"
#include "routing/scheme.hpp"
#include "search/search_tree.hpp"
#include "trees/compact_tree_router.hpp"
#include "trees/tree.hpp"

namespace compactroute {

class ScaleFreeLabeledScheme final : public LabeledScheme {
 public:
  /// Ablation knobs (defaults reproduce the paper's construction).
  struct Options {
    /// The window divisor in R(u) = { i : ∃j, (ε/W) r_u(j) <= 2^i <= r_u(j) }
    /// — the paper's Section 4.1 uses W = 6. Larger W keeps more levels
    /// (more storage, fewer handoffs); W -> 0 degenerates toward handing off
    /// immediately.
    double ring_window = 6.0;
    /// Use Definition 4.2 capped/Voronoi search trees (true, scale-free) or
    /// plain Definition 3.2 trees (false, depth grows with log Δ).
    bool capped_search_trees = true;
  };

  ScaleFreeLabeledScheme(const MetricSpace& metric, const NetHierarchy& hierarchy,
                         double epsilon);
  ScaleFreeLabeledScheme(const MetricSpace& metric, const NetHierarchy& hierarchy,
                         double epsilon, const Options& options);

  std::string name() const override { return "labeled/scale-free"; }
  std::uint64_t label(NodeId v) const override { return hierarchy_->leaf_label(v); }
  std::size_t label_bits() const override;
  RouteResult route(NodeId src, std::uint64_t dest_label) const override;
  std::size_t storage_bits(NodeId u) const override;
  std::size_t header_bits() const override;

  double epsilon() const { return epsilon_; }
  const NetHierarchy& hierarchy() const { return *hierarchy_; }

  /// Diagnostics for the Figure 2 trace bench and the Claim 4.6 tests.
  struct Trace {
    std::size_t walk_hops = 0;       // t — nodes u_0 .. u_t
    NodeId handoff_node = kInvalidNode;  // u_t
    int handoff_level = -1;          // i_t
    int packing_exponent = -1;       // j
    NodeId region_center = kInvalidNode;  // c
    Weight walk_cost = 0;
    Weight to_center_cost = 0;
    Weight search_cost = 0;
    Weight to_dest_cost = 0;
    int escalations = 0;             // times the j-fallback fired
    bool direct_delivery = false;    // delivered during the walk phase
  };

  RouteResult route_with_trace(NodeId src, std::uint64_t dest_label,
                               Trace* trace) const;

  /// R(u), for tests.
  const std::vector<int>& level_set(NodeId u) const { return level_set_[u]; }

  struct RingEntry {
    NodeId x = kInvalidNode;
    LeafRange range;
    NodeId next_hop = kInvalidNode;
    /// d(u, x) — a per-entry constant, stored so the walk threshold test
    /// (Algorithm 5 line 3) needs no metric at query time.
    Weight dist_x = 0;
  };

  /// Ring tables of node u; rings(u)[k] belongs to level level_set(u)[k].
  /// Exposed for the audit subsystem.
  const std::vector<std::vector<RingEntry>>& rings(NodeId u) const {
    return rings_[u];
  }

  struct Region {
    NodeId center = kInvalidNode;
    std::unique_ptr<RootedTree> tree;           // T_c(j): spans V(c, j)
    std::unique_ptr<CompactTreeRouter> router;  // optimal routing on T_c(j)
    std::unique_ptr<SearchTree> search;         // T'(c, r_c(j))
  };

  // The per-node local views the hop-by-hop runtime executes on.

  /// Minimal level in R(u) whose ring holds dest_label; never fails.
  std::pair<int, const RingEntry*> minimal_hit(NodeId u, NodeId dest_label) const;

  /// Largest j with r_u(j) <= radius.
  int density_exponent(NodeId u, Weight radius) const;

  /// r_u(j) — exposed so the serve-time arena can transpose the table.
  Weight size_radius(int exponent, NodeId u) const {
    return size_radius_[exponent][u];
  }

  /// Ball index of u's ℬ_j region (the regions(exponent) slot).
  int region_index(int exponent, NodeId u) const {
    return region_of_[exponent][u];
  }

  /// All Lemma 4.3 chain entries of one node: (target, next hop) sorted by
  /// target — the table chain_next() binary-searches.
  const std::vector<std::pair<NodeId, NodeId>>& chains(NodeId u) const {
    return chain_next_[u];
  }

  /// The ℬ_j Voronoi region containing u.
  const Region& region_of(int exponent, NodeId u) const {
    return regions_[exponent][region_of_[exponent][u]];
  }

  /// All regions at one packing exponent (the top level's centers are the
  /// final-fallback peers).
  const std::vector<Region>& regions(int exponent) const {
    return regions_[exponent];
  }

  int max_exponent() const { return max_exponent_; }

  /// Next hop from `at` along the canonical shortest path toward `target`
  /// (a Lemma 4.3 next-hop chain entry). Defined for every node on the
  /// canonical path of a search-tree edge and for the top-level
  /// center-to-center links — exactly the rides the hop runtime takes.
  NodeId chain_next(NodeId at, NodeId target) const;

 private:
  friend struct SnapshotAccess;
  ScaleFreeLabeledScheme() = default;

  void build_rings();
  /// Derives R(u) from u's size radii and sizes rings_[u] to match. Writes
  /// only the u-th slot of each table, so build_rings maps it over nodes on
  /// the parallel executor; the ring entries themselves are filled by the
  /// inverted per-level scatter in build_rings.
  void build_node_levels(NodeId u);
  void build_packings();
  /// Whether ring level `level` of R(u) sits above a density gap: level > 0
  /// and level − 1 ∉ R(u). Only there does the walk's distance test decide.
  bool density_gap(NodeId u, int level) const;

  const MetricSpace* metric_ = nullptr;
  const NetHierarchy* hierarchy_ = nullptr;
  double epsilon_ = 0;
  Options options_;

  std::vector<std::vector<int>> level_set_;  // R(u), ascending
  // rings_[u][k] corresponds to level_set_[u][k].
  std::vector<std::vector<std::vector<RingEntry>>> rings_;

  std::vector<std::vector<Weight>> size_radius_;  // [j][u] = r_u(j)
  int max_exponent_ = 0;                          // ⌊log n⌋
  std::vector<std::vector<Region>> regions_;      // [j][ball index]
  std::vector<std::vector<int>> region_of_;       // [j][u] -> ball index

  std::vector<std::size_t> chain_bits_;  // Lemma 4.3 next-hop chain storage
  // The chain entries themselves: chain_next_[u] holds (target, next hop)
  // pairs sorted by target, one per chain u participates in. This is the
  // materialization of the storage chain_bits_ accounts for — with it, the
  // hop runtime never consults the metric backend.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> chain_next_;
  std::size_t max_region_label_bits_ = 0;
};

}  // namespace compactroute
