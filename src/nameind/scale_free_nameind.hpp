#pragma once
//
// Scale-free name-independent routing (Theorem 1.1, Section 3.3) — the
// SODA 2007 scheme.
//
// Same zoom-and-search skeleton as the simple scheme (Algorithm 3), but the
// per-level search structures no longer multiply with log Δ:
//
//  * every packed ball B ∈ ℬ_j (center c) carries a search tree T(c, r_c(j))
//    holding the (name -> label) pairs of B_c(r_c(j+2)) — 4 pairs per node;
//  * a net ball B_u(2^i/ε) keeps its own search tree only if no packed ball
//    subsumes it, i.e. unless some B ∈ ℬ_j satisfies
//    B ⊆ B_u(2^i(1/ε+1)) and B_u(2^i/ε) ⊆ B_c(r_c(j+2)) (both tested by the
//    triangle-inequality form used in the paper's proofs). Subsumed levels
//    i ∈ S(u) store just a link to the center of H(u, i); Claim 3.9 bounds
//    the distinct links by 4 log n.
//
// Search (Algorithm 4; zoom_and_search over search_structure()) either
// queries the own tree or detours to the packed ball's center, queries
// there, and returns. The cost per level stays ~2^{i+1}(1/ε + 1), so the
// Lemma 3.4 stretch argument still gives 9 + O(ε), while storage drops to
// (1/ε)^{O(α)} log³ n bits per node (Lemma 3.8).
//
#include <memory>
#include <string>
#include <vector>

#include "nets/ball_packing.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "routing/scheme.hpp"
#include "search/search_tree.hpp"

namespace compactroute {

class ScaleFreeNameIndependentScheme final : public NameIndependentScheme {
 public:
  /// Ablation knobs (defaults reproduce the paper's construction).
  struct Options {
    /// When false, every net ball B_u(2^i/ε) keeps its own search tree and
    /// no H(u, i) subsumption links are created — isolating the storage
    /// contribution of the ball-packing delegation (set 𝒜 vs all balls).
    bool subsume_with_packings = true;
  };

  /// `underlying` should be the scale-free labeled scheme (Theorem 1.2) for
  /// the headline result, but any LabeledScheme on the same metric works.
  ScaleFreeNameIndependentScheme(const MetricSpace& metric,
                                 const NetHierarchy& hierarchy, const Naming& naming,
                                 const LabeledScheme& underlying, double epsilon);
  ScaleFreeNameIndependentScheme(const MetricSpace& metric,
                                 const NetHierarchy& hierarchy, const Naming& naming,
                                 const LabeledScheme& underlying, double epsilon,
                                 const Options& options);

  std::string name() const override { return "name-independent/scale-free"; }
  RouteResult route(NodeId src, Name dest_name) const override;
  std::size_t storage_bits(NodeId u) const override;
  std::size_t header_bits() const override;

  double epsilon() const { return epsilon_; }

  /// Number of levels of u's memberships that were subsumed by packed balls
  /// (|S(u)| restricted to u's net memberships); for tests.
  std::size_t subsumed_levels(NodeId u) const;

  /// Number of *distinct* packed balls H(u, i) over u's subsumed levels —
  /// Claim 3.9 bounds this by 4 log n.
  std::size_t distinct_delegations(NodeId u) const;

  /// Number of search trees (type 1 and type 2) whose node set contains v —
  /// Lemma 3.5 bounds this by (1/ε)^O(α) log n.
  std::size_t trees_containing(NodeId v) const;

  // ------- local views for the hop-by-hop runtime -------

  /// The search structure answering Search(·, anchor, level) (Algorithm 4):
  /// either the anchor's own tree or the delegated packed-ball tree; also
  /// outputs the tree's root node (anchor itself or the ball center).
  const SearchTree& search_structure(int level, NodeId anchor,
                                     NodeId* root) const;

  const NetHierarchy& hierarchy() const { return *hierarchy_; }
  const Naming& naming() const { return *naming_; }

  /// The packing ℬ_j actually deployed by the scheme and the exponent range
  /// j ∈ [0, max_exponent()] — exposed so the audit subsystem certifies the
  /// live structures rather than rebuilding its own.
  int max_exponent() const { return max_exponent_; }
  const BallPacking& packing(int j) const { return *packings_[j]; }

 private:
  struct Membership {
    /// Own search tree for B_u(2^i/ε); null when subsumed (i ∈ S(u)).
    std::unique_ptr<SearchTree> own_tree;
    int h_exponent = -1;  // j of H(u, i)
    int h_ball = -1;      // ball index within ℬ_j
  };

  friend struct SnapshotAccess;
  ScaleFreeNameIndependentScheme() = default;

  const Membership& membership(int level, NodeId u) const;

  const MetricSpace* metric_ = nullptr;
  const NetHierarchy* hierarchy_ = nullptr;
  const Naming* naming_ = nullptr;
  const LabeledScheme* underlying_ = nullptr;
  double epsilon_ = 0;
  int max_exponent_ = 0;

  std::vector<std::unique_ptr<BallPacking>> packings_;  // [j]
  // ball_trees_[j][b]: the type-1 search tree of packed ball b of ℬ_j.
  std::vector<std::vector<std::unique_ptr<SearchTree>>> ball_trees_;
  // memberships_[i][k]: info for the k-th point of Y_i.
  std::vector<std::vector<Membership>> memberships_;
};

}  // namespace compactroute
