#pragma once
//
// Search trees over balls (Definitions 3.2 and 4.2) with the distributed
// (key, data) dictionary of Algorithms 1 and 2.
//
// A search tree T(c, r) spans the ball B_c(r): U_0 = {c}, and level U_i is a
// 2^{⌊log εr⌋−i}-net of the not-yet-placed ball nodes; every node links to
// its nearest node one level up. The tree's height is at most (1+ε)r
// (Eqn (3)), so a root-to-node-and-back traversal costs at most 2(1+ε)r.
// Stored pairs are distributed ⌈k/m⌉-per-node in DFS order (Algorithm 1);
// lookups descend by subtree key range and return to the root (Algorithm 2).
//
// Variant::kCappedVoronoi is "Search Tree II" (Definition 4.2): the net
// levels stop at ⌈log n⌉, and if the ball is deeper than that (huge radius,
// r > 2^{⌈log n⌉}/ε), each remaining node joins a path hanging off its
// nearest bottom-level net point (its Voronoi site inside the ball), with
// virtual edge weight 2εr/n. This caps the number of levels — and hence the
// per-node storage of the labeled scheme — independent of Δ.
//
// Edges are *virtual*: the caller decides what traversing (a, b) costs (a
// metric distance for next-hop-chain edges per Lemma 4.3, or an actual
// underlying labeled route for the name-independent schemes).
//
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "graph/metric.hpp"
#include "trees/tree.hpp"

namespace compactroute {

class SearchTree {
 public:
  enum class Variant {
    kBasic,          // Definition 3.2
    kCappedVoronoi,  // Definition 4.2 ("Search Tree II")
  };

  using Key = std::uint64_t;
  using Data = std::uint64_t;

  /// Closed key interval; empty when lo > hi (the default).
  struct KeyRange {
    Key lo = 1;
    Key hi = 0;
    bool contains(Key k) const { return lo <= k && k <= hi; }
    bool empty() const { return lo > hi; }
  };

  SearchTree(const MetricSpace& metric, NodeId center, Weight radius, double epsilon,
             Variant variant = Variant::kBasic);

  const RootedTree& tree() const { return tree_; }
  NodeId center() const { return center_; }
  Weight radius() const { return radius_; }

  /// Net level of each tree node (0 = root; Voronoi path nodes get the level
  /// below the last net level).
  int level_of(int local) const { return level_[local]; }
  int num_levels() const { return num_levels_; }

  /// True for nodes on the Definition 4.2 (ii) Voronoi tail paths, whose
  /// virtual edges are supported by local tree routing rather than next-hop
  /// chains (Lemma 4.3).
  bool is_tail(int local) const { return tail_[local] != 0; }

  /// Distributes the pairs across tree nodes (Algorithm 1). Keys must be
  /// unique. May be called once.
  void store(std::vector<std::pair<Key, Data>> pairs);

  struct LookupResult {
    bool found = false;
    Data data = 0;
    /// Nodes visited, global ids: center, ..., holder, ..., center.
    Path trail;
  };

  /// Reusable lookup workspace: hoisting one out of a lookup loop (eval,
  /// audit) keeps the descent stack and trail off the per-call heap.
  struct LookupScratch {
    std::vector<int> down;
  };

  /// Algorithm 2: top-down search by subtree ranges, then back to the root.
  LookupResult lookup(Key key) const;

  /// Same search reusing caller-provided scratch; `result` (including its
  /// trail) is overwritten, its capacity reused.
  void lookup(Key key, LookupScratch& scratch, LookupResult* result) const;

  /// Local step of Algorithm 2 at one tree node: the child whose subtree key
  /// range holds `key`, or -1 if the descent stops here. Uses only data
  /// stored at `local` (its children's ranges).
  int child_containing(int local, Key key) const;

  /// True if the pair for `key` is stored at `local`; outputs its data.
  bool holds(int local, Key key, Data* data) const;

  /// Number of (key, data) pairs stored at a node.
  std::size_t pairs_at(int local) const { return chunks_[local].size(); }

  /// Bits a node spends on this tree: stored pairs, own + children subtree
  /// key ranges, and per-edge link information of `link_bits` bits per
  /// incident virtual edge (the endpoint labels of Section 3.1.1).
  std::size_t node_bits(int local, std::size_t key_bits, std::size_t data_bits,
                        std::size_t link_bits) const;

  // ------- audit access (src/audit) -------

  bool stored() const { return stored_; }
  /// The (key, data) pairs held at one tree node (Algorithm 1 chunk).
  const std::vector<std::pair<Key, Data>>& chunk(int local) const {
    return chunks_[local];
  }
  KeyRange own_key_range(int local) const { return own_range_[local]; }
  KeyRange subtree_key_range(int local) const { return subtree_range_[local]; }

  /// Mutation-test hook: mutable access to the dictionary internals so
  /// tests/test_audit.cpp can inject defects and certify the auditors.
  struct AuditView {
    SearchTree* tree;
    std::vector<std::vector<std::pair<Key, Data>>>& chunks() {
      return tree->chunks_;
    }
    std::vector<KeyRange>& own_ranges() { return tree->own_range_; }
    std::vector<KeyRange>& subtree_ranges() { return tree->subtree_range_; }
  };
  AuditView audit_view() { return {this}; }

 private:
  friend struct SnapshotAccess;
  /// Snapshot restore: the decoder fills in every other member.
  explicit SearchTree(RootedTree tree) : tree_(std::move(tree)) {}

  void build(const MetricSpace& metric, double epsilon, Variant variant);

  NodeId center_ = kInvalidNode;
  Weight radius_ = 0;
  RootedTree tree_{std::vector<NodeId>{0}, 0, [](NodeId) { return 0; },
                   [](NodeId) { return Weight{0}; }};
  std::vector<int> level_;
  std::vector<char> tail_;
  int num_levels_ = 0;

  // Dictionary state (after store()).
  bool stored_ = false;
  std::vector<std::vector<std::pair<Key, Data>>> chunks_;  // per local node
  std::vector<KeyRange> own_range_;      // range of the node's own chunk
  std::vector<KeyRange> subtree_range_;  // range over the whole subtree
};

}  // namespace compactroute
