#pragma once
//
// Rooted weighted trees.
//
// Trees appear in three roles in the paper: the netting tree (Section 2), the
// Voronoi shortest-path trees T_c(j) (Section 4.1), and the virtual search
// trees (Definitions 3.2 / 4.2). This class gives them one representation:
// local indices 0..m-1 with a mapping to global node ids, parent pointers,
// edge weights, and the derived orders (children, subtree sizes) that tree
// routing needs. Tree edges may be real graph edges (Voronoi trees) or
// virtual edges whose weight is a metric distance (search trees).
//
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/types.hpp"

namespace compactroute {

class RootedTree {
 public:
  /// Builds a tree over `nodes` (global ids; must include `root`). parent_of
  /// maps each non-root global node to its parent's global id (which must be
  /// in `nodes`); weight_of gives the corresponding edge weight.
  template <typename ParentFn, typename WeightFn>
  RootedTree(const std::vector<NodeId>& nodes, NodeId root, ParentFn&& parent_of,
             WeightFn&& weight_of) {
    init_nodes(nodes);
    root_ = local_id(root);
    CR_CHECK_MSG(root_ >= 0, "root must be among the tree nodes");
    std::vector<int> parents(nodes.size(), -1);
    std::vector<Weight> weights(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == root) continue;
      parents[i] = local_id(parent_of(nodes[i]));
      weights[i] = weight_of(nodes[i]);
    }
    finish(std::move(parents), std::move(weights));
  }

  /// Positional form: local index i is `nodes[i]`, the root is local
  /// `root_local`, and every other local i hangs below local
  /// `parent_local[i]` with edge weight `weight[i]` (the root's entries are
  /// ignored). Runs the same checks as the callback form (distinct nodes,
  /// root and parents in range, non-negative weights, acyclic) without
  /// mapping a global id per node — the snapshot decoder's restore path.
  RootedTree(std::vector<NodeId> nodes, int root_local,
             std::vector<int> parent_local, std::vector<Weight> weight);

  std::size_t size() const { return global_.size(); }
  int root_local() const { return root_; }
  NodeId root_global() const { return global_[root_]; }

  NodeId global_id(int local) const { return global_[local]; }
  /// Local index of a global id; -1 if not in the tree.
  int local_id(NodeId global) const;
  bool contains(NodeId global) const { return local_id(global) >= 0; }

  /// Parent local index; -1 for the root.
  int parent(int local) const { return parent_[local]; }
  Weight parent_edge_weight(int local) const { return parent_weight_[local]; }

  /// Children in increasing global-id order.
  std::span<const int> children(int local) const {
    return {children_.data() + child_off_[local],
            child_off_[local + 1] - child_off_[local]};
  }

  std::size_t subtree_size(int local) const { return subtree_size_[local]; }

  /// Sum of edge weights from the root to `local`.
  Weight depth(int local) const { return depth_[local]; }

  /// Maximum depth over all nodes (the height used in Eqn (3)).
  Weight height() const;

  /// Structural self-check used by the audit subsystem: exactly one root,
  /// parent/children mutually consistent, every node reachable from the
  /// root, and subtree sizes / depths matching a recomputation. Returns
  /// false and describes the first defect in `why` (when non-null).
  bool validate(std::string* why = nullptr) const;

 private:
  void init_nodes(std::vector<NodeId> nodes);
  void finish(std::vector<int> parent_local, std::vector<Weight> weight);

  int root_ = -1;
  std::vector<NodeId> global_;
  std::vector<std::pair<NodeId, int>> local_;  // (global, local), by global
  std::vector<int> parent_;
  std::vector<Weight> parent_weight_;
  std::vector<std::size_t> child_off_;  // CSR offsets into children_ [m+1]
  std::vector<int> children_;
  std::vector<std::size_t> subtree_size_;
  std::vector<Weight> depth_;
};

}  // namespace compactroute
