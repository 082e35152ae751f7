#include "trees/tree.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace compactroute {

RootedTree::RootedTree(std::vector<NodeId> nodes, int root_local,
                       std::vector<int> parent_local, std::vector<Weight> weight) {
  const std::size_t m = nodes.size();
  CR_CHECK_MSG(parent_local.size() == m && weight.size() == m,
               "tree arrays must have one entry per node");
  init_nodes(std::move(nodes));
  CR_CHECK_MSG(root_local >= 0 && static_cast<std::size_t>(root_local) < m,
               "root must be among the tree nodes");
  root_ = root_local;
  finish(std::move(parent_local), std::move(weight));
}

void RootedTree::init_nodes(std::vector<NodeId> nodes) {
  CR_CHECK(!nodes.empty());
  global_ = std::move(nodes);
  local_.resize(global_.size());
  for (std::size_t i = 0; i < global_.size(); ++i) {
    local_[i] = {global_[i], static_cast<int>(i)};
  }
  std::sort(local_.begin(), local_.end());
  for (std::size_t i = 1; i < local_.size(); ++i) {
    CR_CHECK_MSG(local_[i - 1].first != local_[i].first, "duplicate node in tree");
  }
}

/// Shared tail of both constructors, called once `root_` is set: checks each
/// non-root parent index (-1 = not a tree node) and weight, then derives the
/// children lists, subtree sizes and depths.
void RootedTree::finish(std::vector<int> parent_local, std::vector<Weight> weight) {
  const std::size_t m = global_.size();
  parent_local[root_] = -1;
  weight[root_] = 0;
  child_off_.assign(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (static_cast<int>(i) == root_) continue;
    CR_CHECK_MSG(parent_local[i] >= 0 &&
                     static_cast<std::size_t>(parent_local[i]) < m,
                 "parent must be a tree node");
    CR_CHECK_MSG(weight[i] >= 0, "edge weights must be non-negative");
    ++child_off_[parent_local[i]];
  }
  // Counting sort into CSR: after the inclusive prefix sum child_off_[p] is
  // the end of p's run, and filling backwards leaves it at the run's start.
  for (std::size_t i = 1; i <= m; ++i) child_off_[i] += child_off_[i - 1];
  children_.resize(m - 1);
  for (std::size_t i = m; i-- > 0;) {
    if (static_cast<int>(i) != root_) {
      children_[--child_off_[parent_local[i]]] = static_cast<int>(i);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::sort(children_.begin() + static_cast<std::ptrdiff_t>(child_off_[i]),
              children_.begin() + static_cast<std::ptrdiff_t>(child_off_[i + 1]),
              [&](int a, int b) { return global_[a] < global_[b]; });
  }
  parent_ = std::move(parent_local);
  parent_weight_ = std::move(weight);

  // Subtree sizes and depths via one topological pass (children after
  // parents). Detects cycles: every node must be reachable from the root.
  std::vector<int> order;
  order.reserve(m);
  order.push_back(root_);
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (int child : children(order[head])) order.push_back(child);
  }
  CR_CHECK_MSG(order.size() == m, "parent pointers do not form a tree rooted at root");

  subtree_size_.assign(m, 1);
  depth_.assign(m, 0);
  for (int local : order) {
    if (local != root_) depth_[local] = depth_[parent_[local]] + parent_weight_[local];
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it != root_) subtree_size_[parent_[*it]] += subtree_size_[*it];
  }
}

int RootedTree::local_id(NodeId global) const {
  const auto it = std::lower_bound(
      local_.begin(), local_.end(), global,
      [](const std::pair<NodeId, int>& entry, NodeId g) { return entry.first < g; });
  return it != local_.end() && it->first == global ? it->second : -1;
}

Weight RootedTree::height() const {
  Weight h = 0;
  for (Weight d : depth_) h = std::max(h, d);
  return h;
}

bool RootedTree::validate(std::string* why) const {
  const auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  const std::size_t m = global_.size();
  if (root_ < 0 || static_cast<std::size_t>(root_) >= m) {
    return fail("root index out of range");
  }
  if (parent_[root_] != -1) return fail("root has a parent");
  for (std::size_t i = 0; i < m; ++i) {
    const int local = static_cast<int>(i);
    if (local_id(global_[i]) != local) {
      return fail("global/local id maps disagree at node " +
                  std::to_string(global_[i]));
    }
    const int p = parent_[i];
    if (local != root_) {
      if (p < 0 || static_cast<std::size_t>(p) >= m || p == local) {
        return fail("node " + std::to_string(global_[i]) +
                    " has an invalid parent index");
      }
      const auto siblings = children(p);
      if (std::find(siblings.begin(), siblings.end(), local) == siblings.end()) {
        return fail("node " + std::to_string(global_[i]) +
                    " missing from its parent's child list");
      }
      if (parent_weight_[i] < 0) {
        return fail("negative edge weight above node " +
                    std::to_string(global_[i]));
      }
    }
    for (int child : children(local)) {
      if (child < 0 || static_cast<std::size_t>(child) >= m ||
          parent_[child] != local) {
        return fail("child list of node " + std::to_string(global_[i]) +
                    " disagrees with parent pointers");
      }
    }
  }
  // Reachability plus recomputed subtree sizes and depths.
  std::vector<int> order;
  order.reserve(m);
  order.push_back(root_);
  for (std::size_t head = 0; head < order.size() && order.size() <= m; ++head) {
    for (int child : children(order[head])) order.push_back(child);
  }
  if (order.size() != m) return fail("not every node is reachable from the root");
  std::vector<std::size_t> sizes(m, 1);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it != root_) sizes[parent_[*it]] += sizes[*it];
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (sizes[i] != subtree_size_[i]) {
      return fail("cached subtree size wrong at node " +
                  std::to_string(global_[i]));
    }
    const Weight expected =
        static_cast<int>(i) == root_ ? 0 : depth_[parent_[i]] + parent_weight_[i];
    if (depth_[i] != expected) {
      return fail("cached depth wrong at node " + std::to_string(global_[i]));
    }
  }
  return true;
}

}  // namespace compactroute
