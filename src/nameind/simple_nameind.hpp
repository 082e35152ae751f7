#pragma once
//
// Simple name-independent routing (Theorem 1.4, Sections 3.1–3.2) — the
// PODC 2006 scheme.
//
// For every net point u ∈ Y_i the ball B_u(2^i/ε) carries a search tree
// storing the (original name -> routing label) pairs of all its nodes. A
// source climbs its own zooming sequence u(0), u(1), ...; at each u(i) it
// runs SearchTree(id(v), T(u(i), 2^i/ε)) (Algorithm 3) — zoom_and_search
// with every level owning its tree (root = anchor). The first level j at
// which the search succeeds satisfies d(u(j-1), v) > 2^{j-1}/ε, which prices
// the whole climb-and-search prologue at O(ε)·d(u, v) relative to the final
// leg, giving stretch 9 + O(ε) (Lemma 3.4).
//
// Storage is (1/ε)^{O(α)} log Δ log n bits per node: compact only for
// polynomial Δ. The scale-free variant (Theorem 1.1) removes the log Δ.
//
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nameind/zoom_search.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "routing/scheme.hpp"
#include "search/search_tree.hpp"

namespace compactroute {

class SimpleNameIndependentScheme final : public NameIndependentScheme {
 public:
  /// `underlying` must outlive this scheme (typically a
  /// HierarchicalLabeledScheme built on the same hierarchy).
  SimpleNameIndependentScheme(const MetricSpace& metric, const NetHierarchy& hierarchy,
                              const Naming& naming, const LabeledScheme& underlying,
                              double epsilon);

  /// Streaming construction: builds the per-level search-tree tables in
  /// level order and hands each completed level to `sink` (ownership
  /// included), so a build-and-serialize pipeline — e.g.
  /// SnapshotStreamWriter::add_simple_level — holds at most one level of
  /// trees in memory. The constructor is exactly this with a sink that keeps
  /// every level.
  static void build_levels(
      const MetricSpace& metric, const NetHierarchy& hierarchy,
      const Naming& naming, const LabeledScheme& underlying, double epsilon,
      const std::function<void(int, std::vector<std::unique_ptr<SearchTree>>)>&
          sink);

  std::string name() const override { return "name-independent/simple"; }
  RouteResult route(NodeId src, Name dest_name) const override;
  std::size_t storage_bits(NodeId u) const override;
  std::size_t header_bits() const override;

  double epsilon() const { return epsilon_; }

  /// Diagnostics for the Figure 1 trace bench.
  using Trace = ZoomSearchTrace;

  RouteResult route_with_trace(NodeId src, Name dest_name, Trace* trace) const;

  /// The search tree of ball B_anchor(2^level / ε); anchor must be in
  /// Y_level. Exposed for the hop-by-hop runtime and diagnostics.
  const SearchTree& level_tree(int level, NodeId anchor) const;
  /// Every level tree of Y_level, in net order (the build_levels sink order).
  const std::vector<std::unique_ptr<SearchTree>>& level_trees(int level) const {
    return trees_[level];
  }

  const NetHierarchy& hierarchy() const { return *hierarchy_; }
  const Naming& naming() const { return *naming_; }

 private:
  friend struct SnapshotAccess;
  SimpleNameIndependentScheme() = default;

  const MetricSpace* metric_ = nullptr;
  const NetHierarchy* hierarchy_ = nullptr;
  const Naming* naming_ = nullptr;
  const LabeledScheme* underlying_ = nullptr;
  double epsilon_ = 0;

  // trees_[i][k] = search tree of the k-th point of Y_i (net order).
  std::vector<std::vector<std::unique_ptr<SearchTree>>> trees_;
};

}  // namespace compactroute
