#include "nameind/simple_nameind.hpp"

#include <algorithm>

#include "core/bits.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace compactroute {

SimpleNameIndependentScheme::SimpleNameIndependentScheme(
    const MetricSpace& metric, const NetHierarchy& hierarchy, const Naming& naming,
    const LabeledScheme& underlying, double epsilon)
    : metric_(&metric),
      hierarchy_(&hierarchy),
      naming_(&naming),
      underlying_(&underlying),
      epsilon_(epsilon) {
  trees_.resize(hierarchy.top_level() + 1);
  build_levels(metric, hierarchy, naming, underlying, epsilon,
               [&](int level, std::vector<std::unique_ptr<SearchTree>> trees) {
                 trees_[level] = std::move(trees);
               });
}

void SimpleNameIndependentScheme::build_levels(
    const MetricSpace& metric, const NetHierarchy& hierarchy,
    const Naming& naming, const LabeledScheme& underlying, double epsilon,
    const std::function<void(int, std::vector<std::unique_ptr<SearchTree>>)>&
        sink) {
  CR_OBS_SCOPED_TIMER("preprocess.nameind.simple");
  CR_OBS_SPAN("preprocess.nameind.simple", "construct");
  CR_CHECK_MSG(epsilon > 0 && epsilon < 1, "Theorem 1.4 requires ε ∈ (0, 1)");
  const int top = hierarchy.top_level();
  for (int i = 0; i <= top; ++i) {
    const std::vector<NodeId>& net = hierarchy.net(i);
    const Weight radius = level_radius(i) / epsilon;
    // Each net point's search tree T(u, 2^i/ε) is built independently from
    // const inputs (metric, naming, underlying labels) into its own slot, so
    // the per-level loop maps over net points on the parallel executor.
    std::vector<std::unique_ptr<SearchTree>> trees(net.size());
    parallel_for("nameind.simple.trees", net.size(), 1,
                 [&](std::size_t first, std::size_t last) {
                   for (std::size_t k = first; k < last; ++k) {
                     trees[k] = make_name_tree(metric, naming, underlying,
                                               net[k], radius, radius, epsilon);
                   }
                 });
    sink(i, std::move(trees));
  }
}

const SearchTree& SimpleNameIndependentScheme::level_tree(int level,
                                                          NodeId anchor) const {
  const std::vector<NodeId>& net = hierarchy_->net(level);
  const auto it = std::lower_bound(net.begin(), net.end(), anchor);
  CR_CHECK(it != net.end() && *it == anchor);
  return *trees_[level][it - net.begin()];
}

RouteResult SimpleNameIndependentScheme::route(NodeId src, Name dest_name) const {
  return route_with_trace(src, dest_name, nullptr);
}

RouteResult SimpleNameIndependentScheme::route_with_trace(NodeId src, Name dest_name,
                                                          Trace* trace) const {
  return zoom_and_search(
      *metric_, *hierarchy_, *naming_, *underlying_,
      [this](int level, NodeId anchor, NodeId* root) -> const SearchTree& {
        *root = anchor;
        return level_tree(level, anchor);
      },
      src, dest_name, trace);
}

std::size_t SimpleNameIndependentScheme::storage_bits(NodeId u) const {
  const std::size_t name_bits = id_bits(metric_->n());
  const std::size_t label = underlying_->label_bits();

  std::size_t bits = underlying_->storage_bits(u);
  bits += label;  // netting-tree parent label (at most one; Section 3.1.2)
  for (int i = 0; i <= hierarchy_->top_level(); ++i) {
    for (const auto& tree : trees_[i]) {
      const int local = tree->tree().local_id(u);
      if (local < 0) continue;
      bits += tree->node_bits(local, name_bits, label, label);
    }
  }
  return bits;
}

std::size_t SimpleNameIndependentScheme::header_bits() const {
  // Destination name, current level, and the underlying scheme's header.
  return id_bits(metric_->n()) + id_bits(hierarchy_->top_level() + 2) +
         underlying_->header_bits();
}

}  // namespace compactroute
