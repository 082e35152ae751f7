#include "nameind/zoom_search.hpp"

#include <utility>
#include <vector>

#include "core/check.hpp"

namespace compactroute {

namespace {

/// Appends `underlying.route(from, label(to))`'s walk (sans its first node)
/// to path; returns the node reached (== to).
NodeId ride_underlying(const LabeledScheme& underlying, Path& path, NodeId from,
                       NodeId to) {
  if (from == to) return to;
  const RouteResult leg = underlying.route(from, underlying.label(to));
  CR_CHECK(leg.delivered && leg.path.front() == from && leg.path.back() == to);
  path.insert(path.end(), leg.path.begin() + 1, leg.path.end());
  return to;
}

}  // namespace

RouteResult zoom_and_search(
    const MetricSpace& metric, const NetHierarchy& hierarchy,
    const Naming& naming, const LabeledScheme& underlying,
    const std::function<const SearchTree&(int, NodeId, NodeId*)>&
        search_structure,
    NodeId src, Name dest_name, ZoomSearchTrace* trace) {
  ZoomSearchTrace local_trace;
  ZoomSearchTrace& tr = trace ? *trace : local_trace;
  tr = ZoomSearchTrace{};

  RouteResult result;
  result.path.push_back(src);
  if (naming.name_of(src) == dest_name) {
    result.delivered = true;
    return result;
  }

  // Cost of the path appended since the previous call.
  RunningPathCost cost(metric);
  Weight checkpoint = 0;
  const auto cost_since = [&] {
    const Weight before = checkpoint;
    checkpoint = cost(result.path);
    return checkpoint - before;
  };

  NodeId pos = src;
  SearchTree::LookupScratch scratch;
  SearchTree::LookupResult lookup;
  for (int i = 0; i <= hierarchy.top_level(); ++i) {
    // Climb to u(i) — the netting-tree parent chain, whose labels are stored
    // along the chain itself (Section 3.1.2).
    const NodeId anchor = hierarchy.zoom(i, src);
    pos = ride_underlying(underlying, result.path, pos, anchor);
    tr.climb_cost += cost_since();

    // Search(id, u(i), i): go to c from u, traverse the trail edge by edge
    // (endpoints hold each other's labels), go back from c to u.
    NodeId root = kInvalidNode;
    const SearchTree& tree = search_structure(i, anchor, &root);
    pos = ride_underlying(underlying, result.path, pos, root);
    tree.lookup(dest_name, scratch, &lookup);
    for (std::size_t s = 1; s < lookup.trail.size(); ++s) {
      pos = ride_underlying(underlying, result.path, pos, lookup.trail[s]);
    }
    pos = ride_underlying(underlying, result.path, pos, anchor);
    tr.search_cost += cost_since();

    if (lookup.found) {
      tr.found_level = i;
      const RouteResult leg = underlying.route(anchor, lookup.data);
      CR_CHECK(leg.delivered && leg.path.front() == anchor);
      result.path.insert(result.path.end(), leg.path.begin() + 1, leg.path.end());
      tr.final_cost = cost_since();
      CR_CHECK(naming.name_of(result.path.back()) == dest_name);
      result.cost = checkpoint;
      result.delivered = true;
      return result;
    }
  }
  CR_CHECK_MSG(false, "the top-level search ball covers the whole graph");
  return result;
}

std::unique_ptr<SearchTree> make_name_tree(const MetricSpace& metric,
                                           const Naming& naming,
                                           const LabeledScheme& underlying,
                                           NodeId center, Weight radius,
                                           Weight store_radius, double epsilon) {
  auto tree = std::make_unique<SearchTree>(metric, center, radius, epsilon,
                                           SearchTree::Variant::kBasic);
  std::vector<std::pair<SearchTree::Key, SearchTree::Data>> pairs;
  for (NodeId v : metric.ball(center, store_radius)) {
    pairs.emplace_back(naming.name_of(v), underlying.label(v));
  }
  tree->store(std::move(pairs));
  return tree;
}

}  // namespace compactroute
