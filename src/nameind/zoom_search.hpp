#pragma once
//
// The name-independent walk of Algorithms 3 and 4, written once for both
// schemes. A source climbs its zooming sequence u(0), u(1), ...; at each u(i)
// it runs Search(id(v), u(i), i): go to the root c of the level's search
// structure, walk the search trail, come back from c to u(i). The first level
// whose search finds l(v) takes the final leg u(i) -> v. Algorithm 3 is the
// case c = u(i) (every level owns its tree), where both detours have length
// zero. Every movement — climb, trail edge, detour, final leg — is an actual
// route of the underlying labeled scheme, charged at its true cost.
//
#include <functional>
#include <memory>

#include "graph/metric.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "routing/scheme.hpp"
#include "search/search_tree.hpp"

namespace compactroute {

/// Cost breakdown of one zoom-and-search walk (the Figure 1 trace bench).
struct ZoomSearchTrace {
  int found_level = -1;   // the level j where the label was found
  Weight climb_cost = 0;  // zooming-sequence movement
  Weight search_cost = 0; // all search-structure traversals, detours included
  Weight final_cost = 0;  // u(j) -> v
};

/// Routes src -> the node named dest_name by zoom-and-search, riding
/// `underlying` for every movement. search_structure(level, anchor, &root)
/// answers Search(·, anchor, level) and writes its root (the anchor itself,
/// or a packed ball's center). `trace` may be null.
RouteResult zoom_and_search(
    const MetricSpace& metric, const NetHierarchy& hierarchy,
    const Naming& naming, const LabeledScheme& underlying,
    const std::function<const SearchTree&(int, NodeId, NodeId*)>&
        search_structure,
    NodeId src, Name dest_name, ZoomSearchTrace* trace);

/// A basic search tree T(center, radius) storing the (name -> underlying
/// label) pair of every node of B_center(store_radius) — the one kind of
/// search structure both schemes build.
std::unique_ptr<SearchTree> make_name_tree(const MetricSpace& metric,
                                           const Naming& naming,
                                           const LabeledScheme& underlying,
                                           NodeId center, Weight radius,
                                           Weight store_radius, double epsilon);

}  // namespace compactroute
