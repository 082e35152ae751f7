#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/dijkstra.hpp"
#include "trees/compact_tree_router.hpp"
#include "trees/tree.hpp"

namespace compactroute {
namespace {

// Builds a RootedTree directly from a tree-shaped Graph.
RootedTree tree_from_graph(const Graph& graph, NodeId root) {
  const ShortestPathTree spt = dijkstra(graph, root);
  std::vector<NodeId> nodes(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) nodes[u] = u;
  return RootedTree(
      nodes, root, [&](NodeId v) { return spt.parent[v]; },
      [&](NodeId v) { return graph.edge_weight(v, spt.parent[v]); });
}

// Tree distance between two locals (via depths and LCA walk).
Weight tree_distance(const RootedTree& tree, int a, int b) {
  // Walk both up to the root collecting depths; O(depth) is fine for tests.
  std::vector<int> ancestors_a;
  for (int x = a; x >= 0; x = tree.parent(x)) ancestors_a.push_back(x);
  std::vector<char> is_ancestor(tree.size(), 0);
  for (int x : ancestors_a) is_ancestor[x] = 1;
  int lca = b;
  while (!is_ancestor[lca]) lca = tree.parent(lca);
  return tree.depth(a) + tree.depth(b) - 2 * tree.depth(lca);
}

TEST(RootedTree, BasicStructure) {
  const Graph g = make_balanced_tree(2, 3);
  const RootedTree tree = tree_from_graph(g, 0);
  EXPECT_EQ(tree.size(), 15u);
  EXPECT_EQ(tree.root_global(), 0u);
  EXPECT_EQ(tree.subtree_size(tree.root_local()), 15u);
  EXPECT_EQ(tree.children(tree.root_local()).size(), 2u);
  EXPECT_DOUBLE_EQ(tree.height(), 3.0);
  EXPECT_EQ(tree.parent(tree.root_local()), -1);
}

TEST(RootedTree, LocalGlobalRoundTrip) {
  const Graph g = make_random_tree(40, 3, 9);
  const RootedTree tree = tree_from_graph(g, 5);
  for (std::size_t local = 0; local < tree.size(); ++local) {
    EXPECT_EQ(tree.local_id(tree.global_id(static_cast<int>(local))),
              static_cast<int>(local));
  }
  EXPECT_EQ(tree.local_id(1000000), -1);
}

TEST(RootedTree, SubtreeSizesSumCorrectly) {
  const Graph g = make_random_tree(60, 4, 2);
  const RootedTree tree = tree_from_graph(g, 0);
  for (std::size_t u = 0; u < tree.size(); ++u) {
    std::size_t kids_total = 1;
    for (int child : tree.children(static_cast<int>(u))) {
      kids_total += tree.subtree_size(child);
    }
    EXPECT_EQ(tree.subtree_size(static_cast<int>(u)), kids_total);
  }
}

TEST(RootedTree, DetectsNonTreeParents) {
  const std::vector<NodeId> nodes = {0, 1, 2};
  EXPECT_THROW(RootedTree(nodes, 0,
                          [](NodeId v) { return v == 1 ? 2u : 1u; },  // 1<->2 cycle
                          [](NodeId) { return 1.0; }),
               InvariantError);
}

TEST(RootedTree, PositionalFormMatchesCallbackForm) {
  // A shuffled node list so local order, global order and root position all
  // differ; the positional tree must agree with the callback tree field by
  // field, derived orders included.
  const Graph g = make_random_tree(50, 3, 4);
  const RootedTree reference = tree_from_graph(g, 7);
  const std::size_t m = reference.size();
  std::vector<NodeId> nodes(m);
  std::vector<int> parent(m, -1);
  std::vector<Weight> weight(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const int local = static_cast<int>(i);
    nodes[i] = reference.global_id(local);
    parent[i] = reference.parent(local);
    weight[i] = reference.parent_edge_weight(local);
  }
  const RootedTree tree(nodes, reference.root_local(), parent, weight);
  ASSERT_EQ(tree.size(), m);
  EXPECT_EQ(tree.root_local(), reference.root_local());
  std::string why;
  EXPECT_TRUE(tree.validate(&why)) << why;
  for (std::size_t i = 0; i < m; ++i) {
    const int local = static_cast<int>(i);
    EXPECT_EQ(tree.global_id(local), reference.global_id(local));
    EXPECT_EQ(tree.local_id(nodes[i]), local);
    EXPECT_EQ(tree.parent(local), reference.parent(local));
    EXPECT_EQ(tree.parent_edge_weight(local), reference.parent_edge_weight(local));
    EXPECT_EQ(tree.subtree_size(local), reference.subtree_size(local));
    EXPECT_EQ(tree.depth(local), reference.depth(local));
    const auto kids = tree.children(local);
    const auto ref_kids = reference.children(local);
    EXPECT_TRUE(std::equal(kids.begin(), kids.end(), ref_kids.begin(),
                           ref_kids.end()));
    for (std::size_t k = 1; k < kids.size(); ++k) {
      EXPECT_LT(tree.global_id(kids[k - 1]), tree.global_id(kids[k]));
    }
  }
}

TEST(RootedTree, PositionalFormRejectsMalformedInput) {
  const std::vector<NodeId> nodes = {4, 9, 2};
  const std::vector<Weight> unit = {0, 1, 1};
  // Well-formed: 9 and 2 both hang below 4.
  EXPECT_NO_THROW(RootedTree(nodes, 0, {-1, 0, 0}, unit));
  EXPECT_THROW(RootedTree({4, 9, 4}, 0, {-1, 0, 0}, unit), InvariantError);
  EXPECT_THROW(RootedTree(nodes, 3, {-1, 0, 0}, unit), InvariantError);
  EXPECT_THROW(RootedTree(nodes, -1, {-1, 0, 0}, unit), InvariantError);
  EXPECT_THROW(RootedTree(nodes, 0, {-1, 3, 0}, unit), InvariantError);
  EXPECT_THROW(RootedTree(nodes, 0, {-1, -1, 0}, unit), InvariantError);
  EXPECT_THROW(RootedTree(nodes, 0, {-1, 2, 1}, unit), InvariantError);  // cycle
  EXPECT_THROW(RootedTree(nodes, 0, {-1, 0, 0}, {0, 1, -1}), InvariantError);
  EXPECT_THROW(RootedTree(nodes, 0, {-1, 0}, unit), InvariantError);
  EXPECT_THROW(RootedTree({}, 0, {}, {}), InvariantError);
}

class TreeRouterTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeRouterTest, CompactRoutingIsExactlyOptimal) {
  const Graph g = make_random_tree(80, 5, GetParam());
  const RootedTree tree = tree_from_graph(g, 0);
  const CompactTreeRouter router(tree);

  Prng prng(GetParam() * 13 + 5);
  for (int trial = 0; trial < 200; ++trial) {
    const int src = static_cast<int>(prng.next_below(tree.size()));
    const int dst = static_cast<int>(prng.next_below(tree.size()));
    const auto path = router.route(src, router.label(dst));
    ASSERT_EQ(path.front(), src);
    ASSERT_EQ(path.back(), dst);
    Weight cost = 0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      const int a = path[i - 1], b = path[i];
      ASSERT_TRUE(tree.parent(a) == b || tree.parent(b) == a);
      cost += (tree.parent(a) == b) ? tree.parent_edge_weight(a)
                                    : tree.parent_edge_weight(b);
    }
    EXPECT_NEAR(cost, tree_distance(tree, src, dst), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRouterTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(CompactTreeRouter, LightEdgeCountIsLogarithmic) {
  // Heavy-path decomposition: any root path crosses <= log2(m) light edges.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = make_random_tree(200, 3, seed);
    const RootedTree tree = tree_from_graph(g, 0);
    const CompactTreeRouter router(tree);
    const double limit = std::log2(static_cast<double>(tree.size()));
    for (std::size_t v = 0; v < tree.size(); ++v) {
      EXPECT_LE(router.label(static_cast<int>(v)).light_edges.size(), limit);
    }
  }
}

TEST(CompactTreeRouter, LabelBitsAreCompactOnStar) {
  // The star is the worst case for interval routing tables (the hub stores
  // all 499 child intervals) and the showcase for the compact scheme:
  // per-node tables stay O(log m).
  const Graph g = make_star(500);
  const RootedTree tree = tree_from_graph(g, 0);
  const CompactTreeRouter compact(tree);

  // Compact routing keeps the hub table logarithmic.
  EXPECT_LT(compact.table_bits(tree.root_local()), 100u);
  // Labels stay polylogarithmic.
  EXPECT_LE(compact.max_label_bits(),
            3 * (std::size_t)std::pow(std::log2(501.0), 2.0));
}

TEST(CompactTreeRouter, PathTreeHasNoLightEdges) {
  const Graph g = make_path(64);
  const RootedTree tree = tree_from_graph(g, 0);
  const CompactTreeRouter router(tree);
  for (std::size_t v = 0; v < tree.size(); ++v) {
    EXPECT_TRUE(router.label(static_cast<int>(v)).light_edges.empty());
  }
}

TEST(CompactTreeRouter, StepDeliversAtDestination) {
  const Graph g = make_random_tree(30, 2, 4);
  const RootedTree tree = tree_from_graph(g, 0);
  const CompactTreeRouter router(tree);
  for (std::size_t v = 0; v < tree.size(); ++v) {
    EXPECT_EQ(router.step(static_cast<int>(v), router.label(static_cast<int>(v))),
              static_cast<int>(v));
  }
}

}  // namespace
}  // namespace compactroute
