#pragma once
//
// Single- and multi-source shortest paths. Ties between equal-length paths
// are broken deterministically toward the smaller (owner, predecessor) id so
// that every component of the library (shortest-path trees, Voronoi cells,
// next-hop tables) agrees on one canonical shortest path per pair, as the
// paper requires ("all nodes should use the same tie-breaking mechanism").
//
// The hot path is a flat binary heap over a preallocated entry vector
// (DijkstraWorkspace), driven by a CSR view of the graph: no
// std::priority_queue, no per-run allocation once a workspace is warm.
// Improved nodes are re-pushed and stale entries skipped on pop — measured
// faster here than decrease-key position tracking, whose scattered
// heap-position stores on every sift outweigh the rare stale pops they
// avoid. Bounded runs (by radius, settled count, a stop node, or the first
// marked node) end as soon as the ball of interest is settled, which is what
// lets the row-free metric (BallOracle) answer B_u(r) queries without ever
// materializing a full distance row.
//
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace compactroute {

/// Reusable scratch state for Dijkstra runs. All arrays are sized on first
/// use and reset in O(touched) between runs, so a warm workspace makes a
/// bounded query on a small ball cost O(|ball| log |ball| + ball edges)
/// regardless of n. Results stay valid until the next run on the same
/// workspace. Not thread-safe: use one workspace per thread.
class DijkstraWorkspace {
 public:
  /// Distance from the nearest source; kInfiniteWeight if never relaxed.
  std::span<const Weight> dist() const { return dist_; }
  /// Predecessor on the canonical shortest path; kInvalidNode for sources
  /// and unreached nodes.
  std::span<const NodeId> parent() const { return parent_; }
  /// Owning source (multi-source runs); kInvalidNode if unreached.
  std::span<const NodeId> owner() const { return owner_; }
  /// Nodes in settle (pop) order: ascending (dist, owner, id). Only settled
  /// nodes have final distances in a bounded run.
  std::span<const NodeId> settled() const { return settled_; }

  std::size_t size() const { return dist_.size(); }

 private:
  friend struct DijkstraRunner;

  // Heap entries carry their sort key (dist, owner) inline so sift
  // comparisons read the entry being moved, not scattered dist_/owner_
  // slots. Entries are pushed on every strict key improvement; an entry
  // whose key no longer matches the node's arrays is stale and skipped
  // when popped.
  struct HeapEntry {
    Weight dist;
    NodeId owner;
    NodeId node;
  };

  void prepare(std::size_t n);

  std::vector<Weight> dist_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> owner_;
  std::vector<HeapEntry> heap_;
  std::vector<NodeId> settled_;
  std::vector<NodeId> touched_;
};

/// Stop conditions for dijkstra_into. Defaults run to exhaustion. `radius`
/// is compared in normalized units: a node settles only while
/// dist / scale <= radius, using the exact division the metric layer applies
/// when normalizing rows, so bounded balls match full-row balls bit for bit.
struct DijkstraBounds {
  Weight radius = kInfiniteWeight;
  Weight scale = 1;
  std::size_t max_settled = std::numeric_limits<std::size_t>::max();
  /// Stop right after settling this node. Its distance and parent — and those
  /// of every node on its canonical path back to a source — are final at that
  /// point, because parent refinements only ever arrive from earlier-settled
  /// nodes. Lets path queries run Dijkstra on B(source, d(source, target))
  /// instead of the whole graph.
  NodeId stop_node = kInvalidNode;
  /// Stop right after settling any node v with stop_marked[v] != 0 (empty:
  /// no such bound; otherwise it must cover all n nodes). Settle order is a
  /// prefix of the unmarked run's, so combined with `radius` the run ends on
  /// a marked node iff the ball B(source, radius) holds one — an
  /// intersection test that pays only for the nodes nearer than the first
  /// hit.
  std::span<const char> stop_marked = {};
};

/// The calling thread's warm workspace, shared by the metric and BallOracle.
/// Valid until the thread's next run; a query must copy out what it needs
/// before issuing another.
DijkstraWorkspace& thread_workspace();

/// Core engine: Dijkstra from `sources` over the CSR graph into `ws`.
/// Deterministic for any source order; settles nodes in ascending
/// (dist, owner, id) order until a bound trips or the heap drains.
void dijkstra_into(const CsrGraph& graph, std::span<const NodeId> sources,
                   DijkstraWorkspace& ws, const DijkstraBounds& bounds = {});

struct ShortestPathTree {
  NodeId source = kInvalidNode;
  /// dist[u] = d(source, u); kInfiniteWeight if unreachable.
  std::vector<Weight> dist;
  /// parent[u] = predecessor of u on the canonical shortest path source->u;
  /// kInvalidNode for the source itself and unreachable nodes.
  std::vector<NodeId> parent;

  /// Canonical shortest path from `from` back to the tree source, i.e. the
  /// route a packet at `from` takes toward `source` (inclusive of both ends).
  Path path_to_source(NodeId from) const;
};

/// Dijkstra from `source` over the whole graph.
ShortestPathTree dijkstra(const Graph& graph, NodeId source);
ShortestPathTree dijkstra(const CsrGraph& graph, NodeId source);

/// Multi-source Dijkstra: every node is assigned to the closest source, ties
/// broken by smaller source id (then smaller predecessor id along the path).
/// Returns, per node: distance to its owner, the owner id, and the parent
/// pointer (which always stays inside the same owner's region, so the parent
/// pointers of one region form a shortest-path tree spanning exactly that
/// region — the paper's Voronoi trees T_c(j) of Section 4.1).
struct VoronoiDiagram {
  std::vector<Weight> dist;
  std::vector<NodeId> owner;
  std::vector<NodeId> parent;
};

VoronoiDiagram multi_source_dijkstra(const Graph& graph,
                                     const std::vector<NodeId>& sources);
VoronoiDiagram multi_source_dijkstra(const CsrGraph& graph,
                                     const std::vector<NodeId>& sources);

}  // namespace compactroute
