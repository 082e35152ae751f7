#include "graph/dijkstra.hpp"

#include <algorithm>
#include <tuple>

#include "core/check.hpp"
#include "obs/metrics.hpp"

namespace compactroute {

namespace {

// Candidate (d2, o2, p2) improves on the node's current assignment if it is
// lexicographically smaller in (distance, owner, parent). Equal-distance
// improvements implement the "least id" tie-breaking used throughout the
// paper; they cannot cascade unboundedly because the tuple only decreases.
bool improves(Weight d2, NodeId o2, NodeId p2, Weight d, NodeId o, NodeId p) {
  if (d2 != d) return d2 < d;
  if (o2 != o) return o2 < o;
  return p2 < p;
}

}  // namespace

void DijkstraWorkspace::prepare(std::size_t n) {
  if (dist_.size() != n || touched_.size() > n / 4) {
    // Fresh workspace, or the previous run touched most of the graph:
    // vectorized whole-array fills beat a long scattered reset loop.
    dist_.assign(n, kInfiniteWeight);
    parent_.assign(n, kInvalidNode);
    owner_.assign(n, kInvalidNode);
  } else {
    for (const NodeId v : touched_) {
      dist_[v] = kInfiniteWeight;
      parent_[v] = kInvalidNode;
      owner_[v] = kInvalidNode;
    }
  }
  touched_.clear();
  settled_.clear();
  heap_.clear();
}

// The heap machinery lives in a runner struct so it can touch the
// workspace's private arrays directly. Flat binary heap over the
// workspace's preallocated entry vector, with duplicate entries and a
// stale-skip on pop (an entry is stale iff its (dist, owner) key no longer
// matches the node's arrays). Measured against the alternatives on grid and
// geometric APSP workloads, this beats both a 4-ary layout and a
// position-tracked decrease-key heap: decrease-keys are rare here, so
// paying a scattered heap-position store on every sift move costs more
// than the occasional stale pop it saves.
struct DijkstraRunner {
  using HeapEntry = DijkstraWorkspace::HeapEntry;

  DijkstraWorkspace& ws;

  // Heap order: ascending (dist, owner, id). Total because ids are unique,
  // so two live entries never compare equal and the settle order is fully
  // deterministic. The tuple comparison matters: it compiles to branchless
  // compare chains, where the equivalent hand-written if-chain costs ~40%
  // of the whole run in branch misses on tie-heavy sift paths.
  struct Greater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return std::tie(a.dist, a.owner, a.node) >
             std::tie(b.dist, b.owner, b.node);
    }
  };

  void push(const HeapEntry& e) {
    ws.heap_.push_back(e);
    std::push_heap(ws.heap_.begin(), ws.heap_.end(), Greater{});
  }

  HeapEntry pop_min() {
    std::pop_heap(ws.heap_.begin(), ws.heap_.end(), Greater{});
    const HeapEntry top = ws.heap_.back();
    ws.heap_.pop_back();
    return top;
  }

  void run(const CsrGraph& graph, std::span<const NodeId> sources,
           const DijkstraBounds& bounds) {
    const std::size_t n = graph.num_nodes();
    ws.prepare(n);

    for (const NodeId s : sources) {
      CR_CHECK(s < n);
      if (improves(0, s, kInvalidNode, ws.dist_[s], ws.owner_[s], ws.parent_[s])) {
        if (ws.dist_[s] == kInfiniteWeight) ws.touched_.push_back(s);
        ws.dist_[s] = 0;
        ws.owner_[s] = s;
        ws.parent_[s] = kInvalidNode;
        push({0, s, s});
      }
    }

    std::uint64_t relaxed = 0;
    const bool radius_bounded = bounds.radius < kInfiniteWeight;
    const bool stop_on_mark = !bounds.stop_marked.empty();
    CR_CHECK(!stop_on_mark || bounds.stop_marked.size() == n);
    while (!ws.heap_.empty() && ws.settled_.size() < bounds.max_settled) {
      // The next settle candidate: stop before settling anything outside the
      // requested (normalized) radius. The heap minimum is never stale-small
      // (a stale entry's key exceeds its node's live key, and any strictly
      // smaller live entry would be the minimum instead), so a front outside
      // the radius proves every remaining live entry is outside too. The
      // division must be the exact one the metric layer applies when
      // normalizing rows (bit-identical ball membership); unbounded runs
      // skip it entirely.
      if (radius_bounded && ws.heap_.front().dist / bounds.scale > bounds.radius)
        break;
      const HeapEntry top = pop_min();
      const NodeId u = top.node;
      if (top.dist != ws.dist_[u] || top.owner != ws.owner_[u]) continue;
      ws.settled_.push_back(u);
      if (u == bounds.stop_node || (stop_on_mark && bounds.stop_marked[u]))
        break;

      const std::span<const NodeId> targets = graph.arc_targets(u);
      const std::span<const Weight> weights = graph.arc_weights(u);
      const Weight du = top.dist;
      const NodeId ou = top.owner;
      for (std::size_t k = 0; k < targets.size(); ++k) {
        const NodeId to = targets[k];
        const Weight d2 = du + weights[k];
        // Hand-split `improves`: the overwhelmingly common case is a plain
        // distance reject, which needs only the dist_ load. A parent-only
        // refinement at equal (dist, owner) updates the array without a
        // push: it neither changes the node's heap key nor propagates
        // (neighbor relaxations read dist and owner, not parent), so the
        // node's live entry — or its already-settled state — stays correct.
        const Weight dto = ws.dist_[to];
        if (d2 > dto) continue;
        if (d2 == dto) {
          const NodeId oto = ws.owner_[to];
          if (ou > oto) continue;
          if (ou == oto) {
            if (u < ws.parent_[to]) {
              ws.parent_[to] = u;
              ++relaxed;
            }
            continue;
          }
        }
        ++relaxed;
        if (dto == kInfiniteWeight) ws.touched_.push_back(to);
        ws.dist_[to] = d2;
        ws.owner_[to] = ou;
        ws.parent_[to] = u;
        // Strict (dist, owner) improvement: push the new key. Any older
        // entry for `to` is now stale and will be skipped when popped. A
        // node is never settled twice: keys per node strictly decrease, so
        // equal-key duplicates cannot exist, and the first (minimal) valid
        // pop settles the final key.
        push({d2, ou, to});
      }
    }
    CR_OBS_ADD("dijkstra.settled", ws.settled_.size());
    CR_OBS_ADD("dijkstra.relaxed", relaxed);
  }
};

DijkstraWorkspace& thread_workspace() {
  // Runs come from executor workers during construction and from arbitrary
  // caller threads afterwards; the touched-list reset keeps bounded queries
  // O(|ball|) on any of them.
  static thread_local DijkstraWorkspace ws;
  return ws;
}

void dijkstra_into(const CsrGraph& graph, std::span<const NodeId> sources,
                   DijkstraWorkspace& ws, const DijkstraBounds& bounds) {
  CR_CHECK(!sources.empty());
  DijkstraRunner{ws}.run(graph, sources, bounds);
}

Path ShortestPathTree::path_to_source(NodeId from) const {
  Path path;
  NodeId cur = from;
  while (cur != kInvalidNode) {
    path.push_back(cur);
    if (cur == source) return path;
    cur = parent[cur];
  }
  CR_CHECK_MSG(false, "node is not connected to the tree source");
  return path;
}

ShortestPathTree dijkstra(const CsrGraph& graph, NodeId source) {
  DijkstraWorkspace ws;
  const NodeId sources[] = {source};
  dijkstra_into(graph, sources, ws);
  ShortestPathTree tree;
  tree.source = source;
  tree.dist.assign(ws.dist().begin(), ws.dist().end());
  tree.parent.assign(ws.parent().begin(), ws.parent().end());
  return tree;
}

ShortestPathTree dijkstra(const Graph& graph, NodeId source) {
  return dijkstra(CsrGraph(graph), source);
}

VoronoiDiagram multi_source_dijkstra(const CsrGraph& graph,
                                     const std::vector<NodeId>& sources) {
  CR_CHECK(!sources.empty());
  DijkstraWorkspace ws;
  dijkstra_into(graph, sources, ws);
  VoronoiDiagram out;
  out.dist.assign(ws.dist().begin(), ws.dist().end());
  out.owner.assign(ws.owner().begin(), ws.owner().end());
  out.parent.assign(ws.parent().begin(), ws.parent().end());
  return out;
}

VoronoiDiagram multi_source_dijkstra(const Graph& graph,
                                     const std::vector<NodeId>& sources) {
  return multi_source_dijkstra(CsrGraph(graph), sources);
}

}  // namespace compactroute
