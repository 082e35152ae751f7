#include "graph/metric.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "graph/dijkstra.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace compactroute {

namespace {

// Rows per chunk for the dense APSP loop: small enough to balance load
// across workers, large enough that chunk bookkeeping is negligible. Chunk
// geometry is part of the determinism contract (core/parallel.hpp).
constexpr std::size_t kRowChunk = 8;

// One full metric row from `root`: normalized distances, parents toward
// root, and the canonical node order — ascending (normalized distance, id).
// The comparator is a total order (ids are unique), so the order is a pure
// function of the graph. The single definition behind dense matrix rows and
// row-free transient rows.
void fill_row(const CsrGraph& csr, Weight scale, NodeId root, Weight* dist,
              NodeId* parent, NodeId* order) {
  DijkstraWorkspace& ws = thread_workspace();
  const NodeId sources[] = {root};
  dijkstra_into(csr, sources, ws);
  const std::size_t n = csr.num_nodes();
  CR_CHECK_MSG(ws.settled().size() == n, "metric requires a connected graph");
  for (NodeId v = 0; v < n; ++v) {
    dist[v] = ws.dist()[v] / scale;
    parent[v] = ws.parent()[v];
    order[v] = v;
  }
  std::sort(order, order + n, [&](NodeId a, NodeId b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return a < b;
  });
}

// ---------------------------------------------------------------------------
// Shared normalization: scale and delta.
//
// Both modes compute scale_ and delta_ through the two functions below — the
// SAME code, not equivalent code. That is load-bearing: a Dijkstra path
// sum from u to v and the sum of the same edges run from v associate
// differently, so d(u→v) and d(v→u) can differ by 1 ulp, and a full-APSP
// maximum can land 1 ulp away from an iFUB maximum that evaluated the same
// diametral pair from a different root. Sharing the computation makes the
// snapshot meta section (which serializes delta) bit-identical across
// modes by construction, even though dense mode holds every row.
// ---------------------------------------------------------------------------

// The minimum pairwise shortest-path distance equals the minimum edge
// weight: any path weighs at least one of its edges, and Dijkstra computes
// the lightest edge's endpoint distance as exactly that weight (a one-edge
// relaxation from 0, no rounding) — so this matches an APSP-wide minimum bit
// for bit without materializing anything.
Weight normalization_scale(const CsrGraph& csr) {
  const Weight scale = csr.min_edge_weight();
  CR_CHECK_MSG(scale > 0 && scale < kInfiniteWeight,
               "metric requires a non-empty edge set");
  return scale;
}

struct DiamSweep {
  NodeId far;   // farthest settled node (largest id among raw-dist ties)
  Weight ecc;   // its raw distance = root's eccentricity
};

DiamSweep diameter_sweep(const CsrGraph& csr, NodeId root,
                         DijkstraWorkspace& ws) {
  const NodeId sources[] = {root};
  dijkstra_into(csr, sources, ws);
  CR_CHECK_MSG(ws.settled().size() == csr.num_nodes(),
               "metric requires a connected graph");
  const NodeId far = ws.settled().back();
  return {far, ws.dist()[far]};
}

// Exact raw diameter without touching all rows: iFUB, rooted by an explicit
// center hunt.
//
// iFUB correctness: process nodes by decreasing depth from a root; once
// 2·depth ≤ lb, every remaining pair (u, v) satisfies
// d(u, v) ≤ d(u, root) + d(root, v) ≤ 2·depth ≤ lb, and all pairs involving
// a processed node are covered by its eccentricity — so lb is the exact
// diameter for ANY root. Root quality only controls the sweep count, and
// the classic "midpoint of the double-sweep path" root is a trap on grids:
// the canonical corner-to-corner Dijkstra path is L-shaped, so its midpoint
// is another corner with maximal eccentricity and the confirmation loop
// degenerates to Θ(n) sweeps. Instead, hunt for a center: accumulate
// distance arrays from the extreme nodes the sweeps discover, and root at
// the node minimizing the maximum distance to that register (≈ the metric
// 1-center of the extremes). On a grid this converges to the true center in
// a few iterations and the confirmation processes a handful of nodes.
//
// The result is a graph invariant (deterministic sweep sequence, max over a
// set), so batch geometry and worker count cannot change it.
Weight exact_raw_diameter(const CsrGraph& csr) {
  CR_OBS_SCOPED_TIMER("metric.diameter");
  const std::size_t n = csr.num_nodes();
  DijkstraWorkspace& ws = thread_workspace();

  Weight lb = 0;
  NodeId best_root = 0;
  Weight best_ecc = kInfiniteWeight;
  std::uint64_t sweeps = 0;
  const auto probe = [&](NodeId root) {
    const DiamSweep s = diameter_sweep(csr, root, ws);
    ++sweeps;
    lb = std::max(lb, s.ecc);
    if (s.ecc < best_ecc || (s.ecc == best_ecc && root < best_root)) {
      best_ecc = s.ecc;
      best_root = root;
    }
    return s;
  };

  // Phase 1 — center hunt. `extreme_dist` holds full distance arrays from
  // registered extreme nodes (bounded by kCenterIters, so O(n) memory);
  // every probe also tightens lb and the best-known root.
  std::vector<NodeId> extreme_ids;
  std::vector<std::vector<Weight>> extreme_dist;
  const auto registered = [&](NodeId v) {
    return std::find(extreme_ids.begin(), extreme_ids.end(), v) !=
           extreme_ids.end();
  };
  const auto register_extreme = [&](NodeId v) {
    const DiamSweep s = probe(v);
    extreme_ids.push_back(v);
    extreme_dist.emplace_back(ws.dist().begin(), ws.dist().end());
    return s.far;
  };
  const auto center_candidate = [&]() {
    NodeId arg = 0;
    Weight best = kInfiniteWeight;
    for (NodeId v = 0; v < n; ++v) {
      Weight m = 0;
      for (const std::vector<Weight>& d : extreme_dist) {
        m = std::max(m, d[v]);
      }
      if (m < best) {
        best = m;
        arg = v;
      }
    }
    return arg;
  };

  constexpr int kCenterIters = 8;
  NodeId pending = probe(0).far;
  NodeId last_center = kInvalidNode;
  for (int it = 0; it < kCenterIters; ++it) {
    bool progress = false;
    if (pending != kInvalidNode && !registered(pending)) {
      pending = register_extreme(pending);
      progress = true;
    }
    const NodeId c = center_candidate();
    if (c != last_center && !registered(c)) {
      last_center = c;
      const DiamSweep sc = probe(c);
      if (!registered(sc.far)) pending = sc.far;
      progress = true;
    }
    if (!progress) break;
  }
  extreme_dist.clear();

  // Phase 2 — iFUB confirmation from the minimum-eccentricity root seen.
  {
    const NodeId sources[] = {best_root};
    dijkstra_into(csr, sources, ws);
    ++sweeps;
  }
  std::vector<NodeId> by_depth(ws.settled().rbegin(), ws.settled().rend());
  std::vector<Weight> depth(ws.dist().begin(), ws.dist().end());

  constexpr std::size_t kDiamBatch = 32;
  std::vector<Weight> ecc(kDiamBatch);
  std::size_t done = 0;
  while (done < by_depth.size() && 2 * depth[by_depth[done]] > lb) {
    const std::size_t batch = std::min(kDiamBatch, by_depth.size() - done);
    parallel_for("metric.diameter", batch, 1,
                 [&](std::size_t first, std::size_t last) {
                   for (std::size_t k = first; k < last; ++k) {
                     DijkstraWorkspace& wk = thread_workspace();
                     ecc[k] = diameter_sweep(csr, by_depth[done + k], wk).ecc;
                   }
                 });
    for (std::size_t k = 0; k < batch; ++k) lb = std::max(lb, ecc[k]);
    done += batch;
    sweeps += batch;
  }
  CR_OBS_ADD("metric.diameter_sweeps", sweeps);
  return lb;
}

}  // namespace

const char* backend_name(MetricBackendKind kind) {
  return kind == MetricBackendKind::kDense ? "dense" : "rowfree";
}

bool backend_from_name(const std::string& name, MetricBackendKind* out) {
  for (const MetricBackendKind kind :
       {MetricBackendKind::kDense, MetricBackendKind::kRowFree}) {
    if (name == backend_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

MetricSpace::MetricSpace(const Graph& graph, MetricOptions options)
    : graph_(graph),
      n_(graph.num_nodes()),
      csr_(std::make_unique<CsrGraph>(graph_)),
      kind_(options.backend) {
  CR_OBS_SCOPED_TIMER("preprocess.metric");
  CR_OBS_SPAN("preprocess.metric", "construct");
  CR_CHECK_MSG(n_ >= 2, "metric needs at least two nodes");
  CR_CHECK_MSG(graph.is_connected(), "metric requires a connected graph");
  CR_OBS_ADD("mem.metric.csr_bytes", csr_->memory_bytes());

  // Normalize so the minimum pairwise distance is 1 (paper, Section 2).
  // Scale and delta never come from the matrices, so the snapshot meta bytes
  // cannot depend on the mode.
  scale_ = compactroute::normalization_scale(*csr_);
  delta_ = exact_raw_diameter(*csr_) / scale_;
  balls_ = std::make_unique<BallOracle>(*csr_, scale_);
  num_levels_ = 0;
  while (std::ldexp(1.0, num_levels_) < delta_) ++num_levels_;
  if (!dense()) return;

  dist_.resize(n_ * n_);
  parent_.resize(n_ * n_);
  order_.resize(n_ * n_);
  CR_OBS_ADD("mem.metric.dist_bytes", dist_.size() * sizeof(Weight));
  CR_OBS_ADD("mem.metric.parent_bytes", parent_.size() * sizeof(NodeId));
  CR_OBS_ADD("mem.metric.order_bytes", order_.size() * sizeof(NodeId));
  // All-pairs shortest paths, one Dijkstra per root; each chunk owns a
  // disjoint slice of matrix rows, so no synchronization is needed.
  parallel_for("metric.apsp", n_, kRowChunk,
               [&](std::size_t first, std::size_t last) {
                 for (NodeId t = static_cast<NodeId>(first); t < last; ++t) {
                   fill_row(*csr_, scale_, t, &dist_[index(t, 0)],
                            &parent_[index(t, 0)], &order_[index(t, 0)]);
                 }
               });
}

MetricRowView MetricSpace::row(NodeId u) const {
  if (dense()) {
    return MetricRowView({&dist_[index(u, 0)], n_}, {&parent_[index(u, 0)], n_},
                         {&order_[index(u, 0)], n_}, nullptr);
  }
  // The counter is the regression tripwire: a row-free *build* must keep it
  // at zero.
  CR_OBS_COUNT("metric.rows.materialized");
  auto row = std::make_shared<MetricRow>();
  row->dist.resize(n_);
  row->parent.resize(n_);
  row->order.resize(n_);
  fill_row(*csr_, scale_, u, row->dist.data(), row->parent.data(),
           row->order.data());
  const MetricRow& r = *row;
  return MetricRowView(r.dist, r.parent, r.order, std::move(row));
}

OrderView MetricSpace::sorted_by_distance(NodeId u) const {
  const MetricRowView view = row(u);
  return OrderView(view.order(), view.pin());
}

Weight MetricSpace::radius_of_count(NodeId u, std::size_t m) const {
  CR_CHECK(m >= 1);
  if (!dense()) {
    const std::size_t counts[] = {m};
    return balls_->size_radii(u, counts)[0];
  }
  if (m > n_) m = n_;
  return dist_[index(u, order_[index(u, m - 1)])];
}

std::size_t MetricSpace::ball_size(NodeId u, Weight r) const {
  if (!dense()) return balls_->ball_size(u, r);
  // Binary search over the sorted order: count of nodes with d(u, .) <= r.
  const NodeId* order = &order_[index(u, 0)];
  const Weight* dist = &dist_[index(u, 0)];
  return std::partition_point(order, order + n_,
                              [&](NodeId v) { return dist[v] <= r; }) -
         order;
}

std::vector<NodeId> MetricSpace::ball(NodeId u, Weight r) const {
  if (!dense()) return balls_->ball(u, r).members;
  const NodeId* order = &order_[index(u, 0)];
  return std::vector<NodeId>(order, order + ball_size(u, r));
}

bool MetricSpace::ball_meets(NodeId u, Weight r,
                             std::span<const char> marked) const {
  if (!dense()) return balls_->ball_meets(u, r, marked);
  CR_CHECK(marked.size() == n_);
  const NodeId* order = &order_[index(u, 0)];
  const Weight* dist = &dist_[index(u, 0)];
  for (std::size_t k = 0; k < n_ && dist[order[k]] <= r; ++k) {
    if (marked[order[k]]) return true;
  }
  return false;
}

Path MetricSpace::shortest_path(NodeId u, NodeId v) const {
  if (!dense()) return balls_->path_between(u, v);
  Path path;
  path.push_back(u);
  // v's row holds the next hop of every node toward v.
  for (NodeId cur = u; cur != v;) {
    cur = parent_[index(v, cur)];
    CR_CHECK(cur != kInvalidNode);
    path.push_back(cur);
    CR_CHECK_MSG(path.size() <= n_, "next-hop cycle detected");
  }
  return path;
}

NodeId MetricSpace::nearest_in(NodeId u, std::span<const NodeId> candidates) const {
  CR_CHECK(!candidates.empty());
  const MetricRowView view = row(u);
  NodeId best = candidates[0];
  Weight best_dist = view.dist(best);
  for (NodeId c : candidates.subspan(1)) {
    const Weight dc = view.dist(c);
    if (dc < best_dist || (dc == best_dist && c < best)) {
      best = c;
      best_dist = dc;
    }
  }
  return best;
}

std::size_t MetricSpace::memory_bytes() const {
  return dist_.size() * sizeof(Weight) + parent_.size() * sizeof(NodeId) +
         order_.size() * sizeof(NodeId);
}

}  // namespace compactroute
