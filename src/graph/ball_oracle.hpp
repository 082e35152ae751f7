#pragma once
//
// BallOracle: the metric's bounded-query engine (DESIGN.md §6, §10). Every
// query is a bounded-radius / bounded-count / stop-node Dijkstra over the CSR
// view — no full metric row is ever materialized — so peak construction
// memory is O(largest ball touched), not O(n²). Builders call it directly,
// and a row-free MetricSpace answers all of its point and ball queries here.
//
// All distances cross this interface in *normalized* units (raw / scale,
// the exact division the dense metric applies when normalizing rows), so a
// ball delivered here is bit-identical to the ball a materialized row would
// induce, and results are independent of the metric's mode.
//
// Batching: balls() fans one request list out over the parallel executor,
// one ball per chunk — the determinism contract of core/parallel.hpp makes
// the results independent of the worker count. Duplicate (center, radius)
// requests inside a batch are computed once and copied to every requestor.
//
// Telemetry: balls.issued / balls.settled / balls.reissued count Dijkstra
// runs (every query, including point queries), total settled nodes, and
// doubling-retry reissues; batch completion
// publishes the process peak RSS into mem.peak (obs/mem.hpp).
//
#include <cstddef>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/csr.hpp"

namespace compactroute {

class DijkstraWorkspace;

/// One bounded ball B(center, r): members in ascending (normalized
/// distance, id) — the canonical row order — with, per member, the
/// normalized distance from the center and the predecessor on the canonical
/// shortest path center -> member (kInvalidNode for the center itself).
/// The parent array is what makes a ball a routing artifact: parent-of-u in
/// the ball from x *is* u's next hop toward x.
struct BallView {
  std::vector<NodeId> members;
  std::vector<Weight> dist;
  std::vector<NodeId> parent;

  std::size_t size() const { return members.size(); }
};

class BallOracle {
 public:
  BallOracle(const CsrGraph& csr, Weight scale);

  /// Normalization factor (raw edge units per normalized unit).
  Weight scale() const { return scale_; }

  /// B(center, radius), radius in normalized units. Settles only the ball.
  BallView ball(NodeId center, Weight radius) const;
  /// |B(center, radius)|; settles the ball but sorts nothing.
  std::size_t ball_size(NodeId center, Weight radius) const;
  /// Whether B(center, radius) holds a marked node (marked[v] != 0). Stops
  /// at the first marked node it settles, so a near hit settles only the
  /// nodes closer than it. `marked` must cover all n nodes.
  bool ball_meets(NodeId center, Weight radius,
                  std::span<const char> marked) const;

  /// Normalized d(u, v) via a Dijkstra from u that stops once v settles.
  Weight distance(NodeId u, NodeId v) const;
  /// Next hop of u toward target (MetricSpace::next_hop) via a Dijkstra from
  /// target that stops once u settles; kInvalidNode if u == target.
  NodeId next_hop(NodeId u, NodeId target) const;

  /// Batched form: out[i] = ball(centers[i], radii[i]), computed on the
  /// parallel executor with in-batch deduplication of repeated requests.
  std::vector<BallView> balls(std::span<const NodeId> centers,
                              std::span<const Weight> radii) const;
  std::vector<BallView> balls(std::span<const NodeId> centers,
                              Weight radius) const;

  /// All prefix size-radii of one count-bounded run: out[j] = normalized
  /// distance from u to its counts[j]-th nearest node counting u itself.
  /// counts must be ascending and >= 1; values above n clamp to n. Each
  /// out[j] equals MetricSpace::radius_of_count(u, counts[j]) bit for bit
  /// (one shared run settles the longest prefix once).
  std::vector<Weight> size_radii(NodeId u,
                                 std::span<const std::size_t> counts) const;

  struct Nearest {
    NodeId node = kInvalidNode;
    /// Normalized distance from the query node.
    Weight dist = kInfiniteWeight;
  };

  /// Nearest marked node to `from` (marked[v] != 0), ties broken toward the
  /// smaller id — the MetricSpace::nearest_in contract. Issues a bounded
  /// ball of `seed_radius` and doubles on miss (counted in balls.reissued),
  /// so a good seed (e.g. the covering radius that guarantees a hit) makes
  /// this one bounded query. `marked` must cover all n nodes and mark at
  /// least one.
  Nearest nearest_marked(NodeId from, std::span<const char> marked,
                         Weight seed_radius) const;

  /// Canonical shortest path from -> to, inclusive of both endpoints —
  /// bit-identical to MetricSpace::shortest_path — via a Dijkstra from `to`
  /// that stops as soon as `from` settles (so it explores B(to, d(to, from)),
  /// not the graph).
  Path path_between(NodeId from, NodeId to) const;

  struct NearestAssignment {
    /// Per target: the owning (nearest) source, ties toward the smaller
    /// source id, and the normalized distance to it.
    std::vector<NodeId> owner;
    std::vector<Weight> dist;
  };

  /// Bounded multi-source assignment: for every target, its nearest source
  /// among `sources` and the distance. Runs one multi-source Dijkstra of
  /// `seed_radius`, doubling until every target is settled — pass the
  /// covering radius that guarantees targets lie within it of some source
  /// and no reissue happens.
  NearestAssignment assign_nearest(std::span<const NodeId> sources,
                                   std::span<const NodeId> targets,
                                   Weight seed_radius) const;

  const CsrGraph& csr() const { return *csr_; }

 private:
  /// Dijkstra from `source` stopped as soon as `stop` settles: `stop`'s
  /// distance and its whole parent chain back to `source` are final then.
  const DijkstraWorkspace& settle_until(NodeId source, NodeId stop) const;

  const CsrGraph* csr_;
  Weight scale_;
  std::size_t n_;
};

/// Pre-registers the construction-side counters (balls.*, packing.*,
/// mem.peak, metric.rows.materialized) on the calling shard — the
/// serve.queue.* pattern — so a telemetry scrape reports them at zero even
/// when no row-free build ran. No-op under CR_OBS_DISABLED.
void preregister_build_metrics();

}  // namespace compactroute
