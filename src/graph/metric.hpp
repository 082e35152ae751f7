#pragma once
//
// Shortest-path metric of a connected weighted graph (Section 2).
//
// Distances are normalized so the minimum pairwise distance is 1 — the
// paper's w.l.o.g. — hence the normalized diameter is simply
// Δ = max_{u,v} d(u, v). Every scheme in the paper is built from three
// queries: d(u, v), the ball B_u(r), and the size-radius r_u(j) ("radius of
// the smallest ball around u holding 2^j nodes"). MetricSpace answers them in
// one of two modes (DESIGN.md §6):
//
//  * dense — three precomputed n×n matrices (dist, parent, order). O(n²)
//    memory, O(1) queries; the default and the small-n golden reference.
//  * row-free — no matrices. Every query is a bounded Dijkstra through
//    BallOracle (balls stop at the radius, point queries stop the moment the
//    target settles), so memory is O(largest ball), not O(n²).
//
// Both modes compute the normalization scale and the diameter through the
// same code and answer every query bit-identically; the equivalence suite
// (tests/test_metric_backend.cpp) checks dense == row-free query by query and
// down to scheme fingerprints.
//
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "graph/ball_oracle.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace compactroute {

class ScaleFreeSubstrate;  // nets/ball_packing.hpp

enum struct MetricBackendKind { kDense, kRowFree };

/// "dense" or "rowfree" — the spelling crtool, audit reports and bench JSON
/// use.
const char* backend_name(MetricBackendKind kind);
/// Inverse of backend_name; false on any other spelling.
bool backend_from_name(const std::string& name, MetricBackendKind* out);

struct MetricOptions {
  MetricBackendKind backend = MetricBackendKind::kDense;
};

/// One root's fully materialized view of the metric: normalized distances,
/// shortest-path-tree parents (parent[u] = predecessor of u on the canonical
/// path root->u, i.e. u's next hop toward root), and nodes sorted by
/// (distance, id). Only row-free row() calls allocate one.
struct MetricRow {
  std::vector<Weight> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> order;
};

using MetricRowPtr = std::shared_ptr<const MetricRow>;

/// Borrowed view of one root's row. In row-free mode the view pins the
/// transient row it was computed into, so it stays valid for its own
/// lifetime; hold it only as long as needed.
class MetricRowView {
 public:
  MetricRowView(std::span<const Weight> dist, std::span<const NodeId> parent,
                std::span<const NodeId> order, MetricRowPtr pin)
      : dist_(dist), parent_(parent), order_(order), pin_(std::move(pin)) {}

  /// d(root, v), normalized.
  Weight dist(NodeId v) const { return dist_[v]; }
  /// Predecessor of v on the canonical path root->v (v's next hop toward
  /// the row's root); kInvalidNode for the root itself.
  NodeId parent(NodeId v) const { return parent_[v]; }
  /// Nodes by (distance from root, id); position 0 is the root.
  std::span<const NodeId> order() const { return order_; }
  std::span<const Weight> dists() const { return dist_; }
  std::size_t size() const { return dist_.size(); }
  /// The transient row backing this view (null in dense mode).
  const MetricRowPtr& pin() const { return pin_; }

 private:
  std::span<const Weight> dist_;
  std::span<const NodeId> parent_;
  std::span<const NodeId> order_;
  MetricRowPtr pin_;
};

/// Pinned distance-sorted node order of one root (see MetricRowView for the
/// lifetime contract).
class OrderView {
 public:
  OrderView(std::span<const NodeId> order, MetricRowPtr pin)
      : order_(order), pin_(std::move(pin)) {}

  NodeId operator[](std::size_t k) const { return order_[k]; }
  std::size_t size() const { return order_.size(); }
  const NodeId* begin() const { return order_.data(); }
  const NodeId* end() const { return order_.data() + order_.size(); }
  std::span<const NodeId> span() const { return order_; }

 private:
  std::span<const NodeId> order_;
  MetricRowPtr pin_;
};

class MetricSpace {
 public:
  /// Builds the metric. Requires a connected graph with >= 2 nodes.
  explicit MetricSpace(const Graph& graph, MetricOptions options = {});

  MetricSpace(MetricSpace&&) = default;
  MetricSpace& operator=(MetricSpace&&) = default;

  std::size_t n() const { return n_; }
  const Graph& graph() const { return graph_; }
  /// Flat CSR view of the graph, shared with the oracle; use it for any
  /// auxiliary Dijkstra runs (it is cheaper to scan than Graph's adjacency).
  const CsrGraph& csr() const { return *csr_; }

  const char* backend_name() const { return compactroute::backend_name(kind_); }
  MetricBackendKind backend_kind() const { return kind_; }

  /// Bounded-query front end for construction (DESIGN.md §10): batched ball
  /// requests, size radii, nearest-marked and multi-source assignment — all
  /// in normalized units, all without materializing a metric row. Shared by
  /// every builder so results are identical in both modes; row-free point
  /// queries below go through it too.
  const BallOracle& balls_oracle() const { return *balls_; }

  /// Normalized distance d(u, v); d(u, u) == 0, min_{u != v} d(u, v) == 1.
  Weight dist(NodeId u, NodeId v) const {
    if (dense()) return dist_[index(u, v)];
    return balls_->distance(u, v);
  }

  /// Factor by which original graph distances were divided.
  Weight normalization_scale() const { return scale_; }

  /// Normalized diameter Δ = max d(u, v).
  Weight delta() const { return delta_; }

  /// Smallest L with 2^L >= Δ. Net levels run i = 0..L (Section 2).
  int num_levels() const { return num_levels_; }

  /// Borrowed view of u's full metric row (distances, next hops toward u,
  /// distance-sorted order). In row-free mode this computes a transient row
  /// and counts it in metric.rows.materialized — audits and evaluation only;
  /// a row-free build keeps that counter at zero.
  MetricRowView row(NodeId u) const;

  /// Nodes ordered by (distance from u, id); position 0 is u itself. The
  /// view pins the row for its lifetime.
  OrderView sorted_by_distance(NodeId u) const;

  /// Distance from u to the m-th nearest node counting u itself (m >= 1;
  /// m > n clamps to n). radius_of_count(u, 2^j) is the paper's r_u(j).
  Weight radius_of_count(NodeId u, std::size_t m) const;

  /// Nodes within distance r of u, ordered by (distance, id). This is the
  /// ball B_u(r) of the paper. Row-free mode settles only the ball's members.
  std::vector<NodeId> ball(NodeId u, Weight r) const;

  /// |B_u(r)|.
  std::size_t ball_size(NodeId u, Weight r) const;

  /// Whether B_u(r) holds a marked node (marked[v] != 0; `marked` covers
  /// all n nodes). Stops at the first hit in (distance, id) order: dense
  /// mode scans the row prefix, row-free mode runs one probe that settles
  /// only the nodes nearer than the hit (BallOracle::ball_meets).
  bool ball_meets(NodeId u, Weight r, std::span<const char> marked) const;

  /// Neighbor of u on the canonical shortest path u -> target (target itself
  /// if adjacent); kInvalidNode if u == target.
  NodeId next_hop(NodeId u, NodeId target) const {
    if (dense()) return parent_[index(target, u)];
    return balls_->next_hop(u, target);
  }

  /// Canonical shortest path from u to v, inclusive of both endpoints.
  Path shortest_path(NodeId u, NodeId v) const;

  /// The candidate nearest to u; ties broken toward the smaller id.
  /// candidates must be non-empty.
  NodeId nearest_in(NodeId u, std::span<const NodeId> candidates) const;

  /// Bytes held by the metric matrices (counters
  /// mem.metric.{dist,parent,order}_bytes); 0 in row-free mode.
  std::size_t memory_bytes() const;

  /// This metric's size radii r_u(j) and packings ℬ_j, built once on the
  /// first request (concurrent first requests share one build). The build
  /// runs parallel_for: request it from a scheme constructor, never from a
  /// parallel_for chunk. Defined in nets/ball_packing.cpp.
  const ScaleFreeSubstrate& scale_free_substrate() const;

 private:
  bool dense() const { return kind_ == MetricBackendKind::kDense; }
  std::size_t index(NodeId row, NodeId col) const {
    return static_cast<std::size_t>(row) * n_ + col;
  }

  Graph graph_;
  std::size_t n_ = 0;
  // unique_ptr so the CSR's address is stable across moves: the oracle keeps
  // a pointer to it.
  std::unique_ptr<const CsrGraph> csr_;
  std::unique_ptr<BallOracle> balls_;
  MetricBackendKind kind_ = MetricBackendKind::kDense;
  Weight scale_ = 1;
  Weight delta_ = 0;
  int num_levels_ = 0;
  // Dense mode only (empty when row-free), all row-major n×n.
  std::vector<Weight> dist_;    // dist_[u*n + v] = d(u, v), normalized
  std::vector<NodeId> parent_;  // parent_[t*n + u] = next hop of u toward t
  std::vector<NodeId> order_;   // order_[u*n + k] = k-th nearest node to u
  // Behind a pointer so the metric stays movable (once_flag is not); a
  // shared_ptr because its deleter works on the type left incomplete here.
  struct SubstrateSlot {
    std::once_flag once;
    std::shared_ptr<const ScaleFreeSubstrate> value;
  };
  std::unique_ptr<SubstrateSlot> substrate_ = std::make_unique<SubstrateSlot>();
};

}  // namespace compactroute
