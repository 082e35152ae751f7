#pragma once
//
// Ball packings (Packing Lemma 2.3).
//
// For each size exponent j, consider the balls B_u(r_u(j)) of size 2^j around
// every node u, where r_u(j) is the smallest radius capturing 2^j nodes.
// Selecting them greedily by increasing radius yields a maximal set of
// pairwise-disjoint balls ℬ_j with the covering guarantee: every node u has a
// packed ball B(c) with r_c(j) <= r_u(j) and d(u, c) <= 2 r_u(j). Packings are
// the combinatorial counterweight to the geometric r-net hierarchy: they let
// the schemes of Sections 3.3 and 4 replace the log Δ level count with log n,
// making them scale-free. Both schemes read one ScaleFreeSubstrate per metric
// (every r_u(j) and every ℬ_j), built once on first request.
//
#include <cstddef>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/metric.hpp"

namespace compactroute {

struct PackedBall {
  NodeId center = kInvalidNode;
  Weight radius = 0;
  /// Members of the ball, ordered by (distance to center, id).
  std::vector<NodeId> nodes;
};

class BallPacking {
 public:
  /// Builds ℬ_j for the given size exponent (ball size target 2^j) from its
  /// size-radius column, radii[u] = r_u(j) — row j of the substrate table.
  /// With ties in the metric, a ball of radius r_u(j) may hold slightly more
  /// than 2^j nodes; the packing properties hold with "size >= 2^j".
  ///
  /// The greedy pays for the balls it keeps, not for the ones it rejects: a
  /// candidate whose center is already claimed is rejected in O(1), any
  /// other runs one probe that stops at the first claimed node it settles
  /// (MetricSpace::ball_meets), and only an accepted ball is materialized.
  /// Counted in packing.{candidates,center_rejects,probe_rejects,accepted}.
  BallPacking(const MetricSpace& metric, int size_exponent,
              std::span<const Weight> radii);

  int size_exponent() const { return j_; }
  const std::vector<PackedBall>& balls() const { return balls_; }

  /// Index of the packed ball containing u, or -1 if u is in no packed ball.
  int ball_containing(NodeId u) const { return ball_of_[u]; }

  /// A packed ball B(c) with r_c(j) <= r_u(j) and d(u, c) <= 2 r_u(j)
  /// (Lemma 2.3 property 2); the smallest-radius (then least center id)
  /// packed ball intersecting B_u(r_u(j)).
  int covering_ball(const MetricSpace& metric, NodeId u) const;

 private:
  friend struct SnapshotAccess;
  BallPacking() = default;

  int j_ = 0;
  std::vector<PackedBall> balls_;
  std::vector<int> ball_of_;
};

/// r_u(j): smallest radius whose ball around u holds 2^j nodes (u included).
/// The point query; ScaleFreeSubstrate holds every value at once.
Weight size_radius(const MetricSpace& metric, NodeId u, int size_exponent);

/// Largest j with 2^j <= n, i.e. the top of the packing hierarchy.
int max_size_exponent(std::size_t n);

/// What both scale-free schemes build on, once per metric
/// (MetricSpace::scale_free_substrate()): J = max_size_exponent(n), every
/// r_u(j) for j = 0..J, and the packings ℬ_0..ℬ_J.
class ScaleFreeSubstrate {
 public:
  int max_exponent() const { return max_exponent_; }
  /// table[j][u] = r_u(j) for j = 0..J.
  const std::vector<std::vector<Weight>>& radius_table() const { return table_; }
  /// r_u(j) with the paper's clamp: an exponent above log n denotes the whole
  /// graph, so r(j, u) = Δ for j > J.
  Weight r(int j, NodeId u) const { return j > max_exponent_ ? delta_ : table_[j][u]; }
  const BallPacking& packing(int j) const { return packings_[j]; }

 private:
  friend class MetricSpace;  // the only builder, so one per metric
  /// One count-bounded run per node yields all of its radii at once (the
  /// prefix radii of one settle order, bit-identical to size_radius()),
  /// mapped over the parallel executor; ℬ_j is the greedy over row j.
  explicit ScaleFreeSubstrate(const MetricSpace& metric);

  int max_exponent_ = 0;
  Weight delta_ = 0;
  std::vector<std::vector<Weight>> table_;
  std::vector<BallPacking> packings_;
};

}  // namespace compactroute
