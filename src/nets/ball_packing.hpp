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
// making them scale-free.
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
  /// size-radius column, radii[u] = r_u(j) — row j of size_radius_table().
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
  /// Same, computing the radius column itself (one count-bounded run per
  /// node). For callers that build a single level.
  BallPacking(const MetricSpace& metric, int size_exponent);

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
Weight size_radius(const MetricSpace& metric, NodeId u, int size_exponent);

/// Every size radius of the metric: table[j][u] = r_u(j) for
/// j = 0..max_size_exponent(n), bit-identical to size_radius(). One
/// count-bounded run per node yields all of that node's radii at once (the
/// prefix radii of one settle order), mapped over the parallel executor.
std::vector<std::vector<Weight>> size_radius_table(const MetricSpace& metric);

/// Largest j with 2^j <= n, i.e. the top of the packing hierarchy.
int max_size_exponent(std::size_t n);

}  // namespace compactroute
