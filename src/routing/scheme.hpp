#pragma once
//
// Routing-scheme interfaces (Section 1).
//
// A routing scheme = preprocessing (constructors configure per-node tables)
// + a routing algorithm. Our simulators call route(), which must compute the
// packet's walk hop by hop using only per-node table state and the packet
// header; the returned RouteResult records the walk and its cost so stretch
// can be measured against the metric.
//
// The two design variants of the paper:
//   * LabeledScheme       — the designer renames nodes; the source must know
//                           the destination's designer-given label.
//   * NameIndependentScheme — routing works on top of arbitrary original
//                           names (a Naming permutation).
//
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/types.hpp"
#include "graph/metric.hpp"

namespace compactroute {

struct RouteResult {
  bool delivered = false;
  /// Nodes visited in order; front() is the source. Consecutive entries need
  /// not be graph-adjacent (virtual search-tree edges); cost always charges
  /// the true metric distance between consecutive nodes.
  Path path;
  Weight cost = 0;
};

/// path_cost of a path that only grows at its end, as a running total: each
/// call adds just the hops appended since the last one, left to right from
/// 0, so it equals path_cost(metric, path) without rescanning the prefix.
class RunningPathCost {
 public:
  explicit RunningPathCost(const MetricSpace& metric) : metric_(&metric) {}
  Weight operator()(const Path& path) {
    for (; hops_ + 1 < path.size(); ++hops_) {
      total_ += metric_->dist(path[hops_], path[hops_ + 1]);
    }
    return total_;
  }

 private:
  const MetricSpace* metric_;
  std::size_t hops_ = 0;  // hops summed so far
  Weight total_ = 0;
};

/// Sums metric distances over consecutive path entries.
inline Weight path_cost(const MetricSpace& metric, const Path& path) {
  return RunningPathCost(metric)(path);
}

class LabeledScheme {
 public:
  virtual ~LabeledScheme() = default;

  virtual std::string name() const = 0;

  /// Designer-given routing label of v.
  virtual std::uint64_t label(NodeId v) const = 0;

  /// Size of a routing label in bits.
  virtual std::size_t label_bits() const = 0;

  /// Routes from src to the node with the given label.
  virtual RouteResult route(NodeId src, std::uint64_t dest_label) const = 0;

  /// Routing-information bits stored at node u.
  virtual std::size_t storage_bits(NodeId u) const = 0;

  /// Maximum packet-header size in bits.
  virtual std::size_t header_bits() const = 0;
};

/// Original node name (arbitrary, scheme-independent).
using Name = std::uint64_t;

class NameIndependentScheme {
 public:
  virtual ~NameIndependentScheme() = default;

  virtual std::string name() const = 0;

  /// Routes from src to the node originally named dest_name.
  virtual RouteResult route(NodeId src, Name dest_name) const = 0;

  virtual std::size_t storage_bits(NodeId u) const = 0;
  virtual std::size_t header_bits() const = 0;
};

}  // namespace compactroute
