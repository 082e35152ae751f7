#include "nets/rnet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/check.hpp"
#include "core/epoch_marks.hpp"
#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace compactroute {

Weight level_radius(int i) { return std::ldexp(1.0, i); }

std::vector<NodeId> build_rnet(const MetricSpace& metric,
                               const std::vector<NodeId>& candidates, Weight r,
                               const std::vector<NodeId>& seed) {
  // Greedy net by cover-marking: instead of probing each candidate against
  // every accepted point (a full metric row per candidate), every accepted
  // point marks the candidates it disqualifies — the nodes strictly inside
  // its r-ball — with one bounded ball query. A candidate is accepted iff it
  // is unmarked when its turn comes, which is the same greedy outcome, and
  // total work is one ball per *net point*, not one row per candidate. In a
  // doubling metric each node lies in O(1) accepted balls, so a whole level
  // costs O(n) ball-member visits.
  const BallOracle& oracle = metric.balls_oracle();
  // Coverage marks: build_rnet runs serially per call but is invoked from
  // parallel workers (one search tree per chunk), so each thread keeps its
  // own marks and resets them in O(1) per call.
  static thread_local EpochMarks covered;
  covered.begin(metric.n());

  const auto mark = [&](NodeId x) {
    const BallView ball = oracle.ball(x, r);
    for (std::size_t k = 0; k < ball.size(); ++k) {
      // Strict inequality: a candidate exactly r away stays eligible,
      // matching the separation rule d(u, y) >= r.
      if (ball.dist[k] < r) covered.set(ball.members[k]);
    }
  };

  std::vector<NodeId> net = seed;
  for (NodeId s : seed) mark(s);
  for (NodeId u : candidates) {
    if (covered.test(u)) continue;
    net.push_back(u);
    mark(u);
  }
  std::sort(net.begin(), net.end());
  return net;
}

NetHierarchy::NetHierarchy(const MetricSpace& metric) : metric_(&metric) {
  CR_OBS_SCOPED_TIMER("preprocess.nets");
  CR_OBS_SPAN("preprocess.nets", "construct");
  top_level_ = metric.num_levels();
  build_nets();
  build_zoom();
  build_dfs_labels();
}

void NetHierarchy::build_nets() {
  const std::size_t n = metric_->n();
  nets_.assign(top_level_ + 1, {});
  membership_.assign(top_level_ + 1, std::vector<char>(n, 0));

  // Y_L: singleton — the paper allows an arbitrary node; we fix node 0 for
  // determinism.
  nets_[top_level_] = {NodeId{0}};
  membership_[top_level_][0] = 1;

  std::vector<NodeId> all(n);
  for (NodeId u = 0; u < n; ++u) all[u] = u;

  // Greedily expand Y_{i+1} into a 2^i-net Y_i, scanning nodes in id order.
  for (int level = top_level_ - 1; level >= 0; --level) {
    nets_[level] = build_rnet(*metric_, all, level_radius(level), nets_[level + 1]);
    for (NodeId y : nets_[level]) membership_[level][y] = 1;
  }
  CR_CHECK_MSG(nets_[0].size() == n, "Y_0 must equal V (min pairwise distance is 1)");
}

void NetHierarchy::build_zoom() {
  const std::size_t n = metric_->n();
  zoom_.assign(top_level_ + 1, std::vector<NodeId>(n));
  parent_.assign(top_level_ + 1, std::vector<NodeId>(n, kInvalidNode));

  for (NodeId u = 0; u < n; ++u) zoom_[0][u] = u;
  for (int level = 1; level <= top_level_; ++level) {
    // Netting-tree parents: nearest point of Y_level to each point of
    // Y_{level-1}, least-id tie-break — the nearest_in contract, answered by
    // a bounded ball from each net point instead of its full row. The
    // covering property puts the parent within 2^level, so a seed radius a
    // hair above that makes the doubling reissue a never-taken fallback (it
    // only guards the exact-boundary ulp). Each net point's parent is
    // independent of the others, so the assignment maps over the net in
    // parallel; results depend only on the metric, never on workers.
    const std::vector<NodeId>& members = nets_[level - 1];
    const std::vector<char>& marked = membership_[level];
    const Weight seed_radius = level_radius(level) * (1 + 1e-6);
    parallel_for("nets.parents", members.size(), 16,
                 [&](std::size_t first, std::size_t last) {
                   for (std::size_t k = first; k < last; ++k) {
                     parent_[level - 1][members[k]] =
                         metric_->balls_oracle()
                             .nearest_marked(members[k], marked, seed_radius)
                             .node;
                   }
                 });
    // Zooming sequences follow the netting-tree parent chain: u(level) is the
    // parent of u(level-1), which lies in Y_{level-1}.
    parallel_for("nets.zoom", n, 64, [&](std::size_t first, std::size_t last) {
      for (NodeId u = static_cast<NodeId>(first); u < last; ++u) {
        zoom_[level][u] = parent_[level - 1][zoom_[level - 1][u]];
      }
    });
  }
}

NodeId NetHierarchy::netting_parent(int level, NodeId x) const {
  CR_CHECK(in_net(level, x));
  if (level == top_level_) return x;
  return parent_[level][x];
}

void NetHierarchy::build_dfs_labels() {
  const std::size_t n = metric_->n();
  leaf_label_.assign(n, kInvalidNode);
  label_to_node_.assign(n, kInvalidNode);
  ranges_.assign(top_level_ + 1, std::vector<LeafRange>(n));

  // children[level][x] = points z of Y_level whose netting parent is x
  // (x ∈ Y_{level+1}); sorted by id because nets_ is sorted.
  std::vector<std::vector<std::vector<NodeId>>> children(top_level_);
  for (int level = 0; level < top_level_; ++level) {
    children[level].assign(n, {});
    for (NodeId z : nets_[level]) {
      children[level][parent_[level][z]].push_back(z);
    }
  }

  NodeId next_label = 0;
  const std::function<LeafRange(int, NodeId)> dfs = [&](int level, NodeId x) {
    if (level == 0) {
      leaf_label_[x] = next_label;
      label_to_node_[next_label] = x;
      ranges_[0][x] = {next_label, next_label};
      ++next_label;
      return ranges_[0][x];
    }
    LeafRange range{next_label, next_label};
    bool first = true;
    for (NodeId child : children[level - 1][x]) {
      const LeafRange sub = dfs(level - 1, child);
      if (first) {
        range = sub;
        first = false;
      } else {
        range.hi = sub.hi;
      }
    }
    CR_CHECK_MSG(!first, "net point with no children (every x ∈ Y_i is in Y_{i-1})");
    ranges_[level][x] = range;
    return range;
  };

  const NodeId root = nets_[top_level_].front();
  const LeafRange whole = dfs(top_level_, root);
  CR_CHECK(whole.lo == 0 && whole.hi + 1 == n && next_label == n);
}

LeafRange NetHierarchy::range(int level, NodeId x) const {
  CR_CHECK(in_net(level, x));
  return ranges_[level][x];
}

}  // namespace compactroute
