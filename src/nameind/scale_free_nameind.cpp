#include "nameind/scale_free_nameind.hpp"

#include <algorithm>
#include <set>

#include "core/bits.hpp"
#include "core/check.hpp"
#include "core/epoch_marks.hpp"
#include "core/parallel.hpp"
#include "nameind/zoom_search.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace compactroute {

ScaleFreeNameIndependentScheme::ScaleFreeNameIndependentScheme(
    const MetricSpace& metric, const NetHierarchy& hierarchy, const Naming& naming,
    const LabeledScheme& underlying, double epsilon)
    : ScaleFreeNameIndependentScheme(metric, hierarchy, naming, underlying, epsilon,
                                     Options{}) {}

ScaleFreeNameIndependentScheme::ScaleFreeNameIndependentScheme(
    const MetricSpace& metric, const NetHierarchy& hierarchy, const Naming& naming,
    const LabeledScheme& underlying, double epsilon, const Options& options)
    : metric_(&metric),
      hierarchy_(&hierarchy),
      naming_(&naming),
      underlying_(&underlying),
      epsilon_(epsilon) {
  CR_OBS_SCOPED_TIMER("preprocess.nameind.scale_free");
  CR_OBS_SPAN("preprocess.nameind.scale_free", "construct");
  CR_CHECK_MSG(epsilon > 0 && epsilon < 1, "Theorem 1.1 requires ε ∈ (0, 1)");
  max_exponent_ = max_size_exponent(metric.n());

  // Type-1 structures: one search tree per packed ball of the metric's
  // packings (copied, since the scheme persists them), holding the pairs of
  // the 4x-size ball B_c(r_c(j+2)); r(j+2, c) is also every Type-2 coverage
  // radius below. The per-ball trees build in parallel into their own slots.
  const ScaleFreeSubstrate& substrate = metric.scale_free_substrate();
  packings_.resize(max_exponent_ + 1);
  ball_trees_.resize(max_exponent_ + 1);
  for (int j = 0; j <= max_exponent_; ++j) {
    packings_[j] = std::make_unique<BallPacking>(substrate.packing(j));
    const std::vector<PackedBall>& balls = packings_[j]->balls();
    ball_trees_[j].resize(balls.size());
    parallel_for("nameind.sf.ball_trees", balls.size(), 1,
                 [&](std::size_t first, std::size_t last) {
      for (std::size_t b = first; b < last; ++b) {
        const PackedBall& ball = balls[b];
        ball_trees_[j][b] = make_name_tree(metric, naming, underlying,
                                           ball.center, ball.radius,
                                           substrate.r(j + 2, ball.center), epsilon_);
      }
    });
  }

  // Type-2 structures: per net membership, either an own tree or the H(u, i)
  // link into the packing hierarchy (minimal j, then minimal d(u, c)). Each
  // membership writes only its own slot, so net points map in parallel.
  const int top = hierarchy.top_level();
  memberships_.resize(top + 1);
  for (int i = 0; i <= top; ++i) {
    const std::vector<NodeId>& net = hierarchy.net(i);
    memberships_[i].resize(net.size());
    const Weight own_radius = level_radius(i) / epsilon_;
    const Weight outer_radius = level_radius(i) * (1 / epsilon_ + 1);
    parallel_for("nameind.sf.memberships", net.size(), 4,
                 [&](std::size_t first, std::size_t last) {
      for (std::size_t k = first; k < last; ++k) {
        const NodeId u = net[k];
        Membership& info = memberships_[i][k];
        // Both qualification tests below need d(u, c) <= outer_radius (ball
        // radii are non-negative), so one bounded ball from u delivers every
        // center distance the scan can use, into per-thread marks with a
        // distance payload; an unmarked center is too far and fails
        // ball_inside outright.
        static thread_local EpochMarks near;
        static thread_local std::vector<Weight> near_dist;
        if (options.subsume_with_packings) {
          near.begin(metric.n());
          if (near_dist.size() < metric.n()) near_dist.resize(metric.n());
          const BallView view = metric.balls_oracle().ball(u, outer_radius);
          for (std::size_t m = 0; m < view.size(); ++m) {
            near.set(view.members[m]);
            near_dist[view.members[m]] = view.dist[m];
          }
        }
        for (int j = 0; options.subsume_with_packings && j <= max_exponent_ &&
                        info.h_ball < 0;
             ++j) {
          Weight best_dist = 0;
          for (std::size_t b = 0; b < packings_[j]->balls().size(); ++b) {
            const PackedBall& ball = packings_[j]->balls()[b];
            if (!near.test(ball.center)) continue;
            const Weight duc = near_dist[ball.center];
            const bool ball_inside = duc + ball.radius <= outer_radius;
            const bool we_are_covered =
                duc + own_radius <= substrate.r(j + 2, ball.center);
            if (!ball_inside || !we_are_covered) continue;
            if (info.h_ball < 0 || duc < best_dist) {
              info.h_exponent = j;
              info.h_ball = static_cast<int>(b);
              best_dist = duc;
            }
          }
        }
        if (info.h_ball < 0) {
          info.own_tree = make_name_tree(metric, naming, underlying, u,
                                         own_radius, own_radius, epsilon_);
        }
      }
    });
  }
}

const ScaleFreeNameIndependentScheme::Membership&
ScaleFreeNameIndependentScheme::membership(int level, NodeId u) const {
  const std::vector<NodeId>& net = hierarchy_->net(level);
  const auto it = std::lower_bound(net.begin(), net.end(), u);
  CR_CHECK(it != net.end() && *it == u);
  return memberships_[level][it - net.begin()];
}

RouteResult ScaleFreeNameIndependentScheme::route(NodeId src, Name dest_name) const {
  return zoom_and_search(
      *metric_, *hierarchy_, *naming_, *underlying_,
      [this](int level, NodeId anchor, NodeId* root) -> const SearchTree& {
        return search_structure(level, anchor, root);
      },
      src, dest_name, nullptr);
}

const SearchTree& ScaleFreeNameIndependentScheme::search_structure(
    int level, NodeId anchor, NodeId* root) const {
  const Membership& info = membership(level, anchor);
  if (info.own_tree) {
    if (root) *root = anchor;
    return *info.own_tree;
  }
  if (root) *root = packings_[info.h_exponent]->balls()[info.h_ball].center;
  return *ball_trees_[info.h_exponent][info.h_ball];
}

std::size_t ScaleFreeNameIndependentScheme::distinct_delegations(NodeId u) const {
  std::set<std::pair<int, int>> balls;
  for (int i = 0; i <= hierarchy_->top_level(); ++i) {
    if (!hierarchy_->in_net(i, u)) continue;
    const Membership& info = membership(i, u);
    if (!info.own_tree) balls.emplace(info.h_exponent, info.h_ball);
  }
  return balls.size();
}

std::size_t ScaleFreeNameIndependentScheme::trees_containing(NodeId v) const {
  std::size_t count = 0;
  for (int j = 0; j <= max_exponent_; ++j) {
    for (const auto& tree : ball_trees_[j]) {
      if (tree->tree().contains(v)) ++count;
    }
  }
  for (const auto& level : memberships_) {
    for (const Membership& info : level) {
      if (info.own_tree && info.own_tree->tree().contains(v)) ++count;
    }
  }
  return count;
}

std::size_t ScaleFreeNameIndependentScheme::subsumed_levels(NodeId u) const {
  std::size_t count = 0;
  for (int i = 0; i <= hierarchy_->top_level(); ++i) {
    if (!hierarchy_->in_net(i, u)) continue;
    if (!membership(i, u).own_tree) ++count;
  }
  return count;
}

std::size_t ScaleFreeNameIndependentScheme::storage_bits(NodeId u) const {
  const std::size_t name_bits = id_bits(metric_->n());
  const std::size_t label = underlying_->label_bits();
  const std::size_t level_bits = id_bits(hierarchy_->top_level() + 2);

  std::size_t bits = underlying_->storage_bits(u);
  bits += label;  // netting-tree parent label

  // H(u, i) links, charged per run of consecutive levels sharing one ball.
  int prev_exponent = -2, prev_ball = -2;
  for (int i = 0; i <= hierarchy_->top_level(); ++i) {
    if (!hierarchy_->in_net(i, u)) continue;
    const Membership& info = membership(i, u);
    if (!info.own_tree) {
      if (info.h_exponent != prev_exponent || info.h_ball != prev_ball) {
        bits += 2 * level_bits + label + id_bits(max_exponent_ + 2);
      }
      prev_exponent = info.h_exponent;
      prev_ball = info.h_ball;
    } else {
      prev_exponent = prev_ball = -2;
    }
  }

  // Type-1 trees: at most one per exponent (packed balls are disjoint).
  for (int j = 0; j <= max_exponent_; ++j) {
    const int b = packings_[j]->ball_containing(u);
    if (b < 0) continue;
    const int local = ball_trees_[j][b]->tree().local_id(u);
    CR_CHECK(local >= 0);
    bits += ball_trees_[j][b]->node_bits(local, name_bits, label, label);
  }

  // Type-2 trees that contain u (Lemma 3.5 bounds their number).
  for (int i = 0; i <= hierarchy_->top_level(); ++i) {
    for (const Membership& info : memberships_[i]) {
      if (!info.own_tree) continue;
      const int local = info.own_tree->tree().local_id(u);
      if (local < 0) continue;
      bits += info.own_tree->node_bits(local, name_bits, label, label);
    }
  }
  return bits;
}

std::size_t ScaleFreeNameIndependentScheme::header_bits() const {
  return id_bits(metric_->n()) + id_bits(hierarchy_->top_level() + 2) +
         underlying_->header_bits();
}

}  // namespace compactroute
