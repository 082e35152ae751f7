#include "nets/ball_packing.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "core/bits.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "obs/metrics.hpp"

namespace compactroute {

Weight size_radius(const MetricSpace& metric, NodeId u, int size_exponent) {
  CR_CHECK(size_exponent >= 0);
  const std::size_t target = std::size_t{1} << size_exponent;
  return metric.radius_of_count(u, target);
}

int max_size_exponent(std::size_t n) { return floor_log2(n); }

ScaleFreeSubstrate::ScaleFreeSubstrate(const MetricSpace& metric)
    : max_exponent_(max_size_exponent(metric.n())), delta_(metric.delta()) {
  const std::size_t n = metric.n();
  std::vector<std::size_t> counts(max_exponent_ + 1);
  for (int j = 0; j <= max_exponent_; ++j) counts[j] = std::size_t{1} << j;
  table_.assign(max_exponent_ + 1, std::vector<Weight>(n));
  parallel_for("nets.packing.radii", n, 16,
               [&](std::size_t first, std::size_t last) {
                 for (NodeId u = static_cast<NodeId>(first); u < last; ++u) {
                   const std::vector<Weight> radii =
                       metric.balls_oracle().size_radii(u, counts);
                   for (int j = 0; j <= max_exponent_; ++j) table_[j][u] = radii[j];
                 }
               });
  for (int j = 0; j <= max_exponent_; ++j) packings_.emplace_back(metric, j, table_[j]);
}

const ScaleFreeSubstrate& MetricSpace::scale_free_substrate() const {
  SubstrateSlot& slot = *substrate_;
  std::call_once(slot.once, [&] {
    slot.value.reset(new ScaleFreeSubstrate(*this));
  });
  return *slot.value;
}

BallPacking::BallPacking(const MetricSpace& metric, int size_exponent,
                         std::span<const Weight> radii)
    : j_(size_exponent) {
  const std::size_t n = metric.n();
  CR_CHECK(size_exponent >= 0 && size_exponent <= max_size_exponent(n));
  CR_CHECK(radii.size() == n);
  ball_of_.assign(n, -1);

  // Candidate balls ordered by (radius, center id) — the greedy order of the
  // Packing Lemma's proof. The selection is inherently serial.
  std::vector<std::pair<Weight, NodeId>> order(n);
  for (NodeId u = 0; u < n; ++u) order[u] = {radii[u], u};
  std::sort(order.begin(), order.end());

  // A candidate is kept iff its ball misses every ball kept before it. Its
  // center lies in its own ball (distance 0), so a claimed center rejects it
  // outright; otherwise one early-exit probe decides, and only a kept ball
  // is materialized. Same decisions as scanning every candidate's full ball.
  std::vector<char> claimed(n, 0);
  std::uint64_t center_rejects = 0;
  std::uint64_t probe_rejects = 0;
  for (const auto& [radius, center] : order) {
    if (claimed[center]) {
      ++center_rejects;
      continue;
    }
    if (metric.ball_meets(center, radius, claimed)) {
      ++probe_rejects;
      continue;
    }
    std::vector<NodeId> members = metric.ball(center, radius);
    const int index = static_cast<int>(balls_.size());
    for (NodeId v : members) {
      ball_of_[v] = index;
      claimed[v] = 1;
    }
    balls_.push_back({center, radius, std::move(members)});
  }
  CR_CHECK_MSG(!balls_.empty(), "greedy packing always selects at least one ball");
  CR_OBS_ADD("packing.candidates", n);
  CR_OBS_ADD("packing.center_rejects", center_rejects);
  CR_OBS_ADD("packing.probe_rejects", probe_rejects);
  CR_OBS_ADD("packing.accepted", balls_.size());
}

int BallPacking::covering_ball(const MetricSpace& metric, NodeId u) const {
  const Weight ru = size_radius(metric, u, j_);
  int best = -1;
  for (NodeId v : metric.ball(u, ru)) {
    const int b = ball_of_[v];
    if (b < 0) continue;
    if (best < 0 || balls_[b].radius < balls_[best].radius ||
        (balls_[b].radius == balls_[best].radius &&
         balls_[b].center < balls_[best].center)) {
      best = b;
    }
  }
  CR_CHECK_MSG(best >= 0, "packing maximality guarantees an intersecting ball");
  return best;
}

}  // namespace compactroute
