#include "graph/ball_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>

#include "core/check.hpp"
#include "core/epoch_marks.hpp"
#include "core/parallel.hpp"
#include "graph/dijkstra.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace compactroute {

namespace {

// Every oracle query's Dijkstra: one run from `sources` into the calling
// thread's warm workspace (graph/dijkstra.hpp), counted in balls.issued /
// balls.settled. A bounded run costs O(|ball| log |ball| + ball edges).
const DijkstraWorkspace& run(const CsrGraph& csr,
                             std::span<const NodeId> sources,
                             const DijkstraBounds& bounds) {
  CR_OBS_COUNT("balls.issued");
  DijkstraWorkspace& ws = thread_workspace();
  dijkstra_into(csr, sources, ws, bounds);
  CR_OBS_ADD("balls.settled", ws.settled().size());
  return ws;
}

// Exact dedup key: the center paired with the radius's bit pattern (bitwise
// equality is the right notion — the bound compares bits, not values).
std::pair<NodeId, std::uint64_t> request_key(NodeId center, Weight radius) {
  std::uint64_t bits = 0;
  static_assert(sizeof(radius) == sizeof(bits));
  std::memcpy(&bits, &radius, sizeof(bits));
  return {center, bits};
}

}  // namespace

BallOracle::BallOracle(const CsrGraph& csr, Weight scale)
    : csr_(&csr), scale_(scale), n_(csr.num_nodes()) {
  CR_CHECK_MSG(scale_ > 0 && scale_ < kInfiniteWeight,
               "ball oracle requires a positive normalization scale");
}

BallView BallOracle::ball(NodeId center, Weight radius) const {
  const NodeId sources[] = {center};
  const DijkstraWorkspace& ws =
      run(*csr_, sources, {.radius = radius, .scale = scale_});

  // Settle order is ascending (raw distance, id); the canonical row order is
  // ascending (normalized distance, id). Sort under the canonical comparator
  // in case normalization collapses raw ties, so memberships and order match
  // a dense metric row bit for bit.
  std::vector<std::pair<Weight, NodeId>> members;
  members.reserve(ws.settled().size());
  for (const NodeId v : ws.settled()) {
    members.emplace_back(ws.dist()[v] / scale_, v);
  }
  std::sort(members.begin(), members.end());

  BallView view;
  view.members.reserve(members.size());
  view.dist.reserve(members.size());
  view.parent.reserve(members.size());
  for (const auto& [d, v] : members) {
    view.members.push_back(v);
    view.dist.push_back(d);
    view.parent.push_back(ws.parent()[v]);
  }
  return view;
}

std::size_t BallOracle::ball_size(NodeId center, Weight radius) const {
  const NodeId sources[] = {center};
  return run(*csr_, sources, {.radius = radius, .scale = scale_})
      .settled()
      .size();
}

bool BallOracle::ball_meets(NodeId center, Weight radius,
                            std::span<const char> marked) const {
  CR_CHECK(marked.size() == n_);
  const NodeId sources[] = {center};
  const DijkstraWorkspace& ws = run(
      *csr_, sources,
      {.radius = radius, .scale = scale_, .stop_marked = marked});
  // The run ends on a marked node iff it stopped at one; a run that drains
  // the ball without a hit ends on an unmarked node.
  return !ws.settled().empty() && marked[ws.settled().back()] != 0;
}

std::vector<BallView> BallOracle::balls(std::span<const NodeId> centers,
                                        std::span<const Weight> radii) const {
  CR_CHECK(centers.size() == radii.size());
  const std::size_t count = centers.size();

  // In-batch dedup: compute each distinct (center, radius) once, then copy
  // to every requestor. First occurrence (in request order) owns the slot,
  // so the mapping is independent of worker count.
  std::map<std::pair<NodeId, std::uint64_t>, std::size_t> slot_of;
  std::vector<std::size_t> request_slot(count);
  std::vector<std::size_t> unique_requests;
  unique_requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [it, inserted] =
        slot_of.try_emplace(request_key(centers[i], radii[i]),
                            unique_requests.size());
    if (inserted) unique_requests.push_back(i);
    request_slot[i] = it->second;
  }
  CR_OBS_ADD("balls.deduped", count - unique_requests.size());

  std::vector<BallView> unique_views(unique_requests.size());
  parallel_for("oracle.balls", unique_requests.size(), 1,
               [&](std::size_t first, std::size_t last) {
                 for (std::size_t s = first; s < last; ++s) {
                   const std::size_t i = unique_requests[s];
                   unique_views[s] = ball(centers[i], radii[i]);
                 }
               });

  std::vector<BallView> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = request_slot[i];
    if (i != unique_requests[s]) out[i] = unique_views[s];  // duplicate: copy
  }
  for (std::size_t s = 0; s < unique_requests.size(); ++s) {
    out[unique_requests[s]] = std::move(unique_views[s]);
  }
  obs::publish_peak_rss();
  return out;
}

std::vector<BallView> BallOracle::balls(std::span<const NodeId> centers,
                                        Weight radius) const {
  const std::vector<Weight> radii(centers.size(), radius);
  return balls(centers, radii);
}

std::vector<Weight> BallOracle::size_radii(
    NodeId u, std::span<const std::size_t> counts) const {
  CR_CHECK(!counts.empty());
  std::vector<Weight> out(counts.size());
  const NodeId sources[] = {u};
  const std::size_t longest = std::min(counts.back(), n_);
  const DijkstraWorkspace& ws = run(*csr_, sources, {.max_settled = longest});
  CR_CHECK(ws.settled().size() == longest);
  for (std::size_t j = 0; j < counts.size(); ++j) {
    CR_CHECK(counts[j] >= 1 && (j == 0 || counts[j] >= counts[j - 1]));
    const std::size_t m = counts[j] > n_ ? n_ : counts[j];
    // The m-th normalized value is the same whether ranked by raw or by
    // normalized distance (monotone division), matching radius_of_count.
    out[j] = ws.dist()[ws.settled()[m - 1]] / scale_;
  }
  return out;
}

BallOracle::Nearest BallOracle::nearest_marked(NodeId from,
                                               std::span<const char> marked,
                                               Weight seed_radius) const {
  CR_CHECK(marked.size() == n_);
  const NodeId sources[] = {from};
  Weight radius = seed_radius > 1 ? seed_radius : 1;
  for (;;) {
    const DijkstraWorkspace& ws =
        run(*csr_, sources, {.radius = radius, .scale = scale_});
    const std::span<const NodeId> settled = ws.settled();
    for (std::size_t k = 0; k < settled.size(); ++k) {
      if (!marked[settled[k]]) continue;
      // Settle order is (raw distance, id); nearest_in ties break on the
      // *normalized* distance. Normalization can only collapse raw ties, so
      // scan the run of equal normalized distance for the smallest marked id.
      Nearest best{settled[k], ws.dist()[settled[k]] / scale_};
      for (std::size_t j = k + 1; j < settled.size(); ++j) {
        const NodeId v = settled[j];
        if (ws.dist()[v] / scale_ != best.dist) break;
        if (marked[v] && v < best.node) best.node = v;
      }
      return best;
    }
    CR_CHECK_MSG(settled.size() < n_,
                 "nearest_marked requires at least one marked node");
    radius *= 2;
    CR_OBS_COUNT("balls.reissued");
  }
}

const DijkstraWorkspace& BallOracle::settle_until(NodeId source,
                                                  NodeId stop) const {
  const NodeId sources[] = {source};
  const DijkstraWorkspace& ws = run(*csr_, sources, {.stop_node = stop});
  CR_CHECK_MSG(!ws.settled().empty() && ws.settled().back() == stop,
               "point query requires a connected pair");
  return ws;
}

Weight BallOracle::distance(NodeId u, NodeId v) const {
  if (u == v) return 0;
  return settle_until(u, v).dist()[v] / scale_;
}

NodeId BallOracle::next_hop(NodeId u, NodeId target) const {
  if (u == target) return kInvalidNode;
  return settle_until(target, u).parent()[u];
}

Path BallOracle::path_between(NodeId from, NodeId to) const {
  Path path;
  path.push_back(from);
  if (from == to) return path;
  // Once `from` settles, every parent on its canonical path toward `to` is
  // final (refinements only arrive from earlier-settled nodes), so this walk
  // reproduces the dense metric's shortest path bit for bit.
  const std::span<const NodeId> parent = settle_until(to, from).parent();
  NodeId cur = from;
  while (cur != to) {
    cur = parent[cur];
    CR_CHECK(cur != kInvalidNode);
    path.push_back(cur);
    CR_CHECK_MSG(path.size() <= n_, "next-hop cycle detected");
  }
  return path;
}

BallOracle::NearestAssignment BallOracle::assign_nearest(
    std::span<const NodeId> sources, std::span<const NodeId> targets,
    Weight seed_radius) const {
  CR_CHECK(!sources.empty());
  NearestAssignment out;
  out.owner.resize(targets.size());
  out.dist.resize(targets.size());
  // Settled marks: O(touched) per use, no per-call allocation once warm,
  // safe across oracles of different sizes.
  static thread_local EpochMarks settled;
  Weight radius = seed_radius > 1 ? seed_radius : 1;
  for (;;) {
    const DijkstraWorkspace& ws =
        run(*csr_, sources, {.radius = radius, .scale = scale_});
    settled.begin(n_);
    for (const NodeId v : ws.settled()) settled.set(v);
    bool all_settled = true;
    for (const NodeId t : targets) {
      if (!settled.test(t)) {
        all_settled = false;
        break;
      }
    }
    if (all_settled) {
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const NodeId t = targets[i];
        out.owner[i] = ws.owner()[t];
        out.dist[i] = ws.dist()[t] / scale_;
      }
      return out;
    }
    CR_CHECK_MSG(ws.settled().size() < n_,
                 "assign_nearest target unreachable from every source");
    radius *= 2;
    CR_OBS_COUNT("balls.reissued");
  }
}

void preregister_build_metrics() {
#ifndef CR_OBS_DISABLED
  obs::Registry& shard = obs::local_registry();
  (void)shard.counter("balls.issued");
  (void)shard.counter("balls.settled");
  (void)shard.counter("balls.reissued");
  (void)shard.counter("balls.deduped");
  (void)shard.counter("packing.candidates");
  (void)shard.counter("packing.center_rejects");
  (void)shard.counter("packing.probe_rejects");
  (void)shard.counter("packing.accepted");
  (void)shard.counter("mem.peak");
  (void)shard.counter("metric.rows.materialized");
#endif
}

}  // namespace compactroute
