#include "search/search_tree.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/check.hpp"
#include "core/epoch_marks.hpp"
#include "nets/rnet.hpp"

namespace compactroute {

namespace {

// Per-thread tree-assembly scratch, epoch-stamped so a scheme that builds
// thousands of small trees (one per net point, in parallel workers) pays
// O(|ball|) per tree, not O(n) allocations. A slot's parent/weight/level/
// tail values are meaningful only while the node is marked.
struct TreeScratch {
  EpochMarks marks;
  std::vector<NodeId> parent;
  std::vector<Weight> weight;
  std::vector<int> level;
  std::vector<char> tail;

  void begin(std::size_t n) {
    marks.begin(n);
    if (parent.size() < n) {
      parent.resize(n);
      weight.resize(n);
      level.resize(n);
      tail.resize(n);
    }
  }
  void assign(NodeId v, NodeId p, Weight w, int lvl, char in_tail) {
    marks.set(v);
    parent[v] = p;
    weight[v] = w;
    level[v] = lvl;
    tail[v] = in_tail;
  }
};

}  // namespace

SearchTree::SearchTree(const MetricSpace& metric, NodeId center, Weight radius,
                       double epsilon, Variant variant)
    : center_(center), radius_(radius) {
  CR_CHECK(epsilon > 0 && epsilon < 1);
  CR_CHECK(radius >= 0);  // radius 0 => the degenerate single-node tree {c}
  build(metric, epsilon, variant);
}

void SearchTree::build(const MetricSpace& metric, double epsilon, Variant variant) {
  const std::vector<NodeId> ball = metric.ball(center_, radius_);
  CR_CHECK(!ball.empty() && ball.front() == center_);

  // Net levels: U_i is a 2^{L'-i}-net of the ball nodes not yet placed,
  // where L' = ⌊log2(εr)⌋ (Definition 3.2). Levels below radius 1 absorb
  // everything because pairwise distances are >= 1.
  const double er = epsilon * radius_;
  const int lp = static_cast<int>(std::floor(std::log2(std::max(er, 1e-300))));
  int net_levels = std::max(lp, 0);
  bool voronoi_tail = false;
  if (variant == Variant::kCappedVoronoi) {
    int cap = 0;
    while ((std::size_t{1} << cap) < metric.n()) ++cap;  // ⌈log n⌉
    if (cap < net_levels) {
      net_levels = cap;
      voronoi_tail = true;  // Definition 4.2 (ii) applies: ⌈log n⌉ < ⌊log εr⌋
    }
  }

  const BallOracle& oracle = metric.balls_oracle();
  static thread_local TreeScratch scratch;
  scratch.begin(metric.n());
  scratch.assign(center_, kInvalidNode, 0, 0, 0);

  std::vector<NodeId> placed = {center_};  // previous level U_{i-1}
  std::vector<NodeId> remaining;
  for (NodeId v : ball) {
    if (v != center_) remaining.push_back(v);
  }

  int level = 0;
  while (!remaining.empty()) {
    ++level;
    // Every remaining node lies within the previous level's covering radius
    // of some placed node (the net property; level 1 is covered by the ball
    // radius itself), so one bounded multi-source assignment of that radius
    // finds each node's nearest placed parent — the slack factor dodges
    // exact-boundary ulps, and the oracle's doubling reissue backstops it.
    const Weight cover_radius =
        (level == 1 ? radius_ : std::ldexp(1.0, lp - (level - 1))) *
        (1 + 1e-6);
    std::vector<NodeId> current;
    if (level <= net_levels) {
      const Weight net_radius = std::ldexp(1.0, lp - level);
      current = build_rnet(metric, remaining, net_radius);
    } else if (!voronoi_tail) {
      // Bottom level: absorbs all remaining nodes (net radius <= 1 always
      // absorbs because pairwise distances are >= 1). For balls with εr < 1
      // this is the only level; each node attaches directly to the previous
      // level, adding at most r to the height (documented constant slack).
      current = remaining;
    } else {
      // Definition 4.2 (ii): remaining nodes form per-site paths hanging off
      // their nearest bottom-net site, with edge weight 2εr/n.
      const Weight path_weight = 2 * er / static_cast<double>(metric.n());
      const BallOracle::NearestAssignment site_of =
          oracle.assign_nearest(placed, remaining, cover_radius);
      std::unordered_map<NodeId, std::vector<NodeId>> cell;
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        cell[site_of.owner[i]].push_back(remaining[i]);
      }
      for (auto& [site, members] : cell) {
        std::sort(members.begin(), members.end());
        NodeId prev = site;
        for (NodeId v : members) {
          scratch.assign(v, prev, path_weight, level, 1);
          prev = v;
        }
      }
      remaining.clear();
      break;
    }

    const BallOracle::NearestAssignment up =
        oracle.assign_nearest(placed, current, cover_radius);
    for (std::size_t i = 0; i < current.size(); ++i) {
      scratch.assign(current[i], up.owner[i], up.dist[i], level, 0);
    }
    // placed := U_level for the next round's nearest-parent queries.
    placed = current;
    std::vector<NodeId> still;
    for (NodeId v : remaining) {
      if (!scratch.marks.test(v)) still.push_back(v);
    }
    remaining = std::move(still);
  }
  num_levels_ = level;

  tree_ = RootedTree(
      ball, center_, [&](NodeId v) { return scratch.parent[v]; },
      [&](NodeId v) { return scratch.weight[v]; });
  level_.assign(ball.size(), 0);
  tail_.assign(ball.size(), 0);
  for (std::size_t i = 0; i < ball.size(); ++i) {
    level_[tree_.local_id(ball[i])] = scratch.level[ball[i]];
    tail_[tree_.local_id(ball[i])] = scratch.tail[ball[i]];
  }
}

void SearchTree::store(std::vector<std::pair<Key, Data>> pairs) {
  CR_CHECK_MSG(!stored_, "store() may be called once");
  stored_ = true;
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    CR_CHECK_MSG(pairs[i - 1].first != pairs[i].first, "keys must be unique");
  }

  const std::size_t m = tree_.size();
  const std::size_t k = pairs.size();
  chunks_.assign(m, {});
  own_range_.assign(m, {});
  subtree_range_.assign(m, {});

  // Preorder positions (children in global-id order, the RootedTree order);
  // preorder makes every subtree a contiguous slice of the sorted pair list.
  std::vector<std::size_t> preorder(m, 0);
  std::vector<int> order;
  order.reserve(m);
  std::vector<int> stack = {tree_.root_local()};
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    order.push_back(node);
    const auto& kids = tree_.children(node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  for (std::size_t pos = 0; pos < m; ++pos) preorder[order[pos]] = pos;

  const auto slice_start = [&](std::size_t pos) { return pos * k / m; };
  for (std::size_t pos = 0; pos < m; ++pos) {
    const int node = order[pos];
    const std::size_t lo = slice_start(pos);
    const std::size_t hi = slice_start(pos + 1);
    for (std::size_t t = lo; t < hi; ++t) chunks_[node].push_back(pairs[t]);
    if (hi > lo) own_range_[node] = {pairs[lo].first, pairs[hi - 1].first};
    const std::size_t sub_lo = lo;
    const std::size_t sub_hi = slice_start(pos + tree_.subtree_size(node));
    if (sub_hi > sub_lo) {
      subtree_range_[node] = {pairs[sub_lo].first, pairs[sub_hi - 1].first};
    }
  }
}

int SearchTree::child_containing(int local, Key key) const {
  CR_CHECK_MSG(stored_, "search before store()");
  for (int child : tree_.children(local)) {
    if (subtree_range_[child].contains(key)) return child;
  }
  return -1;
}

bool SearchTree::holds(int local, Key key, Data* data) const {
  CR_CHECK_MSG(stored_, "search before store()");
  for (const auto& [k, d] : chunks_[local]) {
    if (k == key) {
      if (data) *data = d;
      return true;
    }
  }
  return false;
}

SearchTree::LookupResult SearchTree::lookup(Key key) const {
  LookupScratch scratch;
  LookupResult result;
  lookup(key, scratch, &result);
  return result;
}

void SearchTree::lookup(Key key, LookupScratch& scratch,
                        LookupResult* result) const {
  CR_CHECK_MSG(stored_, "lookup before store()");
  result->found = false;
  result->data = 0;
  result->trail.clear();
  std::vector<int>& down = scratch.down;
  down.clear();
  down.push_back(tree_.root_local());
  for (;;) {
    const int child = child_containing(down.back(), key);
    if (child < 0) break;
    down.push_back(child);
  }
  const int holder = down.back();
  result->found = holds(holder, key, &result->data);
  for (int node : down) result->trail.push_back(tree_.global_id(node));
  for (auto it = std::next(down.rbegin()); it != down.rend(); ++it) {
    result->trail.push_back(tree_.global_id(*it));
  }
}

std::size_t SearchTree::node_bits(int local, std::size_t key_bits,
                                  std::size_t data_bits, std::size_t link_bits) const {
  std::size_t bits = 0;
  if (stored_) {
    bits += chunks_[local].size() * (key_bits + data_bits);
    // Own subtree range plus each child's subtree range (Algorithm 1 step 5).
    bits += 2 * key_bits * (1 + tree_.children(local).size());
  }
  // Link info for each incident virtual edge (both endpoints keep a label).
  const std::size_t degree =
      tree_.children(local).size() + (local == tree_.root_local() ? 0 : 1);
  bits += degree * link_bits;
  return bits;
}

}  // namespace compactroute
