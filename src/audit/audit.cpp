#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <sstream>

#include "codec/bitstream.hpp"
#include "codec/table_codec.hpp"
#include "core/prng.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "trees/tree.hpp"

namespace compactroute::audit {

namespace {

std::string fmt(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

/// Deterministic node sample: everything when n ≤ cap, else an even stride
/// with a seeded offset (never the same run-to-run structure dependence).
std::vector<NodeId> sampled_nodes(std::size_t n, std::size_t cap, Prng& prng) {
  std::vector<NodeId> nodes;
  if (n <= cap) {
    nodes.resize(n);
    for (NodeId u = 0; u < n; ++u) nodes[u] = u;
    return nodes;
  }
  const std::size_t stride = n / cap;
  std::size_t at = prng.next_below(stride);
  while (at < n && nodes.size() < cap) {
    nodes.push_back(static_cast<NodeId>(at));
    at += stride;
  }
  return nodes;
}

bool contains_sorted(const std::vector<NodeId>& sorted, NodeId u) {
  return std::binary_search(sorted.begin(), sorted.end(), u);
}

}  // namespace

void Report::add(std::string auditor, std::string invariant, std::string detail) {
  issues.push_back({std::move(auditor), std::move(invariant), std::move(detail)});
}

bool Report::expect(bool cond, const char* auditor, const char* invariant,
                    const std::string& detail) {
  ++checks;
  if (!cond) add(auditor, invariant, detail);
  return cond;
}

void Report::merge(const Report& other) {
  checks += other.checks;
  issues.insert(issues.end(), other.issues.begin(), other.issues.end());
}

std::string Report::summary(std::size_t max_issues) const {
  std::ostringstream os;
  os << checks << " checks, " << issues.size() << " violations";
  for (std::size_t i = 0; i < issues.size() && i < max_issues; ++i) {
    os << "\n  [" << issues[i].auditor << "] " << issues[i].invariant << ": "
       << issues[i].detail;
  }
  if (issues.size() > max_issues) {
    os << "\n  ... and " << issues.size() - max_issues << " more";
  }
  return os.str();
}

HierarchyView HierarchyView::of(const NetHierarchy& hierarchy) {
  HierarchyView view;
  const NetHierarchy* h = &hierarchy;
  view.top_level = h->top_level();
  view.net = [h](int level) { return h->net(level); };
  view.zoom = [h](int level, NodeId u) { return h->zoom(level, u); };
  view.parent = [h](int level, NodeId x) { return h->netting_parent(level, x); };
  view.leaf_label = [h](NodeId v) { return h->leaf_label(v); };
  view.node_of_label = [h](NodeId label) { return h->node_of_label(label); };
  view.range = [h](int level, NodeId x) { return h->range(level, x); };
  return view;
}

PackingView PackingView::of(const BallPacking& packing) {
  PackingView view;
  const BallPacking* p = &packing;
  view.size_exponent = p->size_exponent();
  view.balls = [p]() { return p->balls(); };
  view.ball_of = [p](NodeId u) { return p->ball_containing(u); };
  return view;
}

// ---------------------------------------------------------------------------
// audit_rnet — Definition 2.1
// ---------------------------------------------------------------------------

Report audit_rnet(const MetricSpace& metric, const HierarchyView& view,
                  const Options& options) {
  static constexpr char kName[] = "rnet";
  Report report;
  const std::size_t n = metric.n();
  Prng prng = Prng::split(options.seed, 0x11);

  // Y_0 = V (the w.l.o.g. min-distance-1 normalization makes every node
  // 1-separated, so the bottom net must be everything).
  const std::vector<NodeId> y0 = view.net(0);
  report.expect(y0.size() == n, kName, "y0-is-v",
                fmt("|Y_0| = %zu, n = %zu", y0.size(), n));
  // Y_top is a single root.
  const std::vector<NodeId> top_net = view.net(view.top_level);
  report.expect(top_net.size() == 1, kName, "top-singleton",
                fmt("|Y_%d| = %zu", view.top_level, top_net.size()));

  std::vector<NodeId> above = top_net;
  for (int level = view.top_level - 1; level >= 1; --level) {
    const std::vector<NodeId> net = view.net(level);
    const Weight r = level_radius(level);

    // Nestedness: Y_{level+1} ⊆ Y_level.
    for (NodeId y : above) {
      report.expect(contains_sorted(net, y), kName, "nestedness",
                    fmt("node %u ∈ Y_%d but ∉ Y_%d", y, level + 1, level));
    }

    // Separation: net points pairwise ≥ 2^level apart. Full quadratic scan
    // when cheap, an even sample otherwise.
    const std::size_t budget = options.sample_nodes * options.sample_nodes;
    if (net.size() * net.size() <= budget * 4) {
      for (std::size_t a = 0; a + 1 < net.size(); ++a) {
        const MetricRowView row = metric.row(net[a]);
        for (std::size_t b = a + 1; b < net.size(); ++b) {
          report.expect(row.dist(net[b]) >= r - options.slack, kName,
                        "separation",
                        fmt("d(%u, %u) = %.6g < 2^%d at level %d", net[a],
                            net[b], row.dist(net[b]), level, level));
        }
      }
    } else {
      for (std::size_t trial = 0; trial < budget; ++trial) {
        const NodeId a = net[prng.next_below(net.size())];
        const NodeId b = net[prng.next_below(net.size())];
        if (a == b) continue;
        report.expect(metric.dist(a, b) >= r - options.slack, kName,
                      "separation",
                      fmt("d(%u, %u) = %.6g < 2^%d", a, b, metric.dist(a, b),
                          level));
      }
    }
    above = net;
  }

  // Covering: every node within 2^level of Y_level, re-derived as a true
  // minimum over the net (not via the zoom chain being audited elsewhere).
  const std::vector<NodeId> probes =
      sampled_nodes(n, options.sample_nodes * 4, prng);
  std::vector<std::vector<NodeId>> nets(view.top_level + 1);
  for (int level = 1; level <= view.top_level; ++level) nets[level] = view.net(level);
  for (NodeId u : probes) {
    const MetricRowView row = metric.row(u);
    for (int level = 1; level <= view.top_level; ++level) {
      Weight best = kInfiniteWeight;
      for (NodeId y : nets[level]) best = std::min(best, row.dist(y));
      report.expect(best <= level_radius(level) + options.slack, kName,
                    "covering",
                    fmt("d(%u, Y_%d) = %.6g > 2^%d", u, level, best, level));
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_netting_tree — Eqns (1) and (2)
// ---------------------------------------------------------------------------

Report audit_netting_tree(const MetricSpace& metric, const HierarchyView& view,
                          const Options& options) {
  static constexpr char kName[] = "netting_tree";
  Report report;
  const std::size_t n = metric.n();
  Prng prng = Prng::split(options.seed, 0x22);

  for (int level = 0; level < view.top_level; ++level) {
    const std::vector<NodeId> net = view.net(level);
    const std::vector<NodeId> up = view.net(level + 1);
    const std::vector<NodeId> members =
        net.size() <= options.sample_nodes * 4
            ? net
            : [&] {
                std::vector<NodeId> sample;
                for (std::size_t k : sampled_nodes(net.size(),
                                                   options.sample_nodes * 4, prng))
                  sample.push_back(net[k]);
                return sample;
              }();
    for (NodeId x : members) {
      const NodeId p = view.parent(level, x);
      if (!report.expect(contains_sorted(up, p), kName, "parent-in-net",
                         fmt("parent(%u) = %u ∉ Y_%d", x, p, level + 1))) {
        continue;
      }
      // Eqn (1): the parent is the *nearest* point of Y_{level+1} (least id
      // on ties — the library's determinism contract) and, via covering,
      // within 2^{level+1}.
      const MetricRowView row = metric.row(x);
      Weight best = kInfiniteWeight;
      NodeId best_id = kInvalidNode;
      for (NodeId y : up) {
        if (row.dist(y) < best) {
          best = row.dist(y);
          best_id = y;
        }
      }
      report.expect(row.dist(p) <= best + options.slack, kName,
                    "parent-nearest",
                    fmt("d(%u, parent %u) = %.6g but d(%u, %u) = %.6g", x, p,
                        row.dist(p), x, best_id, best));
      if (row.dist(p) <= best + options.slack &&
          row.dist(p) >= best - options.slack) {
        report.expect(p <= best_id, kName, "parent-tie-break",
                      fmt("parent(%u) = %u, least-id nearest is %u", x, p,
                          best_id));
      }
      report.expect(row.dist(p) <= level_radius(level + 1) + options.slack,
                    kName, "parent-distance",
                    fmt("d(%u, parent %u) = %.6g > 2^%d", x, p, row.dist(p),
                        level + 1));
    }
  }

  // Zooming chains (Eqn 2): u(0) = u, u(i) ∈ Y_i, u(i+1) = parent(u(i)),
  // and the telescoped distance bound d(u, u(i)) ≤ 2^{i+1} − 2.
  const std::vector<NodeId> probes =
      sampled_nodes(n, options.sample_nodes * 4, prng);
  std::vector<std::vector<NodeId>> nets(view.top_level + 1);
  for (int level = 0; level <= view.top_level; ++level) nets[level] = view.net(level);
  for (NodeId u : probes) {
    report.expect(view.zoom(0, u) == u, kName, "zoom-identity",
                  fmt("u(0) = %u for node %u", view.zoom(0, u), u));
    for (int level = 1; level <= view.top_level; ++level) {
      const NodeId z = view.zoom(level, u);
      report.expect(contains_sorted(nets[level], z), kName, "zoom-in-net",
                    fmt("u(%d) = %u ∉ Y_%d for node %u", level, z, level, u));
      const NodeId prev = view.zoom(level - 1, u);
      if (contains_sorted(nets[level - 1], prev)) {
        report.expect(view.parent(level - 1, prev) == z, kName, "zoom-chain",
                      fmt("u(%d) = %u ≠ parent(u(%d) = %u) for node %u", level,
                          z, level - 1, prev, u));
      }
      report.expect(
          metric.dist(u, z) <= level_radius(level + 1) - 2 + options.slack,
          kName, "zoom-distance",
          fmt("d(%u, u(%d) = %u) = %.6g > 2^%d − 2", u, level, z,
              metric.dist(u, z), level + 1));
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_dfs_ranges — Section 4.1 leaf labels and Range(x, i)
// ---------------------------------------------------------------------------

Report audit_dfs_ranges(const MetricSpace& metric, const HierarchyView& view,
                        const Options& options) {
  static constexpr char kName[] = "dfs_ranges";
  Report report;
  const std::size_t n = metric.n();
  Prng prng = Prng::split(options.seed, 0x33);

  // l is a bijection [0, n) -> [0, n).
  std::vector<char> seen(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId label = view.leaf_label(u);
    if (!report.expect(label < n, kName, "label-in-range",
                       fmt("l(%u) = %u ≥ n", u, label))) {
      continue;
    }
    report.expect(!seen[label], kName, "label-unique",
                  fmt("label %u assigned twice (second: node %u)", label, u));
    seen[label] = 1;
    report.expect(view.node_of_label(label) == u, kName, "label-inverse",
                  fmt("node_of_label(l(%u) = %u) = %u", u, label,
                      view.node_of_label(label)));
  }

  // Per level: non-empty ranges forming a contiguous partition of [0, n).
  for (int level = 0; level <= view.top_level; ++level) {
    const std::vector<NodeId> net = view.net(level);
    std::vector<std::pair<NodeId, NodeId>> spans;  // (lo, hi)
    spans.reserve(net.size());
    bool well_formed = true;
    for (NodeId x : net) {
      const LeafRange range = view.range(level, x);
      well_formed &= report.expect(
          range.lo <= range.hi && range.hi < n, kName, "range-well-formed",
          fmt("Range(%u, %d) = [%u, %u] malformed", x, level, range.lo,
              range.hi));
      spans.emplace_back(range.lo, range.hi);
    }
    if (!well_formed) continue;
    std::sort(spans.begin(), spans.end());
    NodeId expect_lo = 0;
    for (const auto& [lo, hi] : spans) {
      report.expect(lo == expect_lo, kName, "range-partition",
                    fmt("level %d: span [%u, %u] follows gap/overlap at %u",
                        level, lo, hi, expect_lo));
      expect_lo = hi + 1;
    }
    if (!spans.empty()) {
      report.expect(expect_lo == n, kName, "range-partition",
                    fmt("level %d: spans end at %u, n = %zu", level, expect_lo,
                        n));
    }

    // Containment: Range(x, level) ⊆ Range(parent(x), level + 1).
    if (level < view.top_level) {
      for (NodeId x : net) {
        const LeafRange range = view.range(level, x);
        const LeafRange up = view.range(level + 1, view.parent(level, x));
        report.expect(up.lo <= range.lo && range.hi <= up.hi, kName,
                      "range-nesting",
                      fmt("Range(%u, %d) = [%u, %u] ⊄ parent range [%u, %u]",
                          x, level, range.lo, range.hi, up.lo, up.hi));
      }
    }
  }

  // Key property: l(u) ∈ Range(x, i) ⟺ x = u(i); the partition above makes
  // the positive direction sufficient.
  for (NodeId u : sampled_nodes(n, options.sample_nodes * 4, prng)) {
    for (int level = 0; level <= view.top_level; ++level) {
      const NodeId z = view.zoom(level, u);
      const LeafRange range = view.range(level, z);
      report.expect(range.contains(view.leaf_label(u)), kName,
                    "label-in-ancestor-range",
                    fmt("l(%u) = %u ∉ Range(u(%d) = %u) = [%u, %u]", u,
                        view.leaf_label(u), level, z, range.lo, range.hi));
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_ball_packing — Packing Lemma 2.3
// ---------------------------------------------------------------------------

Report audit_ball_packing(const MetricSpace& metric, const PackingView& view,
                          const Options& options) {
  static constexpr char kName[] = "ball_packing";
  Report report;
  const std::size_t n = metric.n();
  const int j = view.size_exponent;
  const std::size_t target = std::size_t{1} << j;
  Prng prng = Prng::split(options.seed, 0x44);

  const std::vector<PackedBall> balls = view.balls();
  std::vector<int> owner(n, -1);
  for (std::size_t b = 0; b < balls.size(); ++b) {
    const PackedBall& ball = balls[b];
    report.expect(ball.nodes.size() >= target, kName, "ball-size",
                  fmt("ball %zu (center %u) holds %zu < 2^%d nodes", b,
                      ball.center, ball.nodes.size(), j));
    report.expect(
        std::abs(ball.radius - size_radius(metric, ball.center, j)) <=
            options.slack,
        kName, "ball-radius",
        fmt("ball %zu radius %.6g ≠ r_%u(%d) = %.6g", b, ball.radius,
            ball.center, j, size_radius(metric, ball.center, j)));
    const MetricRowView row = metric.row(ball.center);
    for (NodeId u : ball.nodes) {
      report.expect(row.dist(u) <= ball.radius + options.slack, kName,
                    "member-in-ball",
                    fmt("node %u at d = %.6g outside ball %zu (radius %.6g)",
                        u, row.dist(u), b, ball.radius));
      // Disjointness: no node may appear in two packed balls.
      report.expect(owner[u] < 0, kName, "disjointness",
                    fmt("node %u in balls %d and %zu", u, owner[u], b));
      owner[u] = static_cast<int>(b);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    report.expect(view.ball_of(u) == owner[u], kName, "ball-of-consistent",
                  fmt("ball_of(%u) = %d, membership says %d", u,
                      view.ball_of(u), owner[u]));
  }

  // Covering guarantee (Lemma 2.3 property 2): every u has a packed ball
  // B(c) with r_c(j) ≤ r_u(j) and d(u, c) ≤ 2 r_u(j).
  for (NodeId u : sampled_nodes(n, options.sample_nodes, prng)) {
    const Weight ru = size_radius(metric, u, j);
    bool covered = false;
    for (const PackedBall& ball : balls) {
      if (ball.radius <= ru + options.slack &&
          metric.dist(u, ball.center) <= 2 * ru + options.slack) {
        covered = true;
        break;
      }
    }
    report.expect(covered, kName, "covering-ball",
                  fmt("no packed ball with radius ≤ r_%u(%d) = %.6g within "
                      "2 r_u = %.6g",
                      u, j, ru, 2 * ru));
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_search_tree — Definitions 3.2 / 4.2, Algorithms 1 and 2
// ---------------------------------------------------------------------------

Report audit_search_tree(const MetricSpace& metric, const SearchTree& tree,
                         double epsilon, const Options& options) {
  static constexpr char kName[] = "search_tree";
  Report report;
  const RootedTree& rooted = tree.tree();
  const Weight r = tree.radius();

  std::string why;
  report.expect(rooted.validate(&why), kName, "tree-structure", why);
  report.expect(rooted.root_global() == tree.center(), kName, "root-is-center",
                fmt("root %u ≠ center %u", rooted.root_global(), tree.center()));

  // Eqn (3) height bound. The capped/Voronoi variant adds ≤ 2εr of virtual
  // tail weight, and balls with εr < 2 carry the documented +r slack (the
  // bottom absorbing level attaches nodes directly).
  const Weight tail_slack = 2 * epsilon * r;
  const Weight absorb_slack = epsilon * r < 2 ? r : 0;
  const Weight ceiling = (1 + epsilon) * r + tail_slack + absorb_slack;
  report.expect(rooted.height() <= ceiling + options.slack, kName,
                "height-bound",
                fmt("height %.6g > (1 + ε) r + slack = %.6g (r = %.6g, ε = %.3f)",
                    rooted.height(), ceiling, r, epsilon));

  // Levels are monotone along tree edges (a node links one level up, tails
  // hang below the bottom net level).
  for (std::size_t local = 0; local < rooted.size(); ++local) {
    const int node = static_cast<int>(local);
    const int parent = rooted.parent(node);
    if (parent < 0) continue;
    if (tree.is_tail(node)) {
      report.expect(tree.level_of(node) >= tree.level_of(parent), kName,
                    "tail-level",
                    fmt("tail node %u level %d above parent level %d",
                        rooted.global_id(node), tree.level_of(node),
                        tree.level_of(parent)));
    } else {
      report.expect(tree.level_of(node) == tree.level_of(parent) + 1, kName,
                    "level-step",
                    fmt("node %u level %d, parent level %d",
                        rooted.global_id(node), tree.level_of(node),
                        tree.level_of(parent)));
      // Non-tail virtual edges are priced at the true metric distance.
      const Weight d =
          metric.dist(rooted.global_id(node), rooted.global_id(parent));
      report.expect(
          std::abs(rooted.parent_edge_weight(node) - d) <= options.slack,
          kName, "edge-weight",
          fmt("edge (%u, %u) weighs %.6g, metric says %.6g",
              rooted.global_id(node), rooted.global_id(parent),
              rooted.parent_edge_weight(node), d));
    }
  }

  if (!tree.stored()) return report;

  // Dictionary (Algorithms 1 and 2): subtree key ranges contain own chunks
  // and children's subtree ranges; every stored pair findable; trail shape
  // root -> holder -> root with cost ≤ 2 · height.
  std::size_t lookups = 0;
  const std::size_t lookup_budget = options.sample_nodes * 8;
  SearchTree::LookupScratch scratch;
  SearchTree::LookupResult result;
  for (std::size_t local = 0; local < rooted.size(); ++local) {
    const int node = static_cast<int>(local);
    const auto& chunk = tree.chunk(node);
    const SearchTree::KeyRange own = tree.own_key_range(node);
    const SearchTree::KeyRange sub = tree.subtree_key_range(node);
    for (const auto& [key, data] : chunk) {
      report.expect(own.contains(key), kName, "own-range",
                    fmt("key %llu stored at node %u outside its own range",
                        static_cast<unsigned long long>(key),
                        rooted.global_id(node)));
      report.expect(sub.contains(key), kName, "subtree-range",
                    fmt("key %llu stored at node %u outside subtree range",
                        static_cast<unsigned long long>(key),
                        rooted.global_id(node)));
      if (lookups >= lookup_budget) continue;
      ++lookups;
      tree.lookup(key, scratch, &result);
      if (!report.expect(result.found, kName, "stored-key-findable",
                         fmt("lookup(%llu) misses a stored key",
                             static_cast<unsigned long long>(key)))) {
        continue;
      }
      report.expect(result.data == data, kName, "stored-data",
                    fmt("lookup(%llu) returned %llu, stored %llu",
                        static_cast<unsigned long long>(key),
                        static_cast<unsigned long long>(result.data),
                        static_cast<unsigned long long>(data)));
      const Path& trail = result.trail;
      report.expect(!trail.empty() && trail.front() == tree.center() &&
                        trail.back() == tree.center(),
                    kName, "trail-roundtrip",
                    fmt("lookup(%llu) trail does not start and end at the "
                        "center",
                        static_cast<unsigned long long>(key)));
      Weight cost = 0;
      bool adjacent = true;
      for (std::size_t i = 1; i < trail.size(); ++i) {
        const int a = rooted.local_id(trail[i - 1]);
        const int b = rooted.local_id(trail[i]);
        if (a < 0 || b < 0 ||
            !(rooted.parent(a) == b || rooted.parent(b) == a)) {
          adjacent = false;
          break;
        }
        cost += rooted.parent_edge_weight(rooted.parent(a) == b ? a : b);
      }
      report.expect(adjacent, kName, "trail-edges",
                    fmt("lookup(%llu) trail leaves the tree",
                        static_cast<unsigned long long>(key)));
      if (adjacent) {
        report.expect(cost <= 2 * rooted.height() + options.slack, kName,
                      "trail-cost",
                      fmt("lookup(%llu) trail costs %.6g > 2 · height = %.6g",
                          static_cast<unsigned long long>(key), cost,
                          2 * rooted.height()));
      }
    }
    // Children's subtree ranges nest in this node's subtree range.
    for (int child : rooted.children(node)) {
      const SearchTree::KeyRange child_range = tree.subtree_key_range(child);
      if (child_range.empty()) continue;
      report.expect(!sub.empty() && sub.lo <= child_range.lo &&
                        child_range.hi <= sub.hi,
                    kName, "subtree-nesting",
                    fmt("child of node %u has subtree range outside parent's",
                        rooted.global_id(node)));
    }
  }

  // A key that was never stored must be rejected, not resolved.
  SearchTree::Key absent = 0;
  for (std::size_t local = 0; local < rooted.size(); ++local) {
    for (const auto& [key, data] : tree.chunk(static_cast<int>(local))) {
      absent = std::max(absent, key);
    }
  }
  if (absent + 1 != 0) {
    report.expect(!tree.lookup(absent + 1).found, kName, "absent-key",
                  fmt("lookup(%llu) resolved a key that was never stored",
                      static_cast<unsigned long long>(absent + 1)));
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_codec — wire formats
// ---------------------------------------------------------------------------

Report audit_codec(const MetricSpace& metric,
                   const HierarchicalLabeledScheme& scheme,
                   const Options& options, const CodecTamper& tamper) {
  static constexpr char kName[] = "codec";
  Report report;
  const int num_levels = scheme.hierarchy().top_level() + 1;
  Prng prng = Prng::split(options.seed, 0x55);

  for (NodeId u : sampled_nodes(metric.n(), options.sample_nodes, prng)) {
    std::size_t bits = 0;
    std::vector<std::uint8_t> bytes =
        encode_hierarchical_table(scheme, metric, u, &bits);
    report.expect(bytes.size() == (bits + 7) / 8, kName, "bit-accounting",
                  fmt("node %u: %zu bits but %zu bytes", u, bits, bytes.size()));
    if (tamper) tamper(u, bytes);

    std::vector<std::vector<DecodedRingEntry>> decoded;
    try {
      decoded = decode_hierarchical_table(bytes, metric, u, num_levels);
    } catch (const std::exception& e) {
      report.expect(false, kName, "decode",
                    fmt("node %u: decode threw: %s", u, e.what()));
      continue;
    }

    // Decoded rings ≡ in-memory rings (range and physical port).
    const auto& rings = scheme.rings(u);
    const auto& neighbors = metric.graph().neighbors(u);
    const std::uint32_t self_port =
        static_cast<std::uint32_t>(metric.graph().degree(u));
    bool matches = report.expect(
        decoded.size() == rings.size(), kName, "ring-count",
        fmt("node %u: decoded %zu levels, scheme has %zu", u, decoded.size(),
            rings.size()));
    for (std::size_t i = 0; matches && i < rings.size(); ++i) {
      if (!report.expect(decoded[i].size() == rings[i].size(), kName,
                         "ring-size",
                         fmt("node %u level %zu: decoded %zu entries, scheme "
                             "has %zu",
                             u, i, decoded[i].size(), rings[i].size()))) {
        matches = false;
        break;
      }
      for (std::size_t k = 0; k < rings[i].size(); ++k) {
        const auto& truth = rings[i][k];
        const auto& wire = decoded[i][k];
        matches &= report.expect(
            wire.range.lo == truth.range.lo && wire.range.hi == truth.range.hi,
            kName, "range-roundtrip",
            fmt("node %u level %zu entry %zu: range [%u, %u] ≠ [%u, %u]", u, i,
                k, wire.range.lo, wire.range.hi, truth.range.lo,
                truth.range.hi));
        const NodeId wire_hop = wire.port == self_port
                                    ? u
                                    : (wire.port < neighbors.size()
                                           ? neighbors[wire.port].to
                                           : kInvalidNode);
        matches &= report.expect(
            wire_hop == truth.next_hop, kName, "port-roundtrip",
            fmt("node %u level %zu entry %zu: port %u -> %u, scheme hop %u", u,
                i, k, wire.port, wire_hop, truth.next_hop));
      }
    }

    // Re-encode the *decoded* content; the stream must be byte-identical
    // (this also catches tampered padding bits that decode cannot see).
    const RangeCodec ranges(metric.n());
    const IdCodec ports(std::max<std::size_t>(metric.graph().degree(u) + 1, 2));
    BitWriter rewriter;
    for (const auto& ring : decoded) {
      rewriter.write_varint(ring.size());
      for (const auto& entry : ring) {
        ranges.encode(rewriter, entry.range);
        ports.encode(rewriter, entry.port);
      }
    }
    report.expect(rewriter.bytes() == bytes, kName, "reencode-identical",
                  fmt("node %u: decode → re-encode diverges from the wire", u));
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_runtime — the strict hop-by-hop model
// ---------------------------------------------------------------------------

Report audit_hop_run(const MetricSpace& metric, const HopRun& run, NodeId src,
                     NodeId dst, const std::string& scheme_name,
                     const Options& options) {
  static constexpr char kName[] = "runtime";
  Report report;
  const std::string tag = scheme_name + fmt(" %u -> %u", src, dst);

  report.expect(!run.path.empty() && run.path.front() == src, kName,
                "path-start", tag + ": walk does not start at the source");
  report.expect(run.delivered, kName, "delivery", tag + ": undelivered");
  if (run.delivered) {
    report.expect(run.path.back() == dst, kName, "delivery-target",
                  tag + fmt(": delivered to %u", run.path.back()));
  }

  // Locality, re-derived: every hop must be a physical edge; the run cost
  // must equal the normalized edge-weight sum.
  Weight cost = 0;
  bool local = true;
  for (std::size_t i = 1; i < run.path.size(); ++i) {
    const Weight w = metric.graph().edge_weight(run.path[i - 1], run.path[i]);
    if (!report.expect(w < kInfiniteWeight, kName, "hop-locality",
                       tag + fmt(": hop %zu (%u -> %u) is not a graph edge", i,
                                 run.path[i - 1], run.path[i]))) {
      local = false;
      break;
    }
    cost += w / metric.normalization_scale();
  }
  if (local) {
    report.expect(std::abs(cost - run.cost) <=
                      options.slack * std::max<Weight>(1, cost),
                  kName, "cost-metering",
                  tag + fmt(": metered cost %.6g, edges sum to %.6g", run.cost,
                            cost));
  }

  // Header-bit metering ≡ accounting: the executor's reported maximum must
  // equal the max over the source header and every traced hop.
  std::size_t expected_max = run.initial_header_bits;
  if (!run.trace.hops.empty()) {
    report.expect(run.trace.hops.size() + 1 == run.path.size(), kName,
                  "trace-hop-count",
                  tag + fmt(": %zu traced hops for a %zu-node walk",
                            run.trace.hops.size(), run.path.size()));
    for (std::size_t i = 0; i < run.trace.hops.size(); ++i) {
      const TraceHop& hop = run.trace.hops[i];
      if (i + 1 < run.path.size()) {
        report.expect(hop.from == run.path[i] && hop.to == run.path[i + 1],
                      kName, "trace-path-agree",
                      tag + fmt(": traced hop %zu (%u -> %u) ≠ walk (%u -> %u)",
                                i, hop.from, hop.to, run.path[i],
                                run.path[i + 1]));
      }
      expected_max = std::max(expected_max, hop.header_bits);
    }
    report.expect(run.max_header_bits == expected_max, kName,
                  "header-bit-metering",
                  tag + fmt(": metered max %zu bits, accounting says %zu",
                            run.max_header_bits, expected_max));
  } else {
    report.expect(run.max_header_bits >= run.initial_header_bits, kName,
                  "header-bit-metering",
                  tag + fmt(": metered max %zu below the source header's %zu",
                            run.max_header_bits, run.initial_header_bits));
  }
  return report;
}

Report audit_runtime(const MetricSpace& metric, const HopScheme& scheme,
                     const std::function<std::uint64_t(NodeId)>& dest_key_of,
                     const Options& options) {
  Report report;
  Prng prng = Prng::split(options.seed, 0x77);
  for (std::size_t trial = 0; trial < options.sample_pairs; ++trial) {
    const NodeId src = static_cast<NodeId>(prng.next_below(metric.n()));
    const NodeId dst = static_cast<NodeId>(prng.next_below(metric.n()));
    HopRun run;
    try {
      run = execute_hops(metric, scheme, src, dest_key_of(dst));
    } catch (const std::exception& e) {
      report.expect(false, "runtime", "execution",
                    scheme.name() + fmt(" %u -> %u threw: %s", src, dst,
                                        e.what()));
      continue;
    }
    report.merge(audit_hop_run(metric, run, src, dst, scheme.name(), options));
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_stretch_certificate — routed cost vs Dijkstra ground truth
// ---------------------------------------------------------------------------

Report audit_stretch_certificate(const MetricSpace& metric,
                                 const std::string& scheme_name,
                                 const std::function<RouteResult(NodeId, NodeId)>& route,
                                 double epsilon, const StretchCeiling& ceiling,
                                 const Options& options) {
  static constexpr char kName[] = "stretch";
  Report report;
  Prng prng = Prng::split(options.seed, 0x88);
  const double bound = ceiling.bound(epsilon);
  for (std::size_t trial = 0; trial < options.sample_pairs; ++trial) {
    const NodeId src = static_cast<NodeId>(prng.next_below(metric.n()));
    const NodeId dst = static_cast<NodeId>(prng.next_below(metric.n()));
    const std::string tag = scheme_name + fmt(" %u -> %u", src, dst);
    RouteResult result;
    try {
      result = route(src, dst);
    } catch (const std::exception& e) {
      report.expect(false, kName, "route", tag + fmt(" threw: %s", e.what()));
      continue;
    }
    report.expect(result.delivered, kName, "delivery", tag + ": undelivered");
    report.expect(!result.path.empty() && result.path.front() == src &&
                      result.path.back() == dst,
                  kName, "path-endpoints", tag + ": wrong walk endpoints");
    // The self-reported cost must equal the metric cost of the walk — a
    // scheme may not under-bill its own movement.
    const Weight walk = path_cost(metric, result.path);
    report.expect(std::abs(result.cost - walk) <=
                      options.slack * std::max<Weight>(1, walk),
                  kName, "cost-honest",
                  tag + fmt(": reported %.6g, walk costs %.6g", result.cost,
                            walk));
    const Weight optimal = metric.dist(src, dst);
    if (src == dst) {
      report.expect(result.cost <= options.slack, kName, "self-route",
                    tag + fmt(": cost %.6g routing to itself", result.cost));
    } else {
      report.expect(result.cost <= bound * optimal + options.slack, kName,
                    "stretch-ceiling",
                    tag + fmt(": cost %.6g > %.3f × d = %.6g", result.cost,
                              bound, bound * optimal));
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_ring_tables — labeled ring state vs the hierarchy
// ---------------------------------------------------------------------------

Report audit_ring_tables(const MetricSpace& metric, const HierarchyView& view,
                         const HierarchicalLabeledScheme& hier,
                         const ScaleFreeLabeledScheme& scale_free,
                         const Options& options) {
  static constexpr char kName[] = "ring_tables";
  Report report;
  Prng prng = Prng::split(options.seed, 0x99);
  std::vector<std::vector<NodeId>> nets(view.top_level + 1);
  for (int level = 0; level <= view.top_level; ++level) nets[level] = view.net(level);

  const auto check_entry = [&](const char* scheme, NodeId u, int level,
                               NodeId x, const LeafRange& range,
                               NodeId next_hop) {
    report.expect(level <= view.top_level && contains_sorted(nets[level], x),
                  kName, "ring-point-in-net",
                  fmt("%s: node %u level %d ring holds %u ∉ Y_%d", scheme, u,
                      level, x, level));
    const LeafRange truth = view.range(level, x);
    report.expect(range.lo == truth.lo && range.hi == truth.hi, kName,
                  "ring-range",
                  fmt("%s: node %u entry for %u carries [%u, %u], hierarchy "
                      "says [%u, %u]",
                      scheme, u, x, range.lo, range.hi, truth.lo, truth.hi));
    const bool self = next_hop == u;
    report.expect(
        self || metric.graph().edge_weight(u, next_hop) < kInfiniteWeight,
        kName, "ring-next-hop",
        fmt("%s: node %u next hop %u toward %u is not a neighbor", scheme, u,
            next_hop, x));
  };

  for (NodeId u : sampled_nodes(metric.n(), options.sample_nodes, prng)) {
    const auto& rings = hier.rings(u);
    for (int level = 0; level < static_cast<int>(rings.size()); ++level) {
      for (const auto& entry : rings[level]) {
        check_entry("hierarchical", u, level, entry.x, entry.range,
                    entry.next_hop);
      }
    }
    const auto& levels = scale_free.level_set(u);
    const auto& sf_rings = scale_free.rings(u);
    report.expect(sf_rings.size() == levels.size(), kName, "ring-level-set",
                  fmt("scale-free: node %u has %zu rings for %zu levels", u,
                      sf_rings.size(), levels.size()));
    for (std::size_t k = 0; k < sf_rings.size() && k < levels.size(); ++k) {
      for (const auto& entry : sf_rings[k]) {
        check_entry("scale-free", u, levels[k], entry.x, entry.range,
                    entry.next_hop);
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// audit_all — the whole battery
// ---------------------------------------------------------------------------

Report audit_all(const MetricSpace& metric, const NetHierarchy& hierarchy,
                 const Naming& naming, const HierarchicalLabeledScheme& hier,
                 const ScaleFreeLabeledScheme& scale_free,
                 const SimpleNameIndependentScheme& simple,
                 const ScaleFreeNameIndependentScheme& scale_free_ni,
                 double epsilon, const Options& options) {
  Report report;
  const HierarchyView view = HierarchyView::of(hierarchy);
  report.merge(audit_rnet(metric, view, options));
  report.merge(audit_netting_tree(metric, view, options));
  report.merge(audit_dfs_ranges(metric, view, options));
  report.merge(audit_ring_tables(metric, view, hier, scale_free, options));

  // Packings: audit the scheme's own ℬ_j at the extremes and the middle.
  const int max_j = scale_free_ni.max_exponent();
  std::vector<int> exponents = {1, max_j / 2, max_j};
  std::sort(exponents.begin(), exponents.end());
  exponents.erase(std::unique(exponents.begin(), exponents.end()),
                  exponents.end());
  for (int j : exponents) {
    if (j < 0 || j > max_j) continue;
    report.merge(audit_ball_packing(
        metric, PackingView::of(scale_free_ni.packing(j)), options));
  }

  // Search trees: the simple scheme's live dictionaries at sampled levels.
  {
    Prng prng = Prng::split(options.seed, 0xAA);
    std::size_t audited = 0;
    for (int level = 1; level <= hierarchy.top_level() && audited < 6; ++level) {
      const auto& net = hierarchy.net(level);
      if (net.empty()) continue;
      const NodeId anchor = net[prng.next_below(net.size())];
      report.merge(audit_search_tree(metric, simple.level_tree(level, anchor),
                                     simple.epsilon(), options));
      ++audited;
    }
  }

  report.merge(audit_codec(metric, hier, options));

  report.merge(audit_runtime(
      metric, HierarchicalHopScheme(hier),
      [&hier](NodeId v) { return hier.label(v); }, options));
  report.merge(audit_runtime(
      metric, ScaleFreeHopScheme(scale_free),
      [&scale_free](NodeId v) { return scale_free.label(v); }, options));
  report.merge(audit_runtime(
      metric, SimpleNameIndependentHopScheme(simple, hier),
      [&naming](NodeId v) { return naming.name_of(v); }, options));
  report.merge(audit_runtime(
      metric, ScaleFreeNameIndependentHopScheme(scale_free_ni, scale_free),
      [&naming](NodeId v) { return naming.name_of(v); }, options));

  report.merge(audit_stretch_certificate(
      metric, hier.name(),
      [&hier](NodeId src, NodeId dst) { return hier.route(src, hier.label(dst)); },
      epsilon, StretchCeiling::labeled(), options));
  report.merge(audit_stretch_certificate(
      metric, scale_free.name(),
      [&scale_free](NodeId src, NodeId dst) {
        return scale_free.route(src, scale_free.label(dst));
      },
      epsilon, StretchCeiling::labeled(), options));
  report.merge(audit_stretch_certificate(
      metric, simple.name(),
      [&simple, &naming](NodeId src, NodeId dst) {
        return simple.route(src, naming.name_of(dst));
      },
      epsilon, StretchCeiling::name_independent(), options));
  report.merge(audit_stretch_certificate(
      metric, scale_free_ni.name(),
      [&scale_free_ni, &naming](NodeId src, NodeId dst) {
        return scale_free_ni.route(src, naming.name_of(dst));
      },
      epsilon, StretchCeiling::name_independent(), options));
  return report;
}

}  // namespace compactroute::audit
