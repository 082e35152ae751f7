#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "audit/campaign.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/ball_packing.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "search/search_tree.hpp"

namespace compactroute {
namespace {

using audit::HierarchyView;
using audit::Options;
using audit::PackingView;
using audit::Report;

bool has_invariant(const Report& report, const std::string& invariant) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const audit::Issue& issue) {
                       return issue.invariant == invariant;
                     });
}

bool has_invariant_prefix(const Report& report, const std::string& prefix) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const audit::Issue& issue) {
                       return issue.invariant.compare(0, prefix.size(),
                                                      prefix) == 0;
                     });
}

// Shared stack over a 7x7 grid — every auditor's clean pass and every
// mutation test runs against the same known-good structures.
struct Stack {
  Graph graph = make_grid(7, 7);
  MetricSpace metric{graph};
  NetHierarchy hierarchy{metric};
  Naming naming = Naming::random(metric.n(), 4242);
  double epsilon = 0.5;
  HierarchicalLabeledScheme hier{metric, hierarchy, epsilon};
  ScaleFreeLabeledScheme sf{metric, hierarchy, epsilon};
  SimpleNameIndependentScheme simple{metric, hierarchy, naming, hier, epsilon};
  ScaleFreeNameIndependentScheme sfni{metric, hierarchy, naming, sf, epsilon};
};

Stack& stack() {
  static Stack s;
  return s;
}

Options opts() {
  Options o;
  o.seed = 7;
  return o;
}

// ---------------------------------------------------------------------------
// Clean passes: the auditors accept the real construction.
// ---------------------------------------------------------------------------

TEST(Audit, CleanGridStackPassesFullBattery) {
  Stack& s = stack();
  const Report report =
      audit::audit_all(s.metric, s.hierarchy, s.naming, s.hier, s.sf, s.simple,
                       s.sfni, s.epsilon, opts());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.checks, 10000u);
}

TEST(Audit, CleanSpiderStackPassesFullBattery) {
  const Graph graph = make_exponential_spider(6, 5);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::random(metric.n(), 99);
  const HierarchicalLabeledScheme hier(metric, hierarchy, 0.5);
  const ScaleFreeLabeledScheme sf(metric, hierarchy, 0.5);
  const SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier, 0.5);
  const ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf, 0.5);
  const Report report = audit::audit_all(metric, hierarchy, naming, hier, sf,
                                         simple, sfni, 0.5, opts());
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Mutation tests: each injects one deliberate defect through a wrapped view
// (or hook) and asserts the matching auditor reports it. If any of these
// stops failing, the checker has gone blind.
// ---------------------------------------------------------------------------

// Defect 1: a Y_{i+1} point missing from Y_i — Definition 2.1 nestedness.
TEST(AuditMutation, RnetCatchesDroppedNetPoint) {
  Stack& s = stack();
  HierarchyView view = HierarchyView::of(s.hierarchy);
  ASSERT_GE(view.top_level, 2);
  const NodeId root = s.hierarchy.net(view.top_level).front();
  const auto base_net = view.net;
  view.net = [base_net, root](int level) {
    std::vector<NodeId> net = base_net(level);
    if (level == 1) net.erase(std::find(net.begin(), net.end(), root));
    return net;
  };
  const Report report = audit_rnet(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "nestedness")) << report.summary();
}

// Defect 2: two Y_i points closer than 2^i — Definition 2.1 separation.
TEST(AuditMutation, RnetCatchesSeparationViolation) {
  Stack& s = stack();
  HierarchyView view = HierarchyView::of(s.hierarchy);
  const int level = view.top_level - 1;
  ASSERT_GE(level, 1);
  const NodeId anchor = s.hierarchy.net(level).front();
  // The anchor's grid neighbor is at distance 1 < 2^level.
  const NodeId intruder = s.metric.graph().neighbors(anchor)[0].to;
  const auto base_net = view.net;
  view.net = [base_net, level, intruder](int l) {
    std::vector<NodeId> net = base_net(l);
    if (l == level && std::find(net.begin(), net.end(), intruder) == net.end()) {
      net.insert(std::lower_bound(net.begin(), net.end(), intruder), intruder);
    }
    return net;
  };
  const Report report = audit_rnet(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "separation")) << report.summary();
}

// Defect 3: a netting parent that is not the nearest Y_{i+1} point — Eqn (1).
TEST(AuditMutation, NettingTreeCatchesWrongParent) {
  Stack& s = stack();
  HierarchyView view = HierarchyView::of(s.hierarchy);
  const std::vector<NodeId> upper = s.hierarchy.net(1);
  ASSERT_GE(upper.size(), 2u);
  const auto base_parent = view.parent;
  view.parent = [&s, base_parent, upper](int level, NodeId x) {
    const NodeId real = base_parent(level, x);
    if (level != 0) return real;
    // Swap in the farthest Y_1 point instead of the nearest.
    NodeId worst = real;
    Weight worst_d = -1;
    const auto row = s.metric.row(x);
    for (NodeId y : upper) {
      if (row.dist(y) > worst_d) {
        worst_d = row.dist(y);
        worst = y;
      }
    }
    return worst;
  };
  const Report report = audit_netting_tree(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "parent-nearest")) << report.summary();
}

// Defect 4: a zoom chain pointing at the wrong net point — Eqn (2).
TEST(AuditMutation, NettingTreeCatchesBrokenZoomChain) {
  Stack& s = stack();
  HierarchyView view = HierarchyView::of(s.hierarchy);
  const std::vector<NodeId> y1 = s.hierarchy.net(1);
  ASSERT_GE(y1.size(), 2u);
  const auto base_zoom = view.zoom;
  view.zoom = [&s, base_zoom, y1](int level, NodeId u) {
    const NodeId real = base_zoom(level, u);
    if (level != 1) return real;
    // Redirect u(1) to the Y_1 point farthest from u.
    NodeId worst = real;
    Weight worst_d = -1;
    const auto row = s.metric.row(u);
    for (NodeId y : y1) {
      if (row.dist(y) > worst_d) {
        worst_d = row.dist(y);
        worst = y;
      }
    }
    return worst;
  };
  const Report report = audit_netting_tree(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant_prefix(report, "zoom")) << report.summary();
}

// Defect 5: a widened DFS range — the level partition overlaps (Section 4.1).
TEST(AuditMutation, DfsCatchesWidenedRange) {
  Stack& s = stack();
  HierarchyView view = HierarchyView::of(s.hierarchy);
  const NodeId last = static_cast<NodeId>(s.metric.n() - 1);
  const auto base_range = view.range;
  view.range = [base_range, last](int level, NodeId x) {
    LeafRange range = base_range(level, x);
    if (level == 0 && range.lo == 0) {
      range.hi = std::min<NodeId>(range.hi + 1, last);
    }
    return range;
  };
  const Report report = audit_dfs_ranges(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "range-partition")) << report.summary();
}

// Defect 6: two leaves sharing a DFS label — l is no longer a bijection.
TEST(AuditMutation, DfsCatchesLabelCollision) {
  Stack& s = stack();
  HierarchyView view = HierarchyView::of(s.hierarchy);
  const auto base_label = view.leaf_label;
  view.leaf_label = [base_label](NodeId v) {
    return v == 1 ? base_label(0) : base_label(v);
  };
  const Report report = audit_dfs_ranges(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "label-unique") ||
              has_invariant(report, "label-inverse"))
      << report.summary();
}

// Defect 7: a node claimed by two packed balls — Lemma 2.3 disjointness.
TEST(AuditMutation, PackingCatchesDuplicateMember) {
  Stack& s = stack();
  const BallPacking& packing = s.metric.scale_free_substrate().packing(2);
  ASSERT_GE(packing.balls().size(), 2u);
  PackingView view = PackingView::of(packing);
  const auto base_balls = view.balls;
  view.balls = [base_balls]() {
    std::vector<PackedBall> balls = base_balls();
    balls[1].nodes.push_back(balls[0].nodes.front());
    return balls;
  };
  const Report report = audit_ball_packing(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "disjointness")) << report.summary();
}

// Defect 8: a packed ball below its 2^j size floor — Lemma 2.3 ball size.
TEST(AuditMutation, PackingCatchesUndersizedBall) {
  Stack& s = stack();
  const BallPacking& packing = s.metric.scale_free_substrate().packing(2);
  PackingView view = PackingView::of(packing);
  const auto base_balls = view.balls;
  view.balls = [base_balls]() {
    std::vector<PackedBall> balls = base_balls();
    balls[0].nodes.resize(1);  // 1 < 2^2
    return balls;
  };
  const Report report = audit_ball_packing(s.metric, view, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "ball-size")) << report.summary();
}

// Defect 9: a flipped bit on the encoded wire table — the codec round-trip
// (decode comparison or bit-exact re-encode) must notice.
TEST(AuditMutation, CodecCatchesTamperedBytes) {
  Stack& s = stack();
  const Report clean = audit_codec(s.metric, s.hier, opts());
  EXPECT_TRUE(clean.ok()) << clean.summary();
  const Report report = audit_codec(
      s.metric, s.hier, opts(),
      [](NodeId, std::vector<std::uint8_t>& bytes) {
        if (!bytes.empty()) bytes.back() ^= 0x80;
      });
  EXPECT_FALSE(report.ok());
}

// Defect 10: the executor's header meter under-reports — the metering
// invariant max >= initial (and == the per-hop trace) must notice.
TEST(AuditMutation, HopRunCatchesHeaderMeterUnderReport) {
  Stack& s = stack();
  const HierarchicalHopScheme hop(s.hier);
  HopRun run = execute_hops(s.metric, hop, 0, s.hier.label(48));
  run.max_header_bits = 0;
  const Report report =
      audit_hop_run(s.metric, run, 0, 48, hop.name(), opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "header-bit-metering")) << report.summary();
}

// Defect 11: the run's accumulated cost disagrees with its own path.
TEST(AuditMutation, HopRunCatchesCostMisreport) {
  Stack& s = stack();
  const HierarchicalHopScheme hop(s.hier);
  HopRun run = execute_hops(s.metric, hop, 0, s.hier.label(48));
  const Report clean = audit_hop_run(s.metric, run, 0, 48, hop.name(), opts());
  EXPECT_TRUE(clean.ok()) << clean.summary();
  run.cost += 5;
  const Report report = audit_hop_run(s.metric, run, 0, 48, hop.name(), opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "cost-metering")) << report.summary();
}

// Defect 12: a teleport hop — consecutive path nodes with no graph edge.
TEST(AuditMutation, HopRunCatchesTeleportHop) {
  Stack& s = stack();
  const HierarchicalHopScheme hop(s.hier);
  HopRun run = execute_hops(s.metric, hop, 0, s.hier.label(48));
  ASSERT_GE(run.path.size(), 3u);
  run.path[1] = 48;  // grid corners 0 and 48 are not adjacent
  const Report report = audit_hop_run(s.metric, run, 0, 48, hop.name(), opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "hop-locality")) << report.summary();
}

// Defect 13: a stored pair whose key drifted out of its node's declared
// chunk range — the Algorithm 1 placement invariant is broken.
TEST(AuditMutation, SearchTreeCatchesMisplacedStoredPair) {
  Stack& s = stack();
  SearchTree tree(s.metric, 0, s.metric.delta(), 0.5);
  std::vector<std::pair<SearchTree::Key, SearchTree::Data>> pairs;
  for (NodeId v = 0; v < s.metric.n(); ++v) pairs.push_back({v, 7 * v + 1});
  tree.store(std::move(pairs));
  const Report clean = audit_search_tree(s.metric, tree, 0.5, opts());
  EXPECT_TRUE(clean.ok()) << clean.summary();

  auto& chunks = tree.audit_view().chunks();
  for (auto& chunk : chunks) {
    if (!chunk.empty()) {
      chunk.front().first += s.metric.n();  // beyond every stored key
      break;
    }
  }
  const Report report = audit_search_tree(s.metric, tree, 0.5, opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "own-range")) << report.summary();
}

// Defect 14: a shrunken subtree key range — the Algorithm 2 descent can no
// longer reach keys that are really stored below it.
TEST(AuditMutation, SearchTreeCatchesCorruptedSubtreeRange) {
  Stack& s = stack();
  SearchTree tree(s.metric, 0, s.metric.delta(), 0.5);
  std::vector<std::pair<SearchTree::Key, SearchTree::Data>> pairs;
  for (NodeId v = 0; v < s.metric.n(); ++v) pairs.push_back({v, 3 * v + 2});
  tree.store(std::move(pairs));
  auto& ranges = tree.audit_view().subtree_ranges();
  for (std::size_t local = 1; local < ranges.size(); ++local) {
    if (!ranges[local].empty() && ranges[local].lo < ranges[local].hi) {
      ranges[local].hi = ranges[local].lo;  // keys above lo become unreachable
      break;
    }
  }
  const Report report = audit_search_tree(s.metric, tree, 0.5, opts());
  EXPECT_FALSE(report.ok()) << report.summary();
}

// Defect 15: a scheme that lies about its cost — the certificate recomputes
// the walk's metric cost and compares.
TEST(AuditMutation, StretchCertificateCatchesDishonestCost) {
  Stack& s = stack();
  const Report report = audit_stretch_certificate(
      s.metric, "liar",
      [&s](NodeId src, NodeId dst) {
        RouteResult r = s.hier.route(src, s.hier.label(dst));
        r.cost *= 0.5;
        return r;
      },
      s.epsilon, audit::StretchCeiling::labeled(), opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "cost-honest")) << report.summary();
}

// Defect 16: a wasteful walk — honest cost, but far beyond the stretch
// ceiling of the scheme.
TEST(AuditMutation, StretchCertificateCatchesStretchViolation) {
  Stack& s = stack();
  const Report report = audit_stretch_certificate(
      s.metric, "wanderer",
      [&s](NodeId src, NodeId dst) {
        RouteResult r;
        r.delivered = true;
        r.path.push_back(src);
        for (int lap = 0; lap < 10; ++lap) {  // 19 crossings: stretch 19 > 11
          r.path.push_back(dst);
          r.path.push_back(src);
        }
        r.path.push_back(dst);
        r.cost = path_cost(s.metric, r.path);
        return r;
      },
      s.epsilon, audit::StretchCeiling::labeled(), opts());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report, "stretch-ceiling")) << report.summary();
}

// ---------------------------------------------------------------------------
// Campaign driver.
// ---------------------------------------------------------------------------

TEST(Campaign, InjectionNamesRoundTrip) {
  for (const audit::Inject inject :
       {audit::Inject::kNone, audit::Inject::kDropNetPoint,
        audit::Inject::kWidenRange, audit::Inject::kFlipCodecBit,
        audit::Inject::kCorruptHeader}) {
    audit::Inject parsed;
    ASSERT_TRUE(audit::inject_from_string(audit::inject_name(inject), &parsed));
    EXPECT_EQ(parsed, inject);
  }
  audit::Inject parsed;
  EXPECT_FALSE(audit::inject_from_string("no-such-defect", &parsed));
}

TEST(Campaign, InstancesAreDeterministic) {
  for (const std::string& family : audit::campaign_families()) {
    const Graph a = audit::make_campaign_instance(family, 48, 3);
    const Graph b = audit::make_campaign_instance(family, 48, 3);
    ASSERT_EQ(a.num_nodes(), b.num_nodes()) << family;
    ASSERT_EQ(a.num_edges(), b.num_edges()) << family;
    for (NodeId u = 0; u < a.num_nodes(); ++u) {
      ASSERT_EQ(a.neighbors(u).size(), b.neighbors(u).size()) << family;
      for (std::size_t k = 0; k < a.neighbors(u).size(); ++k) {
        ASSERT_EQ(a.neighbors(u)[k].to, b.neighbors(u)[k].to) << family;
        ASSERT_EQ(a.neighbors(u)[k].weight, b.neighbors(u)[k].weight) << family;
      }
    }
  }
}

TEST(Campaign, EveryInjectionShrinksToARedCase) {
  for (const audit::Inject inject :
       {audit::Inject::kDropNetPoint, audit::Inject::kWidenRange,
        audit::Inject::kFlipCodecBit, audit::Inject::kCorruptHeader}) {
    audit::CampaignOptions options;
    options.families = {"grid"};
    options.n_hints = {48};
    options.seeds = {2};
    options.backends = {MetricBackendKind::kDense};
    options.worker_counts = {1};
    options.inject = inject;
    const audit::CampaignResult result = run_campaign(options);
    EXPECT_FALSE(result.ok()) << audit::inject_name(inject);
    ASSERT_TRUE(result.shrunk.found) << audit::inject_name(inject);
    // The ladder starts below the original 48-node hint.
    EXPECT_LE(result.shrunk.config.n_hint, 48u) << audit::inject_name(inject);
    EXPECT_FALSE(result.shrunk.invariant.empty()) << audit::inject_name(inject);
  }
}

}  // namespace
}  // namespace compactroute
