#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "routing/simulator.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_scheme.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"
#include "test_util.hpp"

namespace compactroute {
namespace {

using testing::small_graph_zoo;

struct Fixture {
  explicit Fixture(const Graph& graph, double eps = 0.5)
      : metric(graph),
        hierarchy(metric),
        naming(Naming::random(metric.n(), 31)),
        hier(metric, hierarchy, eps),
        sf(metric, hierarchy, eps),
        simple(metric, hierarchy, naming, hier, eps),
        sfni(metric, hierarchy, naming, sf, eps) {}
  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  HierarchicalLabeledScheme hier;
  ScaleFreeLabeledScheme sf;
  SimpleNameIndependentScheme simple;
  ScaleFreeNameIndependentScheme sfni;
};

void expect_edge_path(const MetricSpace& metric, const Path& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    ASSERT_LT(metric.graph().edge_weight(path[i - 1], path[i]), kInfiniteWeight)
        << "hop " << i << " is not a graph edge";
  }
}

// Parameters below kSmallEpsilonCase index the zoo at ε = 0.5; the same
// graphs re-run at ε = 0.1 under kSmallEpsilonCase + index, where the
// scale-free walk's distance test is live (its threshold is 0 at ε = 0.5),
// so a scheme and a stepper that disagree on it cannot both pass.
constexpr int kSmallEpsilonCase = 100;

class HopZooTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    const auto zoo = small_graph_zoo();
    const int index = GetParam() % kSmallEpsilonCase;
    const double eps = GetParam() >= kSmallEpsilonCase ? 0.1 : 0.5;
    graph_name_ = zoo[index].name;
    fixture_ = std::make_unique<Fixture>(zoo[index].graph, eps);
  }
  std::string graph_name_;
  std::unique_ptr<Fixture> fixture_;
};

TEST_P(HopZooTest, HierarchicalHopMatchesMonolithicRoute) {
  SCOPED_TRACE(graph_name_);
  const HierarchicalHopScheme hop(fixture_->hier);
  Prng prng(1);
  for (int trial = 0; trial < 150; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const HopRun run =
        execute_hops(fixture_->metric, hop, u, fixture_->hier.label(v));
    ASSERT_TRUE(run.delivered);
    expect_edge_path(fixture_->metric, run.path);
    const RouteResult reference = fixture_->hier.route(u, fixture_->hier.label(v));
    EXPECT_EQ(run.path, reference.path)
        << "hop-by-hop must replay the monolithic walk exactly";
  }
}

TEST_P(HopZooTest, ScaleFreeHopDeliversWithGraphEdgesOnly) {
  SCOPED_TRACE(graph_name_);
  const ScaleFreeHopScheme hop(fixture_->sf);
  Prng prng(2);
  for (int trial = 0; trial < 120; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const HopRun run = execute_hops(fixture_->metric, hop, u, fixture_->sf.label(v));
    ASSERT_TRUE(run.delivered);
    ASSERT_EQ(run.path.back(), v);
    expect_edge_path(fixture_->metric, run.path);

    // The monolithic route charges virtual search edges at metric distance;
    // the hop run expands them along canonical shortest paths. The physical
    // expansion can only be cheaper: a relay that IS the destination delivers
    // immediately even mid-chain, which the virtual-edge abstraction jumps
    // over. So: never more expensive, and never below the true distance.
    const RouteResult reference = fixture_->sf.route(u, fixture_->sf.label(v));
    EXPECT_LE(run.cost, reference.cost + 1e-6 * (1 + reference.cost));
    EXPECT_GE(run.cost + 1e-9, fixture_->metric.dist(u, v));
  }
}

TEST_P(HopZooTest, SimpleNameIndependentHopDelivers) {
  SCOPED_TRACE(graph_name_);
  const SimpleNameIndependentHopScheme hop(fixture_->simple, fixture_->hier);
  Prng prng(3);
  for (int trial = 0; trial < 80; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const HopRun run =
        execute_hops(fixture_->metric, hop, u, fixture_->naming.name_of(v));
    ASSERT_TRUE(run.delivered);
    ASSERT_EQ(run.path.back(), v);
    expect_edge_path(fixture_->metric, run.path);

    const RouteResult reference =
        fixture_->simple.route(u, fixture_->naming.name_of(v));
    EXPECT_NEAR(run.cost, reference.cost, 1e-6 * (1 + reference.cost));
  }
}

TEST_P(HopZooTest, ScaleFreeNameIndependentHopDelivers) {
  SCOPED_TRACE(graph_name_);
  const ScaleFreeNameIndependentHopScheme hop(fixture_->sfni, fixture_->sf);
  Prng prng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(fixture_->metric.n()));
    const HopRun run =
        execute_hops(fixture_->metric, hop, u, fixture_->naming.name_of(v));
    ASSERT_TRUE(run.delivered);
    ASSERT_EQ(run.path.back(), v);
    expect_edge_path(fixture_->metric, run.path);

    // The physical expansion may deliver early when a chain passes through
    // the destination; it can never be more expensive than the monolithic
    // route, and never beats the true distance.
    const RouteResult reference =
        fixture_->sfni.route(u, fixture_->naming.name_of(v));
    EXPECT_LE(run.cost, reference.cost + 1e-6 * (1 + reference.cost));
    if (u != v) {
      EXPECT_GE(run.cost + 1e-9, fixture_->metric.dist(u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, HopZooTest, ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return testing::small_graph_zoo()[info.param].name;
                         });
INSTANTIATE_TEST_SUITE_P(
    ZooSmallEpsilon, HopZooTest,
    ::testing::Range(kSmallEpsilonCase, kSmallEpsilonCase + 12),
    [](const ::testing::TestParamInfo<int>& info) {
      return testing::small_graph_zoo()[info.param - kSmallEpsilonCase].name;
    });

// The campaign's smallest stretch-ceiling failure at ε = 0.1 (labeled
// scale-free, every walk handed off with no density gap to use): on the
// 4×4 grid, R(u) holds every level, so every route must take the
// hierarchical scheme's steps and stay within the labeled ceiling 1 + 20ε
// (audit::StretchCeiling::labeled), in the scheme and in the served stepper.
TEST(HopRuntime, ScaleFreeWalkHandsOffOnlyAtADensityGap) {
  const double eps = 0.1;
  const Fixture f(make_grid(4, 4), eps);
  const ScaleFreeHopScheme hop(f.sf);
  const double ceiling = 1 + 20 * eps;
  for (NodeId u = 0; u < f.metric.n(); ++u) {
    for (NodeId v = 0; v < f.metric.n(); ++v) {
      if (u == v) continue;
      const Weight d = f.metric.dist(u, v);
      const RouteResult route = f.sf.route(u, f.sf.label(v));
      ASSERT_TRUE(route.delivered);
      EXPECT_LE(route.cost, ceiling * d + 1e-9) << u << " -> " << v;
      const HopRun run = execute_hops(f.metric, hop, u, f.sf.label(v));
      ASSERT_TRUE(run.delivered);
      EXPECT_LE(run.cost, route.cost + 1e-9) << u << " -> " << v;
      EXPECT_LE(run.cost, ceiling * d + 1e-9) << u << " -> " << v;
    }
  }
}

TEST(HopRuntime, HeaderBitsStayPolylog) {
  const Fixture f(make_random_geometric(120, 2, 4, 61));
  const ScaleFreeHopScheme sf_hop(f.sf);
  const SimpleNameIndependentHopScheme ni_hop(f.simple, f.hier);
  Prng prng(4);
  std::size_t worst_sf = 0, worst_ni = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(f.metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(f.metric.n()));
    worst_sf = std::max(
        worst_sf, execute_hops(f.metric, sf_hop, u, f.sf.label(v)).max_header_bits);
    worst_ni = std::max(
        worst_ni,
        execute_hops(f.metric, ni_hop, u, f.naming.name_of(v)).max_header_bits);
  }
  const double log_n = std::log2(static_cast<double>(f.metric.n()));
  EXPECT_LE(worst_sf, static_cast<std::size_t>(12 * log_n * log_n));
  EXPECT_LE(worst_ni, static_cast<std::size_t>(12 * log_n * log_n));
}

TEST(HopRuntime, WalkCostMatchesStretchBound) {
  // End-to-end stretch measured on the strict executor (not just on the
  // monolithic simulator): the paper's guarantees must survive the honest
  // forwarding model.
  const Fixture f(make_random_geometric(150, 2, 5, 71), 0.25);
  const ScaleFreeHopScheme hop(f.sf);
  Prng prng(5);
  double worst = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(f.metric.n()));
    NodeId v = static_cast<NodeId>(prng.next_below(f.metric.n() - 1));
    if (v >= u) ++v;
    const HopRun run = execute_hops(f.metric, hop, u, f.sf.label(v));
    ASSERT_TRUE(run.delivered);
    worst = std::max(worst, run.cost / f.metric.dist(u, v));
  }
  EXPECT_LE(worst, 1.0 + 40 * 0.25);
}

TEST(HopRuntime, ExecutorRejectsNonNeighborForwarding) {
  // A hostile scheme that teleports must be caught by the executor.
  class Teleporter final : public HopScheme {
   public:
    std::string name() const override { return "teleporter"; }
    HopHeader make_header(NodeId, std::uint64_t dest) const override {
      HopHeader h;
      h.dest = dest;
      return h;
    }
    bool step(NodeId at, HopHeader& h, NodeId* next) const override {
      // Delivers on arrival, so only the locality check can reject the walk.
      if (at == h.dest) return true;
      *next = static_cast<NodeId>(h.dest);  // jump straight to the target
      return false;
    }
  };
  const MetricSpace metric(make_path(16));
  const Teleporter scheme;
  EXPECT_THROW(execute_hops(metric, scheme, 0, 15), InvariantError);
  EXPECT_THROW(serve_one(metric.csr(), scheme, ServeRequest{0, 15},
                         default_hop_budget(metric.n()), nullptr),
               InvariantError);
}

TEST(HopRuntime, ExecutorEnforcesHopBudget) {
  class Bouncer final : public HopScheme {
   public:
    std::string name() const override { return "bouncer"; }
    HopHeader make_header(NodeId, std::uint64_t dest) const override {
      HopHeader h;
      h.dest = dest;
      return h;
    }
    bool step(NodeId at, HopHeader& /*h*/, NodeId* next) const override {
      *next = at == 0 ? 1 : 0;
      return false;
    }
  };
  const MetricSpace metric(make_path(8));
  const Bouncer scheme;
  EXPECT_THROW(execute_hops(metric, scheme, 0, 7, /*max_hops=*/50),
               InvariantError);
  EXPECT_THROW(serve_one(metric.csr(), scheme, ServeRequest{0, 7},
                         /*max_hops=*/50, nullptr),
               InvariantError);
}

// The two entry points of the one hop loop must agree route for route:
// serve_one's hop count is execute_hops' path length, and its fingerprint
// is the exported route fold over execute_hops' path.
void expect_serve_one_matches_execute_hops(
    const MetricSpace& metric, const HopScheme& scheme,
    const std::function<std::uint64_t(NodeId)>& dest_key_of) {
  const std::size_t budget = default_hop_budget(metric.n());
  for (NodeId u = 0; u < metric.n(); ++u) {
    for (NodeId v = 0; v < metric.n(); v += 3) {
      const std::uint64_t key = dest_key_of(v);
      const HopRun run = execute_hops(metric, scheme, u, key);
      std::size_t hops = 0;
      const std::uint64_t fp =
          serve_one(metric.csr(), scheme, ServeRequest{u, key}, budget, &hops);
      SCOPED_TRACE(scheme.name() + " " + std::to_string(u) + " -> " +
                   std::to_string(v));
      ASSERT_EQ(hops, run.path.size() - 1);
      RouteFingerprint fold(u, key);
      for (std::size_t i = 1; i < run.path.size(); ++i) fold.visit(run.path[i]);
      ASSERT_EQ(fp, fold.value);
    }
  }
}

// Folds, over the same pairs, every hop's (phase tag, metered header bits)
// and each run's max_header_bits. Route fingerprints pin only the node
// sequence; this pins what the header says along the way. It walks with
// walk_hops directly so the digest does not depend on trace collection
// (CR_OBS_DISABLED builds record no trace hops).
std::uint64_t phase_header_digest(
    const MetricSpace& metric, const HopScheme& scheme,
    const std::function<std::uint64_t(NodeId)>& dest_key_of) {
  const std::size_t budget = default_hop_budget(metric.n());
  const std::size_t n = metric.n();
  const int levels = metric.num_levels();
  std::uint64_t digest = 0;
  const auto fold = [&digest](std::uint64_t x) {
    digest = (digest ^ x) * RouteFingerprint::kPrime;
  };
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; v += 3) {
      HopHeader header = scheme.make_header(u, dest_key_of(v));
      std::size_t max_bits = header.encoded_bits(n, levels);
      walk_hops(metric.csr(), scheme, header, u, budget,
                [&](NodeId, NodeId, const HopHeader& h) {
                  const std::size_t bits = h.encoded_bits(n, levels);
                  max_bits = std::max(max_bits, bits);
                  fold(static_cast<std::uint64_t>(scheme.phase_of(h)));
                  fold(bits);
                });
      fold(max_bits);
    }
  }
  return digest;
}

TEST(HopRuntime, ServeOneAgreesWithExecuteHops) {
  const std::pair<Graph, double> cases[] = {
      {make_grid(8, 8), 0.5}, {make_exponential_spider(16, 4), 0.25}};
  // Per case: {simple NI, scale-free NI} phase/header digests.
  const std::uint64_t expected_ni_digests[][2] = {
      {0x98f991da5b7acf76ULL, 0x593aeaf0db47db68ULL},
      {0xecc3420a14dc75f2ULL, 0x578886d7faedc6f4ULL},
  };
  std::size_t c = 0;
  for (const auto& [graph, eps] : cases) {
    const Fixture f(graph, eps);
    const auto label = [&f](NodeId v) { return f.hier.label(v); };
    const auto sf_label = [&f](NodeId v) { return f.sf.label(v); };
    const auto name = [&f](NodeId v) { return f.naming.name_of(v); };
    expect_serve_one_matches_execute_hops(f.metric, HierarchicalHopScheme(f.hier),
                                          label);
    expect_serve_one_matches_execute_hops(f.metric, ScaleFreeHopScheme(f.sf),
                                          sf_label);
    const SimpleNameIndependentHopScheme simple(f.simple, f.hier);
    const ScaleFreeNameIndependentHopScheme sfni(f.sfni, f.sf);
    expect_serve_one_matches_execute_hops(f.metric, simple, name);
    expect_serve_one_matches_execute_hops(f.metric, sfni, name);
    EXPECT_EQ(phase_header_digest(f.metric, simple, name),
              expected_ni_digests[c][0])
        << "simple NI phase/header digest, case " << c;
    EXPECT_EQ(phase_header_digest(f.metric, sfni, name),
              expected_ni_digests[c][1])
        << "scale-free NI phase/header digest, case " << c;
    ++c;
  }
}

TEST(HopRuntime, ScaleFreeNameIndependentOnDeepSpider) {
  // The full Theorem 1.1 stack, hop by hop, on a log Delta >> log n instance
  // where searches are delegated to packed-ball trees.
  const Fixture f(make_exponential_spider(16, 4), 0.5);
  const ScaleFreeNameIndependentHopScheme hop(f.sfni, f.sf);
  Prng prng(8);
  for (int trial = 0; trial < 120; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(f.metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(f.metric.n()));
    const HopRun run = execute_hops(f.metric, hop, u, f.naming.name_of(v));
    ASSERT_TRUE(run.delivered);
    ASSERT_EQ(run.path.back(), v);
  }
}

TEST(HopRuntime, NestedHeaderBitsAreAccounted) {
  const Fixture f(make_random_geometric(100, 2, 4, 91));
  const ScaleFreeNameIndependentHopScheme hop(f.sfni, f.sf);
  Prng prng(9);
  const NodeId u = 3, v = 77;
  const HopRun run = execute_hops(f.metric, hop, u, f.naming.name_of(v));
  ASSERT_TRUE(run.delivered);
  // The layered header must cost more than a bare one but stay polylog.
  HopHeader bare;
  EXPECT_GT(run.max_header_bits,
            bare.encoded_bits(f.metric.n(), f.metric.num_levels()));
  const double log_n = std::log2(static_cast<double>(f.metric.n()));
  EXPECT_LE(run.max_header_bits, static_cast<std::size_t>(20 * log_n * log_n));
}

TEST(HopRuntime, DeepSpiderExercisesHandoffPhases) {
  // log Delta >> log n: the scale-free hop machine must traverse its
  // TO_CENTER / SEARCH / RETURN / TO_DEST phases and still deliver.
  const Fixture f(make_exponential_spider(20, 4), 0.25);
  const ScaleFreeHopScheme hop(f.sf);
  Prng prng(6);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(f.metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(f.metric.n()));
    const HopRun run = execute_hops(f.metric, hop, u, f.sf.label(v));
    ASSERT_TRUE(run.delivered);
    ASSERT_EQ(run.path.back(), v);
  }
}

// sort_dispatch_keys (counting pass on the scheme, LSD radix on the
// destination key, std::sort below kDispatchRadixMin) must give exactly the
// comparison sort's (scheme, dest_key, item) order on every key shape a
// wave carries, on both sides of the radix threshold.
TEST(ServeDispatch, OrderEqualsComparisonSort) {
  enum class Shape { kLabels, kNames, kZipf, kWave };
  const auto draw = [](Shape shape, std::uint8_t scheme,
                       Prng& prng) -> std::uint64_t {
    switch (shape) {
      case Shape::kLabels:  // leaf labels of a graph below 2^11 nodes
        return prng.next_below(std::uint64_t{1} << 11);
      case Shape::kNames:  // full 64-bit names
        return prng.next_u64();
      case Shape::kZipf: {
        // Zipf(1) ranks over 1024 destinations: P(k) ~ 1/k, heavy
        // duplicates, each rank spread over all 64 bits.
        const auto rank = static_cast<std::uint64_t>(
            std::exp(prng.next_double() * std::log(1024.0)));
        return rank * 0x9e3779b97f4a7c15ULL;
      }
      case Shape::kWave:  // a Server wave: labels for labeled schemes,
                          // names for NI schemes
        return scheme < 2 ? prng.next_below(1024) : prng.next_u64();
    }
    return std::uint64_t{0};
  };
  const auto as_tuple = [](const DispatchKey& k) {
    return std::make_tuple(k.scheme, k.dest_key, k.item);
  };
  for (const std::size_t size : {0u, 1u, 255u, 256u, 6144u}) {
    for (const Shape shape :
         {Shape::kLabels, Shape::kNames, Shape::kZipf, Shape::kWave}) {
      for (const std::uint8_t schemes : {1, 4}) {
        Prng prng(1000 * size + 10 * static_cast<int>(shape) + schemes);
        std::vector<DispatchKey> keys(size);
        for (std::size_t i = 0; i < size; ++i) {
          keys[i].scheme = static_cast<std::uint8_t>(prng.next_below(schemes));
          keys[i].dest_key = draw(shape, keys[i].scheme, prng);
          keys[i].item = i;
        }
        std::vector<DispatchKey> want = keys;
        std::sort(want.begin(), want.end());
        sort_dispatch_keys(keys);
        ASSERT_EQ(keys.size(), want.size());
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_EQ(as_tuple(keys[i]), as_tuple(want[i]))
              << "size " << size << ", shape " << static_cast<int>(shape)
              << ", " << int{schemes} << " scheme(s), position " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace compactroute
