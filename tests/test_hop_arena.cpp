#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/sharded.hpp"
#include "reference_hop.hpp"
#include "routing/naming.hpp"
#include "runtime/hop_arena.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"
#include "test_util.hpp"

// Golden equivalence suite for the serve-time hop arena (DESIGN.md §11):
// the arena runtimes must take byte-identical routes to the reference FSMs
// of tests/reference_hop.hpp, which walk the schemes' nested containers —
// enforced on the serve_batch fingerprint for every scheme, at 1 and 4
// workers, against both a fresh build and a snapshot-reloaded stack sharing
// one arena.

namespace compactroute {
namespace {

constexpr std::size_t kPairs = 400;
constexpr double kEps = 0.5;

struct ArenaFixture {
  explicit ArenaFixture(const Graph& g, double eps = kEps)
      : metric(g),
        hierarchy(metric),
        naming(Naming::random(metric.n(), 47)),
        hier(metric, hierarchy, eps),
        sf(metric, hierarchy, eps),
        simple(metric, hierarchy, naming, hier, eps),
        sfni(metric, hierarchy, naming, sf, eps),
        loaded(decode_snapshot(encode_snapshot(metric, eps, hierarchy, naming,
                                               hier, sf, simple, sfni))),
        shared_arena(loaded.build_arena()) {}

  std::vector<ServeRequest> labeled_requests() const {
    return make_requests(metric.n(), kPairs, 5, [&](NodeId v) {
      return std::uint64_t{hierarchy.leaf_label(v)};
    });
  }
  std::vector<ServeRequest> named_requests() const {
    return make_requests(metric.n(), kPairs, 6,
                         [&](NodeId v) { return naming.name_of(v); });
  }

  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  HierarchicalLabeledScheme hier;
  ScaleFreeLabeledScheme sf;
  SimpleNameIndependentScheme simple;
  ScaleFreeNameIndependentScheme sfni;
  SnapshotStack loaded;
  std::shared_ptr<const HopArena> shared_arena;
};

std::uint64_t fingerprint(const CsrGraph& csr, const HopScheme& scheme,
                          const std::vector<ServeRequest>& requests,
                          std::size_t workers) {
  Executor::global().set_workers(workers);
  ServeOptions options;
  options.collect_latencies = false;
  const ServeStats stats = serve_batch(csr, scheme, requests, options);
  EXPECT_EQ(stats.delivered, requests.size());
  return stats.fingerprint;
}

/// The golden check: arena (fresh, private), arena (snapshot-reloaded,
/// shared), and the reference FSM all produce the same batch fingerprint, at
/// both worker counts.
void expect_golden(const ArenaFixture& f, const HopScheme& arena_fresh,
                   const HopScheme& arena_loaded, const HopScheme& reference,
                   const std::vector<ServeRequest>& requests) {
  const std::uint64_t golden =
      fingerprint(f.metric.csr(), reference, requests, 1);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(fingerprint(f.metric.csr(), arena_fresh, requests, workers),
              golden)
        << "fresh arena diverges at " << workers << " workers";
    EXPECT_EQ(fingerprint(f.loaded.csr, arena_loaded, requests, workers),
              golden)
        << "loaded shared arena diverges at " << workers << " workers";
  }
  EXPECT_EQ(fingerprint(f.metric.csr(), reference, requests, 4), golden)
      << "fingerprint must be worker-count independent";
  Executor::global().set_workers(1);
}

void expect_hierarchical_golden(const ArenaFixture& f) {
  expect_golden(f, HierarchicalHopScheme(f.hier),
                HierarchicalHopScheme(f.shared_arena),
                ReferenceHierarchicalHop(f.hier), f.labeled_requests());
}

void expect_scale_free_golden(const ArenaFixture& f) {
  expect_golden(f, ScaleFreeHopScheme(f.sf), ScaleFreeHopScheme(f.shared_arena),
                ReferenceScaleFreeHop(f.sf), f.labeled_requests());
}

void expect_simple_ni_golden(const ArenaFixture& f) {
  expect_golden(f, SimpleNameIndependentHopScheme(f.simple, f.hier),
                SimpleNameIndependentHopScheme(f.shared_arena),
                ReferenceSimpleNameIndependentHop(f.simple, f.hier),
                f.named_requests());
}

void expect_scale_free_ni_golden(const ArenaFixture& f) {
  expect_golden(f, ScaleFreeNameIndependentHopScheme(f.sfni, f.sf),
                ScaleFreeNameIndependentHopScheme(f.shared_arena),
                ReferenceScaleFreeNameIndependentHop(f.sfni, f.sf),
                f.named_requests());
}

class HopArenaGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new ArenaFixture(make_cluster_hierarchy(3, 4, 10, 91));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static ArenaFixture* fixture_;
};

ArenaFixture* HopArenaGoldenTest::fixture_ = nullptr;

TEST_F(HopArenaGoldenTest, HierarchicalMatchesReference) {
  expect_hierarchical_golden(*fixture_);
}

TEST_F(HopArenaGoldenTest, ScaleFreeMatchesReference) {
  expect_scale_free_golden(*fixture_);
}

TEST_F(HopArenaGoldenTest, SimpleNameIndependentMatchesReference) {
  expect_simple_ni_golden(*fixture_);
}

TEST_F(HopArenaGoldenTest, ScaleFreeNameIndependentMatchesReference) {
  expect_scale_free_ni_golden(*fixture_);
}

// Fresh grid sweeps on the zoo axis the cluster fixture doesn't cover: a
// small 9x7 grid and the n = 512 16x32 grid, every scheme on each.
TEST(HopArenaZooTest, GridGoldenAllSchemes) {
  for (const auto& [rows, cols] : {std::pair{9, 7}, std::pair{16, 32}}) {
    SCOPED_TRACE(::testing::Message() << "grid " << rows << "x" << cols);
    const ArenaFixture f(make_grid(rows, cols));
    expect_hierarchical_golden(f);
    expect_scale_free_golden(f);
    expect_simple_ni_golden(f);
    expect_scale_free_ni_golden(f);
  }
}

// Below ε = 1/2 the scale-free walk's distance test is live and decides
// only above a density gap; the stepper reads the gap off the ring slab, the
// reference off R(u). Both scale-free runtimes (sf-NI rides sf) must agree
// on a uniform grid (no gaps) and on a spider (gaps at every arm scale).
TEST(HopArenaZooTest, ScaleFreeGoldenAtSmallEpsilon) {
  for (const double eps : {0.25, 0.1}) {
    for (const Graph& g : {make_grid(9, 7), make_exponential_spider(12, 4)}) {
      SCOPED_TRACE(::testing::Message() << "eps " << eps << ", n " << g.num_nodes());
      const ArenaFixture f(g, eps);
      expect_scale_free_golden(f);
      expect_scale_free_ni_golden(f);
    }
  }
}

#ifndef CR_OBS_DISABLED
std::uint64_t counter_value(const char* name) {
  const auto scraped = obs::scrape_global();
  const auto& counters = scraped->counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

// Every hop steps against the flat slabs, metered by hop.arena.steps: once
// per route, hops + 1 step() calls of the served scheme (sf-NI's nested
// scale-free steps are not counted again).
TEST(HopArenaCounterTest, ArenaServeNeverTouchesReferenceContainers) {
  Executor::global().set_workers(1);
  ArenaFixture f(make_grid(8, 8));
  const auto labeled = f.labeled_requests();
  const auto named = f.named_requests();
  ServeOptions options;
  options.collect_latencies = false;

  const std::uint64_t arena_before = counter_value("hop.arena.steps");

  std::uint64_t steps = 0;
  const auto serve = [&](const HopScheme& scheme,
                         const std::vector<ServeRequest>& requests) {
    const ServeStats stats =
        serve_batch(f.metric.csr(), scheme, requests, options);
    steps += stats.total_hops + stats.requests;
  };
  serve(HierarchicalHopScheme(f.hier), labeled);
  serve(ScaleFreeHopScheme(f.sf), labeled);
  serve(SimpleNameIndependentHopScheme(f.simple, f.hier), named);
  serve(ScaleFreeNameIndependentHopScheme(f.sfni, f.sf), named);

  EXPECT_EQ(counter_value("hop.arena.steps") - arena_before, steps)
      << "arena step counter should meter every step() of the served "
         "scheme, once per route";
}
#endif  // CR_OBS_DISABLED

// ring_first_hit must agree with the scalar definition on every lane width
// the dispatcher may pick, including blocks that straddle the segment end
// where the next node's rows could contain the key.
TEST(RingFirstHitTest, MatchesScalarOracle) {
  Prng prng(1234);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t len = 1 + static_cast<std::uint32_t>(prng.next_u64()) % 70;
    Slab<NodeId> lo(len + kRingScanPad, kInvalidNode);
    Slab<NodeId> hi(len + kRingScanPad, 0);
    for (std::uint32_t i = 0; i < len; ++i) {
      const NodeId a = static_cast<std::uint32_t>(prng.next_u64()) % 128;
      const NodeId b = static_cast<std::uint32_t>(prng.next_u64()) % 128;
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    const std::uint32_t begin = static_cast<std::uint32_t>(prng.next_u64()) % len;
    const std::uint32_t end = begin + static_cast<std::uint32_t>(prng.next_u64()) % (len - begin + 1);
    const NodeId key = static_cast<std::uint32_t>(prng.next_u64()) % 128;

    std::uint32_t expected = end;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (lo[i] <= key && key <= hi[i]) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(ring_first_hit(lo.data(), hi.data(), begin, end, key), expected)
        << "round " << round << " begin " << begin << " end " << end;
  }
}

TEST(RingFirstHitTest, FalseHitPastEndIsClampedToMiss) {
  // [begin, end) misses; the entry just past `end` (another node's segment)
  // contains the key and sits in the same vector block. The scan must still
  // report a miss.
  Slab<NodeId> lo(4 + kRingScanPad, kInvalidNode);
  Slab<NodeId> hi(4 + kRingScanPad, 0);
  lo[0] = 10;
  hi[0] = 20;  // miss for key 5
  lo[1] = 0;
  hi[1] = 9;  // would hit, but past end
  EXPECT_EQ(ring_first_hit(lo.data(), hi.data(), 0, 1, 5), 1u);
}

}  // namespace
}  // namespace compactroute
