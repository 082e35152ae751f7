#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
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

namespace compactroute {
namespace {

/// Restores automatic worker resolution (and a clean CR_THREADS) no matter
/// how a test exits.
struct WorkerGuard {
  ~WorkerGuard() {
    Executor::global().set_workers(0);
    unsetenv("CR_THREADS");
  }
};

TEST(Executor, EmptyRangeNeverInvokesTheBody) {
  std::atomic<int> calls{0};
  parallel_for("test.empty", 0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Executor, RangeSmallerThanChunkIsOneCall) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  parallel_for("test.small", 5, 10, [&](std::size_t first, std::size_t last) {
    spans.emplace_back(first, last);
  });
  ASSERT_EQ(spans.size(), 1u);
  const std::pair<std::size_t, std::size_t> want{0, 5};
  EXPECT_EQ(spans[0], want);
}

TEST(Executor, CoversEveryIndexExactlyOnce) {
  WorkerGuard guard;
  for (const std::size_t workers : {1u, 4u}) {
    Executor::global().set_workers(workers);
    std::vector<int> visits(1000, 0);  // chunks are disjoint: no races
    parallel_for("test.cover", visits.size(), 7,
                 [&](std::size_t first, std::size_t last) {
                   for (std::size_t i = first; i < last; ++i) ++visits[i];
                 });
    EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                            [](int v) { return v == 1; }))
        << "workers=" << workers;
  }
}

TEST(Executor, ChunkBoundariesDoNotDependOnWorkerCount) {
  WorkerGuard guard;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> runs;
  for (const std::size_t workers : {1u, 4u}) {
    Executor::global().set_workers(workers);
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    parallel_for("test.bounds", 103, 8,
                 [&](std::size_t first, std::size_t last) {
                   std::lock_guard<std::mutex> lock(m);
                   spans.emplace_back(first, last);
                 });
    std::sort(spans.begin(), spans.end());
    runs.push_back(std::move(spans));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0].size(), (103 + 7) / 8u);
}

TEST(Executor, LowestFailingChunkWinsExceptionPropagation) {
  WorkerGuard guard;
  for (const std::size_t workers : {1u, 4u}) {
    Executor::global().set_workers(workers);
    try {
      parallel_for("test.throw", 100, 10,
                   [&](std::size_t first, std::size_t) {
                     if (first == 30 || first == 70) {
                       throw std::runtime_error("chunk " +
                                                std::to_string(first / 10));
                     }
                   });
      FAIL() << "expected the chunk exception to propagate (workers="
             << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 3") << "workers=" << workers;
    }
  }
}

TEST(Executor, SurvivesAnExceptionAndRunsTheNextRegion) {
  WorkerGuard guard;
  Executor::global().set_workers(4);
  EXPECT_THROW(parallel_for("test.throw2", 64, 4,
                            [&](std::size_t, std::size_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  std::atomic<std::size_t> covered{0};
  parallel_for("test.after_throw", 64, 4,
               [&](std::size_t first, std::size_t last) {
                 covered += last - first;
               });
  EXPECT_EQ(covered, 64u);
}

TEST(Executor, SmallRegionBetweenLargeOnesSpawnsNoThread) {
  WorkerGuard guard;
  Executor::global().set_workers(4);
  std::atomic<std::size_t> covered{0};
  const auto count = [&](std::size_t first, std::size_t last) {
    covered += last - first;
  };
  parallel_for("test.large_before", 64, 4, count);  // 16 chunks: full pool
  const std::size_t spawned = Executor::global().threads_spawned();
  parallel_for("test.two_chunks", 8, 4, count);  // fewer chunks than workers
  parallel_for("test.large_after", 64, 4, count);
  EXPECT_EQ(Executor::global().threads_spawned(), spawned)
      << "a region with fewer chunks than workers resized the pool";
  EXPECT_EQ(covered, 136u);
}

TEST(Executor, NestedCallsRunInlineWithoutDeadlock) {
  WorkerGuard guard;
  Executor::global().set_workers(4);
  std::vector<long> sums(8, 0);
  parallel_for("test.outer", sums.size(), 1,
               [&](std::size_t first, std::size_t last) {
                 for (std::size_t o = first; o < last; ++o) {
                   // Inner region: must run inline on this worker.
                   parallel_for("test.inner", 100, 10,
                                [&](std::size_t lo, std::size_t hi) {
                                  for (std::size_t i = lo; i < hi; ++i) {
                                    sums[o] += static_cast<long>(i);
                                  }
                                });
                 }
               });
  for (const long sum : sums) EXPECT_EQ(sum, 4950);
}

TEST(Executor, WorkerResolutionOrder) {
  WorkerGuard guard;
  // Programmatic override beats everything.
  setenv("CR_THREADS", "2", 1);
  Executor::global().set_workers(3);
  EXPECT_EQ(Executor::global().workers(), 3u);

  // Clearing the override falls back to CR_THREADS.
  Executor::global().set_workers(0);
  EXPECT_EQ(Executor::global().workers(), 2u);

  // CR_THREADS=1 forces the serial inline path (and still computes).
  setenv("CR_THREADS", "1", 1);
  EXPECT_EQ(Executor::global().workers(), 1u);
  std::size_t covered = 0;
  parallel_for("test.serial", 32, 4, [&](std::size_t first, std::size_t last) {
    covered += last - first;
  });
  EXPECT_EQ(covered, 32u);

  // Garbage falls through to hardware concurrency (always >= 1).
  setenv("CR_THREADS", "not-a-number", 1);
  EXPECT_GE(Executor::global().workers(), 1u);
  unsetenv("CR_THREADS");
  EXPECT_GE(Executor::global().workers(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism suite: the whole construction-and-evaluation pipeline must be
// bit-identical for every worker count (ISSUE: strict determinism contract).
// ---------------------------------------------------------------------------

void push(std::vector<std::uint64_t>& fp, std::uint64_t v) { fp.push_back(v); }

void push_double(std::vector<std::uint64_t>& fp, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  fp.push_back(bits);
}

void push_stats(std::vector<std::uint64_t>& fp, const StretchStats& s) {
  push_double(fp, s.max_stretch);
  push_double(fp, s.sum_stretch);
  push(fp, s.pairs);
  push(fp, s.failures);
  push(fp, s.undelivered);
  push(fp, s.misdelivered);
  push(fp, s.wrong_cost);
  push(fp, s.histogram.underflow());
  push(fp, s.histogram.overflow());
  for (std::size_t b = 0; b < s.histogram.buckets(); ++b) {
    push(fp, s.histogram.bucket_count(b));
  }
}

/// Builds the full four-scheme stack plus evaluations with the executor
/// pinned to `workers` and flattens every observable output — nets, zoom
/// tables, labels, ring tables, storage bits, route paths, stretch stats —
/// into one word vector. Two fingerprints match iff the runs were
/// bit-identical.
std::vector<std::uint64_t> stack_fingerprint(std::size_t workers) {
  Executor::global().set_workers(workers);
  const double eps = 0.5;
  const Graph graph = make_random_geometric(110, 2, 4, 42);
  const MetricSpace metric(graph);
  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::random(metric.n(), 4242);
  const HierarchicalLabeledScheme hier(metric, hierarchy, eps);
  const ScaleFreeLabeledScheme sf(metric, hierarchy, eps);
  const SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier, eps);
  const ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf, eps);
  const std::size_t n = metric.n();

  std::vector<std::uint64_t> fp;

  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) push_double(fp, metric.dist(u, v));
  }
  for (int i = 0; i <= hierarchy.top_level(); ++i) {
    for (const NodeId x : hierarchy.net(i)) push(fp, x);
    for (NodeId u = 0; u < n; ++u) push(fp, hierarchy.zoom(i, u));
  }
  for (NodeId u = 0; u < n; ++u) push(fp, hierarchy.leaf_label(u));

  for (NodeId u = 0; u < n; ++u) {
    for (const auto& level : hier.rings(u)) {
      for (const auto& entry : level) {
        push(fp, entry.x);
        push(fp, entry.range.lo);
        push(fp, entry.range.hi);
        push(fp, entry.next_hop);
      }
    }
  }

  for (NodeId u = 0; u < n; ++u) {
    push(fp, hier.storage_bits(u));
    push(fp, sf.storage_bits(u));
    push(fp, simple.storage_bits(u));
    push(fp, sfni.storage_bits(u));
  }

  const auto push_route = [&](const RouteResult& r) {
    push(fp, r.delivered ? 1 : 0);
    for (const NodeId v : r.path) push(fp, v);
    push_double(fp, r.cost);
  };
  Prng pair_prng(99);
  for (int k = 0; k < 20; ++k) {
    const NodeId src = static_cast<NodeId>(pair_prng.next_below(n));
    NodeId dst = static_cast<NodeId>(pair_prng.next_below(n - 1));
    if (dst >= src) ++dst;
    push_route(hier.route(src, hier.label(dst)));
    push_route(sf.route(src, sf.label(dst)));
    push_route(simple.route(src, naming.name_of(dst)));
    push_route(sfni.route(src, naming.name_of(dst)));
  }

  {
    Prng p(7);
    push_stats(fp, evaluate_labeled(hier, metric, 500, p));
  }
  {
    Prng p(7);
    push_stats(fp, evaluate_labeled(sf, metric, 500, p));
  }
  {
    Prng p(7);
    push_stats(fp, evaluate_name_independent(simple, metric, naming, 500, p));
  }
  {
    Prng p(7);
    push_stats(fp, evaluate_name_independent(sfni, metric, naming, 500, p));
  }
  return fp;
}

TEST(Determinism, FullStackIsBitIdenticalForAnyWorkerCount) {
  WorkerGuard guard;
  const std::vector<std::uint64_t> serial = stack_fingerprint(1);
  EXPECT_FALSE(serial.empty());
  for (const std::size_t workers : {2u, 4u}) {
    const std::vector<std::uint64_t> pooled = stack_fingerprint(workers);
    ASSERT_EQ(serial.size(), pooled.size()) << "workers=" << workers;
    EXPECT_TRUE(serial == pooled)
        << "fingerprint diverged at workers=" << workers;
  }
}

TEST(Determinism, SampledEvaluationIsWorkerCountInvariant) {
  WorkerGuard guard;
  const MetricSpace metric(make_grid(9, 9));
  const auto eval = [&](std::size_t workers) {
    Executor::global().set_workers(workers);
    Prng prng(17);
    return evaluate_pairs(metric, 700, prng, [&](NodeId src, NodeId dst) {
      RouteResult r;
      r.path = metric.shortest_path(src, dst);
      r.delivered = true;
      r.cost = path_cost(metric, r.path);
      return r;
    });
  };
  const StretchStats a = eval(1);
  for (const std::size_t workers : {2u, 4u}) {
    const StretchStats b = eval(workers);
    EXPECT_EQ(a.pairs, b.pairs);
    EXPECT_EQ(a.max_stretch, b.max_stretch);    // exact, not near
    EXPECT_EQ(a.sum_stretch, b.sum_stretch);    // merge order is fixed
    EXPECT_EQ(a.failures, b.failures);
    for (std::size_t bkt = 0; bkt < a.histogram.buckets(); ++bkt) {
      ASSERT_EQ(a.histogram.bucket_count(bkt), b.histogram.bucket_count(bkt));
    }
  }
}

}  // namespace
}  // namespace compactroute
