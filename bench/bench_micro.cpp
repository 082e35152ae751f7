#include <map>
// Experiment E4 — microbenchmarks (google-benchmark): construction cost of
// every substrate and routing throughput of every scheme. These quantify the
// preprocessing/routing split the paper's model assumes (preprocessing is
// offline; routing decisions must be cheap).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/dijkstra.hpp"
#include "graph/metric.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/ball_packing.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "runtime/serve.hpp"
#include "runtime/server.hpp"
#include "runtime/traffic.hpp"
#include "search/search_tree.hpp"

namespace compactroute {
namespace {

const Graph& shared_graph(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_random_geometric(n, 2, 5, 12345)).first;
  }
  return it->second;
}

const MetricSpace& shared_metric(
    std::size_t n, MetricBackendKind backend = MetricBackendKind::kDense) {
  static std::map<std::pair<std::size_t, MetricBackendKind>,
                  std::unique_ptr<MetricSpace>>
      cache;
  auto it = cache.find({n, backend});
  if (it == cache.end()) {
    MetricOptions options;
    options.backend = backend;
    it = cache
             .emplace(std::pair{n, backend},
                      std::make_unique<MetricSpace>(shared_graph(n), options))
             .first;
  }
  return *it->second;
}

const NetHierarchy& shared_hierarchy(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<NetHierarchy>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, std::make_unique<NetHierarchy>(shared_metric(n))).first;
  }
  return *it->second;
}

void BM_Dijkstra(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, src));
    src = (src + 17) % g.num_nodes();
  }
}
BENCHMARK(BM_Dijkstra)->Arg(128)->Arg(256)->Arg(512);

void BM_MetricConstruction(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  for (auto _ : state) {
    MetricSpace metric(g);
    benchmark::DoNotOptimize(metric.delta());
  }
}
BENCHMARK(BM_MetricConstruction)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_NetHierarchy(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(state.range(0));
  for (auto _ : state) {
    NetHierarchy hierarchy(metric);
    benchmark::DoNotOptimize(hierarchy.top_level());
  }
}
BENCHMARK(BM_NetHierarchy)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

// The greedy of one packing level ℬ_j on n = 256, fed the metric's r_u(j)
// column. At the top level j = max_size_exponent(256) nearly every candidate
// is rejected.
void packing_level(benchmark::State& state, MetricBackendKind backend) {
  const MetricSpace& metric = shared_metric(256, backend);
  const int j = static_cast<int>(state.range(0));
  const std::vector<Weight>& radii = metric.scale_free_substrate().radius_table()[j];
  for (auto _ : state) {
    BallPacking packing(metric, j, radii);
    benchmark::DoNotOptimize(packing.balls().size());
  }
}

void BM_BallPacking(benchmark::State& state) {
  packing_level(state, MetricBackendKind::kDense);
}
BENCHMARK(BM_BallPacking)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(max_size_exponent(256))
    ->Unit(benchmark::kMillisecond);

void BM_BallPackingRowFree(benchmark::State& state) {
  packing_level(state, MetricBackendKind::kRowFree);
}
BENCHMARK(BM_BallPackingRowFree)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(max_size_exponent(256))
    ->Unit(benchmark::kMillisecond);

void BM_SearchTreeBuild(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  for (auto _ : state) {
    SearchTree tree(metric, 0, metric.delta(), 0.5);
    benchmark::DoNotOptimize(tree.tree().size());
  }
}
BENCHMARK(BM_SearchTreeBuild)->Unit(benchmark::kMillisecond);

void BM_SearchTreeLookup(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  SearchTree tree(metric, 0, metric.delta(), 0.5);
  std::vector<std::pair<SearchTree::Key, SearchTree::Data>> pairs;
  for (NodeId v = 0; v < metric.n(); ++v) pairs.emplace_back(v, v);
  tree.store(std::move(pairs));
  SearchTree::Key key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.lookup(key));
    key = (key + 41) % metric.n();
  }
}
BENCHMARK(BM_SearchTreeLookup);

// The metric's scale-free substrate is built at most once, by whichever
// benchmark asks first, so this times the scheme's own structures.
void BM_ScaleFreeLabeledBuild(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(state.range(0));
  const NetHierarchy& hierarchy = shared_hierarchy(state.range(0));
  for (auto _ : state) {
    ScaleFreeLabeledScheme scheme(metric, hierarchy, 0.5);
    benchmark::DoNotOptimize(scheme.label_bits());
  }
}
BENCHMARK(BM_ScaleFreeLabeledBuild)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_HierarchicalLabeledRoute(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  const NetHierarchy& hierarchy = shared_hierarchy(256);
  const HierarchicalLabeledScheme scheme(metric, hierarchy, 0.5);
  Prng prng(1);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(prng.next_below(metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(metric.n()));
    benchmark::DoNotOptimize(scheme.route(u, scheme.label(v)));
  }
}
BENCHMARK(BM_HierarchicalLabeledRoute);

void BM_ScaleFreeLabeledRoute(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  const NetHierarchy& hierarchy = shared_hierarchy(256);
  const ScaleFreeLabeledScheme scheme(metric, hierarchy, 0.5);
  Prng prng(2);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(prng.next_below(metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(metric.n()));
    benchmark::DoNotOptimize(scheme.route(u, scheme.label(v)));
  }
}
BENCHMARK(BM_ScaleFreeLabeledRoute);

void BM_ScaleFreeNameIndependentRoute(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  const NetHierarchy& hierarchy = shared_hierarchy(256);
  static const Naming naming = Naming::random(metric.n(), 6);
  static const ScaleFreeLabeledScheme labeled(metric, hierarchy, 0.5);
  static const ScaleFreeNameIndependentScheme scheme(metric, hierarchy, naming,
                                                     labeled, 0.5);
  Prng prng(3);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(prng.next_below(metric.n()));
    const NodeId v = static_cast<NodeId>(prng.next_below(metric.n()));
    benchmark::DoNotOptimize(scheme.route(u, naming.name_of(v)));
  }
}
BENCHMARK(BM_ScaleFreeNameIndependentRoute);

// The dispatch order of one Server wave: 6,144 keys (crbench's capacity
// wave on 3 shards × 2,048), four schemes round-robin over n = 1024, keyed
// by a leaf-label permutation (labeled schemes) or a name permutation (NI
// schemes). Arg "radix": 0 = std::sort on (scheme, dest_key, item), 1 =
// sort_dispatch_keys. Arg "zipf": 0 = uniform, 1 = Zipf(1) destinations.
void BM_DispatchOrder(benchmark::State& state) {
  constexpr std::size_t kNodes = 1024;
  constexpr std::size_t kWave = 6144;
  const bool radix = state.range(0) != 0;
  TrafficOptions traffic;
  traffic.shape =
      state.range(1) != 0 ? TrafficShape::kZipf : TrafficShape::kUniform;
  const ServeScheme mix[] = {ServeScheme::kHierarchical,
                             ServeScheme::kScaleFree, ServeScheme::kSimpleNi,
                             ServeScheme::kScaleFreeNi};
  const std::vector<ServerRequest> requests =
      make_traffic(kNodes, kWave, 7, mix, traffic);
  const Naming labels = Naming::random(kNodes, 8);
  const Naming names = Naming::random(kNodes, 9);
  std::vector<DispatchKey> wave(kWave);
  for (std::size_t k = 0; k < kWave; ++k) {
    const ServerRequest& r = requests[k];
    wave[k].scheme = static_cast<std::uint8_t>(r.scheme);
    wave[k].dest_key = r.scheme == ServeScheme::kHierarchical ||
                               r.scheme == ServeScheme::kScaleFree
                           ? labels.name_of(r.dest)
                           : names.name_of(r.dest);
    wave[k].item = k;
  }
  std::vector<DispatchKey> keys;
  for (auto _ : state) {
    state.PauseTiming();
    keys = wave;
    state.ResumeTiming();
    if (radix) {
      sort_dispatch_keys(keys);
    } else {
      std::sort(keys.begin(), keys.end());
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * kWave);
}
BENCHMARK(BM_DispatchOrder)
    ->ArgNames({"radix", "zipf"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

}  // namespace
}  // namespace compactroute

BENCHMARK_MAIN();
