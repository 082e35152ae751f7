#include "stack.hpp"

#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "harness.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/sharded.hpp"
#include "obs/spans.hpp"
#include "routing/naming.hpp"
#include "routing/simulator.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"

namespace crbench {

using namespace compactroute;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::vector<std::uint64_t> spec_numbers(const std::string& spec,
                                        std::size_t expected) {
  std::vector<std::uint64_t> out;
  std::size_t pos = spec.find(':');
  while (pos != std::string::npos) {
    const std::size_t next = spec.find(':', pos + 1);
    const std::string field = spec.substr(pos + 1, next - pos - 1);
    std::size_t used = 0;
    const unsigned long long value = std::stoull(field, &used);
    if (used != field.size() || field.empty()) {
      throw std::invalid_argument("bad number in graph spec: " + spec);
    }
    out.push_back(value);
    pos = next;
  }
  if (out.size() != expected) {
    throw std::invalid_argument("wrong field count in graph spec: " + spec);
  }
  return out;
}

std::uint64_t counter_value(const obs::Registry& registry,
                            const std::string& name) {
  const auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second.value();
}

/// The built (not yet serialized-and-dropped) stack. Members are declared in
/// dependency order so destruction releases schemes before what they point
/// into.
struct Built {
  std::unique_ptr<MetricSpace> metric;
  std::unique_ptr<NetHierarchy> hierarchy;
  std::unique_ptr<Naming> naming;
  std::unique_ptr<HierarchicalLabeledScheme> hier;
  std::unique_ptr<ScaleFreeLabeledScheme> sf;
  std::unique_ptr<SimpleNameIndependentScheme> simple;
  std::unique_ptr<ScaleFreeNameIndependentScheme> sfni;
};

Quality quality_of(const MetricSpace& metric, const Naming& naming,
                   const HierarchicalLabeledScheme& hier,
                   const ScaleFreeLabeledScheme& sf,
                   const SimpleNameIndependentScheme& simple,
                   const ScaleFreeNameIndependentScheme& sfni,
                   std::size_t pairs, std::uint64_t seed) {
  StretchStats stats[kNumServeSchemes];
  Prng p0 = Prng::split(seed, 0), p1 = Prng::split(seed, 1),
       p2 = Prng::split(seed, 2), p3 = Prng::split(seed, 3);
  stats[0] = evaluate_labeled(hier, metric, pairs, p0);
  stats[1] = evaluate_labeled(sf, metric, pairs, p1);
  stats[2] = evaluate_name_independent(simple, metric, naming, pairs, p2);
  stats[3] = evaluate_name_independent(sfni, metric, naming, pairs, p3);
  Quality q;
  for (const StretchStats& s : stats) {
    q.pairs += s.pairs;
    q.failures += s.failures;
    q.stretch_sum += s.sum_stretch;
    q.stretch_max = std::max(q.stretch_max, s.max_stretch);
  }
  const std::size_t n = metric.n();
  std::uint64_t bits = 0;
  for (NodeId u = 0; u < n; ++u) {
    bits += hier.storage_bits(u) + sf.storage_bits(u) +
            simple.storage_bits(u) + sfni.storage_bits(u);
  }
  q.table_bits_per_node = static_cast<double>(bits) / static_cast<double>(n);
  return q;
}

MetricOptions rowfree() {
  MetricOptions options;
  options.backend = MetricBackendKind::kRowFree;
  return options;
}

/// The timed part of run_setup: build, stream the snapshot, load, publish,
/// serve the first route. Leaves the built stack in `b` for quality checks.
void timed_setup(const Graph& graph, const SetupOptions& options, Built& b,
                 SetupResult& result) {
  obs::SpanScope setup_span("harness.setup", "harness");
  SetupTimes& t = result.times;
  const auto start = Clock::now();
  auto phase = Clock::now();
  {
    obs::SpanScope span("build.metric", "graph");
    b.metric = std::make_unique<MetricSpace>(graph, rowfree());
  }
  t.metric_ms = ms_since(phase);
  const std::size_t n = b.metric->n();

  phase = Clock::now();
  {
    obs::SpanScope span("build.hierarchy", "nets");
    b.hierarchy = std::make_unique<NetHierarchy>(*b.metric);
    b.naming = std::make_unique<Naming>(Naming::random(n, kQualitySeed));
  }
  t.hierarchy_ms = ms_since(phase);

  // Snapshot writes interleave with the builds (as in a streaming build);
  // their times are summed into one phase.
  std::unique_ptr<SnapshotStreamWriter> writer;
  const auto write = [&](auto&& fn) {
    obs::SpanScope span("build.snapshot_write", "io");
    const auto w0 = Clock::now();
    fn();
    t.snapshot_write_ms += ms_since(w0);
  };
  write([&] {
    writer = std::make_unique<SnapshotStreamWriter>(options.snapshot_path);
    writer->add_meta(*b.metric, kEpsilon);
    writer->add_graph(*b.metric);
    writer->add_hierarchy(*b.hierarchy, n);
    writer->add_naming(*b.naming, n);
  });

  phase = Clock::now();
  {
    obs::SpanScope span("build.labeled_hier", "labeled");
    b.hier = std::make_unique<HierarchicalLabeledScheme>(
        *b.metric, *b.hierarchy, kEpsilon);
  }
  t.labeled_hier_ms = ms_since(phase);
  write([&] { writer->add_hier(b.hier.get(), n); });

  phase = Clock::now();
  {
    obs::SpanScope span("build.labeled_sf", "labeled");
    b.sf = std::make_unique<ScaleFreeLabeledScheme>(*b.metric, *b.hierarchy,
                                                    kEpsilon);
  }
  t.labeled_sf_ms = ms_since(phase);
  write([&] { writer->add_scale_free(b.sf.get(), n); });

  phase = Clock::now();
  {
    obs::SpanScope span("build.ni_simple", "nameind");
    b.simple = std::make_unique<SimpleNameIndependentScheme>(
        *b.metric, *b.hierarchy, *b.naming, *b.hier, kEpsilon);
  }
  t.ni_simple_ms = ms_since(phase);
  write([&] { writer->add_simple(b.simple.get()); });

  phase = Clock::now();
  {
    obs::SpanScope span("build.ni_sf", "nameind");
    b.sfni = std::make_unique<ScaleFreeNameIndependentScheme>(
        *b.metric, *b.hierarchy, *b.naming, *b.sf, kEpsilon);
  }
  t.ni_sf_ms = ms_since(phase);
  write([&] {
    writer->add_sfni(b.sfni.get(), n);
    t.snapshot_bytes = writer->finish();
    writer.reset();
  });

  {
    obs::SpanScope span("load.epoch", "server");
    result.epoch = ServerEpoch::load(options.snapshot_path, true, options.epoch_id);
  }
  {
    obs::SpanScope span("server.publish", "server");
    result.server = std::make_unique<Server>(options.server);
    result.server->publish(result.epoch);
  }
  {
    obs::SpanScope span("server.first_route", "server");
    ServerRequest first;
    first.src = 0;
    first.dest = static_cast<NodeId>(n - 1);
    first.scheme = ServeScheme::kHierarchical;
    std::vector<ServerResult> slot(1);
    CR_CHECK_MSG(result.server->submit(first, 0), "first route was shed");
    result.server->drain(slot);
    CR_CHECK_MSG(slot[0].status.load() == ServeStatus::kDelivered,
                 "first route not delivered");
  }
  t.total_s = std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

Graph make_graph(const std::string& spec) {
  const std::string family = spec.substr(0, spec.find(':'));
  if (family == "grid") {
    const auto v = spec_numbers(spec, 2);
    return make_grid(v[0], v[1]);
  }
  if (family == "powerlaw") {
    const auto v = spec_numbers(spec, 3);
    return make_power_law(v[0], v[1], v[2]);
  }
  if (family == "geometric") {
    const auto v = spec_numbers(spec, 4);
    return make_random_geometric(v[0], static_cast<int>(v[1]), v[2], v[3]);
  }
  throw std::invalid_argument("unknown graph family in spec: " + spec);
}

SetupResult run_setup(const Graph& graph, const SetupOptions& options) {
  SetupResult result;
  SetupTimes& t = result.times;
  const auto before = obs::scrape_global();
  const std::uint64_t issued0 = counter_value(*before, "balls.issued");
  const std::uint64_t settled0 = counter_value(*before, "balls.settled");

  Built b;
  timed_setup(graph, options, b, result);

  if (options.quality_pairs > 0) {
    result.built_quality =
        quality_of(*b.metric, *b.naming, *b.hier, *b.sf, *b.simple, *b.sfni,
                   options.quality_pairs, kQualitySeed);
  }
  const std::vector<std::uint8_t> bytes =
      read_snapshot_file(options.snapshot_path);
  t.snapshot_crc = snapshot_crc32(bytes.data(), bytes.size());
  const auto after = obs::scrape_global();
  t.balls_issued = counter_value(*after, "balls.issued") - issued0;
  t.balls_settled = counter_value(*after, "balls.settled") - settled0;
  return result;
}

HopStack::HopStack(const SnapshotStack& stack)
    : stack_(stack), arena_(stack.build_arena()) {
  schemes_.resize(kNumServeSchemes);
  schemes_[0] = std::make_unique<HierarchicalHopScheme>(*stack.hier, arena_);
  schemes_[1] = std::make_unique<ScaleFreeHopScheme>(*stack.sf, arena_);
  schemes_[2] = std::make_unique<SimpleNameIndependentHopScheme>(
      *stack.simple, *stack.hier, arena_);
  schemes_[3] = std::make_unique<ScaleFreeNameIndependentHopScheme>(
      *stack.sfni, *stack.sf, arena_);
}

const HopScheme& HopStack::scheme(ServeScheme s) const {
  return *schemes_[static_cast<std::size_t>(s)];
}

SchemeBatches split_by_scheme(const ServerEpoch& epoch,
                              const std::vector<ServerRequest>& stream) {
  SchemeBatches out;
  for (const ServerRequest& r : stream) {
    ServeRequest one;
    one.src = r.src;
    one.dest_key = epoch.dest_key(r.scheme, r.dest);
    out.requests[static_cast<std::size_t>(r.scheme)].push_back(one);
  }
  return out;
}

GateReport check_against_serve_batch(const ServerEpoch& reference_epoch,
                                     const HopStack& reference,
                                     const std::vector<ServerRequest>& stream,
                                     const std::vector<ServerResult>& results,
                                     bool inject_mismatch,
                                     std::vector<std::string>* errors) {
  CR_CHECK(stream.size() <= results.size());
  std::map<std::pair<std::uint64_t, int>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (results[i].status.load(std::memory_order_acquire) !=
        ServeStatus::kDelivered) {
      continue;
    }
    groups[{results[i].epoch, static_cast<int>(stream[i].scheme)}].push_back(i);
  }
  GateReport report;
  std::uint64_t last_epoch = ~0ULL;
  ServeOptions options;
  options.collect_latencies = false;
  options.instrument = false;
  for (const auto& [key, ids] : groups) {
    const auto [epoch_id, scheme_index] = key;
    if (epoch_id != last_epoch) ++report.epochs;
    last_epoch = epoch_id;
    const ServeScheme scheme = static_cast<ServeScheme>(scheme_index);
    std::vector<ServerResult> served(ids.size());
    std::vector<ServeRequest> batch(ids.size());
    std::uint64_t served_hops = 0;
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const std::size_t i = ids[j];
      served[j] = results[i];
      served_hops += results[i].hops;
      batch[j].src = stream[i].src;
      batch[j].dest_key = reference_epoch.dest_key(scheme, stream[i].dest);
    }
    const ServeStats stats =
        serve_batch(reference.csr(), reference.scheme(scheme), batch, options);
    std::uint64_t expected = stats.fingerprint;
    if (inject_mismatch && report.groups == 0) expected ^= 1;
    const std::uint64_t got = Server::delivered_digest(served);
    const std::string where = std::string("epoch ") +
                              std::to_string(epoch_id) + " scheme " +
                              serve_scheme_name(scheme);
    bool ok = true;
    if (got != expected) {
      ok = false;
      errors->push_back("digest mismatch on " + where + ": server " +
                        hex64(got) + " vs serve_batch " + hex64(expected));
    }
    if (served_hops != stats.total_hops) {
      ok = false;
      errors->push_back("hop-count mismatch on " + where + ": server " +
                        std::to_string(served_hops) + " vs serve_batch " +
                        std::to_string(stats.total_hops));
    }
    if (!ok) report.mismatched += ids.size();
    ++report.groups;
    report.digest ^= got;
  }
  return report;
}

}  // namespace crbench
