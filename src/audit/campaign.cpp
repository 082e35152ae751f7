#include "audit/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>

#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "runtime/hop_hierarchical.hpp"

namespace compactroute::audit {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Restores the executor's worker count on scope exit.
struct WorkerGuard {
  std::size_t previous;
  explicit WorkerGuard(std::size_t workers)
      : previous(Executor::global().workers()) {
    Executor::global().set_workers(workers);
  }
  ~WorkerGuard() { Executor::global().set_workers(previous); }
};

}  // namespace

const std::vector<std::string>& campaign_families() {
  static const std::vector<std::string> families = {
      "grid", "holes", "geometric", "tree",
      "spider", "clusters", "cliques", "torus",
      "powerlaw", "hyperbolic", "astopo"};
  return families;
}

Graph make_campaign_instance(const std::string& family, std::size_t n_hint,
                             std::uint64_t seed) {
  n_hint = std::max<std::size_t>(n_hint, 16);
  const std::size_t side = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::lround(std::sqrt(double(n_hint)))));
  if (family == "grid") return make_grid(side, side);
  if (family == "torus") return make_torus(side, side);
  if (family == "holes") {
    return make_grid_with_holes(side + 2, side + 2, 3,
                                std::max<std::size_t>(2, side / 3), seed);
  }
  if (family == "geometric") return make_random_geometric(n_hint, 2, 3, seed);
  if (family == "tree") return make_random_tree(n_hint, 4, seed);
  if (family == "spider") {
    const std::size_t arms = std::max<std::size_t>(3, side);
    return make_exponential_spider(arms,
                                   std::max<std::size_t>(2, n_hint / arms));
  }
  if (family == "clusters") {
    const std::size_t fanout = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::ceil(std::cbrt(double(n_hint)))));
    return make_cluster_hierarchy(3, fanout, 8, seed);
  }
  if (family == "cliques") {
    return make_ring_of_cliques(std::max<std::size_t>(3, n_hint / 8), 8, 4);
  }
  if (family == "powerlaw") return make_power_law(n_hint, 2, seed);
  if (family == "hyperbolic") return make_hyperbolic_disk(n_hint, 0.75, 6.0, seed);
  if (family == "astopo") {
    return make_as_topology(n_hint, std::max<std::size_t>(4, n_hint / 8), seed);
  }
  CR_CHECK_MSG(false, "unknown campaign family: " + family);
  return Graph{};
}

bool inject_from_string(const std::string& name, Inject* out) {
  if (name == "none") *out = Inject::kNone;
  else if (name == "drop-net-point") *out = Inject::kDropNetPoint;
  else if (name == "widen-range") *out = Inject::kWidenRange;
  else if (name == "flip-codec-bit") *out = Inject::kFlipCodecBit;
  else if (name == "corrupt-header") *out = Inject::kCorruptHeader;
  else return false;
  return true;
}

const char* inject_name(Inject inject) {
  switch (inject) {
    case Inject::kNone: return "none";
    case Inject::kDropNetPoint: return "drop-net-point";
    case Inject::kWidenRange: return "widen-range";
    case Inject::kFlipCodecBit: return "flip-codec-bit";
    case Inject::kCorruptHeader: return "corrupt-header";
  }
  return "none";
}

Report run_audit_case(const CampaignCase& config, const Options& audit_options,
                      Inject inject, std::size_t* n_out) {
  const Graph graph =
      make_campaign_instance(config.family, config.n_hint, config.seed);
  if (n_out != nullptr) *n_out = graph.num_nodes();

  const WorkerGuard workers(config.workers);
  MetricOptions metric_options;
  metric_options.backend = config.backend;
  const MetricSpace metric(graph, metric_options);
  const NetHierarchy hierarchy(metric);

  Options opts = audit_options;
  opts.seed = Prng::split(audit_options.seed, config.seed).next_u64();
  const double eps = std::min(config.epsilon, 0.5);

  switch (inject) {
    case Inject::kNone:
      break;
    case Inject::kDropNetPoint: {
      // The root lives in every Y_i; dropping it from the Y_{top-1} view
      // breaks nestedness (and, at top-1 == 0, Y_0 = V as well) — a defect
      // covering alone might not expose when distances tie exactly.
      HierarchyView view = HierarchyView::of(hierarchy);
      const auto base_net = view.net;
      const NodeId root = hierarchy.net(hierarchy.top_level()).front();
      const int below_top = hierarchy.top_level() - 1;
      view.net = [base_net, root, below_top](int level) {
        std::vector<NodeId> net = base_net(level);
        if (level == below_top) {
          const auto it = std::find(net.begin(), net.end(), root);
          if (it != net.end()) net.erase(it);
        }
        return net;
      };
      return audit_rnet(metric, view, opts);
    }
    case Inject::kWidenRange: {
      // Widen the range of the leaf labeled 0 so the level-0 partition of
      // [0, n) overlaps its successor.
      HierarchyView view = HierarchyView::of(hierarchy);
      const auto base_range = view.range;
      const NodeId last = static_cast<NodeId>(metric.n() - 1);
      view.range = [base_range, last](int level, NodeId x) {
        LeafRange range = base_range(level, x);
        if (level == 0 && range.lo == 0) range.hi = std::min<NodeId>(range.hi + 1, last);
        return range;
      };
      return audit_dfs_ranges(metric, view, opts);
    }
    case Inject::kFlipCodecBit: {
      const HierarchicalLabeledScheme hier(metric, hierarchy, eps);
      return audit_codec(metric, hier, opts,
                         [](NodeId, std::vector<std::uint8_t>& bytes) {
                           if (!bytes.empty()) bytes.back() ^= 0x80;
                         });
    }
    case Inject::kCorruptHeader: {
      const HierarchicalLabeledScheme hier(metric, hierarchy, eps);
      const HierarchicalHopScheme hop(hier);
      Prng prng = Prng::split(opts.seed, 0xC0);
      const NodeId src = static_cast<NodeId>(prng.next_below(metric.n()));
      const NodeId dst = static_cast<NodeId>(prng.next_below(metric.n()));
      HopRun run = execute_hops(metric, hop, src, hier.label(dst));
      run.max_header_bits = 0;  // the meter now under-reports the accounting
      return audit_hop_run(metric, run, src, dst, hop.name(), opts);
    }
  }

  const Naming naming =
      Naming::random(metric.n(), 4242 + config.seed);
  const HierarchicalLabeledScheme hier(metric, hierarchy, eps);
  const ScaleFreeLabeledScheme scale_free(metric, hierarchy, eps);
  const SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier,
                                           config.epsilon);
  const ScaleFreeNameIndependentScheme scale_free_ni(metric, hierarchy, naming,
                                                     scale_free, config.epsilon);
  return audit_all(metric, hierarchy, naming, hier, scale_free, simple,
                   scale_free_ni, config.epsilon, opts);
}

namespace {

CaseOutcome execute_case(const CampaignCase& config,
                         const CampaignOptions& options) {
  CaseOutcome outcome;
  outcome.config = config;
  const double start = now_ms();
  try {
    const Report report =
        run_audit_case(config, options.audit, options.inject, &outcome.n);
    outcome.checks = report.checks;
    outcome.issues = report.issues;
  } catch (const std::exception& e) {
    outcome.issues.push_back(
        {"campaign", "exception", std::string("case threw: ") + e.what()});
  }
  if (outcome.issues.size() > options.max_recorded_issues) {
    outcome.issues.resize(options.max_recorded_issues);
  }
  outcome.elapsed_ms = now_ms() - start;
  return outcome;
}

ShrunkCase shrink_failure(const CampaignOptions& options,
                          const CaseOutcome& failure) {
  ShrunkCase shrunk;
  shrunk.found = true;
  shrunk.config = failure.config;
  shrunk.n = failure.n;
  if (!failure.issues.empty()) shrunk.invariant = failure.issues.front().invariant;

  const auto still_fails = [&](const CampaignCase& candidate,
                               std::size_t* n_out, std::string* invariant) {
    ++shrunk.attempts;
    try {
      const Report report =
          run_audit_case(candidate, options.audit, options.inject, n_out);
      if (!report.ok() && invariant != nullptr) {
        *invariant = report.issues.front().invariant;
      }
      return !report.ok();
    } catch (const std::exception& e) {
      if (invariant != nullptr) *invariant = std::string("exception: ") + e.what();
      return true;
    }
  };

  // 1. Instance size: ascending ladder — adopt the smallest n that fails.
  static constexpr std::size_t kLadder[] = {16, 24,  32,  48,  64, 96,
                                            128, 192, 256, 384, 512};
  for (std::size_t n : kLadder) {
    if (n >= shrunk.config.n_hint) break;
    CampaignCase candidate = shrunk.config;
    candidate.n_hint = n;
    std::size_t actual = 0;
    std::string invariant;
    if (still_fails(candidate, &actual, &invariant)) {
      shrunk.config = candidate;
      shrunk.n = actual;
      shrunk.invariant = invariant;
      break;
    }
  }
  // 2. Seed: ascending — adopt the smallest failing seed below the current.
  for (std::uint64_t seed = 1; seed < shrunk.config.seed && seed <= 8; ++seed) {
    CampaignCase candidate = shrunk.config;
    candidate.seed = seed;
    std::size_t actual = 0;
    std::string invariant;
    if (still_fails(candidate, &actual, &invariant)) {
      shrunk.config = candidate;
      shrunk.n = actual;
      shrunk.invariant = invariant;
      break;
    }
  }
  // 3. Epsilon: ascending over the sweep's values below the current one.
  std::vector<double> epsilons = options.epsilons;
  std::sort(epsilons.begin(), epsilons.end());
  for (double eps : epsilons) {
    if (eps >= shrunk.config.epsilon) break;
    CampaignCase candidate = shrunk.config;
    candidate.epsilon = eps;
    std::size_t actual = 0;
    std::string invariant;
    if (still_fails(candidate, &actual, &invariant)) {
      shrunk.config = candidate;
      shrunk.n = actual;
      shrunk.invariant = invariant;
      break;
    }
  }
  return shrunk;
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& options) {
  CampaignResult result;
  const std::vector<std::string>& families =
      options.families.empty() ? campaign_families() : options.families;
  const double deadline =
      options.budget_seconds > 0 ? now_ms() + options.budget_seconds * 1000 : 0;

  for (const std::string& family : families) {
    for (std::size_t n_hint : options.n_hints) {
      for (std::uint64_t seed : options.seeds) {
        for (double epsilon : options.epsilons) {
          for (MetricBackendKind backend : options.backends) {
            for (std::size_t workers : options.worker_counts) {
              if (deadline > 0 && now_ms() >= deadline) {
                result.budget_exhausted = true;
                goto swept;
              }
              CampaignCase config;
              config.family = family;
              config.n_hint = n_hint;
              config.seed = seed;
              config.epsilon = epsilon;
              config.backend = backend;
              config.workers = workers;
              CaseOutcome outcome = execute_case(config, options);
              ++result.cases_run;
              result.checks += outcome.checks;
              result.violations += outcome.issues.size();
              result.outcomes.push_back(std::move(outcome));
            }
          }
        }
      }
    }
  }
swept:
  if (options.shrink) {
    for (const CaseOutcome& outcome : result.outcomes) {
      if (!outcome.ok()) {
        result.shrunk = shrink_failure(options, outcome);
        break;
      }
    }
  }
  return result;
}

obs::JsonValue campaign_report_json(const CampaignOptions& options,
                                    const CampaignResult& result) {
  using obs::JsonValue;
  const std::vector<std::string>& families =
      options.families.empty() ? campaign_families() : options.families;

  JsonValue doc = JsonValue::object();
  JsonValue grid = JsonValue::object();
  grid["families"] = JsonValue::array();
  for (const std::string& f : families) grid["families"].push_back(f);
  grid["n_hints"] = JsonValue::array();
  for (std::size_t n : options.n_hints) {
    grid["n_hints"].push_back(static_cast<std::uint64_t>(n));
  }
  grid["seeds"] = JsonValue::array();
  for (std::uint64_t s : options.seeds) grid["seeds"].push_back(s);
  grid["epsilons"] = JsonValue::array();
  for (double e : options.epsilons) grid["epsilons"].push_back(e);
  grid["backends"] = JsonValue::array();
  for (MetricBackendKind b : options.backends) {
    grid["backends"].push_back(backend_name(b));
  }
  grid["workers"] = JsonValue::array();
  for (std::size_t w : options.worker_counts) {
    grid["workers"].push_back(static_cast<std::uint64_t>(w));
  }
  grid["budget_s"] = options.budget_seconds;
  grid["inject"] = inject_name(options.inject);
  doc["campaign"] = std::move(grid);

  doc["cases_run"] = static_cast<std::uint64_t>(result.cases_run);
  doc["checks"] = static_cast<std::uint64_t>(result.checks);
  doc["violations"] = static_cast<std::uint64_t>(result.violations);
  doc["budget_exhausted"] = result.budget_exhausted;
  doc["ok"] = result.ok();

  const auto case_json = [](const CampaignCase& config) {
    JsonValue c = JsonValue::object();
    c["family"] = config.family;
    c["n_hint"] = static_cast<std::uint64_t>(config.n_hint);
    c["seed"] = config.seed;
    c["epsilon"] = config.epsilon;
    c["backend"] = backend_name(config.backend);
    c["workers"] = static_cast<std::uint64_t>(config.workers);
    return c;
  };

  doc["cases"] = JsonValue::array();
  for (const CaseOutcome& outcome : result.outcomes) {
    JsonValue entry = case_json(outcome.config);
    entry["n"] = static_cast<std::uint64_t>(outcome.n);
    entry["checks"] = static_cast<std::uint64_t>(outcome.checks);
    entry["violations"] = static_cast<std::uint64_t>(outcome.issues.size());
    entry["elapsed_ms"] = outcome.elapsed_ms;
    doc["cases"].push_back(std::move(entry));
  }

  doc["failures"] = JsonValue::array();
  for (const CaseOutcome& outcome : result.outcomes) {
    if (outcome.ok()) continue;
    JsonValue entry = case_json(outcome.config);
    entry["n"] = static_cast<std::uint64_t>(outcome.n);
    entry["issues"] = JsonValue::array();
    for (const Issue& issue : outcome.issues) {
      JsonValue detail = JsonValue::object();
      detail["auditor"] = issue.auditor;
      detail["invariant"] = issue.invariant;
      detail["detail"] = issue.detail;
      entry["issues"].push_back(std::move(detail));
    }
    doc["failures"].push_back(std::move(entry));
  }

  JsonValue shrunk = JsonValue::object();
  shrunk["found"] = result.shrunk.found;
  if (result.shrunk.found) {
    shrunk["minimal"] = case_json(result.shrunk.config);
    shrunk["n"] = static_cast<std::uint64_t>(result.shrunk.n);
    shrunk["invariant"] = result.shrunk.invariant;
    shrunk["attempts"] = static_cast<std::uint64_t>(result.shrunk.attempts);
  }
  doc["shrunk"] = std::move(shrunk);
  return doc;
}

std::vector<MinedPair> mine_worst_pairs(const Graph& graph,
                                        const MineOptions& options) {
  CR_CHECK(options.samples >= 1 && options.keep >= 1);
  MetricOptions metric_options;
  metric_options.backend = options.backend;
  const MetricSpace metric(graph, metric_options);
  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::random(metric.n(), 4242);
  const double eps_labeled = std::min(options.epsilon, 0.5);
  const HierarchicalLabeledScheme hier(metric, hierarchy, eps_labeled);
  const ScaleFreeLabeledScheme sf(metric, hierarchy, eps_labeled);
  const SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier,
                                           options.epsilon);
  const ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf,
                                            options.epsilon);

  const std::size_t n = metric.n();
  const auto route_for = [&](ServeScheme scheme, NodeId src, NodeId dst) {
    switch (scheme) {
      case ServeScheme::kHierarchical: return hier.route(src, hier.label(dst));
      case ServeScheme::kScaleFree: return sf.route(src, sf.label(dst));
      case ServeScheme::kSimpleNi:
        return simple.route(src, naming.name_of(dst));
      case ServeScheme::kScaleFreeNi:
        return sfni.route(src, naming.name_of(dst));
    }
    CR_CHECK_MSG(false, "unknown serve scheme");
    return RouteResult{};
  };

  // Serial on purpose: the mined set must be a pure function of (graph,
  // options), and a few thousand routes per scheme are cheap enough that
  // worker-count-independent chunking would buy nothing here.
  std::vector<MinedPair> mined;
  mined.reserve(options.samples * kNumServeSchemes);
  for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
    const ServeScheme scheme = static_cast<ServeScheme>(s);
    Prng prng = Prng::split(options.seed, s);
    for (std::size_t i = 0; i < options.samples; ++i) {
      const NodeId src = static_cast<NodeId>(prng.next_below(n));
      NodeId dst = static_cast<NodeId>(prng.next_below(n - 1));
      if (dst >= src) ++dst;
      const Weight optimal = metric.dist(src, dst);
      const RouteResult route = route_for(scheme, src, dst);
      MinedPair pair;
      pair.request.src = src;
      pair.request.dest = dst;
      pair.request.scheme = scheme;
      pair.stretch = optimal > 0 ? route.cost / optimal : 1.0;
      mined.push_back(pair);
    }
  }
  std::sort(mined.begin(), mined.end(),
            [](const MinedPair& a, const MinedPair& b) {
              if (a.stretch != b.stretch) return a.stretch > b.stretch;
              if (a.request.scheme != b.request.scheme) {
                return a.request.scheme < b.request.scheme;
              }
              if (a.request.src != b.request.src) {
                return a.request.src < b.request.src;
              }
              return a.request.dest < b.request.dest;
            });
  if (mined.size() > options.keep) mined.resize(options.keep);
  return mined;
}

}  // namespace compactroute::audit
