#pragma once
//
// Deterministic model-based fuzz campaign over the audit subsystem.
//
// A campaign sweeps a grid of configurations — generator families × instance
// sizes × seeds × ε × metric backend × executor worker counts — and for each
// one builds the full scheme stack, runs the audit battery (audit.hpp), and
// records every invariant violation. Everything is deterministic: the same
// options produce the same instances, the same sampled probes, and the same
// verdicts, so a red campaign is a reproducible bug report, not a flake.
//
// When a case fails, the campaign *shrinks* it: it re-runs the same failure
// with smaller instance sizes (ascending ladder), then smaller seeds, then
// smaller ε, and reports the minimal (n, seed, ε) triple that still fails —
// the configuration a human should debug first.
//
// The hidden injection hooks (Inject) plant one deliberate defect into the
// audited view or run; they exist so the smoke tests and `crtool audit
// --inject ...` can demonstrate end to end that a violation turns into a
// non-zero exit and a red JSON report.
//
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "graph/graph.hpp"
#include "graph/metric.hpp"
#include "obs/json_export.hpp"
#include "runtime/server.hpp"

namespace compactroute::audit {

/// One deliberate defect, injected downstream of construction so the real
/// structures stay correct while the audited view (or run) is corrupted.
enum class Inject {
  kNone,
  kDropNetPoint,   // remove a Y_{top} point from the Y_{top-1} view
  kWidenRange,     // widen one DFS range: the partition overlaps
  kFlipCodecBit,   // flip a bit of every encoded table
  kCorruptHeader,  // zero the executor's metered max header bits
};

/// Parses an --inject argument ("none", "drop-net-point", "widen-range",
/// "flip-codec-bit", "corrupt-header"); returns false on an unknown name.
bool inject_from_string(const std::string& name, Inject* out);
const char* inject_name(Inject inject);

/// One point of the sweep grid.
struct CampaignCase {
  std::string family;
  std::size_t n_hint = 64;
  std::uint64_t seed = 1;
  double epsilon = 0.5;
  MetricBackendKind backend = MetricBackendKind::kDense;
  std::size_t workers = 1;
};

/// Verdict for one executed case.
struct CaseOutcome {
  CampaignCase config;
  std::size_t n = 0;  // actual instance size (families track n_hint loosely)
  std::size_t checks = 0;
  std::vector<Issue> issues;
  double elapsed_ms = 0;

  bool ok() const { return issues.empty(); }
};

struct CampaignOptions {
  std::vector<std::string> families;  // empty = campaign_families()
  std::vector<std::size_t> n_hints = {48, 96};
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::vector<double> epsilons = {0.5};
  std::vector<MetricBackendKind> backends = {MetricBackendKind::kDense,
                                             MetricBackendKind::kRowFree};
  std::vector<std::size_t> worker_counts = {1, 4};
  /// Wall-clock budget in seconds; 0 runs the full grid. The sweep stops
  /// *between* cases once the budget is spent (a case is never cut short).
  double budget_seconds = 0;
  Inject inject = Inject::kNone;
  Options audit;  // per-case auditor sampling/tolerance knobs
  bool shrink = true;
  std::size_t max_recorded_issues = 16;  // per failing case
};

/// The minimal failing configuration found by shrinking.
struct ShrunkCase {
  bool found = false;
  CampaignCase config;
  std::size_t n = 0;
  std::string invariant;  // first violated invariant at the minimum
  std::size_t attempts = 0;  // shrink re-runs performed
};

struct CampaignResult {
  std::vector<CaseOutcome> outcomes;  // grid order
  std::size_t cases_run = 0;
  std::size_t checks = 0;
  std::size_t violations = 0;
  bool budget_exhausted = false;
  ShrunkCase shrunk;

  bool ok() const { return violations == 0; }
};

/// The generator families the campaign knows how to instantiate.
const std::vector<std::string>& campaign_families();

/// Deterministic instance of `family` with roughly n_hint nodes.
Graph make_campaign_instance(const std::string& family, std::size_t n_hint,
                             std::uint64_t seed);

/// Builds the stack for one case (with the case's backend and worker count)
/// and runs the audit battery — or, under injection, the targeted auditor
/// with the defect interposed. `n_out` receives the instance size.
Report run_audit_case(const CampaignCase& config, const Options& audit_options,
                      Inject inject = Inject::kNone, std::size_t* n_out = nullptr);

/// Runs the sweep, then shrinks the first failure (when shrink is enabled).
CampaignResult run_campaign(const CampaignOptions& options);

/// One mined worst-stretch pair: a replayable server request plus the
/// stretch the named scheme produced on it.
struct MinedPair {
  ServerRequest request;
  double stretch = 1.0;
};

struct MineOptions {
  /// Ordered (src, dest) pairs sampled per scheme.
  std::size_t samples = 2000;
  /// Worst pairs kept across all four schemes.
  std::size_t keep = 64;
  double epsilon = 0.5;
  std::uint64_t seed = 1;
  MetricBackendKind backend = MetricBackendKind::kDense;
};

/// Adversarial-traffic mining: builds the full four-scheme stack on `graph`,
/// routes `samples` seeded pairs through every scheme, and returns the
/// `keep` worst (stretch, scheme, src, dest) entries in descending-stretch
/// order (ties toward the smaller scheme/src/dest, so the mined set is a
/// pure function of the graph and options). The result feeds
/// TrafficShape::kWorstPairs and `crtool server --source` replay files.
std::vector<MinedPair> mine_worst_pairs(const Graph& graph,
                                        const MineOptions& options);

/// Machine-readable campaign report — the artifact CI uploads.
obs::JsonValue campaign_report_json(const CampaignOptions& options,
                                    const CampaignResult& result);

}  // namespace compactroute::audit
