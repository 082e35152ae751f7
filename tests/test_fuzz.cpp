#include <gtest/gtest.h>

#include <string>

#include "audit/campaign.hpp"

namespace compactroute {
namespace {

// Model-based fuzzing via the audit campaign driver (src/audit/campaign).
// Instead of hand-rolled random instances with ad-hoc spot checks, each
// family sweeps fixed seeds through the deterministic campaign: build the
// full Theorem 1.1/1.2 stack and run the complete audit battery — nets,
// netting tree, DFS ranges, packings, search trees, codecs, the packed
// router, the hop-by-hop runtime, and stretch certificates. A failure names
// the exact (family, n, seed, ε, backend, workers) reproducer, and
// `crtool audit` re-runs and shrinks it from the command line.
class CampaignFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(CampaignFuzz, SweepIsCleanOnBothBackendsAndWorkerCounts) {
  audit::CampaignOptions options;
  options.families = {GetParam()};
  options.n_hints = {32, 64};
  options.seeds = {1, 2, 3};
  options.epsilons = {0.5};
  options.backends = {MetricBackendKind::kDense, MetricBackendKind::kRowFree};
  options.worker_counts = {1, 4};
  options.shrink = false;  // a red case is already a named reproducer

  const audit::CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.cases_run, 2u * 3u * 2u * 2u);
  EXPECT_GT(result.checks, 10000u);
  EXPECT_TRUE(result.ok());
  for (const audit::CaseOutcome& outcome : result.outcomes) {
    for (const audit::Issue& issue : outcome.issues) {
      ADD_FAILURE() << outcome.config.family << " n=" << outcome.n
                    << " seed=" << outcome.config.seed
                    << " workers=" << outcome.config.workers << ": ["
                    << issue.auditor << "/" << issue.invariant << "] "
                    << issue.detail;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CampaignFuzz,
    ::testing::ValuesIn(audit::campaign_families()),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

TEST(CampaignFuzzDeterminism, WorkerCountsAgreeCheckForCheck) {
  // Determinism across parallelism: the same case audited with 1 and with 4
  // workers must perform the identical number of checks and find nothing.
  std::size_t baseline = 0;
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    audit::CampaignCase config;
    config.family = "geometric";
    config.n_hint = 64;
    config.seed = 5;
    config.workers = workers;
    const audit::Report report = run_audit_case(config, audit::Options{});
    EXPECT_TRUE(report.ok()) << report.summary();
    if (workers == 1) {
      baseline = report.checks;
    } else {
      EXPECT_EQ(report.checks, baseline);
    }
  }
}

TEST(CampaignFuzzDeterminism, ExhaustedBudgetStopsBetweenCases) {
  audit::CampaignOptions options;
  options.families = {"grid"};
  options.budget_seconds = 1e-9;
  const audit::CampaignResult result = run_campaign(options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.cases_run, 0u);
}

}  // namespace
}  // namespace compactroute
