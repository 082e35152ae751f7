#pragma once
//
// Paper-invariant audit subsystem.
//
// Every theorem in the paper rests on structural invariants that the
// construction code *assumes*: Definition 2.1 r-net covering/separation,
// the netting-tree bounds of Eqns (1)(2), Packing Lemma 2.3, the search
// trees of Definitions 3.2/4.2, the DFS Range(x, i) partition of Section
// 4.1, and the bit-exact wire formats. A silent construction bug would
// surface only as an unexplained stretch regression — so this module turns
// each invariant into an independent executable *auditor* that re-derives
// the property from the metric alone and reports every violation.
//
// Auditors consume *views* (bundles of std::function accessors) rather
// than the concrete structures, so tests can wrap a view and inject a
// deliberate defect — dropping a net point, widening a DFS range — and
// assert the auditor catches it. tests/test_audit.cpp mutation-tests every
// auditor this way: the checkers themselves are certified.
//
// The auditors are deliberately written against the paper, not against the
// construction code: they recompute covering radii, parent distances, and
// range partitions from first principles instead of calling back into the
// code paths they are checking.
//
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "graph/metric.hpp"
#include "nets/ball_packing.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "routing/scheme.hpp"
#include "runtime/hop_scheme.hpp"
#include "search/search_tree.hpp"

namespace compactroute {

class HierarchicalLabeledScheme;
class ScaleFreeLabeledScheme;
class SimpleNameIndependentScheme;
class ScaleFreeNameIndependentScheme;

namespace audit {

/// One invariant violation. `auditor` names the checker, `invariant` the
/// paper property (stable machine-matchable slug), `detail` the witness.
struct Issue {
  std::string auditor;
  std::string invariant;
  std::string detail;
};

struct Report {
  std::vector<Issue> issues;
  std::size_t checks = 0;  // individual comparisons performed

  bool ok() const { return issues.empty(); }
  void add(std::string auditor, std::string invariant, std::string detail);
  /// Counts the check; files an issue when `cond` is false. Returns cond.
  bool expect(bool cond, const char* auditor, const char* invariant,
              const std::string& detail);
  void merge(const Report& other);
  /// Human-readable digest of the first `max_issues` issues.
  std::string summary(std::size_t max_issues = 8) const;
};

struct Options {
  std::uint64_t seed = 1;         // sampling streams are split off this
  std::size_t sample_nodes = 64;  // cap on nodes probed per exhaustive scan
  std::size_t sample_pairs = 48;  // routed pairs per scheme
  double slack = 1e-7;            // float comparison tolerance
};

// ---------------------------------------------------------------------------
// Views: the audited structure behind std::function accessors, so tests can
// interpose defects without touching the real construction.
// ---------------------------------------------------------------------------

/// View of a NetHierarchy (nets, zoom chains, netting parents, DFS labels).
struct HierarchyView {
  int top_level = 0;
  std::function<std::vector<NodeId>(int)> net;          // Y_i, sorted by id
  std::function<NodeId(int, NodeId)> zoom;              // u(i)
  std::function<NodeId(int, NodeId)> parent;            // netting parent of x ∈ Y_i
  std::function<NodeId(NodeId)> leaf_label;             // l(v)
  std::function<NodeId(NodeId)> node_of_label;          // l^{-1}
  std::function<LeafRange(int, NodeId)> range;          // Range(x, i)

  static HierarchyView of(const NetHierarchy& hierarchy);
};

/// View of one BallPacking ℬ_j.
struct PackingView {
  int size_exponent = 0;
  std::function<std::vector<PackedBall>()> balls;
  std::function<int(NodeId)> ball_of;

  static PackingView of(const BallPacking& packing);
};

// ---------------------------------------------------------------------------
// Auditors. Each returns an independent Report; merge() to aggregate.
// ---------------------------------------------------------------------------

/// Definition 2.1 on every level: 2^i covering, 2^i separation, nestedness
/// Y_{i+1} ⊆ Y_i, Y_0 = V, |Y_top| = 1.
Report audit_rnet(const MetricSpace& metric, const HierarchyView& view,
                  const Options& options);

/// Netting-tree bounds: parent ∈ Y_{i+1}, d(x, parent) minimal over Y_{i+1}
/// and ≤ 2^{i+1} (Eqn 1); zoom chains well-formed with d(u, u(i)) < 2^{i+1}
/// (Eqn 2) and u(i+1) = parent(u(i)).
Report audit_netting_tree(const MetricSpace& metric, const HierarchyView& view,
                          const Options& options);

/// Section 4.1 DFS labels: l is a bijection onto [0, n); at every level the
/// ranges {Range(x, i)} partition [0, n) contiguously; ranges nest along
/// netting parents; l(u) ∈ Range(x, i) ⟺ x = u(i).
Report audit_dfs_ranges(const MetricSpace& metric, const HierarchyView& view,
                        const Options& options);

/// Packing Lemma 2.3: balls pairwise disjoint with ≥ 2^j members inside
/// their radius, ball_of consistent, and the covering guarantee — every u
/// has a packed ball B(c) with r_c(j) ≤ r_u(j) and d(u, c) ≤ 2 r_u(j).
Report audit_ball_packing(const MetricSpace& metric, const PackingView& view,
                          const Options& options);

/// Definitions 3.2/4.2 on a built-and-stored search tree: tree structure
/// coherent, height within the Eqn (3) bound, every stored (key, data) pair
/// findable with the trail returning to the root within 2·height cost, key
/// ranges consistent, absent keys rejected. `epsilon` and the tree's radius
/// reproduce the height ceiling (with the documented +r slack when εr < 2).
Report audit_search_tree(const MetricSpace& metric, const SearchTree& tree,
                         double epsilon, const Options& options);

/// Bit-exact wire formats: encode → decode → re-encode of every sampled
/// node's hierarchical table is byte-identical and the decoded rings agree
/// with the in-memory scheme (range and physical port). `tamper`, when set,
/// corrupts the encoded bytes before decoding — the mutation-test hook
/// (and the campaign's --inject flip-codec-bit).
using CodecTamper = std::function<void(NodeId, std::vector<std::uint8_t>&)>;
Report audit_codec(const MetricSpace& metric,
                   const HierarchicalLabeledScheme& scheme,
                   const Options& options, const CodecTamper& tamper = nullptr);

/// Executor-run coherence for one finished HopRun: path starts at src and
/// (when delivered) ends at dst, every hop is a real graph neighbor, the
/// accumulated cost equals the re-derived edge-weight sum, and the header
/// metering equals the per-hop accounting (max over initial + traced bits).
Report audit_hop_run(const MetricSpace& metric, const HopRun& run, NodeId src,
                     NodeId dst, const std::string& scheme_name,
                     const Options& options);

/// Runs `scheme` hop by hop on sampled pairs and audits every run.
/// `dest_key_of` maps a destination node to its routing key (label or name).
Report audit_runtime(const MetricSpace& metric, const HopScheme& scheme,
                     const std::function<std::uint64_t(NodeId)>& dest_key_of,
                     const Options& options);

/// Stretch ceiling: routed cost ≤ (base + eps_coeff · ε) · d(u, v).
/// The defaults mirror the Theorem 1.1/1.2 bounds with the constant slack
/// the test suite has always used (1 + 20ε labeled, 9 + 70ε name-indep).
struct StretchCeiling {
  double base = 1.0;
  double eps_coeff = 20.0;
  double bound(double epsilon) const { return base + eps_coeff * epsilon; }
  static StretchCeiling labeled() { return {1.0, 20.0}; }
  static StretchCeiling name_independent() { return {9.0, 70.0}; }
};

/// Routed cost vs Dijkstra ground truth on sampled pairs: delivery, path
/// endpoints, self-reported cost ≡ metric cost of the walk, and stretch
/// within the scheme ceiling.
Report audit_stretch_certificate(const MetricSpace& metric,
                                 const std::string& scheme_name,
                                 const std::function<RouteResult(NodeId, NodeId)>& route,
                                 double epsilon, const StretchCeiling& ceiling,
                                 const Options& options);

/// Ring-table coherence of both labeled schemes against the hierarchy:
/// every ring entry's net point is in Y_i with the hierarchy's range, and
/// its next hop is the node itself or a physical neighbor.
Report audit_ring_tables(const MetricSpace& metric, const HierarchyView& view,
                         const HierarchicalLabeledScheme& hier,
                         const ScaleFreeLabeledScheme& scale_free,
                         const Options& options);

/// The whole battery over a fully built stack: all structural auditors plus
/// codec, runtime (all four hop schemes) and stretch certificates (all four
/// schemes).
Report audit_all(const MetricSpace& metric, const NetHierarchy& hierarchy,
                 const Naming& naming, const HierarchicalLabeledScheme& hier,
                 const ScaleFreeLabeledScheme& scale_free,
                 const SimpleNameIndependentScheme& simple,
                 const ScaleFreeNameIndependentScheme& scale_free_ni,
                 double epsilon, const Options& options);

}  // namespace audit
}  // namespace compactroute
