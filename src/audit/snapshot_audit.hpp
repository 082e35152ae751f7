#pragma once
//
// Snapshot auditor: certifies the io/snapshot round trip.
//
// Two properties make a snapshot trustworthy. First, fidelity: a loaded
// stack must *route identically* to the fresh build it was saved from —
// checked by replaying a deterministic request batch through all four
// hop-by-hop schemes on both stacks and comparing serve fingerprints (a
// digest of every route taken; see runtime/serve.hpp). Second, rejection:
// any corruption — truncation at every section boundary, a bit flip in any
// section, header or directory damage — must surface as the typed
// SnapshotError, never a crash, hang, or silently wrong tables. The
// persisted arena sections add a third: they are a serving cache of the
// compact sections, so they must be byte-equal to a fresh HopArena::build of
// the decoded stack (audit_snapshot_arena).
//
#include <cstdint>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "io/snapshot.hpp"

namespace compactroute::audit {

/// Serve fingerprints of the four hop schemes over a deterministic batch —
/// computable for a fresh stack and for a loaded SnapshotStack alike.
struct ServeFingerprints {
  std::uint64_t hier = 0;
  std::uint64_t scale_free = 0;
  std::uint64_t simple = 0;
  std::uint64_t scale_free_ni = 0;
};

ServeFingerprints serve_fingerprints(
    const CsrGraph& csr, const NetHierarchy& hierarchy, const Naming& naming,
    const HierarchicalLabeledScheme& hier, const ScaleFreeLabeledScheme& sf,
    const SimpleNameIndependentScheme& simple,
    const ScaleFreeNameIndependentScheme& sfni, std::size_t requests,
    std::uint64_t seed);

ServeFingerprints serve_fingerprints(const SnapshotStack& stack,
                                     std::size_t requests, std::uint64_t seed);

/// The same batch stepped against an already built arena (a restored one,
/// say) carrying all four schemes; keys come from the arena's own tables.
ServeFingerprints serve_fingerprints(const CsrGraph& csr,
                                     std::shared_ptr<const HopArena> arena,
                                     std::size_t requests, std::uint64_t seed);

/// Arena equality: decodes the compact sections, compiles a fresh arena with
/// HopArena::build, restores the persisted arena sections, and requires the
/// stored section bytes, the fresh compile and the restored arena to agree
/// byte for byte, section by section.
Report audit_snapshot_arena(const std::vector<std::uint8_t>& bytes);

/// Corruption battery over a valid encoded snapshot: truncations at every
/// section boundary (plus mid-header and one-byte-short), a flipped byte in
/// the header, the directory, and every section payload, the arena sections
/// included. Each variant must fail both the stack decode and the serving
/// restore with SnapshotError.
Report audit_snapshot_corruption(const std::vector<std::uint8_t>& bytes,
                                 const Options& options);

/// The same corruption battery driven through the mmap loader: every mutant
/// is written to `scratch_path` (overwritten per variant, removed at the
/// end) and mapped; both MappedSnapshot::decode and restore_serving_snapshot
/// over the mapping must throw SnapshotError — the zero-copy path gets no
/// laxer validation than the heap path.
Report audit_snapshot_corruption_mmap(const std::vector<std::uint8_t>& bytes,
                                      const std::string& scratch_path,
                                      const Options& options);

/// Full round trip for a fresh stack: encode determinism, decode meta
/// fidelity, loaded-vs-fresh serve-fingerprint equality across all four
/// schemes (decoded and restored), arena equality, then the corruption
/// battery.
Report audit_snapshot_roundtrip(const MetricSpace& metric,
                                const NetHierarchy& hierarchy,
                                const Naming& naming,
                                const HierarchicalLabeledScheme& hier,
                                const ScaleFreeLabeledScheme& sf,
                                const SimpleNameIndependentScheme& simple,
                                const ScaleFreeNameIndependentScheme& sfni,
                                double epsilon, const Options& options);

}  // namespace compactroute::audit
