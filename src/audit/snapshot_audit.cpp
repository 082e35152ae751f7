#include "audit/snapshot_audit.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>

#include "io/snapshot_arena.hpp"
#include "io/snapshot_mmap.hpp"
#include "runtime/hop_arena.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"

namespace compactroute::audit {

namespace {

constexpr const char* kAuditor = "snapshot";

std::string hex64(std::uint64_t x) {
  std::ostringstream out;
  out << "0x" << std::hex << x;
  return out.str();
}

/// A loader under battery: must reject a corrupt buffer with SnapshotError.
using Loader = std::function<void(const std::vector<std::uint8_t>&)>;

/// Files an Issue if `load` accepts `bytes`, or if a differently-typed
/// exception escapes.
void expect_rejected_by(Report& report, const Loader& load,
                        const std::vector<std::uint8_t>& bytes,
                        const std::string& what) {
  ++report.checks;
  try {
    load(bytes);
    report.add(kAuditor, "corruption rejected",
               what + ": corrupt snapshot was accepted");
  } catch (const SnapshotError&) {
    // The one acceptable outcome.
  } catch (const std::exception& e) {
    report.add(kAuditor, "corruption rejected",
               what + ": escaped with non-SnapshotError: " + e.what());
  }
}

/// Shared mutant generator: truncations at every structural boundary and
/// byte flips in the magic, directory, and every payload, each handed to
/// every one of the caller's loaders (heap decode + restore, or mmap).
Report run_corruption_battery(const std::vector<std::uint8_t>& bytes,
                              const std::vector<Loader>& loaders) {
  Report report;

  // The battery needs the honest directory to aim its mutations; if the
  // input itself is invalid there is nothing meaningful to corrupt.
  std::vector<SnapshotSection> sections;
  try {
    sections = snapshot_directory(bytes);
  } catch (const SnapshotError& e) {
    report.add(kAuditor, "battery input valid",
               std::string("input snapshot does not parse: ") + e.what());
    return report;
  }
  report.expect(!sections.empty(), kAuditor, "battery input valid",
                "snapshot has no sections");
  if (sections.empty()) return report;

  const auto reject = [&](const std::vector<std::uint8_t>& mutant,
                          const std::string& what) {
    for (const Loader& load : loaders) {
      expect_rejected_by(report, load, mutant, what);
    }
  };

  // Truncations: empty file, mid-magic, mid-header, every section boundary
  // (start and end of each payload), and one-byte-short. Offset tiling means
  // each of these changes the expected exact file size.
  std::vector<std::size_t> cuts = {0, 4, 12, bytes.size() - 1};
  for (const SnapshotSection& s : sections) {
    cuts.push_back(static_cast<std::size_t>(s.offset));
    cuts.push_back(static_cast<std::size_t>(s.offset + s.size) - 1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
    reject(truncated, "truncate to " + std::to_string(cut) + " bytes");
  }

  // Bit flips: one byte in the magic, one in the directory, and the first,
  // middle, and last byte of every section payload. Section CRCs (and the
  // directory CRC) must catch each one.
  const auto flip = [&](std::size_t pos, const std::string& what) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[pos] ^= 0x40;
    reject(mutated, what + " (byte " + std::to_string(pos) + ")");
  };
  flip(0, "flip magic");
  flip(20, "flip directory");
  for (const SnapshotSection& s : sections) {
    // Zero-size sections (absent schemes in a subset snapshot) have no
    // payload bytes to flip — and offset == file size for a trailing one,
    // so indexing would run off the buffer.
    if (s.size == 0) continue;
    const std::size_t first = static_cast<std::size_t>(s.offset);
    const std::size_t last = static_cast<std::size_t>(s.offset + s.size) - 1;
    flip(first, "flip first byte of section " + s.name);
    flip(first + (last - first) / 2, "flip middle byte of section " + s.name);
    flip(last, "flip last byte of section " + s.name);
  }
  return report;
}

}  // namespace

ServeFingerprints serve_fingerprints(
    const CsrGraph& csr, const NetHierarchy& hierarchy, const Naming& naming,
    const HierarchicalLabeledScheme& hier, const ScaleFreeLabeledScheme& sf,
    const SimpleNameIndependentScheme& simple,
    const ScaleFreeNameIndependentScheme& sfni, std::size_t requests,
    std::uint64_t seed) {
  // One arena for all four steppers — compiled once, not per scheme.
  return serve_fingerprints(
      csr, HopArena::build(hierarchy, &naming, &hier, &sf, &simple, &sfni),
      requests, seed);
}

ServeFingerprints serve_fingerprints(const CsrGraph& csr,
                                     std::shared_ptr<const HopArena> arena,
                                     std::size_t requests,
                                     std::uint64_t seed) {
  const std::size_t n = csr.num_nodes();
  const auto labeled = make_requests(n, requests, seed, [&](NodeId v) {
    return std::uint64_t{arena->leaf_label[v]};
  });
  const auto named = make_requests(
      n, requests, seed + 1, [&](NodeId v) { return arena->name_of[v]; });

  ServeOptions options;
  options.collect_latencies = false;  // fingerprints only

  ServeFingerprints fps;
  fps.hier = serve_batch(csr, HierarchicalHopScheme(arena), labeled, options)
                 .fingerprint;
  fps.scale_free =
      serve_batch(csr, ScaleFreeHopScheme(arena), labeled, options).fingerprint;
  fps.simple =
      serve_batch(csr, SimpleNameIndependentHopScheme(arena), named, options)
          .fingerprint;
  fps.scale_free_ni =
      serve_batch(csr, ScaleFreeNameIndependentHopScheme(arena), named, options)
          .fingerprint;
  return fps;
}

ServeFingerprints serve_fingerprints(const SnapshotStack& stack,
                                     std::size_t requests,
                                     std::uint64_t seed) {
  return serve_fingerprints(stack.csr, *stack.hierarchy, *stack.naming,
                            *stack.hier, *stack.sf, *stack.simple, *stack.sfni,
                            requests, seed);
}

Report audit_snapshot_arena(const std::vector<std::uint8_t>& bytes) {
  Report report;
  ++report.checks;
  std::vector<SnapshotSection> sections;
  std::shared_ptr<const HopArena> fresh;
  std::shared_ptr<const HopArena> restored;
  try {
    sections = snapshot_directory(bytes);
    fresh = decode_snapshot(bytes).build_arena();
    restored = restore_serving_snapshot(bytes.data(), sections).arena;
  } catch (const std::exception& e) {
    report.add(kAuditor, "arena sections equal a fresh compile",
               std::string("snapshot does not load: ") + e.what());
    return report;
  }
  for (std::size_t p = 0; p < kNumArenaParts; ++p) {
    const ArenaPart part = static_cast<ArenaPart>(p);
    const SnapshotSection& stored =
        sections[sections.size() - kNumArenaParts + p];
    const std::vector<std::uint8_t> compiled = arena_section_bytes(*fresh, part);
    const bool stored_ok =
        compiled.size() == stored.size &&
        std::equal(compiled.begin(), compiled.end(),
                   bytes.begin() + static_cast<long>(stored.offset));
    report.expect(stored_ok, kAuditor, "arena sections equal a fresh compile",
                  "section " + stored.name + " differs from HopArena::build");
    report.expect(arena_section_bytes(*restored, part) == compiled, kAuditor,
                  "restored arena equals a fresh compile",
                  "restored " + stored.name + " differs from HopArena::build");
  }
  return report;
}

Report audit_snapshot_corruption(const std::vector<std::uint8_t>& bytes,
                                 const Options& options) {
  (void)options;
  return run_corruption_battery(
      bytes, {[](const std::vector<std::uint8_t>& b) {
                (void)decode_snapshot(b);
              },
              [](const std::vector<std::uint8_t>& b) {
                (void)restore_serving_snapshot(b.data(), b.size());
              }});
}

Report audit_snapshot_corruption_mmap(const std::vector<std::uint8_t>& bytes,
                                      const std::string& scratch_path,
                                      const Options& options) {
  (void)options;
  Report report = run_corruption_battery(
      bytes, {[&](const std::vector<std::uint8_t>& b) {
        write_snapshot_file(scratch_path, b);
        const MappedSnapshot mapped(scratch_path);
        (void)mapped.decode();
      },
              [&](const std::vector<std::uint8_t>& b) {
                write_snapshot_file(scratch_path, b);
                const MappedSnapshot mapped(scratch_path);
                (void)restore_serving_snapshot(mapped.data(), mapped.size());
              }});
  std::remove(scratch_path.c_str());
  return report;
}

Report audit_snapshot_roundtrip(const MetricSpace& metric,
                                const NetHierarchy& hierarchy,
                                const Naming& naming,
                                const HierarchicalLabeledScheme& hier,
                                const ScaleFreeLabeledScheme& sf,
                                const SimpleNameIndependentScheme& simple,
                                const ScaleFreeNameIndependentScheme& sfni,
                                double epsilon, const Options& options) {
  Report report;

  const std::vector<std::uint8_t> bytes =
      encode_snapshot(metric, epsilon, hierarchy, naming, hier, sf, simple, sfni);
  const std::vector<std::uint8_t> again =
      encode_snapshot(metric, epsilon, hierarchy, naming, hier, sf, simple, sfni);
  report.expect(bytes == again, kAuditor, "encode deterministic",
                "two encodes of the same stack differ");

  SnapshotStack stack;
  ++report.checks;
  try {
    stack = decode_snapshot(bytes);
  } catch (const std::exception& e) {
    report.add(kAuditor, "round trip decodes",
               std::string("fresh encode failed to decode: ") + e.what());
    return report;
  }

  report.expect(stack.n == metric.n() && stack.epsilon == epsilon, kAuditor,
                "meta round trip", "n/epsilon mismatch after round trip");

  const std::size_t requests = std::max<std::size_t>(options.sample_pairs, 8);
  const ServeFingerprints fresh = serve_fingerprints(
      metric.csr(), hierarchy, naming, hier, sf, simple, sfni, requests,
      options.seed);
  const ServeFingerprints loaded =
      serve_fingerprints(stack, requests, options.seed);
  ServeFingerprints restored;
  ++report.checks;
  try {
    const ServingSnapshot serving =
        restore_serving_snapshot(bytes.data(), bytes.size());
    restored = serve_fingerprints(serving.csr, serving.arena, requests,
                                  options.seed);
  } catch (const std::exception& e) {
    report.add(kAuditor, "round trip restores",
               std::string("fresh encode failed to restore: ") + e.what());
  }

  const auto expect_fp = [&](const char* scheme, std::uint64_t a,
                             std::uint64_t b) {
    report.expect(a == b, kAuditor, "serve fingerprint matches fresh build",
                  std::string(scheme) + ": fresh " + hex64(a) + " vs loaded " +
                      hex64(b));
  };
  expect_fp("labeled/hierarchical", fresh.hier, loaded.hier);
  expect_fp("labeled/scale-free", fresh.scale_free, loaded.scale_free);
  expect_fp("ni/simple", fresh.simple, loaded.simple);
  expect_fp("ni/scale-free", fresh.scale_free_ni, loaded.scale_free_ni);
  expect_fp("restored labeled/hierarchical", fresh.hier, restored.hier);
  expect_fp("restored labeled/scale-free", fresh.scale_free,
            restored.scale_free);
  expect_fp("restored ni/simple", fresh.simple, restored.simple);
  expect_fp("restored ni/scale-free", fresh.scale_free_ni,
            restored.scale_free_ni);

  report.merge(audit_snapshot_arena(bytes));
  report.merge(audit_snapshot_corruption(bytes, options));
  return report;
}

}  // namespace compactroute::audit
