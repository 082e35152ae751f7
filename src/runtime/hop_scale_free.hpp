#pragma once
//
// Hop-by-hop adapter for the scale-free labeled scheme (Algorithm 5 as a
// finite-state machine in the packet header).
//
// Header anatomy (all polylog bits):
//   dest      — destination label l(v)
//   phase     — WALK / TO_CENTER / SEARCH / RETURN / FALLBACK_MOVE / TO_DEST
//   level     — previous walk level i_{k-1}
//   exponent  — packing exponent j
//   aux       — anchor center c of the current search
//   target    — movement goal: the next search-tree node (virtual-edge
//               traversal rides the Lemma 4.3 next-hop chains) or a center
//   tree_dfs + light — the retrieved local tree label l(v; c, j), copied into
//               the header by the search-tree holder (Algorithm 5 line 9)
//
// Every decision uses only node-local tables: ring hits, region-tree parent
// pointers, search-tree child ranges/chunks, and compact-tree-router state,
// all read from the flat HopArena slabs.
//
#include <cstdint>
#include <limits>
#include <memory>

#include "runtime/hop_scheme.hpp"

namespace compactroute {

class HopArena;
class ScaleFreeLabeledScheme;

class ScaleFreeHopScheme final : public HopScheme {
 public:
  /// level field value before the first walk hop (no previous level).
  static constexpr std::int16_t kNoPrevLevel =
      std::numeric_limits<std::int16_t>::max();

  /// Steps against a HopArena carrying the scale-free slab (a
  /// snapshot-restored epoch or a shared compile).
  explicit ScaleFreeHopScheme(std::shared_ptr<const HopArena> arena);
  /// Compiles a private arena from the scheme.
  explicit ScaleFreeHopScheme(const ScaleFreeLabeledScheme& scheme);
  /// Same as the arena-only constructor; the scheme is ignored. Kept for
  /// callers that pass a stack's scheme alongside its shared arena
  /// (crbench/src/stack.cpp).
  ScaleFreeHopScheme(const ScaleFreeLabeledScheme& scheme,
                     std::shared_ptr<const HopArena> arena);

  std::string name() const override { return "hop/labeled-scale-free"; }

  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  bool step(NodeId at, HopHeader& header, NodeId* next) const override;
  TracePhase phase_of(const HopHeader& header) const override;

  /// Resets `header` in place to field-for-field what make_header(·, dest_key)
  /// returns, keeping its light-edge capacity: the scale-free NI machine
  /// restarts its nested ride header this way with zero allocations.
  void reset_header(HopHeader& header, std::uint64_t dest_key) const;

 private:
  enum Phase : std::uint8_t {
    kWalk = 0,
    kToCenter = 1,
    kSearch = 2,
    kReturn = 3,
    kFallbackMove = 4,
    kToDest = 5,
  };

  std::shared_ptr<const HopArena> arena_;
};

}  // namespace compactroute
