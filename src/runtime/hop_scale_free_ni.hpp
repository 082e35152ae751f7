#pragma once
//
// Hop-by-hop adapter for the scale-free name-independent scheme — the full
// Theorem 1.1 stack (Algorithms 3 + 4) as a layered packet FSM: the shared
// name-independent machine (runtime/hop_name_independent.cpp) riding a
// *nested* header of the scale-free labeled scheme (Theorem 1.2), with
// delegated levels detouring to their packed ball's center. Header sizes
// add: O(log n) outer + the inner scheme's header. Both machines step
// against one shared HopArena.
//
#include <memory>
#include <utility>

#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scheme.hpp"

namespace compactroute {

class HopArena;
class ScaleFreeLabeledScheme;
class ScaleFreeNameIndependentScheme;

class ScaleFreeNameIndependentHopScheme final : public HopScheme {
 public:
  /// Steps against a HopArena carrying the sf + sfni slabs (a
  /// snapshot-restored epoch or a shared compile). The inner labeled machine
  /// steps against the same arena.
  explicit ScaleFreeNameIndependentHopScheme(
      std::shared_ptr<const HopArena> arena);
  /// Compiles a private arena; `underlying` must be the same scheme the NI
  /// scheme was built over.
  ScaleFreeNameIndependentHopScheme(const ScaleFreeNameIndependentScheme& scheme,
                                    const ScaleFreeLabeledScheme& underlying);
  /// Same as the arena-only constructor; the schemes are ignored. Kept for
  /// callers that pass a stack's schemes alongside its shared arena
  /// (crbench/src/stack.cpp).
  ScaleFreeNameIndependentHopScheme(
      const ScaleFreeNameIndependentScheme& /*scheme*/,
      const ScaleFreeLabeledScheme& /*underlying*/,
      std::shared_ptr<const HopArena> arena)
      : ScaleFreeNameIndependentHopScheme(std::move(arena)) {}

  std::string name() const override {
    return "hop/name-independent-scale-free";
  }

  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  bool step(NodeId at, HopHeader& header, NodeId* next) const override;
  TracePhase phase_of(const HopHeader& header) const override;

 private:
  std::shared_ptr<const HopArena> arena_;  // before inner_: it rides on this
  ScaleFreeHopScheme inner_;
};

}  // namespace compactroute
