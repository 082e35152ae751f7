#pragma once
//
// Hop-by-hop adapter for the scale-free name-independent scheme — the full
// Theorem 1.1 stack (Algorithms 3 + 4) as a layered packet FSM.
//
// Layering: the outer machine carries the name-independent state and a
// *nested* header of the scale-free labeled scheme (Theorem 1.2). Every
// physical hop executes one step of the inner machine toward the current
// ride target; when the inner ride delivers, the outer machine advances:
// climb the zooming sequence, detour to the delegated packed-ball tree
// (Algorithm 4's "go to c"), descend/ascend the search tree, or take the
// final leg. Header sizes add: O(log n) outer + the inner scheme's header.
//
// Outer header fields:
//   dest        — destination original name
//   level / aux — zoom level i and anchor u(i)
//   extra       — root of the active search structure (anchor or ball center)
//   target      — search-tree cursor
//   tree_dfs    — the retrieved routing label l(v) (once found)
//   inner_phase — continuation after the current ride arrives
//   nested      — the inner ScaleFreeHopScheme header (ride in progress)
//   phase       — 1 while a ride is active. The nested header stays
//                 allocated between rides and is reset in place, so rides
//                 cost zero allocations. Header metering still counts it on
//                 every emitted hop: each one happens mid-ride.
//
// Both machines step against one shared HopArena.
//
#include <memory>

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
  ScaleFreeNameIndependentHopScheme(const ScaleFreeNameIndependentScheme& scheme,
                                    const ScaleFreeLabeledScheme& underlying,
                                    std::shared_ptr<const HopArena> arena);

  std::string name() const override {
    return "hop/name-independent-scale-free";
  }

  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  bool step(NodeId at, HopHeader& header, NodeId* next) const override;
  TracePhase phase_of(const HopHeader& header) const override;

 private:
  enum Continuation : std::uint8_t {
    kAtAnchor = 0,    // arrived at u(level): run Search(·, u(level), level)
    kAtRoot = 1,      // arrived at the search structure's root: descend
    kSearchNode = 2,  // arrived at the next search-tree node
    kSearchBack = 3,  // returning toward the search root
    kBackAtAnchor = 4,  // Algorithm 4 line 7: returned from c to u
    kDeliver = 5,     // final leg arrived
  };

  /// Begins a ride of the inner scheme toward `label`: the nested header is
  /// reset in place to field-for-field what inner_.make_header produces, no
  /// allocation.
  void start_ride(HopHeader& header, NodeId label,
                  Continuation continuation) const;

  std::shared_ptr<const HopArena> arena_;  // before inner_: it rides on this
  ScaleFreeHopScheme inner_;
};

}  // namespace compactroute
