#pragma once
//
// Test oracle: the four hop FSMs written directly against the schemes'
// build-time containers (nested ring vectors, SearchTree, region trees,
// CompactTreeRouter), using only the schemes' public accessors.
//
// The serving runtimes (runtime/hop_*.hpp) step against a HopArena, a flat
// re-layout of the same tables. These references keep the original
// container walks so tests/test_hop_arena.cpp can require both to take
// byte-identical routes. Each reference makes one Decision per call — a pure
// function of (at, header) — adapted to HopScheme::step.
//
#include <cstdint>
#include <limits>
#include <string>

#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "runtime/hop_scheme.hpp"

namespace compactroute {

class ReferenceHopScheme : public HopScheme {
 public:
  struct Decision {
    bool deliver = false;
    NodeId next = kInvalidNode;
    HopHeader header;
  };

  /// One forwarding decision over a copy of the header.
  virtual Decision decide(NodeId at, const HopHeader& header) const = 0;

  bool step(NodeId at, HopHeader& header, NodeId* next) const final;
};

class ReferenceHierarchicalHop final : public ReferenceHopScheme {
 public:
  explicit ReferenceHierarchicalHop(const HierarchicalLabeledScheme& scheme)
      : scheme_(&scheme) {}

  std::string name() const override { return "ref/labeled-hierarchical"; }
  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  Decision decide(NodeId at, const HopHeader& header) const override;

 private:
  const HierarchicalLabeledScheme* scheme_;
};

class ReferenceScaleFreeHop final : public ReferenceHopScheme {
 public:
  /// level field value before the first walk hop (no previous level).
  static constexpr std::int16_t kNoPrevLevel =
      std::numeric_limits<std::int16_t>::max();

  explicit ReferenceScaleFreeHop(const ScaleFreeLabeledScheme& scheme)
      : scheme_(&scheme) {}

  std::string name() const override { return "ref/labeled-scale-free"; }
  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  Decision decide(NodeId at, const HopHeader& header) const override;

 private:
  enum Phase : std::uint8_t {
    kWalk = 0,
    kToCenter = 1,
    kSearch = 2,
    kReturn = 3,
    kFallbackMove = 4,
    kToDest = 5,
  };

  const ScaleFreeLabeledScheme* scheme_;
};

class ReferenceSimpleNameIndependentHop final : public ReferenceHopScheme {
 public:
  /// `underlying` must be the same scheme the NI scheme was built over.
  ReferenceSimpleNameIndependentHop(const SimpleNameIndependentScheme& scheme,
                                    const HierarchicalLabeledScheme& underlying)
      : scheme_(&scheme), underlying_(&underlying) {}

  std::string name() const override { return "ref/name-independent-simple"; }
  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  Decision decide(NodeId at, const HopHeader& header) const override;

 private:
  enum Continuation : std::uint8_t {
    kAtAnchor = 0,
    kSearchNode = 1,
    kSearchBack = 2,
    kDeliver = 3,
  };

  const SimpleNameIndependentScheme* scheme_;
  const HierarchicalLabeledScheme* underlying_;
};

/// A ride of the inner labeled machine is in flight exactly while the
/// header's `nested` is set; arrival resets it.
class ReferenceScaleFreeNameIndependentHop final : public ReferenceHopScheme {
 public:
  ReferenceScaleFreeNameIndependentHop(
      const ScaleFreeNameIndependentScheme& scheme,
      const ScaleFreeLabeledScheme& underlying)
      : scheme_(&scheme), underlying_(&underlying), inner_(underlying) {}

  std::string name() const override {
    return "ref/name-independent-scale-free";
  }
  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  Decision decide(NodeId at, const HopHeader& header) const override;

 private:
  enum Continuation : std::uint8_t {
    kAtAnchor = 0,
    kAtRoot = 1,
    kSearchNode = 2,
    kSearchBack = 3,
    kBackAtAnchor = 4,
    kDeliver = 5,
  };

  /// Begins a ride of the inner scheme toward `label` (fresh nested header).
  void start_ride(HopHeader& header, NodeId at, NodeId label,
                  Continuation continuation) const;

  const ScaleFreeNameIndependentScheme* scheme_;
  const ScaleFreeLabeledScheme* underlying_;
  ReferenceScaleFreeHop inner_;
};

}  // namespace compactroute
