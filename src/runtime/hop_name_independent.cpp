// The name-independent hop machine: Algorithms 3 and 4 as one layered packet
// FSM, shared by both NI steppers.
//
// Every physical hop is one step of a *ride* of the underlying labeled scheme
// toward a label; when a ride arrives, the outer machine advances: climb the
// zooming sequence, go to the root c of the level's search structure, walk
// the search tree down and back up, come back from c to u(i), or take the
// final leg. Algorithm 3 is the case c = u(i), where the two detours are
// zero-length rides. Outer header fields: dest = id(v); level / aux = i and
// u(i); extra = c; target = search cursor; tree_dfs = the found label l(v)
// (exponent = 1 once found); inner_phase = the continuation; phase = kRiding
// while a ride is active.
//
// The ride policy is a template parameter, so the machine never branches per
// hop on which scheme it serves:
//   HierarchicalRide (simple NI)  — a greedy hierarchical ring step toward
//     HopHeader::inner; every level owns its tree (root = anchor);
//   ScaleFreeRide (scale-free NI) — one step of the nested ScaleFreeHopScheme
//     header, reset in place between rides (zero allocations). Metering
//     counts the nested header on every hop: each one happens mid-ride.
//
#include "core/check.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "runtime/hop_arena.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"

namespace compactroute {

namespace {

// Continuations (inner_phase): what the outer machine does when the current
// ride arrives.
enum Continuation : std::uint8_t {
  kAtAnchor = 0,      // arrived at u(level): run Search(·, u(level), level)
  kAtRoot = 1,        // arrived at the search structure's root c: descend
  kSearchNode = 2,    // arrived at the next search-tree node
  kSearchBack = 3,    // returning toward c
  kBackAtAnchor = 4,  // Algorithm 4 line 7: returned from c to u
  kDeliver = 5,       // final leg arrived
};

constexpr std::uint8_t kRiding = 1;  // header.phase while a ride is active

struct HierarchicalRide {
  const HopArena& a;
  void start(HopHeader& h, NodeId label) const { h.inner = label; }
  bool arrived(NodeId at, const HopHeader& h) const {
    return a.leaf_label[at] == static_cast<NodeId>(h.inner);
  }
  void step(NodeId at, const HopHeader& h, NodeId* next) const {
    *next = a.hier_ring_next(at, static_cast<NodeId>(h.inner));
    a.prefetch_hier_rings(*next);
  }
  std::int32_t tree_of(std::size_t slot) const { return a.simple_tree_of[slot]; }
  NodeId root_of(std::size_t, NodeId anchor) const { return anchor; }
};

struct ScaleFreeRide {
  const HopArena& a;
  const ScaleFreeHopScheme& inner;
  void start(HopHeader& h, NodeId label) const {
    if (!h.nested) h.nested = std::make_unique<HopHeader>();
    inner.reset_header(*h.nested, label);
  }
  bool arrived(NodeId at, const HopHeader& h) const {
    return a.leaf_label[at] == static_cast<NodeId>(h.nested->dest);
  }
  void step(NodeId at, HopHeader& h, NodeId* next) const {
    const bool delivered = inner.step(at, *h.nested, next);
    CR_CHECK_MSG(!delivered, "arrival is checked before stepping");
  }
  std::int32_t tree_of(std::size_t slot) const { return a.sfni_tree_of[slot]; }
  NodeId root_of(std::size_t slot, NodeId) const { return a.sfni_root[slot]; }
};

HopHeader ni_make_header(NodeId src, std::uint64_t dest_key) {
  HopHeader header;
  header.dest = dest_key;
  header.level = 0;
  header.aux = src;  // u(0) = the source itself
  header.inner_phase = kAtAnchor;
  return header;
}

TracePhase ni_phase_of(const HopHeader& header) {
  // Every physical hop rides the underlying labeled machine; classify it by
  // the outer continuation — what the ride is *for*.
  switch (static_cast<Continuation>(header.inner_phase)) {
    case kAtAnchor:
    case kAtRoot:
    case kBackAtAnchor:
      return TracePhase::kHandoff;  // anchor climbs and ball-tree detours
    case kSearchNode:
    case kSearchBack:
      return TracePhase::kNetSearch;
    case kDeliver:
      return TracePhase::kLabelLookup;  // final leg toward the found label
  }
  return TracePhase::kForward;
}

template <typename Ride>
bool ni_step(const HopArena& a, const Ride& ride, NodeId at, HopHeader& h,
             NodeId* next) {
  const std::size_t n = a.n;
  const auto start_ride = [&](NodeId label, Continuation continuation) {
    h.inner_phase = continuation;
    ride.start(h, label);
    h.phase = kRiding;
  };
  const auto tree_row = [&] {
    const std::int32_t t =
        ride.tree_of(static_cast<std::size_t>(h.level) * n + h.aux);
    CR_CHECK(t >= 0);
    return a.trees.locate(t, at);
  };

  // Several levels can be processed at one physical node (tiny search trees
  // answer at their root), so the settle budget scales with the hierarchy.
  const int settle_budget = 8 * (a.top_level + 4) + 64;
  for (int guard = 0; guard < settle_budget; ++guard) {
    if (h.phase == kRiding) {
      if (!ride.arrived(at, h)) {
        ride.step(at, h, next);
        return false;
      }
      h.phase = 0;  // arrived; fall through to the continuation
    }

    switch (static_cast<Continuation>(h.inner_phase)) {
      case kDeliver: {
        CR_CHECK(a.name_of[at] == h.dest);
        return true;
      }

      case kAtAnchor: {
        if (a.name_of[at] == h.dest) return true;
        const std::size_t slot = static_cast<std::size_t>(h.level) * n + h.aux;
        const NodeId root = ride.root_of(slot, h.aux);
        CR_CHECK(root != kInvalidNode);
        h.extra = root;
        start_ride(a.leaf_label[root], kAtRoot);  // "go to c from u"
        break;
      }

      case kAtRoot: {
        h.target = at;  // the search cursor starts at the root
        h.inner_phase = kSearchNode;
        break;
      }

      case kSearchNode: {
        const std::uint32_t row = tree_row();
        const std::uint32_t child = a.trees.child_containing(row, h.dest);
        if (child != HopArena::TreeBank::npos) {
          const NodeId next_node = a.trees.child_global[child];
          h.target = next_node;
          start_ride(a.leaf_label[next_node], kSearchNode);  // one virtual edge
          break;
        }
        std::uint64_t found_label = 0;
        if (a.trees.holds(row, h.dest, &found_label)) {
          h.tree_dfs = static_cast<NodeId>(found_label);  // remember l(v)
          h.exponent = 1;                                 // "found" flag
        } else {
          h.exponent = 0;
        }
        // Report back toward the root (Algorithm 2 line 10).
        const NodeId parent = a.trees.parent_global[row];
        const NodeId up = parent == kInvalidNode ? at : parent;
        h.target = up;
        start_ride(a.leaf_label[up], kSearchBack);
        break;
      }

      case kSearchBack: {
        if (at != h.extra) {
          const NodeId up = a.trees.parent_global[tree_row()];
          CR_CHECK(up != kInvalidNode);
          h.target = up;
          start_ride(a.leaf_label[up], kSearchBack);
          break;
        }
        start_ride(a.leaf_label[h.aux], kBackAtAnchor);  // "go back from c to u"
        break;
      }

      case kBackAtAnchor: {
        if (h.exponent == 1) {
          start_ride(h.tree_dfs, kDeliver);  // the retrieved label l(v)
          break;
        }
        // Climb to u(level+1) — its label is stored along the netting tree.
        CR_CHECK_MSG(h.level < a.top_level,
                     "the top search ball covers the whole graph");
        const NodeId up =
            a.net_parent[static_cast<std::size_t>(h.level) * n + at];
        h.level = static_cast<std::int16_t>(h.level + 1);
        h.aux = up;
        start_ride(a.leaf_label[up], kAtAnchor);
        break;
      }
    }
  }
  CR_CHECK_MSG(false, "phase machine did not settle");
  return false;
}

}  // namespace

// ---- simple NI: Algorithm 3 over hierarchical rides ----

SimpleNameIndependentHopScheme::SimpleNameIndependentHopScheme(
    std::shared_ptr<const HopArena> arena)
    : arena_(std::move(arena)) {
  CR_CHECK(arena_ && arena_->hier_present && arena_->simple_present);
  CR_CHECK(arena_->name_of.size() == arena_->n);
}

SimpleNameIndependentHopScheme::SimpleNameIndependentHopScheme(
    const SimpleNameIndependentScheme& scheme,
    const HierarchicalLabeledScheme& underlying)
    : SimpleNameIndependentHopScheme(
          HopArena::build(scheme.hierarchy(), &scheme.naming(), &underlying,
                          nullptr, &scheme, nullptr)) {}

HopHeader SimpleNameIndependentHopScheme::make_header(
    NodeId src, std::uint64_t dest_key) const {
  return ni_make_header(src, dest_key);
}

TracePhase SimpleNameIndependentHopScheme::phase_of(
    const HopHeader& header) const {
  return ni_phase_of(header);
}

bool SimpleNameIndependentHopScheme::step(NodeId at, HopHeader& header,
                                          NodeId* next) const {
  return ni_step(*arena_, HierarchicalRide{*arena_}, at, header, next);
}

// ---- scale-free NI: Algorithm 4 over nested scale-free rides ----

ScaleFreeNameIndependentHopScheme::ScaleFreeNameIndependentHopScheme(
    std::shared_ptr<const HopArena> arena)
    : arena_(std::move(arena)), inner_(arena_) {
  CR_CHECK(arena_ && arena_->sf_present && arena_->sfni_present);
  CR_CHECK(arena_->name_of.size() == arena_->n);
}

ScaleFreeNameIndependentHopScheme::ScaleFreeNameIndependentHopScheme(
    const ScaleFreeNameIndependentScheme& scheme,
    const ScaleFreeLabeledScheme& underlying)
    : ScaleFreeNameIndependentHopScheme(
          HopArena::build(underlying.hierarchy(), &scheme.naming(), nullptr,
                          &underlying, nullptr, &scheme)) {}

HopHeader ScaleFreeNameIndependentHopScheme::make_header(
    NodeId src, std::uint64_t dest_key) const {
  return ni_make_header(src, dest_key);
}

TracePhase ScaleFreeNameIndependentHopScheme::phase_of(
    const HopHeader& header) const {
  return ni_phase_of(header);
}

bool ScaleFreeNameIndependentHopScheme::step(NodeId at, HopHeader& header,
                                             NodeId* next) const {
  return ni_step(*arena_, ScaleFreeRide{*arena_, inner_}, at, header, next);
}

}  // namespace compactroute
