#pragma once
//
// The persisted HopArena: format-v2 snapshot sections that let an epoch load
// serve without decoding any scheme section (DESIGN.md §8, §11).
//
// Five sections follow the eight compact ones. `arena-nodes` carries the
// per-node tables (leaf labels, names, netting parents); `arena-hier`,
// `arena-sf`, `arena-simple` and `arena-sfni` carry each scheme's slabs and
// its rows of the shared search-tree bank. A scheme section is zero-length
// when the scheme is absent.
//
// Payload encoding, all little-endian: a section's scalar header (u64 n and
// u64 top level for arena-nodes, u64 J for arena-sf), then its slabs in a
// fixed order, each as a u64 element count followed by the raw element
// bytes. Bank rows are stored with their absolute offsets and tree ids, so
// the restored bank is the concatenation of the sections' rows plus the
// closing entry of each offset table.
//
// The arena sections are a serving cache of the compact sections: the
// snapshot auditor (audit/snapshot_audit) proves them byte-equal to a fresh
// HopArena::build of the decoded stack.
//
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/hop_arena.hpp"

namespace compactroute {

/// The arena sections, in container order.
enum class ArenaPart : std::uint8_t {
  kNodes = 0,
  kHier = 1,
  kSf = 2,
  kSimple = 3,
  kSfni = 4,
};
inline constexpr std::size_t kNumArenaParts = 5;

/// Receives a section payload piece by piece (vector append, or a file
/// write plus a running CRC).
using ArenaByteSink = std::function<void(const void* data, std::size_t size)>;

/// Writes `part` of `arena` to `sink`; writes nothing for an absent scheme.
void write_arena_section(const HopArena& arena, ArenaPart part,
                         const ArenaByteSink& sink);

/// write_arena_section into a fresh byte vector.
std::vector<std::uint8_t> arena_section_bytes(const HopArena& arena,
                                              ArenaPart part);

/// One section payload, borrowed from the snapshot buffer.
struct ArenaPayload {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// Copies the five arena sections into fresh 64-byte-aligned slabs and runs
/// the load-time bounds validation over every index-bearing slab; `n` is the
/// snapshot's node count (meta section). Throws SnapshotError on any defect.
std::shared_ptr<HopArena> restore_arena(
    const ArenaPayload (&parts)[kNumArenaParts], std::size_t n);

/// What a slab's values are, as the load-time validation checks them.
enum class ArenaSlabKind : std::uint8_t {
  kData,           // free values: weights, keys, names, DFS numbers, ports
  kRingBound,      // free values, then kRingScanPad never-matching pads
  kOffsets,        // CSR offset table: starts at 0, non-decreasing, closes
  kNode,           // node id < n
  kNodeOrInvalid,  // node id < n, or kInvalidNode
  kLevel,          // hierarchy level in [0, top]
  kRegion,         // flattened region id < R
  kRegionRow,      // row of the owning region's tree (< region size)
  kTree,           // bank tree id < T
  kTreeOrNone,     // bank tree id < T, or -1
  kRow,            // bank row < rows
};

/// Where one slab sits inside a section payload (diagnostics and the
/// resealed-corruption tests).
struct ArenaSlabInfo {
  std::string name;
  ArenaSlabKind kind = ArenaSlabKind::kData;
  std::size_t offset = 0;  // of the first element, within the payload
  std::size_t count = 0;
  std::size_t elem_bytes = 0;
};

/// Parses one section payload's slab table; throws SnapshotError when the
/// payload does not parse.
std::vector<ArenaSlabInfo> arena_section_layout(ArenaPart part,
                                                const std::uint8_t* data,
                                                std::size_t size);

}  // namespace compactroute
