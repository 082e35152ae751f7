#include "io/snapshot_arena.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "io/snapshot.hpp"
#include "obs/metrics.hpp"

namespace compactroute {

// Slabs are written as their in-memory bytes, so the persisted format is the
// host's layout; it is defined as little-endian.
static_assert(std::endian::native == std::endian::little,
              "the persisted arena is little-endian");

namespace {

using Kind = ArenaSlabKind;

/// Which index space a bank slab's rows live in.
enum class Domain : std::uint8_t { kTrees, kRows, kChildren, kChunks, kLookups };
constexpr std::size_t kNumDomains = 5;
constexpr std::size_t kNumBankSlabs = 14;

[[noreturn]] void corrupt(const std::string& why) {
  throw SnapshotError("corrupt snapshot: " + why);
}

const char* part_name(ArenaPart part) {
  switch (part) {
    case ArenaPart::kNodes: return "arena-nodes";
    case ArenaPart::kHier: return "arena-hier";
    case ArenaPart::kSf: return "arena-sf";
    case ArenaPart::kSimple: return "arena-simple";
    case ArenaPart::kSfni: return "arena-sfni";
  }
  return "arena-unknown";
}

bool has_bank(ArenaPart part) {
  return part == ArenaPart::kSf || part == ArenaPart::kSimple ||
         part == ArenaPart::kSfni;
}

/// Every slab a section holds besides its bank rows, in payload order.
/// `Arena` is HopArena or const HopArena; f(name, kind, slab).
template <typename Arena, typename F>
void visit_part_slabs(Arena& a, ArenaPart part, F&& f) {
  auto& r = a.hier;
  auto& s = a.sf;
  switch (part) {
    case ArenaPart::kNodes:
      f("leaf_label", Kind::kNode, a.leaf_label);
      f("name_of", Kind::kData, a.name_of);
      f("net_parent", Kind::kNodeOrInvalid, a.net_parent);
      return;
    case ArenaPart::kHier:
      f("hier.level_off", Kind::kOffsets, r.level_off);
      f("hier.lo", Kind::kRingBound, r.lo);
      f("hier.hi", Kind::kRingBound, r.hi);
      f("hier.next", Kind::kNode, r.next);
      f("hier.x", Kind::kNode, r.x);
      return;
    case ArenaPart::kSf:
      f("sf.node_off", Kind::kOffsets, s.node_off);
      f("sf.lo", Kind::kRingBound, s.lo);
      f("sf.hi", Kind::kRingBound, s.hi);
      f("sf.next", Kind::kNode, s.next);
      f("sf.x", Kind::kNode, s.x);
      f("sf.dist", Kind::kData, s.dist);
      f("sf.level", Kind::kLevel, s.level);
      f("sf.radius", Kind::kData, s.radius);
      f("sf.walk_threshold", Kind::kData, s.walk_threshold);
      f("sf.size_radius", Kind::kData, s.size_radius);
      f("sf.region_id", Kind::kRegion, s.region_id);
      f("sf.region_local", Kind::kRegionRow, s.region_local);
      f("sf.center", Kind::kNode, s.center);
      f("sf.search_tree", Kind::kTree, s.search_tree);
      f("sf.rt_base", Kind::kOffsets, s.rt_base);
      f("sf.rt_global", Kind::kNode, s.rt_global);
      f("sf.rt_parent_global", Kind::kNodeOrInvalid, s.rt_parent_global);
      f("sf.rt_dfs_in", Kind::kData, s.rt_dfs_in);
      f("sf.rt_dfs_out", Kind::kData, s.rt_dfs_out);
      f("sf.rt_heavy_global", Kind::kNodeOrInvalid, s.rt_heavy_global);
      f("sf.rt_heavy_in", Kind::kData, s.rt_heavy_in);
      f("sf.rt_heavy_out", Kind::kData, s.rt_heavy_out);
      f("sf.rt_child_off", Kind::kOffsets, s.rt_child_off);
      f("sf.rt_child_global", Kind::kNode, s.rt_child_global);
      f("sf.rt_light_off", Kind::kOffsets, s.rt_light_off);
      f("sf.rt_light_anchor", Kind::kData, s.rt_light_anchor);
      f("sf.rt_light_port", Kind::kData, s.rt_light_port);
      f("sf.chain_off", Kind::kOffsets, s.chain_off);
      f("sf.chain_target", Kind::kNode, s.chain_target);
      f("sf.chain_hop", Kind::kNode, s.chain_hop);
      f("sf.top_peer", Kind::kNode, s.top_peer);
      return;
    case ArenaPart::kSimple:
      f("simple_tree_of", Kind::kTreeOrNone, a.simple_tree_of);
      return;
    case ArenaPart::kSfni:
      f("sfni_tree_of", Kind::kTreeOrNone, a.sfni_tree_of);
      f("sfni_root", Kind::kNodeOrInvalid, a.sfni_root);
      return;
  }
}

/// The shared tree bank's slabs, in payload order; f(name, kind, rows,
/// closes, slab): `rows` is the index space the slab's entries live in, and
/// an offset table (stored without its closing entry) closes on the length
/// of the `closes` space.
template <typename Bank, typename F>
void visit_bank(Bank& b, F&& f) {
  using D = Domain;
  f("trees.node_base", Kind::kOffsets, D::kTrees, D::kRows, b.node_base);
  f("trees.root_global", Kind::kNode, D::kTrees, D::kTrees, b.root_global);
  f("trees.lookup_off", Kind::kOffsets, D::kTrees, D::kLookups, b.lookup_off);
  f("trees.global", Kind::kNode, D::kRows, D::kRows, b.global);
  f("trees.parent_global", Kind::kNodeOrInvalid, D::kRows, D::kRows,
    b.parent_global);
  f("trees.child_off", Kind::kOffsets, D::kRows, D::kChildren, b.child_off);
  f("trees.chunk_off", Kind::kOffsets, D::kRows, D::kChunks, b.chunk_off);
  f("trees.child_lo", Kind::kData, D::kChildren, D::kChildren, b.child_lo);
  f("trees.child_hi", Kind::kData, D::kChildren, D::kChildren, b.child_hi);
  f("trees.child_global", Kind::kNode, D::kChildren, D::kChildren,
    b.child_global);
  f("trees.chunk_key", Kind::kData, D::kChunks, D::kChunks, b.chunk_key);
  // The scale-free regions' search trees store region-tree rows as data
  // (arena_section_layout reports those as kRegionRow).
  f("trees.chunk_data", Kind::kData, D::kChunks, D::kChunks, b.chunk_data);
  f("trees.lookup_global", Kind::kNode, D::kLookups, D::kLookups,
    b.lookup_global);
  f("trees.lookup_row", Kind::kRow, D::kLookups, D::kLookups, b.lookup_row);
}

bool part_present(const HopArena& a, ArenaPart part) {
  switch (part) {
    case ArenaPart::kNodes: return true;
    case ArenaPart::kHier: return a.hier_present;
    case ArenaPart::kSf: return a.sf_present;
    case ArenaPart::kSimple: return a.simple_present;
    case ArenaPart::kSfni: return a.sfni_present;
  }
  return false;
}

/// The bank trees [first, last) a tree-bearing section owns.
std::pair<std::uint32_t, std::uint32_t> part_trees(const HopArena& a,
                                                   ArenaPart part) {
  switch (part) {
    case ArenaPart::kSf: return {0, a.sf_trees};
    case ArenaPart::kSimple:
      return {a.sf_trees, a.sf_trees + a.simple_trees};
    case ArenaPart::kSfni: {
      const std::uint32_t first = a.sf_trees + a.simple_trees;
      return {first, first + a.sfni_trees};
    }
    default: return {0, 0};
  }
}

// ---- payload reader ----

/// A slab as it sits in the payload: `count` elements at `data`.
struct RawSlab {
  const std::uint8_t* data = nullptr;
  std::size_t count = 0;
};

class PayloadReader {
 public:
  PayloadReader(ArenaPayload payload, ArenaPart part)
      : begin_(payload.data),
        at_(payload.data),
        end_(payload.data + payload.size),
        part_(part) {}

  std::uint64_t u64() {
    if (end_ - at_ < 8) fail("header overruns the payload");
    std::uint64_t v = 0;
    std::memcpy(&v, at_, 8);
    at_ += 8;
    return v;
  }

  RawSlab slab(const char* name, std::size_t elem_bytes) {
    const std::uint64_t count = u64();
    if (count > static_cast<std::uint64_t>(end_ - at_) / elem_bytes) {
      fail(std::string(name) + " overruns the payload");
    }
    RawSlab raw{at_, static_cast<std::size_t>(count)};
    at_ += raw.count * elem_bytes;
    return raw;
  }

  std::size_t offset() const { return static_cast<std::size_t>(at_ - begin_); }

  void finish() const {
    if (at_ != end_) fail("has trailing bytes");
  }

  [[noreturn]] void fail(const std::string& why) const {
    corrupt(std::string("section ") + part_name(part_) + " " + why);
  }

 private:
  const std::uint8_t* begin_;
  const std::uint8_t* at_;
  const std::uint8_t* end_;
  ArenaPart part_;
};

template <typename T>
void copy_slab(Slab<T>& dst, RawSlab raw) {
  dst.resize(raw.count);
  if (raw.count != 0) std::memcpy(dst.data(), raw.data, raw.count * sizeof(T));
}

// ---- load-time validation ----

[[noreturn]] void invalid(const char* slab, const char* why) {
  corrupt(std::string("arena slab ") + slab + " " + why);
}

void expect_size(std::size_t size, std::size_t want, const char* slab) {
  if (size != want) invalid(slab, "has the wrong length");
}

/// CSR offsets: `rows + 1` entries, starting at 0, non-decreasing, closing
/// on `closing` (the length of the slab they index).
template <typename T>
void check_offsets(const Slab<T>& off, std::size_t rows, std::size_t closing,
                   const char* slab) {
  expect_size(off.size(), rows + 1, slab);
  if (off[0] != 0) invalid(slab, "does not start at 0");
  bool bad = false;
  for (std::size_t i = 0; i < rows; ++i) bad |= off[i + 1] < off[i];
  if (bad) invalid(slab, "decreases");
  if (off[rows] != closing) invalid(slab, "does not close on its row count");
}

/// Every value < bound (as unsigned: negative signed values fail too).
template <typename T>
void check_below(const Slab<T>& slab, std::size_t bound, const char* name) {
  using U = std::make_unsigned_t<T>;
  bool bad = false;
  for (const T v : slab) {
    bad |= static_cast<std::size_t>(static_cast<U>(v)) >= bound;
  }
  if (bad) invalid(name, "holds an out-of-range value");
}

/// Node ids < n, or kInvalidNode.
void check_node_or_invalid(const Slab<NodeId>& slab, std::size_t n,
                           const char* name) {
  bool bad = false;
  for (const NodeId v : slab) bad |= (v >= n) & (v != kInvalidNode);
  if (bad) invalid(name, "holds an out-of-range node id");
}

/// Tree ids < trees, or -1.
void check_tree_or_none(const Slab<std::int32_t>& slab, std::size_t trees,
                        const char* name) {
  bool bad = false;
  for (const std::int32_t v : slab) {
    bad |= (v < -1) | (v >= 0 && static_cast<std::size_t>(v) >= trees);
  }
  if (bad) invalid(name, "holds an out-of-range tree id");
}

/// `entries` ring rows followed by kRingScanPad never-matching pads.
void check_ring_rows(const Slab<NodeId>& lo, const Slab<NodeId>& hi,
                     std::size_t entries, const char* lo_name,
                     const char* hi_name) {
  expect_size(lo.size(), entries + kRingScanPad, lo_name);
  expect_size(hi.size(), entries + kRingScanPad, hi_name);
  for (std::size_t i = entries; i < entries + kRingScanPad; ++i) {
    if (lo[i] != kInvalidNode) invalid(lo_name, "scan pad is not intact");
    if (hi[i] != 0) invalid(hi_name, "scan pad is not intact");
  }
}

void validate_nodes(const HopArena& a) {
  const std::size_t n = a.n;
  const std::size_t levels = static_cast<std::size_t>(a.top_level) + 1;
  expect_size(a.leaf_label.size(), n, "leaf_label");
  // Leaf labels are a permutation: arrival at a label then means arrival at
  // the one node carrying it, which the NI machines rely on.
  std::vector<char> seen(n, 0);
  for (const NodeId label : a.leaf_label) {
    if (label >= n || seen[label]) invalid("leaf_label", "is not a permutation");
    seen[label] = 1;
  }
  expect_size(a.name_of.size(), n, "name_of");  // writers always have naming
  const bool ni = a.simple_present || a.sfni_present;
  expect_size(a.net_parent.size(), ni ? levels * n : 0, "net_parent");
  if (!ni) return;
  // The zooming climb reads net_parent of each anchor it reaches: level 0
  // holds every node, a net point's parent must itself be a net point one
  // level up, and a top-level net point is its own parent.
  for (std::size_t level = 0; level + 1 < levels; ++level) {
    const NodeId* row = a.net_parent.data() + level * n;
    for (std::size_t x = 0; x < n; ++x) {
      const NodeId parent = row[x];
      if (parent == kInvalidNode) {
        if (level == 0) invalid("net_parent", "drops a level-0 node");
        continue;
      }
      if (parent >= n) invalid("net_parent", "holds an out-of-range node id");
      if (row[n + parent] == kInvalidNode) {
        invalid("net_parent", "climbs to a node off the next net");
      }
    }
  }
  const NodeId* top_row = a.net_parent.data() + (levels - 1) * n;
  for (std::size_t x = 0; x < n; ++x) {
    if (top_row[x] != kInvalidNode && top_row[x] != x) {
      invalid("net_parent", "has a top-level parent");
    }
  }
}

void validate_hier(const HopArena& a) {
  const HopArena::RingSlab& r = a.hier;
  const std::size_t entries = r.next.size();
  check_offsets(r.level_off, a.n * static_cast<std::size_t>(r.levels), entries,
                "hier.level_off");
  check_ring_rows(r.lo, r.hi, entries, "hier.lo", "hier.hi");
  expect_size(r.x.size(), entries, "hier.x");
  check_below(r.next, a.n, "hier.next");
  check_below(r.x, a.n, "hier.x");
}

void validate_bank(const HopArena& a) {
  const HopArena::TreeBank& b = a.trees;
  const std::size_t n = a.n;
  const std::size_t trees = b.root_global.size();
  const std::size_t rows = b.global.size();
  check_offsets(b.node_base, trees, rows, "trees.node_base");
  check_offsets(b.lookup_off, trees, b.lookup_global.size(), "trees.lookup_off");
  check_offsets(b.child_off, rows, b.child_global.size(), "trees.child_off");
  check_offsets(b.chunk_off, rows, b.chunk_key.size(), "trees.chunk_off");
  expect_size(b.parent_global.size(), rows, "trees.parent_global");
  expect_size(b.child_lo.size(), b.child_global.size(), "trees.child_lo");
  expect_size(b.child_hi.size(), b.child_global.size(), "trees.child_hi");
  expect_size(b.chunk_data.size(), b.chunk_key.size(), "trees.chunk_data");
  expect_size(b.lookup_row.size(), b.lookup_global.size(), "trees.lookup_row");
  check_below(b.root_global, n, "trees.root_global");
  check_below(b.global, n, "trees.global");
  check_node_or_invalid(b.parent_global, n, "trees.parent_global");
  check_below(b.child_global, n, "trees.child_global");
  check_below(b.lookup_global, n, "trees.lookup_global");
  check_below(b.lookup_row, rows, "trees.lookup_row");
}

void validate_sf(const HopArena& a) {
  const HopArena::SfSlab& s = a.sf;
  const HopArena::TreeBank& b = a.trees;
  const std::size_t n = a.n;
  const std::size_t levels = static_cast<std::size_t>(a.top_level) + 1;
  const std::size_t cells = static_cast<std::size_t>(s.max_exponent + 1) * n;

  const std::size_t entries = s.next.size();
  check_offsets(s.node_off, n, entries, "sf.node_off");
  check_ring_rows(s.lo, s.hi, entries, "sf.lo", "sf.hi");
  expect_size(s.x.size(), entries, "sf.x");
  expect_size(s.dist.size(), entries, "sf.dist");
  expect_size(s.level.size(), entries, "sf.level");
  check_below(s.next, n, "sf.next");
  check_below(s.x, n, "sf.x");
  check_below(s.level, levels, "sf.level");
  expect_size(s.radius.size(), levels, "sf.radius");
  expect_size(s.walk_threshold.size(), levels, "sf.walk_threshold");
  expect_size(s.size_radius.size(), cells, "sf.size_radius");

  const std::size_t regions = s.center.size();
  const std::size_t rt_rows = s.rt_global.size();
  expect_size(s.search_tree.size(), regions, "sf.search_tree");
  check_offsets(s.rt_base, regions, rt_rows, "sf.rt_base");
  check_below(s.center, n, "sf.center");
  check_below(s.search_tree, a.sf_trees, "sf.search_tree");
  expect_size(s.region_id.size(), cells, "sf.region_id");
  expect_size(s.region_local.size(), cells, "sf.region_local");
  check_below(s.region_id, regions, "sf.region_id");
  for (std::size_t slot = 0; slot < cells; ++slot) {
    const std::size_t rid = static_cast<std::size_t>(s.region_id[slot]);
    const std::uint32_t size = s.rt_base[rid + 1] - s.rt_base[rid];
    if (static_cast<std::uint32_t>(s.region_local[slot]) >= size) {
      invalid("sf.region_local", "points outside its region tree");
    }
  }

  check_below(s.rt_global, n, "sf.rt_global");
  check_node_or_invalid(s.rt_parent_global, n, "sf.rt_parent_global");
  check_node_or_invalid(s.rt_heavy_global, n, "sf.rt_heavy_global");
  expect_size(s.rt_parent_global.size(), rt_rows, "sf.rt_parent_global");
  expect_size(s.rt_dfs_in.size(), rt_rows, "sf.rt_dfs_in");
  expect_size(s.rt_dfs_out.size(), rt_rows, "sf.rt_dfs_out");
  expect_size(s.rt_heavy_global.size(), rt_rows, "sf.rt_heavy_global");
  expect_size(s.rt_heavy_in.size(), rt_rows, "sf.rt_heavy_in");
  expect_size(s.rt_heavy_out.size(), rt_rows, "sf.rt_heavy_out");
  // The final tree leg forwards to the heavy child when the label's DFS
  // number falls in its interval, so a leaf's interval must stay empty.
  for (std::size_t row = 0; row < rt_rows; ++row) {
    if (s.rt_heavy_global[row] == kInvalidNode &&
        s.rt_heavy_in[row] <= s.rt_heavy_out[row]) {
      invalid("sf.rt_heavy_in", "gives a leaf a heavy interval");
    }
  }
  check_offsets(s.rt_child_off, rt_rows, s.rt_child_global.size(),
                "sf.rt_child_off");
  check_below(s.rt_child_global, n, "sf.rt_child_global");
  check_offsets(s.rt_light_off, rt_rows, s.rt_light_anchor.size(),
                "sf.rt_light_off");
  expect_size(s.rt_light_port.size(), s.rt_light_anchor.size(),
              "sf.rt_light_port");

  check_offsets(s.chain_off, n, s.chain_target.size(), "sf.chain_off");
  expect_size(s.chain_hop.size(), s.chain_target.size(), "sf.chain_hop");
  check_below(s.chain_target, n, "sf.chain_target");
  check_below(s.chain_hop, n, "sf.chain_hop");
  check_below(s.top_peer, n, "sf.top_peer");

  // A region's search tree stores rows of that region's tree as data; the
  // final tree leg indexes the router rows with them. Each region owns its
  // own tree, so this pass is linear in the scale-free bank rows.
  std::vector<char> owned(a.sf_trees, 0);
  for (std::size_t rid = 0; rid < regions; ++rid) {
    const std::size_t t = static_cast<std::size_t>(s.search_tree[rid]);
    if (owned[t]) invalid("sf.search_tree", "shares a tree between regions");
    owned[t] = 1;
    const std::uint64_t size = s.rt_base[rid + 1] - s.rt_base[rid];
    const std::uint32_t first = b.chunk_off[b.node_base[t]];
    const std::uint32_t last = b.chunk_off[b.node_base[t + 1]];
    for (std::uint32_t e = first; e < last; ++e) {
      if (b.chunk_data[e] >= size) {
        invalid("trees.chunk_data", "points outside its region tree");
      }
    }
  }
}

/// One pass over every index-bearing slab: whatever survives it can be
/// stepped by the hop runtimes without an out-of-bounds read (a wrong but
/// in-range value makes a route fail an always-on check instead).
void validate_arena(const HopArena& a) {
  validate_nodes(a);
  validate_bank(a);
  const std::size_t trees = a.trees.root_global.size();
  const std::size_t slots = (static_cast<std::size_t>(a.top_level) + 1) * a.n;
  if (a.hier_present) validate_hier(a);
  if (a.sf_present) validate_sf(a);
  if (a.simple_present) {
    expect_size(a.simple_tree_of.size(), slots, "simple_tree_of");
    check_tree_or_none(a.simple_tree_of, trees, "simple_tree_of");
  }
  if (a.sfni_present) {
    expect_size(a.sfni_tree_of.size(), slots, "sfni_tree_of");
    expect_size(a.sfni_root.size(), slots, "sfni_root");
    check_tree_or_none(a.sfni_tree_of, trees, "sfni_tree_of");
    check_node_or_invalid(a.sfni_root, a.n, "sfni_root");
  }
}

}  // namespace

void write_arena_section(const HopArena& a, ArenaPart part,
                         const ArenaByteSink& sink) {
  if (!part_present(a, part)) return;
  const auto u64 = [&](std::uint64_t v) { sink(&v, sizeof(v)); };
  const auto slab = [&](const auto* data, std::size_t count) {
    u64(count);
    if (count != 0) sink(data, count * sizeof(*data));
  };
  if (part == ArenaPart::kNodes) {
    u64(a.n);
    u64(static_cast<std::uint64_t>(a.top_level));
  }
  if (part == ArenaPart::kSf) {
    u64(static_cast<std::uint64_t>(a.sf.max_exponent));
  }
  visit_part_slabs(a, part, [&](const char*, Kind, const auto& s) {
    slab(s.data(), s.size());
  });
  if (!has_bank(part)) return;
  const HopArena::TreeBank& b = a.trees;
  const auto [t0, t1] = part_trees(a, part);
  const std::uint32_t r0 = b.node_base[t0];
  const std::uint32_t r1 = b.node_base[t1];
  const std::pair<std::uint32_t, std::uint32_t> range[kNumDomains] = {
      {t0, t1},
      {r0, r1},
      {b.child_off[r0], b.child_off[r1]},
      {b.chunk_off[r0], b.chunk_off[r1]},
      {b.lookup_off[t0], b.lookup_off[t1]},
  };
  visit_bank(b, [&](const char*, Kind, Domain d, Domain, const auto& s) {
    const auto [first, last] = range[static_cast<std::size_t>(d)];
    slab(s.data() + first, last - first);
  });
}

std::vector<std::uint8_t> arena_section_bytes(const HopArena& arena,
                                              ArenaPart part) {
  std::vector<std::uint8_t> out;
  write_arena_section(arena, part, [&](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out.insert(out.end(), bytes, bytes + size);
  });
  return out;
}

std::shared_ptr<HopArena> restore_arena(
    const ArenaPayload (&parts)[kNumArenaParts], std::size_t n) {
  CR_OBS_SCOPED_TIMER("arena.restore");
  auto arena = std::make_shared<HopArena>();
  HopArena& a = *arena;
  const auto payload = [&](ArenaPart p) {
    return parts[static_cast<std::size_t>(p)];
  };
  if (payload(ArenaPart::kNodes).size == 0) {
    corrupt("section arena-nodes is empty");
  }
  a.hier_present = payload(ArenaPart::kHier).size != 0;
  a.sf_present = payload(ArenaPart::kSf).size != 0;
  a.simple_present = payload(ArenaPart::kSimple).size != 0;
  a.sfni_present = payload(ArenaPart::kSfni).size != 0;
  if (a.simple_present && !a.hier_present) {
    corrupt("arena-simple requires arena-hier");
  }
  if (a.sfni_present && !a.sf_present) corrupt("arena-sfni requires arena-sf");

  // Bank rows of each tree-bearing section, concatenated below.
  RawSlab bank_rows[3][kNumBankSlabs] = {};
  std::uint32_t* const bank_trees[3] = {&a.sf_trees, &a.simple_trees,
                                        &a.sfni_trees};
  for (std::size_t p = 0; p < kNumArenaParts; ++p) {
    const ArenaPart part = static_cast<ArenaPart>(p);
    if (parts[p].size == 0) continue;
    PayloadReader reader(parts[p], part);
    if (part == ArenaPart::kNodes) {
      a.n = static_cast<std::size_t>(reader.u64());
      if (a.n != n) reader.fail("node count disagrees with meta");
      const std::uint64_t top = reader.u64();
      if (top > 4096) reader.fail("top level out of range");
      a.top_level = static_cast<int>(top);
    }
    if (part == ArenaPart::kSf) {
      const std::uint64_t max_exponent = reader.u64();
      if (max_exponent > 62) reader.fail("max exponent out of range");
      a.sf.max_exponent = static_cast<int>(max_exponent);
    }
    visit_part_slabs(a, part, [&](const char* name, Kind, auto& s) {
      copy_slab(s, reader.slab(name, sizeof(s[0])));
    });
    if (has_bank(part)) {
      RawSlab* rows = bank_rows[p - static_cast<std::size_t>(ArenaPart::kSf)];
      std::size_t k = 0;
      std::size_t domain_count[kNumDomains] = {};
      bool seen[kNumDomains] = {};
      visit_bank(a.trees, [&](const char* name, Kind, Domain d, Domain,
                              auto& s) {
        rows[k] = reader.slab(name, sizeof(s[0]));
        const std::size_t i = static_cast<std::size_t>(d);
        if (seen[i] && domain_count[i] != rows[k].count) {
          reader.fail(std::string(name) + " disagrees with its row count");
        }
        seen[i] = true;
        domain_count[i] = rows[k].count;
        ++k;
      });
      *bank_trees[p - static_cast<std::size_t>(ArenaPart::kSf)] =
          static_cast<std::uint32_t>(domain_count[0]);
    }
    reader.finish();
  }
  if (a.hier_present) a.hier.levels = a.top_level + 1;

  // Concatenate the bank rows in bank order; offset tables get their
  // closing entry (the length of the space they index).
  {
    std::size_t totals[kNumDomains] = {};
    std::size_t k = 0;
    visit_bank(a.trees, [&](const char*, Kind kind, Domain d, Domain, auto&) {
      std::size_t count = 0;
      for (const auto& part_rows : bank_rows) count += part_rows[k].count;
      if (kind != Kind::kOffsets) totals[static_cast<std::size_t>(d)] = count;
      ++k;
    });
    k = 0;
    visit_bank(a.trees, [&](const char*, Kind kind, Domain, Domain closes,
                            auto& s) {
      using T = std::remove_reference_t<decltype(s[0])>;
      std::size_t count = 0;
      for (const auto& part_rows : bank_rows) count += part_rows[k].count;
      s.resize(count + (kind == Kind::kOffsets ? 1 : 0));
      std::size_t at = 0;
      for (const auto& part_rows : bank_rows) {
        const RawSlab raw = part_rows[k];
        if (raw.count != 0) {
          std::memcpy(s.data() + at, raw.data, raw.count * sizeof(T));
        }
        at += raw.count;
      }
      if (kind == Kind::kOffsets) {
        s[count] = static_cast<T>(totals[static_cast<std::size_t>(closes)]);
      }
      ++k;
    });
  }

  {
    CR_OBS_SCOPED_TIMER("arena.validate");
    validate_arena(a);
  }
  a.advise_hot();
  return arena;
}

std::vector<ArenaSlabInfo> arena_section_layout(ArenaPart part,
                                                const std::uint8_t* data,
                                                std::size_t size) {
  std::vector<ArenaSlabInfo> out;
  if (size == 0) return out;
  PayloadReader reader({data, size}, part);
  if (part == ArenaPart::kNodes) {
    (void)reader.u64();
    (void)reader.u64();
  }
  if (part == ArenaPart::kSf) (void)reader.u64();
  const auto add = [&](const char* name, Kind kind, std::size_t elem_bytes) {
    const std::size_t offset = reader.offset() + 8;
    const RawSlab raw = reader.slab(name, elem_bytes);
    out.push_back({name, kind, offset, raw.count, elem_bytes});
  };
  HopArena shape;  // element types only
  visit_part_slabs(shape, part, [&](const char* name, Kind kind, auto& s) {
    add(name, kind, sizeof(s[0]));
  });
  if (has_bank(part)) {
    visit_bank(shape.trees,
               [&](const char* name, Kind kind, Domain, Domain, auto& s) {
                 const bool region_rows =
                     part == ArenaPart::kSf &&
                     std::strcmp(name, "trees.chunk_data") == 0;
                 add(name, region_rows ? Kind::kRegionRow : kind,
                     sizeof(s[0]));
               });
  }
  reader.finish();
  return out;
}

}  // namespace compactroute
