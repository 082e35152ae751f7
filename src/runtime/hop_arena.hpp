#pragma once
//
// Serve-time arena: the per-node hop state of every scheme, recompiled at
// scheme-freeze time into contiguous cache-line-aligned flat arrays.
//
// The build-time layout (nested vectors of ring entries, per-tree
// local-id lookups, per-node chunk vectors) makes every hop a
// chain of dependent cache misses. The arena flattens all of it:
//
//   * ring entries as (range_lo, range_hi, next_hop, x) SoA rows in one
//     dense slab per scheme, indexed by a per-node(-per-level) CSR offset
//     table — a hop's minimal-ring-hit is one branchless linear scan;
//   * search trees packed in DFS preorder (the store() distribution order),
//     with children's subtree key ranges, chunk key/data pairs, and
//     parent/global links as parallel arrays, plus a sorted global->position
//     table per tree mapping straight to bank rows (no RootedTree::local_id);
//   * the scale-free region state (Voronoi tree parents, compact-router
//     DFS intervals + heavy intervals + port lists + light-edge labels,
//     Lemma 4.3 chain entries, size radii, region membership) flattened into
//     O(1)-indexable slabs.
//
// The arena is a pure re-layout: the hop runtimes stepping against it take
// byte-identical routes to the nested-container reference FSMs kept as a
// test oracle (tests/reference_hop.hpp) — enforced by the golden fingerprint
// suite in tests/test_hop_arena.cpp.
//
// The slabs are also a persisted format: snapshots (format v2) store them in
// their arena sections (io/snapshot_arena.hpp), and an epoch load restores
// them without compiling anything, so a slab's element type, order and
// meaning are part of the snapshot format.
//
// Layout invariants (DESIGN.md §11): every slab is 64-byte aligned; ring
// entries are level-ascending within a node (first containment hit ==
// minimal-level hit); tree nodes are packed in the preorder used by
// SearchTree::store(), so a descent walks forward in memory; all CSR offset
// tables have one trailing entry closing the last range.
//
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "core/check.hpp"
#include "core/types.hpp"
#include "graph/metric.hpp"

namespace compactroute {

class NetHierarchy;
class Naming;
class HierarchicalLabeledScheme;
class ScaleFreeLabeledScheme;
class SimpleNameIndependentScheme;
class ScaleFreeNameIndependentScheme;
class SearchTree;

/// Prefetch hint for the next hop's slab rows (no-op off GCC/Clang).
#if defined(__GNUC__) || defined(__clang__)
inline void arena_prefetch(const void* p) { __builtin_prefetch(p); }
#else
inline void arena_prefetch(const void*) {}
#endif

/// Minimal 64-byte-aligned allocator so every slab starts on a cache line.
template <typename T, std::size_t Align = 64>
struct AlignedAlloc {
  using value_type = T;
  // The non-type Align parameter defeats allocator_traits' default rebind
  // synthesis; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) {}
  T* allocate(std::size_t count) {
    return static_cast<T*>(
        ::operator new(count * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(Align));
  }
  template <typename U>
  bool operator==(const AlignedAlloc<U, Align>&) const {
    return true;
  }
};

template <typename T>
using Slab = std::vector<T, AlignedAlloc<T>>;

/// Trailing never-matching pad entries (lo = max, hi = 0) appended to every
/// ring slab's lo/hi rows so the vectorized first-hit scan may read one full
/// vector past a node's segment without leaving the allocation.
inline constexpr std::uint32_t kRingScanPad = 16;

/// Index of the first entry in [begin, end) with lo[i] <= key <= hi[i], or
/// `end` on a miss. Dispatches at load time to the widest available lane
/// width (AVX-512 / AVX2 / scalar); all variants return the same index. The
/// lo/hi rows must carry kRingScanPad pad entries past the last segment.
std::uint32_t ring_first_hit(const NodeId* lo, const NodeId* hi,
                             std::uint32_t begin, std::uint32_t end,
                             NodeId key);

class HopArena {
 public:
  /// Compiles the arena for whichever schemes are present (null = absent).
  /// `simple` requires `hier`; `sfni` requires `sf`; the NI schemes require
  /// `naming`. Works for snapshot-loaded stacks: only query-time tables are
  /// read, never the metric backend. This is HopArenaCompiler run over the
  /// whole stack.
  static std::shared_ptr<const HopArena> build(
      const NetHierarchy& hierarchy, const Naming* naming,
      const HierarchicalLabeledScheme* hier, const ScaleFreeLabeledScheme* sf,
      const SimpleNameIndependentScheme* simple,
      const ScaleFreeNameIndependentScheme* sfni);

  std::size_t n = 0;
  int top_level = 0;
  bool hier_present = false;
  bool sf_present = false;
  bool simple_present = false;
  bool sfni_present = false;

  // Trees each scheme appended to the shared bank, in bank order: the
  // scale-free regions' search trees first, then the simple NI level trees,
  // then the scale-free NI structures. The snapshot persists each scheme's
  // bank rows in its own section (io/snapshot_arena.hpp).
  std::uint32_t sf_trees = 0;
  std::uint32_t simple_trees = 0;
  std::uint32_t sfni_trees = 0;

  // ---- flat node tables ----
  Slab<NodeId> leaf_label;       // [n] netting-tree DFS leaf label l(v)
  Slab<std::uint64_t> name_of;   // [n] original names; empty without naming
  Slab<NodeId> net_parent;       // [(top+1)*n] netting parent per (level, x);
                                 // kInvalidNode off the level's net

  /// Hierarchical-scheme rings: node-major, level-ascending SoA slab. Entry
  /// range of (u, l) is [level_off[u*levels+l], level_off[u*levels+l+1]);
  /// the whole node is [level_off[u*levels], level_off[(u+1)*levels]].
  struct RingSlab {
    int levels = 0;                 // top_level + 1
    Slab<std::uint32_t> level_off;  // [n*levels + 1]
    Slab<NodeId> lo, hi, next, x;   // SoA rows
  };
  RingSlab hier;

  /// Scale-free labeled state: rings over the sparse level set R(u) (with
  /// per-entry level + d(u, x)), walk thresholds, size radii, flattened
  /// region membership, region-tree/router rows, search-tree ids, Lemma 4.3
  /// chains, and the top-level fallback peers.
  struct SfSlab {
    int max_exponent = 0;  // J

    // Rings: node-major, level-set-ascending.
    Slab<std::uint32_t> node_off;  // [n + 1]
    Slab<NodeId> lo, hi, next, x;
    Slab<Weight> dist;          // d(u, x) per entry
    Slab<std::int16_t> level;   // hierarchy level per entry

    // Per hierarchy level l: 2^l and the Algorithm 5 line 3 walk threshold
    // 2^l/(2ε) - 2^l, precomputed with the reference expression so the
    // comparison is bit-identical.
    Slab<Weight> radius;          // [top+1]
    Slab<Weight> walk_threshold;  // [top+1]

    Slab<Weight> size_radius;  // [n*(J+1)], u-major: r_u(j) at u*(J+1)+j

    // Region membership, O(1): index j*n + u.
    Slab<std::int32_t> region_id;     // flattened region index (all j)
    Slab<std::int32_t> region_local;  // local id of u in its region tree

    // Per region rid (flattened over j then ball index).
    Slab<NodeId> center;             // [R]
    Slab<std::int32_t> search_tree;  // [R] TreeBank id of T'(c, r_c(j))
    Slab<std::uint32_t> rt_base;     // [R+1] region-tree row base

    // Region-tree/router rows, indexed rt_base[rid] + ORIGINAL tree local id
    // (search trees store original local ids as data — the indexing must
    // match).
    Slab<NodeId> rt_global;         // local -> global id
    Slab<NodeId> rt_parent_global;  // kInvalidNode at the root
    Slab<NodeId> rt_dfs_in, rt_dfs_out;
    Slab<NodeId> rt_heavy_global;          // kInvalidNode for leaves
    Slab<NodeId> rt_heavy_in, rt_heavy_out;  // empty interval for leaves
    Slab<std::uint32_t> rt_child_off;      // [rows+1] ports
    Slab<NodeId> rt_child_global;          // child global id per port
    Slab<std::uint32_t> rt_light_off;      // [rows+1] label light edges
    Slab<std::uint32_t> rt_light_anchor, rt_light_port;

    // Lemma 4.3 next-hop chains: per node, (target, next) sorted by target.
    Slab<std::uint32_t> chain_off;  // [n+1]
    Slab<NodeId> chain_target, chain_hop;

    Slab<NodeId> top_peer;  // centers of ℬ_J in region order (fallback sweep)
  };
  SfSlab sf;

  /// All search trees, DFS-preorder-packed. Node row a = node_base[t] + pos.
  struct TreeBank {
    Slab<std::uint32_t> node_base;  // [T+1]
    Slab<NodeId> root_global;       // [T]

    Slab<NodeId> global;         // [rows] pos -> global id
    Slab<NodeId> parent_global;  // [rows] kInvalidNode at the root

    Slab<std::uint32_t> child_off;       // [rows+1]
    Slab<std::uint64_t> child_lo, child_hi;  // child subtree key ranges
    Slab<NodeId> child_global;

    Slab<std::uint32_t> chunk_off;  // [rows+1]
    Slab<std::uint64_t> chunk_key, chunk_data;

    // Per tree, sorted by global id: global -> row (replaces
    // RootedTree::local_id on the serve path).
    Slab<std::uint32_t> lookup_off;  // [T+1]
    Slab<NodeId> lookup_global;
    Slab<std::uint32_t> lookup_row;

    /// Row of `global` in tree t; CR_CHECKs membership.
    std::uint32_t locate(std::int32_t t, NodeId global) const;

    /// First child of row `a` whose subtree key range holds `key`; npos when
    /// the descent stops at `a`. Same scan order as
    /// SearchTree::child_containing.
    static constexpr std::uint32_t npos = 0xffffffffu;
    std::uint32_t child_containing(std::uint32_t a, std::uint64_t key) const;

    /// Chunk scan of row `a` (SearchTree::holds).
    bool holds(std::uint32_t a, std::uint64_t key, std::uint64_t* data) const;
  };
  TreeBank trees;

  // NI search-structure dispatch, index level*n + anchor (-1 / kInvalidNode
  // off the net).
  Slab<std::int32_t> simple_tree_of;  // simple NI: T(u(i), 2^i/ε)
  Slab<std::int32_t> sfni_tree_of;    // SF NI: own or delegated tree id
  Slab<NodeId> sfni_root;             // SF NI: anchor or ball center

  /// Minimal-level hierarchical ring hit for `key` at `at` -> next hop.
  NodeId hier_ring_next(NodeId at, NodeId key) const;

  /// Lemma 4.3 chain entry at `at` toward `target`.
  NodeId chain_next(NodeId at, NodeId target) const;

  // Prefetch contract: when a step decides `next`, it prefetches the rows
  // the next node's decision will read first.
  void prefetch_hier_rings(NodeId u) const {
    arena_prefetch(&leaf_label[u]);
    arena_prefetch(&hier.level_off[u * static_cast<std::size_t>(hier.levels)]);
  }
  void prefetch_sf_rings(NodeId u) const {
    arena_prefetch(&leaf_label[u]);
    arena_prefetch(&sf.node_off[u]);
  }
  void prefetch_chains(NodeId u) const {
    arena_prefetch(&leaf_label[u]);
    arena_prefetch(&sf.chain_off[u]);
  }

  /// Total slab bytes (diagnostics / memory accounting).
  std::size_t memory_bytes() const;

  /// madvise the big hot slabs (ring rows, tree bank, router rows) as
  /// WILLNEED — and HUGEPAGE where large enough for THP to apply — so a
  /// freshly compiled arena is paged in before the first request hits it
  /// rather than faulting down the serve path. Called by build(); a no-op off
  /// Linux. Purely advisory: failures are ignored.
  void advise_hot() const;
};

/// Incremental HopArena compile: each scheme's rows are appended as the
/// scheme becomes available, so a streaming snapshot writer can compile a
/// scheme and free it before the next one is built. Schemes must arrive in
/// bank order — hier, sf, simple (whole or level by level), sfni — each at
/// most once. Unlike HopArena::build, the compiler does not require a
/// scheme's dependency to be present: it compiles what it is given, and the
/// snapshot loader rejects an unserveable combination.
class HopArenaCompiler {
 public:
  /// Copies what the later scheme additions need from `hierarchy` (leaf
  /// labels, nets, netting parents) and `naming` (names; null = absent), so
  /// neither has to outlive the compiler.
  HopArenaCompiler(const NetHierarchy& hierarchy, const Naming* naming);
  ~HopArenaCompiler();
  HopArenaCompiler(const HopArenaCompiler&) = delete;
  HopArenaCompiler& operator=(const HopArenaCompiler&) = delete;

  void add_hier(const HierarchicalLabeledScheme& scheme);
  void add_sf(const ScaleFreeLabeledScheme& scheme);
  void add_simple(const SimpleNameIndependentScheme& scheme);
  /// One level of simple NI search trees, trees[k] anchored at the k-th
  /// point of the level's net (SimpleNameIndependentScheme::build_levels
  /// order). Levels must arrive in order 0..top.
  void add_simple_level(int level,
                        const std::vector<std::unique_ptr<SearchTree>>& trees);
  void add_sfni(const ScaleFreeNameIndependentScheme& scheme);

  /// Closes the tree bank and returns the arena (the compiler is spent).
  /// netting parents ride along only when a name-independent scheme is
  /// present, exactly as HopArena::build lays them out.
  std::shared_ptr<HopArena> finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

inline std::uint32_t HopArena::TreeBank::locate(std::int32_t t,
                                                NodeId node) const {
  std::uint32_t lo = lookup_off[t];
  std::uint32_t hi = lookup_off[t + 1];
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (lookup_global[mid] < node) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  CR_CHECK(lo < lookup_off[t + 1] && lookup_global[lo] == node);
  return lookup_row[lo];
}

inline std::uint32_t HopArena::TreeBank::child_containing(
    std::uint32_t a, std::uint64_t key) const {
  const std::uint32_t end = child_off[a + 1];
  for (std::uint32_t e = child_off[a]; e < end; ++e) {
    if (child_lo[e] <= key && key <= child_hi[e]) return e;
  }
  return npos;
}

inline bool HopArena::TreeBank::holds(std::uint32_t a, std::uint64_t key,
                                      std::uint64_t* data) const {
  const std::uint32_t end = chunk_off[a + 1];
  for (std::uint32_t e = chunk_off[a]; e < end; ++e) {
    if (chunk_key[e] == key) {
      *data = chunk_data[e];
      return true;
    }
  }
  return false;
}

inline NodeId HopArena::hier_ring_next(NodeId at, NodeId key) const {
  const std::size_t base = at * static_cast<std::size_t>(hier.levels);
  const std::uint32_t end = hier.level_off[base + hier.levels];
  const std::uint32_t i =
      ring_first_hit(hier.lo.data(), hier.hi.data(), hier.level_off[base], end,
                     key);
  CR_CHECK_MSG(i < end, "top ring always holds the hierarchy root");
  CR_CHECK(hier.x[i] != at);
  return hier.next[i];
}

inline NodeId HopArena::chain_next(NodeId at, NodeId target) const {
  std::uint32_t lo = sf.chain_off[at];
  std::uint32_t hi = sf.chain_off[at + 1];
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (sf.chain_target[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  CR_CHECK_MSG(lo < sf.chain_off[at + 1] && sf.chain_target[lo] == target,
               "missing Lemma 4.3 chain entry");
  return sf.chain_hop[lo];
}

}  // namespace compactroute
