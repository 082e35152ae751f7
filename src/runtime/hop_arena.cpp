#include "runtime/hop_arena.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/metrics.hpp"
#include "routing/naming.hpp"
#include "search/search_tree.hpp"
#include "trees/compact_tree_router.hpp"
#include "trees/tree.hpp"

namespace compactroute {

namespace {

/// Working vectors add_tree clears and refills for every tree, so one build
/// allocates them once instead of three times per search tree.
struct TreeScratch {
  std::vector<int> order;
  std::vector<int> stack;
  std::vector<std::pair<NodeId, std::uint32_t>> ids;
};

/// Appends one search tree to the bank in the SearchTree::store() preorder
/// (children in RootedTree order), so a lookup descent walks forward in
/// memory. Returns the tree's bank id.
std::int32_t add_tree(HopArena::TreeBank& bank, const SearchTree& st,
                      TreeScratch& scratch) {
  if (bank.node_base.empty()) {
    bank.node_base.push_back(0);
    bank.lookup_off.push_back(0);
    bank.child_off.push_back(0);
    bank.chunk_off.push_back(0);
  }
  const RootedTree& tree = st.tree();
  const std::size_t m = tree.size();
  const std::int32_t id = static_cast<std::int32_t>(bank.root_global.size());

  std::vector<int>& order = scratch.order;
  std::vector<int>& stack = scratch.stack;
  order.clear();
  stack.assign(1, tree.root_local());
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    order.push_back(node);
    const auto& kids = tree.children(node);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  CR_CHECK(order.size() == m);

  const std::uint32_t base = static_cast<std::uint32_t>(bank.global.size());
  for (std::size_t pos = 0; pos < m; ++pos) {
    const int local = order[pos];
    bank.global.push_back(tree.global_id(local));
    const int parent = tree.parent(local);
    bank.parent_global.push_back(parent < 0 ? kInvalidNode
                                            : tree.global_id(parent));
    for (const int child : tree.children(local)) {
      const SearchTree::KeyRange range = st.subtree_key_range(child);
      bank.child_lo.push_back(range.lo);
      bank.child_hi.push_back(range.hi);
      bank.child_global.push_back(tree.global_id(child));
    }
    bank.child_off.push_back(static_cast<std::uint32_t>(bank.child_lo.size()));
    for (const auto& [key, data] : st.chunk(local)) {
      bank.chunk_key.push_back(key);
      bank.chunk_data.push_back(data);
    }
    bank.chunk_off.push_back(static_cast<std::uint32_t>(bank.chunk_key.size()));
  }

  // Per-tree sorted (global -> row) table.
  std::vector<std::pair<NodeId, std::uint32_t>>& ids = scratch.ids;
  ids.resize(m);
  for (std::size_t pos = 0; pos < m; ++pos) {
    ids[pos] = {bank.global[base + pos], base + static_cast<std::uint32_t>(pos)};
  }
  std::sort(ids.begin(), ids.end());
  for (const auto& [global, row] : ids) {
    bank.lookup_global.push_back(global);
    bank.lookup_row.push_back(row);
  }
  bank.lookup_off.push_back(static_cast<std::uint32_t>(bank.lookup_global.size()));

  bank.root_global.push_back(tree.root_global());
  bank.node_base.push_back(static_cast<std::uint32_t>(bank.global.size()));
  return id;
}

template <typename T>
std::size_t slab_bytes(const Slab<T>& slab) {
  return slab.capacity() * sizeof(T);
}

/// Appends the never-matching tail (lo = max, hi = 0) that lets
/// ring_first_hit read one full vector past the last segment.
void pad_ring_rows(Slab<NodeId>& lo, Slab<NodeId>& hi) {
  for (std::uint32_t i = 0; i < kRingScanPad; ++i) {
    lo.push_back(kInvalidNode);
    hi.push_back(0);
  }
}

// ---- ring_first_hit lane-width variants ----
//
// All variants scan 1/8/16 entries per iteration and return the smallest
// matching index. A vector block may straddle `end`: indices past `end`
// belong to the next node's segment (or the pad tail) and are clamped away.
// A genuine hit always has a smaller in-block index than any straddling
// false hit, so the clamp can only ever turn a miss into `end`.

std::uint32_t ring_find_scalar(const NodeId* lo, const NodeId* hi,
                               std::uint32_t begin, std::uint32_t end,
                               NodeId key) {
  for (std::uint32_t i = begin; i < end; ++i) {
    if (lo[i] <= key && key <= hi[i]) return i;
  }
  return end;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CR_RING_FIND_SIMD 1

__attribute__((target("avx2"))) std::uint32_t ring_find_avx2(
    const NodeId* lo, const NodeId* hi, std::uint32_t begin, std::uint32_t end,
    NodeId key) {
  // AVX2 has no unsigned 32-bit compare; bias by 2^31 and compare signed.
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i k =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(key)), bias);
  for (std::uint32_t i = begin; i < end; i += 8) {
    const __m256i vlo = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lo + i)), bias);
    const __m256i vhi = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hi + i)), bias);
    // contained = !(lo > key) && !(key > hi)
    const __m256i miss = _mm256_or_si256(_mm256_cmpgt_epi32(vlo, k),
                                         _mm256_cmpgt_epi32(k, vhi));
    const int mask =
        ~_mm256_movemask_ps(_mm256_castsi256_ps(miss)) & 0xff;
    if (mask != 0) {
      const std::uint32_t idx =
          i + static_cast<std::uint32_t>(__builtin_ctz(
                  static_cast<unsigned>(mask)));
      return idx < end ? idx : end;
    }
  }
  return end;
}

__attribute__((target("avx512f"))) std::uint32_t ring_find_avx512(
    const NodeId* lo, const NodeId* hi, std::uint32_t begin, std::uint32_t end,
    NodeId key) {
  const __m512i k = _mm512_set1_epi32(static_cast<int>(key));
  for (std::uint32_t i = begin; i < end; i += 16) {
    const __m512i vlo = _mm512_loadu_si512(lo + i);
    const __m512i vhi = _mm512_loadu_si512(hi + i);
    const __mmask16 hit = _mm512_cmple_epu32_mask(vlo, k) &
                          _mm512_cmple_epu32_mask(k, vhi);
    if (hit != 0) {
      const std::uint32_t idx =
          i + static_cast<std::uint32_t>(__builtin_ctz(
                  static_cast<unsigned>(hit)));
      return idx < end ? idx : end;
    }
  }
  return end;
}
#endif  // x86-64 GCC/Clang

using RingFindFn = std::uint32_t (*)(const NodeId*, const NodeId*,
                                     std::uint32_t, std::uint32_t, NodeId);

RingFindFn pick_ring_find() {
#ifdef CR_RING_FIND_SIMD
  if (__builtin_cpu_supports("avx512f")) return ring_find_avx512;
  if (__builtin_cpu_supports("avx2")) return ring_find_avx2;
#endif
  return ring_find_scalar;
}

const RingFindFn g_ring_find = pick_ring_find();

}  // namespace

std::uint32_t ring_first_hit(const NodeId* lo, const NodeId* hi,
                             std::uint32_t begin, std::uint32_t end,
                             NodeId key) {
  return g_ring_find(lo, hi, begin, end, key);
}

struct HopArenaCompiler::State {
  std::shared_ptr<HopArena> arena = std::make_shared<HopArena>();
  std::vector<std::vector<NodeId>> nets;  // Y_0 .. Y_top
  TreeScratch scratch;
  int stage = 0;  // 0 start, 1 hier, 2 sf, 3 simple, 4 sfni (bank order)
  int simple_next_level = 0;
  bool finished = false;

  int levels() const { return arena->top_level + 1; }

  /// Advances the bank-order stage; each scheme may arrive once, in order.
  void enter(int next) {
    CR_CHECK_MSG(!finished, "HopArenaCompiler used after finish()");
    CR_CHECK_MSG(stage < next, "schemes must be compiled in bank order");
    stage = next;
  }
};

HopArenaCompiler::HopArenaCompiler(const NetHierarchy& hierarchy,
                                   const Naming* naming)
    : state_(std::make_unique<State>()) {
  HopArena& a = *state_->arena;
  const std::size_t n = hierarchy.net(0).size();  // Y_0 = V
  const int top = hierarchy.top_level();
  a.n = n;
  a.top_level = top;
  a.leaf_label.resize(n);
  for (NodeId v = 0; v < n; ++v) a.leaf_label[v] = hierarchy.leaf_label(v);
  if (naming != nullptr) {
    a.name_of.resize(n);
    for (NodeId v = 0; v < n; ++v) a.name_of[v] = naming->name_of(v);
  }
  a.net_parent.assign(static_cast<std::size_t>(top + 1) * n, kInvalidNode);
  state_->nets.resize(top + 1);
  for (int level = 0; level <= top; ++level) {
    state_->nets[level] = hierarchy.net(level);
    for (const NodeId x : hierarchy.net(level)) {
      a.net_parent[static_cast<std::size_t>(level) * n + x] =
          hierarchy.netting_parent(level, x);
    }
  }
}

HopArenaCompiler::~HopArenaCompiler() = default;

void HopArenaCompiler::add_hier(const HierarchicalLabeledScheme& scheme) {
  state_->enter(1);
  HopArena& a = *state_->arena;
  const std::size_t n = a.n;
  const int levels = state_->levels();
  a.hier_present = true;
  HopArena::RingSlab& r = a.hier;
  r.levels = levels;
  r.level_off.resize(n * static_cast<std::size_t>(levels) + 1);
  std::size_t entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto& rings = scheme.rings(u);
    for (int level = 0; level < levels; ++level) {
      r.level_off[u * static_cast<std::size_t>(levels) + level] =
          static_cast<std::uint32_t>(entries);
      entries += rings[level].size();
    }
  }
  r.level_off.back() = static_cast<std::uint32_t>(entries);
  r.lo.reserve(entries + kRingScanPad);
  r.hi.reserve(entries + kRingScanPad);
  r.next.reserve(entries);
  r.x.reserve(entries);
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& level : scheme.rings(u)) {
      for (const auto& entry : level) {
        r.lo.push_back(entry.range.lo);
        r.hi.push_back(entry.range.hi);
        r.next.push_back(entry.next_hop);
        r.x.push_back(entry.x);
      }
    }
  }
  pad_ring_rows(r.lo, r.hi);
}

void HopArenaCompiler::add_sf(const ScaleFreeLabeledScheme& sf_scheme) {
  state_->enter(2);
  HopArena& a = *state_->arena;
  const std::size_t n = a.n;
  const int levels = state_->levels();
  const std::size_t trees_before = a.trees.root_global.size();
  a.sf_present = true;
  HopArena::SfSlab& s = a.sf;
  const int max_exp = sf_scheme.max_exponent();
  s.max_exponent = max_exp;

  // Rings over the sparse level sets.
  s.node_off.resize(n + 1);
  std::size_t entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    s.node_off[u] = static_cast<std::uint32_t>(entries);
    for (const auto& ring : sf_scheme.rings(u)) entries += ring.size();
  }
  s.node_off[n] = static_cast<std::uint32_t>(entries);
  s.lo.reserve(entries + kRingScanPad);
  s.hi.reserve(entries + kRingScanPad);
  s.next.reserve(entries);
  s.x.reserve(entries);
  s.dist.reserve(entries);
  s.level.reserve(entries);
  for (NodeId u = 0; u < n; ++u) {
    const auto& level_set = sf_scheme.level_set(u);
    const auto& rings = sf_scheme.rings(u);
    for (std::size_t k = 0; k < level_set.size(); ++k) {
      for (const auto& entry : rings[k]) {
        s.lo.push_back(entry.range.lo);
        s.hi.push_back(entry.range.hi);
        s.next.push_back(entry.next_hop);
        s.x.push_back(entry.x);
        s.dist.push_back(entry.dist_x);
        s.level.push_back(static_cast<std::int16_t>(level_set[k]));
      }
    }
  }
  pad_ring_rows(s.lo, s.hi);

  s.radius.resize(levels);
  s.walk_threshold.resize(levels);
  for (int level = 0; level < levels; ++level) {
    s.radius[level] = level_radius(level);
    // The reference expression, verbatim, for bit-identical comparisons.
    s.walk_threshold[level] =
        level_radius(level) / (2 * sf_scheme.epsilon()) - level_radius(level);
  }

  s.size_radius.resize(n * static_cast<std::size_t>(max_exp + 1));
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 0; j <= max_exp; ++j) {
      s.size_radius[u * static_cast<std::size_t>(max_exp + 1) + j] =
          sf_scheme.size_radius(j, u);
    }
  }

  // Flattened regions: rid = region_base[j] + ball index.
  std::vector<std::uint32_t> region_base(max_exp + 2, 0);
  for (int j = 0; j <= max_exp; ++j) {
    region_base[j + 1] =
        region_base[j] +
        static_cast<std::uint32_t>(sf_scheme.regions(j).size());
  }
  const std::size_t num_regions = region_base[max_exp + 1];

  s.region_id.resize(static_cast<std::size_t>(max_exp + 1) * n);
  s.region_local.resize(static_cast<std::size_t>(max_exp + 1) * n);
  for (int j = 0; j <= max_exp; ++j) {
    for (NodeId u = 0; u < n; ++u) {
      const std::size_t slot = static_cast<std::size_t>(j) * n + u;
      s.region_id[slot] = static_cast<std::int32_t>(
          region_base[j] + sf_scheme.region_index(j, u));
      const int local = sf_scheme.region_of(j, u).tree->local_id(u);
      CR_CHECK(local >= 0);
      s.region_local[slot] = local;
    }
  }

  s.center.resize(num_regions);
  s.search_tree.resize(num_regions);
  s.rt_base.resize(num_regions + 1);
  s.rt_base[0] = 0;
  s.rt_child_off.push_back(0);
  s.rt_light_off.push_back(0);
  std::size_t rid = 0;
  for (int j = 0; j <= max_exp; ++j) {
    for (const auto& region : sf_scheme.regions(j)) {
      const RootedTree& tree = *region.tree;
      const CompactTreeRouter& router = *region.router;
      const std::size_t m = tree.size();
      s.center[rid] = region.center;
      s.search_tree[rid] = add_tree(a.trees, *region.search, state_->scratch);
      for (std::size_t local = 0; local < m; ++local) {
        const int l = static_cast<int>(local);
        s.rt_global.push_back(tree.global_id(l));
        const int parent = tree.parent(l);
        s.rt_parent_global.push_back(parent < 0 ? kInvalidNode
                                                : tree.global_id(parent));
        s.rt_dfs_in.push_back(router.dfs_in(l));
        s.rt_dfs_out.push_back(router.dfs_out(l));
        const int heavy = router.heavy_child(l);
        if (heavy >= 0) {
          s.rt_heavy_global.push_back(tree.global_id(heavy));
          s.rt_heavy_in.push_back(router.dfs_in(heavy));
          s.rt_heavy_out.push_back(router.dfs_out(heavy));
        } else {
          s.rt_heavy_global.push_back(kInvalidNode);
          s.rt_heavy_in.push_back(1);
          s.rt_heavy_out.push_back(0);
        }
        for (const int child : tree.children(l)) {
          s.rt_child_global.push_back(tree.global_id(child));
        }
        s.rt_child_off.push_back(
            static_cast<std::uint32_t>(s.rt_child_global.size()));
        for (const auto& [anchor, port] : router.label(l).light_edges) {
          s.rt_light_anchor.push_back(anchor);
          s.rt_light_port.push_back(port);
        }
        s.rt_light_off.push_back(
            static_cast<std::uint32_t>(s.rt_light_anchor.size()));
      }
      s.rt_base[rid + 1] = static_cast<std::uint32_t>(s.rt_global.size());
      ++rid;
    }
  }
  CR_CHECK(rid == num_regions);

  s.chain_off.resize(n + 1);
  std::size_t chain_entries = 0;
  for (NodeId u = 0; u < n; ++u) {
    s.chain_off[u] = static_cast<std::uint32_t>(chain_entries);
    chain_entries += sf_scheme.chains(u).size();
  }
  s.chain_off[n] = static_cast<std::uint32_t>(chain_entries);
  s.chain_target.reserve(chain_entries);
  s.chain_hop.reserve(chain_entries);
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& [target, next] : sf_scheme.chains(u)) {
      s.chain_target.push_back(target);
      s.chain_hop.push_back(next);
    }
  }

  for (const auto& region : sf_scheme.regions(max_exp)) {
    s.top_peer.push_back(region.center);
  }
  a.sf_trees =
      static_cast<std::uint32_t>(a.trees.root_global.size() - trees_before);
}

void HopArenaCompiler::add_simple_level(
    int level, const std::vector<std::unique_ptr<SearchTree>>& trees) {
  State& st = *state_;
  if (level == 0) st.enter(3);
  CR_CHECK_MSG(st.stage == 3 && !st.finished && level == st.simple_next_level &&
                   level < st.levels(),
               "simple NI levels must arrive in order 0..top");
  HopArena& a = *st.arena;
  const std::size_t n = a.n;
  if (level == 0) {
    a.simple_present = true;
    a.simple_tree_of.assign(static_cast<std::size_t>(st.levels()) * n, -1);
  }
  const std::vector<NodeId>& net = st.nets[level];
  CR_CHECK(trees.size() == net.size());
  for (std::size_t k = 0; k < net.size(); ++k) {
    a.simple_tree_of[static_cast<std::size_t>(level) * n + net[k]] =
        add_tree(a.trees, *trees[k], st.scratch);
  }
  a.simple_trees += static_cast<std::uint32_t>(net.size());
  ++st.simple_next_level;
}

void HopArenaCompiler::add_simple(const SimpleNameIndependentScheme& scheme) {
  for (int level = 0; level < state_->levels(); ++level) {
    add_simple_level(level, scheme.level_trees(level));
  }
}

void HopArenaCompiler::add_sfni(const ScaleFreeNameIndependentScheme& scheme) {
  State& st = *state_;
  CR_CHECK_MSG(st.stage != 3 || st.simple_next_level == st.levels(),
               "every simple NI level must be compiled before sfni");
  st.enter(4);
  HopArena& a = *st.arena;
  const std::size_t n = a.n;
  const std::size_t trees_before = a.trees.root_global.size();
  a.sfni_present = true;
  a.sfni_tree_of.assign(static_cast<std::size_t>(st.levels()) * n, -1);
  a.sfni_root.assign(static_cast<std::size_t>(st.levels()) * n, kInvalidNode);
  // Delegated levels share packed-ball trees; dedup by identity.
  std::unordered_map<const SearchTree*, std::int32_t> seen;
  for (int level = 0; level < st.levels(); ++level) {
    for (const NodeId anchor : st.nets[level]) {
      NodeId root = kInvalidNode;
      const SearchTree& tree = scheme.search_structure(level, anchor, &root);
      auto [it, inserted] = seen.try_emplace(&tree, -1);
      if (inserted) it->second = add_tree(a.trees, tree, st.scratch);
      const std::size_t slot = static_cast<std::size_t>(level) * n + anchor;
      a.sfni_tree_of[slot] = it->second;
      a.sfni_root[slot] = root;
    }
  }
  a.sfni_trees =
      static_cast<std::uint32_t>(a.trees.root_global.size() - trees_before);
}

std::shared_ptr<HopArena> HopArenaCompiler::finish() {
  State& st = *state_;
  CR_CHECK_MSG(!st.finished, "finish() called twice");
  CR_CHECK_MSG(st.stage != 3 || st.simple_next_level == st.levels(),
               "finish() before every simple NI level was compiled");
  st.finished = true;
  HopArena& a = *st.arena;
  if (!a.simple_present && !a.sfni_present) Slab<NodeId>().swap(a.net_parent);
  if (a.trees.root_global.empty()) {
    a.trees.node_base.push_back(0);
    a.trees.lookup_off.push_back(0);
    a.trees.child_off.push_back(0);
    a.trees.chunk_off.push_back(0);
  }
  CR_OBS_ADD("arena.bytes", a.memory_bytes());
  return std::move(st.arena);
}

std::shared_ptr<const HopArena> HopArena::build(
    const NetHierarchy& hierarchy, const Naming* naming,
    const HierarchicalLabeledScheme* hier_scheme,
    const ScaleFreeLabeledScheme* sf_scheme,
    const SimpleNameIndependentScheme* simple_scheme,
    const ScaleFreeNameIndependentScheme* sfni_scheme) {
  CR_OBS_SCOPED_TIMER("arena.build");
  CR_CHECK_MSG(!simple_scheme || hier_scheme,
               "the simple NI runtime rides the hierarchical rings");
  CR_CHECK_MSG(!sfni_scheme || sf_scheme,
               "the scale-free NI runtime rides the scale-free rings");
  CR_CHECK_MSG(!(simple_scheme || sfni_scheme) || naming,
               "name-independent serving needs the naming");

  HopArenaCompiler compiler(hierarchy, naming);
  if (hier_scheme != nullptr) compiler.add_hier(*hier_scheme);
  if (sf_scheme != nullptr) compiler.add_sf(*sf_scheme);
  if (simple_scheme != nullptr) compiler.add_simple(*simple_scheme);
  if (sfni_scheme != nullptr) compiler.add_sfni(*sfni_scheme);
  std::shared_ptr<HopArena> arena = compiler.finish();
  arena->advise_hot();
  return arena;
}

namespace {

/// madvise the page-aligned interior of one slab allocation. Slabs are
/// 64-byte aligned, not page aligned, so round the start up and the end down;
/// sub-page slabs are skipped (nothing addressable at page granularity).
void advise_slab_range(const void* p, std::size_t bytes) {
#if defined(__linux__)
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (raw + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (raw + bytes) & ~(page - 1);
  if (hi <= lo) return;
  void* base = reinterpret_cast<void*>(lo);
  const std::size_t len = hi - lo;
  (void)::madvise(base, len, MADV_WILLNEED);
#if defined(MADV_HUGEPAGE)
  if (len >= (std::size_t{2} << 20)) (void)::madvise(base, len, MADV_HUGEPAGE);
#endif
#else
  (void)p;
  (void)bytes;
#endif
}

template <typename T>
void advise_slab(const Slab<T>& slab) {
  advise_slab_range(slab.data(), slab.size() * sizeof(T));
}

}  // namespace

void HopArena::advise_hot() const {
  // The rows every hop touches: ring SoA lanes, the tree bank's descent
  // arrays, and the scale-free router/chain rows. Offset tables are tiny and
  // ride along with their data pages; the remaining bookkeeping slabs are
  // cold enough to leave to demand paging.
  advise_slab(leaf_label);
  advise_slab(name_of);
  advise_slab(hier.lo);
  advise_slab(hier.hi);
  advise_slab(hier.next);
  advise_slab(hier.x);
  advise_slab(sf.lo);
  advise_slab(sf.hi);
  advise_slab(sf.next);
  advise_slab(sf.x);
  advise_slab(sf.dist);
  advise_slab(sf.level);
  advise_slab(sf.rt_global);
  advise_slab(sf.rt_parent_global);
  advise_slab(sf.rt_dfs_in);
  advise_slab(sf.rt_dfs_out);
  advise_slab(sf.chain_target);
  advise_slab(sf.chain_hop);
  advise_slab(trees.global);
  advise_slab(trees.parent_global);
  advise_slab(trees.child_lo);
  advise_slab(trees.child_hi);
  advise_slab(trees.child_global);
  advise_slab(trees.chunk_key);
  advise_slab(trees.chunk_data);
  advise_slab(trees.lookup_global);
  advise_slab(trees.lookup_row);
}

std::size_t HopArena::memory_bytes() const {
  std::size_t bytes = slab_bytes(leaf_label) + slab_bytes(name_of) +
                      slab_bytes(net_parent);
  bytes += slab_bytes(hier.level_off) + slab_bytes(hier.lo) +
           slab_bytes(hier.hi) + slab_bytes(hier.next) + slab_bytes(hier.x);
  bytes += slab_bytes(sf.node_off) + slab_bytes(sf.lo) + slab_bytes(sf.hi) +
           slab_bytes(sf.next) + slab_bytes(sf.x) + slab_bytes(sf.dist) +
           slab_bytes(sf.level) + slab_bytes(sf.radius) +
           slab_bytes(sf.walk_threshold) + slab_bytes(sf.size_radius) +
           slab_bytes(sf.region_id) + slab_bytes(sf.region_local) +
           slab_bytes(sf.center) + slab_bytes(sf.search_tree) +
           slab_bytes(sf.rt_base) + slab_bytes(sf.rt_global) +
           slab_bytes(sf.rt_parent_global) + slab_bytes(sf.rt_dfs_in) +
           slab_bytes(sf.rt_dfs_out) + slab_bytes(sf.rt_heavy_global) +
           slab_bytes(sf.rt_heavy_in) + slab_bytes(sf.rt_heavy_out) +
           slab_bytes(sf.rt_child_off) + slab_bytes(sf.rt_child_global) +
           slab_bytes(sf.rt_light_off) + slab_bytes(sf.rt_light_anchor) +
           slab_bytes(sf.rt_light_port) + slab_bytes(sf.chain_off) +
           slab_bytes(sf.chain_target) + slab_bytes(sf.chain_hop) +
           slab_bytes(sf.top_peer);
  bytes += slab_bytes(trees.node_base) + slab_bytes(trees.root_global) +
           slab_bytes(trees.global) + slab_bytes(trees.parent_global) +
           slab_bytes(trees.child_off) + slab_bytes(trees.child_lo) +
           slab_bytes(trees.child_hi) + slab_bytes(trees.child_global) +
           slab_bytes(trees.chunk_off) + slab_bytes(trees.chunk_key) +
           slab_bytes(trees.chunk_data) + slab_bytes(trees.lookup_off) +
           slab_bytes(trees.lookup_global) + slab_bytes(trees.lookup_row);
  bytes += slab_bytes(simple_tree_of) + slab_bytes(sfni_tree_of) +
           slab_bytes(sfni_root);
  return bytes;
}

}  // namespace compactroute
