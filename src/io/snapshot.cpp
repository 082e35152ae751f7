#include "io/snapshot.hpp"

#include <array>
#include <cstring>
#include <fstream>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "codec/bitstream.hpp"
#include "core/check.hpp"
#include "io/snapshot_arena.hpp"
#include "obs/metrics.hpp"
#include "trees/compact_tree_router.hpp"

namespace compactroute {

namespace {

constexpr std::uint8_t kMagic[8] = {'C', 'R', 'S', 'N', 'A', 'P', '0', '1'};
constexpr std::uint32_t kFormatVersion = 2;

enum SectionId : std::uint32_t {
  kSectionMeta = 1,
  kSectionGraph = 2,
  kSectionHierarchy = 3,
  kSectionNaming = 4,
  kSectionHier = 5,
  kSectionScaleFree = 6,
  kSectionSimple = 7,
  kSectionSfni = 8,
  kSectionArenaNodes = 9,
  kSectionArenaHier = 10,
  kSectionArenaSf = 11,
  kSectionArenaSimple = 12,
  kSectionArenaSfni = 13,
};

// The canonical section list: a v2 directory holds exactly these ids, in
// this order (the arena sections after the eight compact ones).
constexpr std::uint32_t kSectionIds[] = {
    kSectionMeta,       kSectionGraph,      kSectionHierarchy,
    kSectionNaming,     kSectionHier,       kSectionScaleFree,
    kSectionSimple,     kSectionSfni,       kSectionArenaNodes,
    kSectionArenaHier,  kSectionArenaSf,    kSectionArenaSimple,
    kSectionArenaSfni};
constexpr std::size_t kNumSections = sizeof(kSectionIds) / sizeof(kSectionIds[0]);
constexpr std::size_t kNumCompactSections = 8;
constexpr std::size_t kEntryBytes = 4 + 8 + 8 + 4;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4;

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSectionMeta: return "meta";
    case kSectionGraph: return "graph";
    case kSectionHierarchy: return "hierarchy";
    case kSectionNaming: return "naming";
    case kSectionHier: return "labeled-hierarchical";
    case kSectionScaleFree: return "labeled-scale-free";
    case kSectionSimple: return "ni-simple";
    case kSectionSfni: return "ni-scale-free";
    case kSectionArenaNodes: return "arena-nodes";
    case kSectionArenaHier: return "arena-hier";
    case kSectionArenaSf: return "arena-sf";
    case kSectionArenaSimple: return "arena-simple";
    case kSectionArenaSfni: return "arena-sfni";
  }
  return "unknown";
}

/// Directory position of a section in the canonical list.
constexpr std::size_t section_index(std::uint32_t id) { return id - 1; }

[[noreturn]] void corrupt(const std::string& why) {
  throw SnapshotError("corrupt snapshot: " + why);
}

// ---- little-endian byte helpers (header + directory) ----

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v |= std::uint32_t{p[b]} << (8 * b);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= std::uint64_t{p[b]} << (8 * b);
  return v;
}

// ---- bit-codec field helpers ----

void put_f64(BitWriter& w, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  w.write(bits, 64);
}

double get_f64(BitReader& r) {
  const std::uint64_t bits = r.read(64);
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void put_i64(BitWriter& w, std::int64_t v) { w.write_varint(zigzag(v)); }
std::int64_t get_i64(BitReader& r) { return unzigzag(r.read_varint()); }

/// Reads a count and bounds it — the first line of defense against a corrupt
/// length field turning into a gigantic allocation.
std::size_t get_count(BitReader& r, std::size_t limit, const char* what) {
  const std::uint64_t v = r.read_varint();
  if (v > limit) corrupt(std::string(what) + " out of range");
  return static_cast<std::size_t>(v);
}

NodeId get_node(BitReader& r, std::size_t n) {
  const std::uint64_t v = r.read_varint();
  if (v >= n) corrupt("node id out of range");
  return static_cast<NodeId>(v);
}

void put_range(BitWriter& w, const LeafRange& range) {
  w.write_varint(range.lo);
  w.write_varint(range.hi);
}

LeafRange get_range(BitReader& r, std::size_t n) {
  LeafRange range;
  const std::uint64_t lo = r.read_varint();
  const std::uint64_t hi = r.read_varint();
  if (lo > n || hi > n) corrupt("leaf range out of range");
  range.lo = static_cast<NodeId>(lo);
  range.hi = static_cast<NodeId>(hi);
  return range;
}

// ---- RootedTree (public interface only) ----

void put_tree(BitWriter& w, const RootedTree& tree) {
  const std::size_t m = tree.size();
  w.write_varint(m);
  for (std::size_t i = 0; i < m; ++i) {
    w.write_varint(tree.global_id(static_cast<int>(i)));
  }
  w.write_varint(static_cast<std::uint64_t>(tree.root_local()));
  for (std::size_t i = 0; i < m; ++i) {
    if (static_cast<int>(i) == tree.root_local()) continue;
    w.write_varint(static_cast<std::uint64_t>(tree.parent(static_cast<int>(i))));
    put_f64(w, tree.parent_edge_weight(static_cast<int>(i)));
  }
}

/// Rebuilds the tree positionally: local index = position in the node list,
/// so the restored tree is bit-identical to the saved one, derived orders
/// included. RootedTree's constructor rejects duplicates and cycles.
RootedTree get_tree(BitReader& r, std::size_t n) {
  const std::size_t m = get_count(r, n, "tree size");
  if (m == 0) corrupt("empty tree");
  std::vector<NodeId> nodes(m);
  for (std::size_t i = 0; i < m; ++i) nodes[i] = get_node(r, n);
  const std::size_t root = get_count(r, m - 1, "tree root");
  std::vector<int> parent(m, -1);
  std::vector<Weight> weight(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (i == root) continue;
    parent[i] = static_cast<int>(get_count(r, m - 1, "tree parent"));
    weight[i] = get_f64(r);
  }
  return RootedTree(std::move(nodes), static_cast<int>(root), std::move(parent),
                    std::move(weight));
}

}  // namespace

// SnapshotAccess is the single befriended doorway into the schemes' private
// state. Encoders write primitive members; decoders restore them and
// recompute the pure-derived state (compact routers, membership flags,
// label->node inverse) rather than trusting redundant bytes.
struct SnapshotAccess {
  // ---- SearchTree ----

  static void encode_search_tree(BitWriter& w, const SearchTree& t) {
    w.write_varint(t.center_);
    put_f64(w, t.radius_);
    put_tree(w, t.tree_);
    const std::size_t m = t.tree_.size();
    for (std::size_t i = 0; i < m; ++i) put_i64(w, t.level_[i]);
    for (std::size_t i = 0; i < m; ++i) w.write(t.tail_[i] ? 1 : 0, 1);
    put_i64(w, t.num_levels_);
    w.write(t.stored_ ? 1 : 0, 1);
    for (std::size_t i = 0; i < m; ++i) {
      w.write_varint(t.chunks_[i].size());
      for (const auto& [key, data] : t.chunks_[i]) {
        w.write_varint(key);
        w.write_varint(data);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      w.write_varint(t.own_range_[i].lo);
      w.write_varint(t.own_range_[i].hi);
      w.write_varint(t.subtree_range_[i].lo);
      w.write_varint(t.subtree_range_[i].hi);
    }
  }

  static SearchTree decode_search_tree(BitReader& r, std::size_t n) {
    const NodeId center = get_node(r, n);
    const Weight radius = get_f64(r);
    SearchTree t(get_tree(r, n));
    t.center_ = center;
    t.radius_ = radius;
    const std::size_t m = t.tree_.size();
    t.level_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      t.level_[i] = static_cast<int>(get_i64(r));
    }
    t.tail_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      t.tail_[i] = static_cast<char>(r.read(1));
    }
    t.num_levels_ = static_cast<int>(get_i64(r));
    t.stored_ = r.read(1) != 0;
    t.chunks_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t k = get_count(r, n, "chunk size");
      t.chunks_[i].resize(k);
      for (auto& [key, data] : t.chunks_[i]) {
        key = r.read_varint();
        data = r.read_varint();
      }
    }
    t.own_range_.resize(m);
    t.subtree_range_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      t.own_range_[i].lo = r.read_varint();
      t.own_range_[i].hi = r.read_varint();
      t.subtree_range_[i].lo = r.read_varint();
      t.subtree_range_[i].hi = r.read_varint();
    }
    return t;
  }

  // ---- BallPacking ----

  static void encode_packing(BitWriter& w, const BallPacking& p,
                             std::size_t n) {
    w.write_varint(static_cast<std::uint64_t>(p.j_));
    w.write_varint(p.balls_.size());
    for (const PackedBall& ball : p.balls_) {
      w.write_varint(ball.center);
      put_f64(w, ball.radius);
      w.write_varint(ball.nodes.size());
      for (NodeId v : ball.nodes) w.write_varint(v);
    }
    CR_CHECK(p.ball_of_.size() == n);
    for (int b : p.ball_of_) put_i64(w, b);
  }

  static std::unique_ptr<BallPacking> decode_packing(BitReader& r,
                                                     std::size_t n) {
    auto p = std::unique_ptr<BallPacking>(new BallPacking());
    p->j_ = static_cast<int>(get_count(r, 64, "packing exponent"));
    p->balls_.resize(get_count(r, n, "ball count"));
    for (PackedBall& ball : p->balls_) {
      ball.center = get_node(r, n);
      ball.radius = get_f64(r);
      ball.nodes.resize(get_count(r, n, "ball size"));
      for (NodeId& v : ball.nodes) v = get_node(r, n);
    }
    p->ball_of_.resize(n);
    for (int& b : p->ball_of_) {
      const std::int64_t v = get_i64(r);
      if (v < -1 || v >= static_cast<std::int64_t>(p->balls_.size())) {
        corrupt("ball index out of range");
      }
      b = static_cast<int>(v);
    }
    return p;
  }

  // ---- NetHierarchy ----

  static void encode_hierarchy(BitWriter& w, const NetHierarchy& h,
                               std::size_t n) {
    const int top = h.top_level_;
    w.write_varint(static_cast<std::uint64_t>(top));
    for (NodeId u = 0; u < n; ++u) w.write_varint(h.leaf_label_[u]);
    for (int i = 0; i <= top; ++i) {
      w.write_varint(h.nets_[i].size());
      for (NodeId x : h.nets_[i]) w.write_varint(x);
      for (NodeId u = 0; u < n; ++u) w.write_varint(h.zoom_[i][u]);
      for (NodeId x : h.nets_[i]) {
        if (i < top) w.write_varint(h.parent_[i][x]);
        put_range(w, h.ranges_[i][x]);
      }
    }
  }

  static std::unique_ptr<NetHierarchy> decode_hierarchy(BitReader& r,
                                                        std::size_t n) {
    auto h = std::unique_ptr<NetHierarchy>(new NetHierarchy());
    const int top = static_cast<int>(get_count(r, 4096, "top level"));
    h->top_level_ = top;
    h->leaf_label_.resize(n);
    h->label_to_node_.assign(n, kInvalidNode);
    for (NodeId u = 0; u < n; ++u) {
      h->leaf_label_[u] = get_node(r, n);
      if (h->label_to_node_[h->leaf_label_[u]] != kInvalidNode) {
        corrupt("leaf labels are not a permutation");
      }
      h->label_to_node_[h->leaf_label_[u]] = u;
    }
    h->nets_.resize(top + 1);
    h->membership_.assign(top + 1, std::vector<char>(n, 0));
    h->zoom_.assign(top + 1, std::vector<NodeId>(n, kInvalidNode));
    h->parent_.assign(top + 1, std::vector<NodeId>(n, kInvalidNode));
    h->ranges_.assign(top + 1, std::vector<LeafRange>(n));
    for (int i = 0; i <= top; ++i) {
      h->nets_[i].resize(get_count(r, n, "net size"));
      NodeId prev = kInvalidNode;
      for (NodeId& x : h->nets_[i]) {
        x = get_node(r, n);
        if (prev != kInvalidNode && x <= prev) corrupt("net not sorted");
        prev = x;
        h->membership_[i][x] = 1;
      }
      for (NodeId u = 0; u < n; ++u) h->zoom_[i][u] = get_node(r, n);
      for (NodeId x : h->nets_[i]) {
        if (i < top) h->parent_[i][x] = get_node(r, n);
        h->ranges_[i][x] = get_range(r, n);
      }
    }
    return h;
  }

  // ---- HierarchicalLabeledScheme ----

  static void encode_hier(BitWriter& w, const HierarchicalLabeledScheme& s,
                          std::size_t n) {
    put_f64(w, s.epsilon_);
    for (NodeId u = 0; u < n; ++u) {
      w.write_varint(s.rings_[u].size());
      for (const auto& ring : s.rings_[u]) {
        w.write_varint(ring.size());
        for (const auto& entry : ring) {
          w.write_varint(entry.x);
          put_range(w, entry.range);
          w.write_varint(entry.next_hop);
        }
      }
    }
  }

  static std::unique_ptr<HierarchicalLabeledScheme> decode_hier(
      BitReader& r, std::size_t n, const NetHierarchy* hierarchy) {
    CR_OBS_COUNT("snapshot.scheme_decodes");
    auto s = std::unique_ptr<HierarchicalLabeledScheme>(
        new HierarchicalLabeledScheme());
    s->hierarchy_ = hierarchy;
    s->epsilon_ = get_f64(r);
    s->rings_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      s->rings_[u].resize(get_count(r, 4096, "ring level count"));
      for (auto& ring : s->rings_[u]) {
        ring.resize(get_count(r, n, "ring size"));
        for (auto& entry : ring) {
          entry.x = get_node(r, n);
          entry.range = get_range(r, n);
          entry.next_hop = get_node(r, n);
        }
      }
    }
    return s;
  }

  // ---- ScaleFreeLabeledScheme ----

  static void encode_scale_free(BitWriter& w, const ScaleFreeLabeledScheme& s,
                                std::size_t n) {
    put_f64(w, s.epsilon_);
    put_f64(w, s.options_.ring_window);
    w.write(s.options_.capped_search_trees ? 1 : 0, 1);
    w.write_varint(static_cast<std::uint64_t>(s.max_exponent_));
    for (NodeId u = 0; u < n; ++u) {
      w.write_varint(s.level_set_[u].size());
      for (int level : s.level_set_[u]) put_i64(w, level);
      for (const auto& ring : s.rings_[u]) {
        w.write_varint(ring.size());
        for (const auto& entry : ring) {
          w.write_varint(entry.x);
          put_range(w, entry.range);
          w.write_varint(entry.next_hop);
          put_f64(w, entry.dist_x);
        }
      }
    }
    for (const auto& per_node : s.size_radius_) {
      for (Weight radius : per_node) put_f64(w, radius);
    }
    for (const auto& level : s.regions_) {
      w.write_varint(level.size());
      for (const auto& region : level) {
        w.write_varint(region.center);
        put_tree(w, *region.tree);
        encode_search_tree(w, *region.search);
      }
    }
    for (const auto& per_node : s.region_of_) {
      for (int b : per_node) put_i64(w, b);
    }
    for (NodeId u = 0; u < n; ++u) w.write_varint(s.chain_bits_[u]);
    for (NodeId u = 0; u < n; ++u) {
      w.write_varint(s.chain_next_[u].size());
      for (const auto& [target, next] : s.chain_next_[u]) {
        w.write_varint(target);
        w.write_varint(next);
      }
    }
    w.write_varint(s.max_region_label_bits_);
  }

  static std::unique_ptr<ScaleFreeLabeledScheme> decode_scale_free(
      BitReader& r, std::size_t n, const NetHierarchy* hierarchy) {
    CR_OBS_COUNT("snapshot.scheme_decodes");
    auto s =
        std::unique_ptr<ScaleFreeLabeledScheme>(new ScaleFreeLabeledScheme());
    s->hierarchy_ = hierarchy;
    s->epsilon_ = get_f64(r);
    s->options_.ring_window = get_f64(r);
    s->options_.capped_search_trees = r.read(1) != 0;
    s->max_exponent_ = static_cast<int>(get_count(r, 64, "max exponent"));
    s->level_set_.resize(n);
    s->rings_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      s->level_set_[u].resize(get_count(r, 4096, "level set size"));
      for (int& level : s->level_set_[u]) level = static_cast<int>(get_i64(r));
      s->rings_[u].resize(s->level_set_[u].size());
      for (auto& ring : s->rings_[u]) {
        ring.resize(get_count(r, n, "ring size"));
        for (auto& entry : ring) {
          entry.x = get_node(r, n);
          entry.range = get_range(r, n);
          entry.next_hop = get_node(r, n);
          entry.dist_x = get_f64(r);
        }
      }
    }
    s->size_radius_.assign(s->max_exponent_ + 1, std::vector<Weight>(n, 0));
    for (auto& per_node : s->size_radius_) {
      for (Weight& radius : per_node) radius = get_f64(r);
    }
    s->regions_.resize(s->max_exponent_ + 1);
    for (auto& level : s->regions_) {
      level.resize(get_count(r, n, "region count"));
      for (auto& region : level) {
        region.center = get_node(r, n);
        region.tree = std::make_unique<RootedTree>(get_tree(r, n));
        region.router = std::make_unique<CompactTreeRouter>(*region.tree);
        region.search = std::make_unique<SearchTree>(decode_search_tree(r, n));
      }
    }
    s->region_of_.assign(s->max_exponent_ + 1, std::vector<int>(n, -1));
    for (std::size_t j = 0; j < s->region_of_.size(); ++j) {
      for (int& b : s->region_of_[j]) {
        const std::int64_t v = get_i64(r);
        if (v < 0 || v >= static_cast<std::int64_t>(s->regions_[j].size())) {
          corrupt("region index out of range");
        }
        b = static_cast<int>(v);
      }
    }
    s->chain_bits_.resize(n);
    for (std::size_t& bits : s->chain_bits_) bits = r.read_varint();
    s->chain_next_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      s->chain_next_[u].resize(get_count(r, n, "chain count"));
      for (auto& [target, next] : s->chain_next_[u]) {
        target = get_node(r, n);
        next = get_node(r, n);
      }
    }
    s->max_region_label_bits_ = r.read_varint();
    return s;
  }

  // ---- SimpleNameIndependentScheme ----

  static void encode_simple(BitWriter& w,
                            const SimpleNameIndependentScheme& s) {
    put_f64(w, s.epsilon_);
    w.write_varint(s.trees_.size());
    for (const auto& level : s.trees_) {
      w.write_varint(level.size());
      for (const auto& tree : level) encode_search_tree(w, *tree);
    }
  }

  static std::unique_ptr<SimpleNameIndependentScheme> decode_simple(
      BitReader& r, std::size_t n, const NetHierarchy* hierarchy,
      const Naming* naming, const LabeledScheme* underlying) {
    CR_OBS_COUNT("snapshot.scheme_decodes");
    auto s = std::unique_ptr<SimpleNameIndependentScheme>(
        new SimpleNameIndependentScheme());
    s->hierarchy_ = hierarchy;
    s->naming_ = naming;
    s->underlying_ = underlying;
    s->epsilon_ = get_f64(r);
    s->trees_.resize(get_count(r, 4096, "tree level count"));
    for (auto& level : s->trees_) {
      level.resize(get_count(r, n, "tree count"));
      for (auto& tree : level) {
        tree = std::make_unique<SearchTree>(decode_search_tree(r, n));
      }
    }
    return s;
  }

  // ---- ScaleFreeNameIndependentScheme ----

  static void encode_sfni(BitWriter& w,
                          const ScaleFreeNameIndependentScheme& s,
                          std::size_t n) {
    put_f64(w, s.epsilon_);
    w.write_varint(static_cast<std::uint64_t>(s.max_exponent_));
    for (const auto& packing : s.packings_) encode_packing(w, *packing, n);
    for (const auto& level : s.ball_trees_) {
      w.write_varint(level.size());
      for (const auto& tree : level) encode_search_tree(w, *tree);
    }
    w.write_varint(s.memberships_.size());
    for (const auto& level : s.memberships_) {
      w.write_varint(level.size());
      for (const auto& info : level) {
        w.write(info.own_tree ? 1 : 0, 1);
        if (info.own_tree) encode_search_tree(w, *info.own_tree);
        put_i64(w, info.h_exponent);
        put_i64(w, info.h_ball);
      }
    }
  }

  static std::unique_ptr<ScaleFreeNameIndependentScheme> decode_sfni(
      BitReader& r, std::size_t n, const NetHierarchy* hierarchy,
      const Naming* naming, const LabeledScheme* underlying) {
    CR_OBS_COUNT("snapshot.scheme_decodes");
    auto s = std::unique_ptr<ScaleFreeNameIndependentScheme>(
        new ScaleFreeNameIndependentScheme());
    s->hierarchy_ = hierarchy;
    s->naming_ = naming;
    s->underlying_ = underlying;
    s->epsilon_ = get_f64(r);
    s->max_exponent_ = static_cast<int>(get_count(r, 64, "max exponent"));
    s->packings_.resize(s->max_exponent_ + 1);
    for (auto& packing : s->packings_) packing = decode_packing(r, n);
    s->ball_trees_.resize(s->max_exponent_ + 1);
    for (std::size_t j = 0; j < s->ball_trees_.size(); ++j) {
      s->ball_trees_[j].resize(get_count(r, n, "ball tree count"));
      if (s->ball_trees_[j].size() != s->packings_[j]->balls().size()) {
        corrupt("ball tree count disagrees with packing");
      }
      for (auto& tree : s->ball_trees_[j]) {
        tree = std::make_unique<SearchTree>(decode_search_tree(r, n));
      }
    }
    s->memberships_.resize(get_count(r, 4096, "membership level count"));
    for (auto& level : s->memberships_) {
      level.resize(get_count(r, n, "membership count"));
      for (auto& info : level) {
        if (r.read(1) != 0) {
          info.own_tree =
              std::make_unique<SearchTree>(decode_search_tree(r, n));
        }
        info.h_exponent = static_cast<int>(get_i64(r));
        info.h_ball = static_cast<int>(get_i64(r));
        if (!info.own_tree) {
          if (info.h_exponent < 0 || info.h_exponent > s->max_exponent_) {
            corrupt("delegation exponent out of range");
          }
          const auto& balls = s->packings_[info.h_exponent]->balls();
          if (info.h_ball < 0 ||
              info.h_ball >= static_cast<int>(balls.size())) {
            corrupt("delegation ball out of range");
          }
        }
      }
    }
    return s;
  }
};

namespace {

// ---- section payloads ----
// One builder per section, shared between the whole-stack encode_snapshot
// and the streaming writer so both produce identical bytes.

std::vector<std::uint8_t> meta_payload(const MetricSpace& metric,
                                       double epsilon) {
  BitWriter w;
  w.write_varint(metric.n());
  put_f64(w, epsilon);
  put_f64(w, metric.normalization_scale());
  put_f64(w, metric.delta());
  w.write_varint(static_cast<std::uint64_t>(metric.num_levels()));
  return w.bytes();
}

std::vector<std::uint8_t> graph_payload(const MetricSpace& metric) {
  const std::size_t n = metric.n();
  const Graph& graph = metric.graph();
  BitWriter w;
  w.write_varint(n);
  for (NodeId u = 0; u < n; ++u) {
    std::size_t forward = 0;
    for (const HalfEdge& e : graph.neighbors(u)) forward += e.to > u;
    w.write_varint(forward);
    for (const HalfEdge& e : graph.neighbors(u)) {
      if (e.to <= u) continue;
      w.write_varint(e.to);
      put_f64(w, e.weight);
    }
  }
  return w.bytes();
}

std::vector<std::uint8_t> hierarchy_payload(const NetHierarchy& hierarchy,
                                            std::size_t n) {
  BitWriter w;
  SnapshotAccess::encode_hierarchy(w, hierarchy, n);
  return w.bytes();
}

std::vector<std::uint8_t> naming_payload(const Naming& naming, std::size_t n) {
  BitWriter w;
  for (NodeId u = 0; u < n; ++u) w.write_varint(naming.name_of(u));
  return w.bytes();
}

std::vector<std::uint8_t> hier_payload(const HierarchicalLabeledScheme* s,
                                       std::size_t n) {
  if (!s) return {};
  BitWriter w;
  SnapshotAccess::encode_hier(w, *s, n);
  return w.bytes();
}

std::vector<std::uint8_t> scale_free_payload(const ScaleFreeLabeledScheme* s,
                                             std::size_t n) {
  if (!s) return {};
  BitWriter w;
  SnapshotAccess::encode_scale_free(w, *s, n);
  return w.bytes();
}

std::vector<std::uint8_t> simple_payload(const SimpleNameIndependentScheme* s) {
  if (!s) return {};
  BitWriter w;
  SnapshotAccess::encode_simple(w, *s);
  return w.bytes();
}

std::vector<std::uint8_t> sfni_payload(const ScaleFreeNameIndependentScheme* s,
                                       std::size_t n) {
  if (!s) return {};
  BitWriter w;
  SnapshotAccess::encode_sfni(w, *s, n);
  return w.bytes();
}

std::vector<std::uint8_t> encode_section(
    std::uint32_t id, const MetricSpace& metric, double epsilon,
    const NetHierarchy& hierarchy, const Naming& naming,
    const HierarchicalLabeledScheme& hier, const ScaleFreeLabeledScheme& sf,
    const SimpleNameIndependentScheme& simple,
    const ScaleFreeNameIndependentScheme& sfni) {
  const std::size_t n = metric.n();
  switch (id) {
    case kSectionMeta: return meta_payload(metric, epsilon);
    case kSectionGraph: return graph_payload(metric);
    case kSectionHierarchy: return hierarchy_payload(hierarchy, n);
    case kSectionNaming: return naming_payload(naming, n);
    case kSectionHier: return hier_payload(&hier, n);
    case kSectionScaleFree: return scale_free_payload(&sf, n);
    case kSectionSimple: return simple_payload(&simple);
    case kSectionSfni: return sfni_payload(&sfni, n);
  }
  CR_CHECK_MSG(false, "unknown section id");
  return {};
}

/// Header + directory bytes for payloads of the given sizes and CRCs, in
/// canonical order.
std::vector<std::uint8_t> header_bytes(
    const std::vector<SnapshotSection>& sections) {
  std::vector<std::uint8_t> directory;
  directory.reserve(kNumSections * kEntryBytes);
  for (const SnapshotSection& section : sections) {
    append_u32(directory, section.id);
    append_u64(directory, section.offset);
    append_u64(directory, section.size);
    append_u32(directory, section.crc);
  }
  std::vector<std::uint8_t> header;
  header.reserve(kHeaderBytes + directory.size());
  header.insert(header.end(), kMagic, kMagic + 8);
  append_u32(header, kFormatVersion);
  append_u32(header, static_cast<std::uint32_t>(sections.size()));
  append_u32(header, snapshot_crc32(directory.data(), directory.size()));
  header.insert(header.end(), directory.begin(), directory.end());
  return header;
}

// ---- CRC32 kernels ----

/// table[k][b]: the CRC contribution of byte b followed by k zero bytes.
const std::array<std::array<std::uint32_t, 256>, 8>& crc_tables() {
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return table;
}

/// Slicing-by-8 over the raw CRC register (no pre/post inversion): eight
/// input bytes fold into the register with eight independent lookups;
/// byte-serial steps handle the tail.
std::uint32_t crc_register_slicing(std::uint32_t crc, const std::uint8_t* data,
                                   std::size_t size) {
  const auto& table = crc_tables();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint32_t lo = get_u32(data + i) ^ crc;
    const std::uint32_t hi = get_u32(data + i + 4);
    crc = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^
          table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF] ^
          table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
  }
  for (; i < size; ++i) {
    crc = table[0][(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CR_CRC_CLMUL 1

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009), bit-reflected for the
/// IEEE polynomial: four 128-bit lanes fold 64 bytes per step, the lanes
/// fold into one, 16-byte blocks fold into it, and a Barrett reduction
/// brings the 64-bit remainder down to 32 bits. The constants are
/// x^k mod P(x) (reflected, shifted left by one) for the fold distances
/// 4*128±32 and 128±32 bits, x^64 mod P(x), and the Barrett pair (P', mu).
/// Takes and returns the raw register; a tail under 16 bytes is left to
/// slicing-by-8.
__attribute__((target("pclmul,sse2"))) inline __m128i clmul_load(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x * x^(distance) folded onto the next block: lo * k.lo ^ hi * k.hi ^ next.
__attribute__((target("pclmul,sse2"))) inline __m128i clmul_fold(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

__attribute__((target("pclmul,sse2"))) std::uint32_t crc_register_clmul(
    std::uint32_t crc, const std::uint8_t* data, std::size_t size) {
  if (size < 64) return crc_register_slicing(crc, data, size);
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  __m128i x1 = _mm_xor_si128(clmul_load(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = clmul_load(data + 16);
  __m128i x3 = clmul_load(data + 32);
  __m128i x4 = clmul_load(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = clmul_fold(x1, k1k2, clmul_load(data));
    x2 = clmul_fold(x2, k1k2, clmul_load(data + 16));
    x3 = clmul_fold(x3, k1k2, clmul_load(data + 32));
    x4 = clmul_fold(x4, k1k2, clmul_load(data + 48));
  }
  x1 = clmul_fold(x1, k3k4, x2);
  x1 = clmul_fold(x1, k3k4, x3);
  x1 = clmul_fold(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = clmul_fold(x1, k3k4, clmul_load(data));
  }

  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  // Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  crc = static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
  return crc_register_slicing(crc, data, size);
}
#endif  // x86-64 GCC/Clang

using CrcRegisterFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                        std::size_t);

bool cpu_has_clmul() {
#ifdef CR_CRC_CLMUL
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse2");
#else
  return false;
#endif
}

CrcRegisterFn pick_crc_kernel() {
#ifdef CR_CRC_CLMUL
  if (cpu_has_clmul()) return crc_register_clmul;
#endif
  return crc_register_slicing;
}

const CrcRegisterFn g_crc_kernel = pick_crc_kernel();

}  // namespace

std::uint32_t snapshot_crc32_extend(std::uint32_t crc, const std::uint8_t* data,
                                    std::size_t size) {
  return ~g_crc_kernel(~crc, data, size);
}

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
  return snapshot_crc32_extend(0, data, size);
}

std::uint32_t snapshot_crc32_slicing_by_8(const std::uint8_t* data,
                                          std::size_t size) {
  return ~crc_register_slicing(~0u, data, size);
}

std::uint32_t snapshot_crc32_clmul(const std::uint8_t* data, std::size_t size) {
#ifdef CR_CRC_CLMUL
  if (cpu_has_clmul()) return ~crc_register_clmul(~0u, data, size);
#endif
  return snapshot_crc32_slicing_by_8(data, size);
}

std::vector<std::uint8_t> encode_snapshot(
    const MetricSpace& metric, double epsilon, const NetHierarchy& hierarchy,
    const Naming& naming, const HierarchicalLabeledScheme& hier,
    const ScaleFreeLabeledScheme& sf, const SimpleNameIndependentScheme& simple,
    const ScaleFreeNameIndependentScheme& sfni) {
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(kNumSections);
  for (std::size_t i = 0; i < kNumCompactSections; ++i) {
    payloads.push_back(encode_section(kSectionIds[i], metric, epsilon,
                                      hierarchy, naming, hier, sf, simple,
                                      sfni));
  }
  // The arena rows, compiled exactly as the streaming writer compiles them.
  HopArenaCompiler compiler(hierarchy, &naming);
  compiler.add_hier(hier);
  compiler.add_sf(sf);
  compiler.add_simple(simple);
  compiler.add_sfni(sfni);
  const std::shared_ptr<const HopArena> arena = compiler.finish();
  for (std::size_t p = 0; p < kNumArenaParts; ++p) {
    payloads.push_back(arena_section_bytes(*arena, static_cast<ArenaPart>(p)));
  }

  std::vector<SnapshotSection> sections(kNumSections);
  std::uint64_t offset = kHeaderBytes + kNumSections * kEntryBytes;
  for (std::size_t i = 0; i < kNumSections; ++i) {
    sections[i].id = kSectionIds[i];
    sections[i].offset = offset;
    sections[i].size = payloads[i].size();
    sections[i].crc = snapshot_crc32(payloads[i].data(), payloads[i].size());
    offset += payloads[i].size();
  }
  std::vector<std::uint8_t> out = header_bytes(sections);
  out.reserve(offset);
  for (const auto& payload : payloads) {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

// ---- streaming writer ----

struct SnapshotStreamWriter::Impl {
  std::string path;
  std::ofstream out;
  std::vector<SnapshotSection> sections;
  std::uint64_t offset = 0;
  std::unique_ptr<BitWriter> simple_writer;
  int simple_levels = 0;
  int simple_levels_left = -1;
  const NetHierarchy* hierarchy = nullptr;  // add_hierarchy -> add_naming
  std::unique_ptr<HopArenaCompiler> compiler;
  bool finished = false;

  void write(const void* data, std::size_t size) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) throw SnapshotError("short write to " + path);
  }

  /// Records the next canonical section as [start, offset) with `crc`.
  void close_section(std::uint64_t start, std::uint32_t crc) {
    SnapshotSection section;
    section.id = kSectionIds[sections.size()];
    section.name = section_name(section.id);
    section.offset = start;
    section.size = offset - start;
    section.crc = crc;
    sections.push_back(std::move(section));
  }
};

SnapshotStreamWriter::SnapshotStreamWriter(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->path = path;
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) throw SnapshotError("cannot open " + path + " for writing");
  // Placeholder header + directory (all zeros — not a valid magic, so a
  // crashed build never leaves a loadable file); finish() patches it.
  const std::vector<char> zeros(kHeaderBytes + kNumSections * kEntryBytes, 0);
  impl_->write(zeros.data(), zeros.size());
  impl_->offset = zeros.size();
}

SnapshotStreamWriter::~SnapshotStreamWriter() = default;

void SnapshotStreamWriter::append_section(
    std::uint32_t id, const std::vector<std::uint8_t>& payload) {
  CR_CHECK_MSG(!impl_->finished, "append after finish()");
  CR_CHECK_MSG(!impl_->simple_writer, "append during a simple-level stream");
  CR_CHECK(impl_->sections.size() < kNumCompactSections);
  CR_CHECK_MSG(id == kSectionIds[impl_->sections.size()],
               "sections must be appended in container order");
  const std::uint64_t start = impl_->offset;
  impl_->write(payload.data(), payload.size());
  impl_->offset += payload.size();
  impl_->close_section(start, snapshot_crc32(payload.data(), payload.size()));
}

void SnapshotStreamWriter::add_meta(const MetricSpace& metric, double epsilon) {
  append_section(kSectionMeta, meta_payload(metric, epsilon));
}

void SnapshotStreamWriter::add_graph(const MetricSpace& metric) {
  append_section(kSectionGraph, graph_payload(metric));
}

void SnapshotStreamWriter::add_hierarchy(const NetHierarchy& hierarchy,
                                         std::size_t n) {
  append_section(kSectionHierarchy, hierarchy_payload(hierarchy, n));
  impl_->hierarchy = &hierarchy;
}

void SnapshotStreamWriter::add_naming(const Naming& naming, std::size_t n) {
  append_section(kSectionNaming, naming_payload(naming, n));
  CR_CHECK_MSG(impl_->hierarchy != nullptr, "add_naming before add_hierarchy");
  impl_->compiler =
      std::make_unique<HopArenaCompiler>(*impl_->hierarchy, &naming);
  impl_->hierarchy = nullptr;
}

void SnapshotStreamWriter::add_hier(const HierarchicalLabeledScheme* scheme,
                                    std::size_t n) {
  append_section(kSectionHier, hier_payload(scheme, n));
  if (scheme != nullptr) impl_->compiler->add_hier(*scheme);
}

void SnapshotStreamWriter::add_scale_free(const ScaleFreeLabeledScheme* scheme,
                                          std::size_t n) {
  append_section(kSectionScaleFree, scale_free_payload(scheme, n));
  if (scheme != nullptr) impl_->compiler->add_sf(*scheme);
}

void SnapshotStreamWriter::add_simple(
    const SimpleNameIndependentScheme* scheme) {
  append_section(kSectionSimple, simple_payload(scheme));
  if (scheme != nullptr) impl_->compiler->add_simple(*scheme);
}

void SnapshotStreamWriter::add_sfni(
    const ScaleFreeNameIndependentScheme* scheme, std::size_t n) {
  append_section(kSectionSfni, sfni_payload(scheme, n));
  if (scheme != nullptr) impl_->compiler->add_sfni(*scheme);
}

void SnapshotStreamWriter::begin_simple(double epsilon, int levels) {
  CR_CHECK_MSG(!impl_->simple_writer, "begin_simple called twice");
  CR_CHECK(levels >= 0);
  // Same leading fields as encode_simple, so the streamed payload is
  // byte-identical to the whole-scheme one.
  impl_->simple_writer = std::make_unique<BitWriter>();
  put_f64(*impl_->simple_writer, epsilon);
  impl_->simple_writer->write_varint(static_cast<std::uint64_t>(levels));
  impl_->simple_levels = levels;
  impl_->simple_levels_left = levels;
}

void SnapshotStreamWriter::add_simple_level(
    const std::vector<std::unique_ptr<SearchTree>>& trees) {
  CR_CHECK_MSG(impl_->simple_writer && impl_->simple_levels_left > 0,
               "add_simple_level outside begin/end_simple");
  BitWriter& w = *impl_->simple_writer;
  w.write_varint(trees.size());
  for (const auto& tree : trees) SnapshotAccess::encode_search_tree(w, *tree);
  impl_->compiler->add_simple_level(
      impl_->simple_levels - impl_->simple_levels_left, trees);
  --impl_->simple_levels_left;
}

void SnapshotStreamWriter::end_simple() {
  CR_CHECK_MSG(impl_->simple_writer, "end_simple without begin_simple");
  CR_CHECK_MSG(impl_->simple_levels_left == 0,
               "end_simple before every level was added");
  const std::vector<std::uint8_t> payload = impl_->simple_writer->bytes();
  impl_->simple_writer.reset();
  impl_->simple_levels_left = -1;
  append_section(kSectionSimple, payload);
}

std::uint64_t SnapshotStreamWriter::finish() {
  Impl& impl = *impl_;
  CR_CHECK_MSG(!impl.finished, "finish() called twice");
  CR_CHECK_MSG(impl.sections.size() == kNumCompactSections,
               "finish() before every section was added");
  // The arena sections go straight from the compiled slabs to the file,
  // each with a running CRC.
  const std::shared_ptr<const HopArena> arena = impl.compiler->finish();
  impl.compiler.reset();
  for (std::size_t p = 0; p < kNumArenaParts; ++p) {
    const std::uint64_t start = impl.offset;
    std::uint32_t crc = 0;
    write_arena_section(*arena, static_cast<ArenaPart>(p),
                        [&](const void* data, std::size_t size) {
                          impl.write(data, size);
                          impl.offset += size;
                          crc = snapshot_crc32_extend(
                              crc, static_cast<const std::uint8_t*>(data), size);
                        });
    impl.close_section(start, crc);
  }

  const std::vector<std::uint8_t> header = header_bytes(impl.sections);
  impl.out.seekp(0);
  impl.write(header.data(), header.size());
  impl.out.flush();
  if (!impl.out) throw SnapshotError("short write to " + impl.path);
  impl.out.close();
  impl.finished = true;
  return impl.offset;
}

std::vector<SnapshotSection> snapshot_directory(const std::uint8_t* data,
                                                std::size_t size) {
  if (size < kHeaderBytes) corrupt("file shorter than header");
  if (std::memcmp(data, kMagic, 8) != 0) corrupt("bad magic");
  const std::uint32_t version = get_u32(data + 8);
  if (version != kFormatVersion) {
    corrupt("unsupported format version " + std::to_string(version) +
            " (this build reads v" + std::to_string(kFormatVersion) +
            (version == 1 ? "; v1 snapshots carry no arena sections, rebuild "
                            "the snapshot)"
                          : ")"));
  }
  const std::uint32_t count = get_u32(data + 12);
  if (count == 0 || count > 64) corrupt("implausible section count");
  const std::uint32_t directory_crc = get_u32(data + 16);
  const std::size_t header_size = kHeaderBytes + count * kEntryBytes;
  if (size < header_size) corrupt("file shorter than directory");
  if (snapshot_crc32(data + kHeaderBytes, count * kEntryBytes) !=
      directory_crc) {
    corrupt("directory CRC mismatch");
  }

  // Exactly the canonical id set, in canonical order: an unknown, repeated,
  // missing or reordered id is a defect, never something to skip.
  std::vector<SnapshotSection> sections(count);
  bool seen[kNumSections] = {};
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* entry = data + kHeaderBytes + i * kEntryBytes;
    SnapshotSection& s = sections[i];
    s.id = get_u32(entry);
    s.offset = get_u64(entry + 4);
    s.size = get_u64(entry + 12);
    s.crc = get_u32(entry + 20);
    if (s.id == 0 || s.id > kNumSections) {
      corrupt("unknown section id " + std::to_string(s.id));
    }
    s.name = section_name(s.id);
    if (seen[section_index(s.id)]) corrupt("duplicate section " + s.name);
    seen[section_index(s.id)] = true;
  }
  for (const std::uint32_t id : kSectionIds) {
    if (!seen[section_index(id)]) {
      corrupt(std::string("missing section ") + section_name(id));
    }
  }
  std::uint64_t expected_offset = header_size;
  for (std::uint32_t i = 0; i < count; ++i) {
    const SnapshotSection& s = sections[i];
    if (s.id != kSectionIds[i]) corrupt("section " + s.name + " out of order");
    if (s.offset != expected_offset) {
      corrupt("section " + s.name + " offset mismatch");
    }
    if (s.size > size - std::min<std::uint64_t>(expected_offset, size)) {
      corrupt("section " + s.name + " runs past the end of the file");
    }
    expected_offset += s.size;
  }
  // Payloads must tile the file exactly: truncation (and padding) always
  // changes the total size, so it is caught before any payload is parsed.
  if (expected_offset != size) {
    corrupt("file size disagrees with directory (truncated?)");
  }
  {
    CR_OBS_SCOPED_TIMER("snapshot.crc");
    for (const SnapshotSection& section : sections) {
      if (snapshot_crc32(data + section.offset, section.size) != section.crc) {
        corrupt("section " + section.name + " CRC mismatch");
      }
    }
  }
  return sections;
}

std::vector<SnapshotSection> snapshot_directory(
    const std::vector<std::uint8_t>& bytes) {
  return snapshot_directory(bytes.data(), bytes.size());
}

namespace {

BitReader section_reader(const std::uint8_t* data, const SnapshotSection& s) {
  return BitReader(data + s.offset, static_cast<std::size_t>(s.size));
}

/// Each section decoder must consume its payload exactly (up to byte
/// padding): trailing garbage means the writer and reader disagree.
void finish_section(const BitReader& r, const SnapshotSection& s) {
  if ((r.bits_consumed() + 7) / 8 != s.size) {
    corrupt(std::string("section ") + s.name + " has trailing bytes");
  }
}

struct Meta {
  std::size_t n = 0;
  double epsilon = 0;
  Weight normalization_scale = 1;
  Weight delta = 0;
  int num_levels = 0;
};

Meta decode_meta(const std::uint8_t* data, const SnapshotSection& s) {
  BitReader r = section_reader(data, s);
  Meta meta;
  meta.n = get_count(r, std::size_t{1} << 28, "node count");
  if (meta.n < 2) corrupt("node count must be at least 2");
  meta.epsilon = get_f64(r);
  if (!(meta.epsilon > 0) || !(meta.epsilon < 1)) {
    corrupt("epsilon out of range");
  }
  meta.normalization_scale = get_f64(r);
  meta.delta = get_f64(r);
  meta.num_levels = static_cast<int>(get_count(r, 4096, "level count"));
  finish_section(r, s);
  return meta;
}

Graph decode_graph(const std::uint8_t* data, const SnapshotSection& s,
                   std::size_t n) {
  BitReader r = section_reader(data, s);
  if (r.read_varint() != n) corrupt("graph node count disagrees with meta");
  Graph graph(n);
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t forward = get_count(r, n, "edge count");
    for (std::size_t e = 0; e < forward; ++e) {
      const NodeId v = get_node(r, n);
      const Weight weight = get_f64(r);
      if (v <= u) corrupt("graph edges must point forward");
      if (!(weight > 0) || weight == kInfiniteWeight) {
        corrupt("graph edge weight must be finite and positive");
      }
      graph.add_edge(u, v, weight);
    }
  }
  finish_section(r, s);
  return graph;
}

/// Any internal invariant tripping on corrupt bytes (codec underflow,
/// tree-restore CR_CHECKs, allocation failure) surfaces as the typed loader
/// error, never as a crash.
template <typename F>
auto as_snapshot_error(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("corrupt snapshot: ") + e.what());
  }
}

// Decodes straight out of `[data, data + size)` — every section is read via a
// borrowed-span BitReader at its directory offset, so the caller's buffer
// (heap vector or mmap'd file) is never copied per section. The buffer only
// needs to stay alive for the duration of the call: decoded components own
// their own storage. The arena sections are verified (CRC) but not read.
SnapshotStack decode_snapshot_impl(const std::uint8_t* data, std::size_t size) {
  const std::vector<SnapshotSection> sections = snapshot_directory(data, size);
  const auto section = [&](std::uint32_t id) -> const SnapshotSection& {
    return sections[section_index(id)];
  };

  SnapshotStack stack;
  const Meta meta = decode_meta(data, section(kSectionMeta));
  stack.n = meta.n;
  stack.epsilon = meta.epsilon;
  stack.normalization_scale = meta.normalization_scale;
  stack.delta = meta.delta;
  stack.num_levels = meta.num_levels;
  const std::size_t n = stack.n;

  stack.graph = decode_graph(data, section(kSectionGraph), n);
  stack.csr = CsrGraph(stack.graph);

  {
    const SnapshotSection& s = section(kSectionHierarchy);
    BitReader r = section_reader(data, s);
    stack.hierarchy = SnapshotAccess::decode_hierarchy(r, n);
    finish_section(r, s);
  }

  {
    const SnapshotSection& s = section(kSectionNaming);
    BitReader r = section_reader(data, s);
    std::vector<std::uint64_t> names(n);
    for (std::uint64_t& name : names) name = r.read_varint();
    stack.naming = std::make_unique<Naming>(std::move(names));
    finish_section(r, s);
  }

  // Scheme sections may be zero-length (subset snapshots from streaming
  // builds); the scheme is then simply absent. A dependent scheme without
  // its underlying labeled scheme is unserveable, so that combination is
  // rejected as corruption.
  {
    const SnapshotSection& s = section(kSectionHier);
    if (s.size != 0) {
      BitReader r = section_reader(data, s);
      stack.hier = SnapshotAccess::decode_hier(r, n, stack.hierarchy.get());
      finish_section(r, s);
    }
  }

  {
    const SnapshotSection& s = section(kSectionScaleFree);
    if (s.size != 0) {
      BitReader r = section_reader(data, s);
      stack.sf = SnapshotAccess::decode_scale_free(r, n, stack.hierarchy.get());
      finish_section(r, s);
    }
  }

  {
    const SnapshotSection& s = section(kSectionSimple);
    if (s.size != 0) {
      if (!stack.hier) corrupt("ni-simple requires labeled-hierarchical");
      BitReader r = section_reader(data, s);
      stack.simple = SnapshotAccess::decode_simple(
          r, n, stack.hierarchy.get(), stack.naming.get(), stack.hier.get());
      finish_section(r, s);
    }
  }

  {
    const SnapshotSection& s = section(kSectionSfni);
    if (s.size != 0) {
      if (!stack.sf) corrupt("ni-scale-free requires labeled-scale-free");
      BitReader r = section_reader(data, s);
      stack.sfni = SnapshotAccess::decode_sfni(
          r, n, stack.hierarchy.get(), stack.naming.get(), stack.sf.get());
      finish_section(r, s);
    }
  }

  return stack;
}

}  // namespace

SnapshotStack decode_snapshot(const std::uint8_t* data, std::size_t size) {
  return as_snapshot_error([&] { return decode_snapshot_impl(data, size); });
}

SnapshotStack decode_snapshot(const std::vector<std::uint8_t>& bytes) {
  return decode_snapshot(bytes.data(), bytes.size());
}

ServingSnapshot restore_serving_snapshot(
    const std::uint8_t* data, const std::vector<SnapshotSection>& sections) {
  return as_snapshot_error([&] {
    if (sections.size() != kNumSections) corrupt("incomplete section table");
    const auto section = [&](std::uint32_t id) -> const SnapshotSection& {
      return sections[section_index(id)];
    };
    ServingSnapshot serving;
    const Meta meta = decode_meta(data, section(kSectionMeta));
    serving.n = meta.n;
    serving.epsilon = meta.epsilon;
    serving.csr = CsrGraph(decode_graph(data, section(kSectionGraph), meta.n));
    ArenaPayload parts[kNumArenaParts];
    for (std::size_t p = 0; p < kNumArenaParts; ++p) {
      const SnapshotSection& s = sections[kNumCompactSections + p];
      parts[p] = {data + s.offset, static_cast<std::size_t>(s.size)};
    }
    serving.arena = restore_arena(parts, meta.n);
    return serving;
  });
}

ServingSnapshot restore_serving_snapshot(const std::uint8_t* data,
                                         std::size_t size) {
  return restore_serving_snapshot(data, snapshot_directory(data, size));
}

void write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SnapshotError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SnapshotError("short write to " + path);
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SnapshotError("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw SnapshotError("short read from " + path);
  return bytes;
}

std::shared_ptr<const HopArena> SnapshotStack::build_arena() const {
  CR_CHECK_MSG(hierarchy != nullptr, "arena needs the net hierarchy");
  return HopArena::build(*hierarchy, naming.get(), hier.get(), sf.get(),
                         simple.get(), sfni.get());
}

}  // namespace compactroute
