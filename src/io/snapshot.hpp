#pragma once
//
// Versioned binary snapshots of a built scheme stack.
//
// The paper's payoff is build-once/serve-heavy: preprocessing is the dominant
// cost (BENCH_preprocessing.json), while routing uses only the compact
// per-node tables. A snapshot serializes exactly those tables — graph, r-net
// hierarchy, naming, and the packed routers / search trees / ring and chain
// tables of all four hop-by-hop schemes — on the existing bit codec, so a
// loaded stack answers routes without ever touching the metric backend
// (no APSP, no Dijkstra, no distance matrix).
//
// Container layout (DESIGN.md §8), all integers little-endian:
//
//   magic "CRSNAP01" (8 bytes)
//   u32 format version (currently 2)
//   u32 section count (13)
//   u32 directory CRC32 (over the directory entries that follow)
//   directory entries, 24 bytes each: u32 id, u64 offset, u64 size, u32 CRC32
//   section payloads, concatenated in directory order
//
// The directory lists exactly the section ids 1..13 in that order: the eight
// bit-packed compact sections (meta, graph, hierarchy, naming, and the four
// schemes), then the five persisted-arena sections (io/snapshot_arena.hpp)
// the serving path restores without decoding any scheme. Offsets are
// absolute; payloads must tile the rest of the file exactly, so any
// truncation changes the file size and is rejected before parsing. Each
// payload carries its own CRC32, so any bit flip is rejected too. Every
// failure path throws the typed SnapshotError — never UB, never a crash.
//
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/metric.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "runtime/hop_arena.hpp"

namespace compactroute {

/// Thrown for every malformed-snapshot condition: bad magic, unsupported
/// version, size mismatch, CRC failure, or inconsistent section contents.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One directory entry, for diagnostics and the corruption battery.
struct SnapshotSection {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// A scheme stack restored from a snapshot. The schemes are fully functional
/// for hop-by-hop serving (their query-time tables are complete) but carry no
/// metric backend — RouteResult-style route()/storage_bits() entry points,
/// which consult the metric, are fresh-build-only.
///
/// Scheme sections may be zero-length (a subset snapshot from
/// `crtool build --schemes light`); the corresponding pointers are then null.
/// Graph, hierarchy, and naming are always present, and a present dependent
/// scheme implies its dependency (simple -> hier, sfni -> sf).
struct SnapshotStack {
  std::size_t n = 0;
  double epsilon = 0;  // the ε the stack was built with (NI schemes' value)
  Weight normalization_scale = 1;
  Weight delta = 0;
  int num_levels = 0;

  Graph graph;
  CsrGraph csr;  // rebuilt from `graph` at load time

  std::unique_ptr<NetHierarchy> hierarchy;
  std::unique_ptr<Naming> naming;
  std::unique_ptr<HierarchicalLabeledScheme> hier;
  std::unique_ptr<ScaleFreeLabeledScheme> sf;
  std::unique_ptr<SimpleNameIndependentScheme> simple;
  std::unique_ptr<ScaleFreeNameIndependentScheme> sfni;

  SnapshotStack() = default;
  SnapshotStack(SnapshotStack&&) = default;
  SnapshotStack& operator=(SnapshotStack&&) = default;

  /// Compiles one HopArena over whichever schemes this stack carries, for
  /// sharing across the stack's hop runtimes (one slab set, four steppers).
  std::shared_ptr<const HopArena> build_arena() const;
};

/// Serializes a freshly built stack. `epsilon` is the user-level ε (the one
/// the name-independent schemes received); the labeled schemes' own clamped ε
/// values ride in their sections.
std::vector<std::uint8_t> encode_snapshot(
    const MetricSpace& metric, double epsilon, const NetHierarchy& hierarchy,
    const Naming& naming, const HierarchicalLabeledScheme& hier,
    const ScaleFreeLabeledScheme& sf, const SimpleNameIndependentScheme& simple,
    const ScaleFreeNameIndependentScheme& sfni);

/// Parses and validates a snapshot; throws SnapshotError on any defect.
/// Decodes the compact sections (every scheme decoder runs; each bumps the
/// `snapshot.scheme_decodes` counter); the arena sections are CRC-checked
/// but not read.
SnapshotStack decode_snapshot(const std::vector<std::uint8_t>& bytes);

/// Borrowed-buffer form: decodes straight out of `[data, data + size)` with no
/// per-section payload copies — the zero-copy path for mmap'd snapshot files
/// (io/snapshot_mmap.hpp). The buffer must stay alive and unchanged for the
/// duration of the call only; the returned stack owns all of its storage.
SnapshotStack decode_snapshot(const std::uint8_t* data, std::size_t size);

/// What serving needs from a snapshot, restored without decoding any scheme
/// section: the graph (for hop certification) and the persisted arena.
struct ServingSnapshot {
  std::size_t n = 0;
  double epsilon = 0;
  CsrGraph csr;
  std::shared_ptr<const HopArena> arena;
};

/// The zero-decode serving restore over a directory already returned by
/// snapshot_directory (which checked every section CRC): decodes meta and
/// graph, copies the arena sections into fresh slabs, and bounds-validates
/// every index-bearing slab. Throws SnapshotError on any defect.
ServingSnapshot restore_serving_snapshot(
    const std::uint8_t* data, const std::vector<SnapshotSection>& sections);

/// snapshot_directory + restore_serving_snapshot.
ServingSnapshot restore_serving_snapshot(const std::uint8_t* data,
                                         std::size_t size);

class BitWriter;

/// Streams a snapshot to disk section by section, in the fixed container
/// order, so a build pipeline can serialize and free each component before
/// constructing the next one — peak memory stays at the live components, not
/// the whole stack (DESIGN.md §10). The resulting file is byte-identical to
/// write_snapshot_file(encode_snapshot(...)) over the same inputs.
///
/// Sections must be added in container order (meta, graph, hierarchy, naming,
/// hier, scale-free, simple, sfni); a scheme passed as nullptr becomes a
/// zero-length section, restored by decode_snapshot as an absent (null)
/// scheme. Each scheme's arena rows are compiled (HopArenaCompiler) as its
/// section is added, so the scheme may be freed right after; finish() writes
/// the five arena sections from the compiled slabs. The hierarchy passed to
/// add_hierarchy must stay alive until add_naming. The file carries a zeroed
/// header until finish() patches the real directory in, so a crashed build
/// never leaves a well-formed snapshot.
class SnapshotStreamWriter {
 public:
  explicit SnapshotStreamWriter(const std::string& path);
  ~SnapshotStreamWriter();
  SnapshotStreamWriter(const SnapshotStreamWriter&) = delete;
  SnapshotStreamWriter& operator=(const SnapshotStreamWriter&) = delete;

  void add_meta(const MetricSpace& metric, double epsilon);
  void add_graph(const MetricSpace& metric);
  void add_hierarchy(const NetHierarchy& hierarchy, std::size_t n);
  void add_naming(const Naming& naming, std::size_t n);
  void add_hier(const HierarchicalLabeledScheme* scheme, std::size_t n);
  void add_scale_free(const ScaleFreeLabeledScheme* scheme, std::size_t n);
  void add_simple(const SimpleNameIndependentScheme* scheme);
  void add_sfni(const ScaleFreeNameIndependentScheme* scheme, std::size_t n);

  /// Per-level alternative to add_simple(), paired with
  /// SimpleNameIndependentScheme::build_levels: each level's trees are
  /// encoded as they arrive (and released by the caller dropping them), so
  /// only one level of search trees is ever alive. Call begin, then
  /// add_simple_level once per level in order, then end.
  void begin_simple(double epsilon, int levels);
  void add_simple_level(const std::vector<std::unique_ptr<SearchTree>>& trees);
  void end_simple();

  /// Writes the arena sections, patches the header + directory over the
  /// placeholder and closes the file; returns the total byte size. All 8
  /// compact sections must have been added.
  std::uint64_t finish();

 private:
  void append_section(std::uint32_t id, const std::vector<std::uint8_t>& payload);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};


/// Validates the header and directory (magic, version, directory CRC, the
/// canonical section-id list, exact size tiling) and every section CRC, and
/// returns the section table; throws SnapshotError.
std::vector<SnapshotSection> snapshot_directory(
    const std::vector<std::uint8_t>& bytes);

/// Borrowed-buffer form of snapshot_directory, for mapped files.
std::vector<SnapshotSection> snapshot_directory(const std::uint8_t* data,
                                                std::size_t size);

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes.
/// Dispatches once per process to a PCLMULQDQ folding kernel when the CPU
/// has one, else to slicing-by-8; both return identical values.
std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size);

/// Running CRC32: snapshot_crc32_extend(snapshot_crc32(a), b) equals
/// snapshot_crc32(a followed by b); the CRC of nothing is 0.
std::uint32_t snapshot_crc32_extend(std::uint32_t crc, const std::uint8_t* data,
                                    std::size_t size);

/// The kernels behind the dispatch, callable directly for equivalence tests.
/// snapshot_crc32_clmul falls back to slicing-by-8 without PCLMULQDQ.
std::uint32_t snapshot_crc32_slicing_by_8(const std::uint8_t* data,
                                          std::size_t size);
std::uint32_t snapshot_crc32_clmul(const std::uint8_t* data, std::size_t size);

/// Whole-file IO helpers; both throw SnapshotError on filesystem failure.
void write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> read_snapshot_file(const std::string& path);

}  // namespace compactroute
