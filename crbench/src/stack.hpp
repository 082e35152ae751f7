#pragma once
//
// The build-and-load half of the benchmark: input graphs, the timed set-up
// (row-free build -> streamed snapshot -> mmap epoch load -> publish -> first
// route), route quality and table size, and the serve_batch reference that
// the correctness gate compares Server output against.
//
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "io/snapshot.hpp"
#include "runtime/hop_scheme.hpp"
#include "runtime/serve.hpp"
#include "runtime/server.hpp"

namespace crbench {

/// Parses "grid:W:H", "powerlaw:N:EDGES:SEED" or "geometric:N:DIM:K:SEED"
/// and generates the graph. Throws std::invalid_argument on a bad spec.
compactroute::Graph make_graph(const std::string& spec);

/// Wall times (ms) of one set-up's build phases, and the whole set-up (s).
/// The set-up's phase spans tile it; the traced run checks that.
struct SetupTimes {
  double metric_ms = 0;
  double hierarchy_ms = 0;  // NetHierarchy + Naming
  double labeled_hier_ms = 0;
  double labeled_sf_ms = 0;
  double ni_simple_ms = 0;
  double ni_sf_ms = 0;
  double snapshot_write_ms = 0;  // every SnapshotStreamWriter call, summed
  double total_s = 0;            // set-up start -> first route served
  std::uint64_t snapshot_bytes = 0;
  std::uint32_t snapshot_crc = 0;  // CRC32 of the whole file
  std::uint64_t balls_issued = 0;  // BallOracle counters over the build
  std::uint64_t balls_settled = 0;
};

/// Route quality and table size of one stack, from the schemes' own route()
/// walks over a fixed seeded pair sample (pooled across the four schemes).
struct Quality {
  std::size_t pairs = 0;
  std::size_t failures = 0;
  double stretch_sum = 0;
  double stretch_max = 0;
  double table_bits_per_node = 0;

  double stretch_avg() const {
    return pairs ? stretch_sum / static_cast<double>(pairs) : 0;
  }
  bool operator==(const Quality&) const = default;
};

/// Every workload's ε.
inline constexpr double kEpsilon = 0.5;
/// Naming and stretch-sample seed: fixed, so route quality and table size
/// are a property of the workload, not of the run seed (which drives only the
/// request streams).
inline constexpr std::uint64_t kQualitySeed = 4242;

struct SetupOptions {
  std::string snapshot_path;
  std::uint64_t epoch_id = 0;
  compactroute::ServerOptions server;
  /// When > 0, also evaluate Quality on the freshly built schemes (outside
  /// the timed region) with this many pairs per scheme. Two set-ups with the
  /// same seed must report bit-identical Quality.
  std::size_t quality_pairs = 0;
};

struct SetupResult {
  SetupTimes times;
  std::shared_ptr<compactroute::ServerEpoch> epoch;
  std::unique_ptr<compactroute::Server> server;
  Quality built_quality;  // only when quality_pairs > 0
};

/// One timed set-up. The first route is a fixed request (node 0 -> node
/// n - 1 on the hierarchical scheme); its delivery is CR_CHECKed.
SetupResult run_setup(const compactroute::Graph& graph,
                      const SetupOptions& options);

/// Hop runtimes over one compiled arena of a stack: the serve_batch side of
/// the correctness gate and of the per-layer hop timings.
class HopStack {
 public:
  explicit HopStack(const compactroute::SnapshotStack& stack);
  const compactroute::HopScheme& scheme(compactroute::ServeScheme s) const;
  const compactroute::CsrGraph& csr() const { return stack_.csr; }

 private:
  const compactroute::SnapshotStack& stack_;
  std::shared_ptr<const compactroute::HopArena> arena_;
  std::vector<std::unique_ptr<compactroute::HopScheme>> schemes_;
};

/// The four schemes' request batches for serve_batch, split out of a mixed
/// Server stream (dest nodes resolved to each scheme's key on `epoch`).
struct SchemeBatches {
  std::vector<compactroute::ServeRequest> requests[compactroute::kNumServeSchemes];
};
SchemeBatches split_by_scheme(const compactroute::ServerEpoch& epoch,
                              const std::vector<compactroute::ServerRequest>& stream);

/// The correctness gate. Groups the delivered results of `stream` by
/// (serving epoch id, scheme), replays each group through serve_batch on
/// `reference`, and requires Server::delivered_digest of the group to equal
/// the batch fingerprint and the group's hop total to equal the batch's.
/// Every mismatch appends a message to `errors`.
struct GateReport {
  std::size_t groups = 0;
  std::size_t epochs = 0;
  std::size_t mismatched = 0;  // requests in groups that failed the gate
  std::uint64_t digest = 0;    // XOR of every group's digest
};
GateReport check_against_serve_batch(
    const compactroute::ServerEpoch& reference_epoch, const HopStack& reference,
    const std::vector<compactroute::ServerRequest>& stream,
    const std::vector<compactroute::ServerResult>& results, bool inject_mismatch,
    std::vector<std::string>* errors);

}  // namespace crbench
