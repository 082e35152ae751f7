#pragma once
//
// Long-running serving engine: epoch hot-swap over mmap'd snapshots with
// bounded shard-per-worker request queues (DESIGN.md §12).
//
// runtime/serve is a batch replayer — one stack, one batch, exit. Production
// serving (build once, query forever) needs three things it lacks:
//
//   * a zero-decode load path: ServerEpoch maps the file (io/snapshot_mmap),
//     checks every section CRC, and restores the persisted HopArena
//     sections into fresh slabs behind one bounds-validation pass — no
//     scheme section is decoded and no arena is compiled. The mapping stays
//     alive exactly as long as the epoch, for the lazy stack() decode;
//   * zero-downtime reload: the server holds an atomic epoch pointer; a new
//     epoch is built off to the side (map + verify + arena restore) and
//     published with one atomic swap. In-flight requests pin the epoch they
//     started on (RCU-style grace counting), so the old epoch — and its
//     mapping — is released only when the last pinned request retires. Both
//     epochs' serve fingerprints are re-audited against their load-time
//     values across every flip;
//   * overload behaviour: requests land in bounded per-shard rings. A full
//     shard either sheds (the request is counted in `serve.queue.shed` and
//     never served — a shed request NEVER returns a route) or, in
//     backpressure mode, blocks the submitter until a pump drains room.
//
// Concurrency contract: submit() and pump() are safe from any number of
// threads concurrently with each other and with publish(). Requests are
// served exactly once; results are written to caller-owned slots indexed by
// the caller-chosen request id, so concurrent pumps never contend on output.
// Determinism: with a fixed submission order, shedding depends only on ring
// occupancy, so shed counts and the delivered-request digest are reproducible
// (tests/test_server.cpp).
//
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_mmap.hpp"
#include "runtime/hop_scheme.hpp"
#include "runtime/serve.hpp"

namespace compactroute {

/// Which hop runtime a request rides. Labeled schemes address destinations by
/// netting-tree leaf label, name-independent ones by original name — both are
/// epoch-local encodings, so ServerRequest carries the destination *node* and
/// the serving epoch resolves the key (two snapshots of different topologies
/// disagree about labels, and a request must be meaningful under either).
enum class ServeScheme : std::uint8_t {
  kHierarchical = 0,
  kScaleFree = 1,
  kSimpleNi = 2,
  kScaleFreeNi = 3,
};

inline constexpr std::size_t kNumServeSchemes = 4;

const char* serve_scheme_name(ServeScheme scheme);

struct ServerRequest {
  NodeId src = 0;
  NodeId dest = 0;
  ServeScheme scheme = ServeScheme::kHierarchical;
};

enum class ServeStatus : std::uint8_t {
  kPending = 0,    // never served (still queued, or shed at submit)
  kDelivered = 1,  // route completed; fingerprint/hops/epoch are valid
};

/// One caller-owned output slot. pump() writes the slot whose index is the
/// request's id; slots of shed requests are never touched. `status` is
/// written last with release ordering, so a thread polling a slot it
/// submitted sees the other fields coherently once it observes kDelivered —
/// even when the serving pump ran on a different thread.
struct ServerResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t epoch = 0;  // id of the epoch that served this request
  std::uint32_t hops = 0;
  double latency_us = 0;  // submit -> completion (0 if latencies disabled)
  std::atomic<ServeStatus> status{ServeStatus::kPending};

  ServerResult() = default;
  ServerResult(const ServerResult& other) { *this = other; }
  ServerResult& operator=(const ServerResult& other) {
    fingerprint = other.fingerprint;
    epoch = other.epoch;
    hops = other.hops;
    latency_us = other.latency_us;
    status.store(other.status.load(std::memory_order_acquire),
                 std::memory_order_release);
    return *this;
  }
};

/// A fully loaded, immutable serving snapshot: the graph, the HopArena, the
/// hop runtimes stepping it, and (on the mmap path) the live file mapping.
/// Epochs are shared_ptr-managed; the destructor — which is where the
/// mapping is released — CR_CHECKs that no request is still pinned, making
/// "unmap only after the last in-flight request retires" an enforced
/// invariant rather than a convention.
class ServerEpoch {
 public:
  struct LoadInfo {
    bool used_mmap = false;
    std::size_t file_bytes = 0;
    double load_ms = 0;   // open/map (or read) + verify: directory and CRCs
    double arena_ms = 0;  // graph decode + arena slab restore + validation +
                          // hop runtime construction
  };

  /// Loads `path` (mmap when `use_mmap`, else a heap read), verifies the
  /// directory and every section CRC, restores the persisted arena into
  /// fresh slabs behind its bounds validation, decodes the graph, constructs
  /// a hop runtime per present scheme, and records the load-time self-audit
  /// fingerprint. Calls no scheme decoder and compiles no arena. Throws
  /// SnapshotError on any load defect, including a self-audit that trips an
  /// invariant on the restored tables.
  static std::shared_ptr<ServerEpoch> load(const std::string& path,
                                           bool use_mmap, std::uint64_t id);

  /// Wraps an already decoded stack (fresh builds, tests), compiling its
  /// arena with HopArena::build.
  static std::shared_ptr<ServerEpoch> adopt(SnapshotStack stack,
                                            std::uint64_t id);

  ~ServerEpoch();
  ServerEpoch(const ServerEpoch&) = delete;
  ServerEpoch& operator=(const ServerEpoch&) = delete;

  std::uint64_t id() const { return id_; }
  std::size_t n() const { return n_; }
  double epsilon() const { return epsilon_; }  // the ε the stack was built with
  const CsrGraph& csr() const { return csr_; }
  const std::shared_ptr<const HopArena>& arena() const { return arena_; }

  /// The decoded scheme stack, for audit and evaluation callers. A loaded
  /// epoch decodes its compact sections on the first call (once, thread-
  /// safely, from the epoch's own mapping or bytes); serving never needs it.
  /// Throws SnapshotError if that decode fails. On the mmap path the file
  /// must not be truncated or rewritten in place while the epoch lives
  /// (replace snapshots by rename): the decode reads the mapping.
  const SnapshotStack& stack() const;

  const LoadInfo& load_info() const { return load_info_; }
  bool has(ServeScheme scheme) const;

  /// The hop runtime serving `scheme` (null when the epoch lacks it).
  const HopScheme* hop_scheme(ServeScheme scheme) const {
    return schemes_[static_cast<std::size_t>(scheme)].get();
  }

  /// The scheme's destination key for `dest` under THIS epoch's tables
  /// (leaf label for labeled schemes, name for NI schemes).
  std::uint64_t dest_key(ServeScheme scheme, NodeId dest) const;

  /// Routes one request (serve_one over this epoch's CSR + hop runtime).
  /// Thread-safe and allocation-free; throws InvariantError on a contract
  /// breach (non-edge forward, hop budget), like serve_batch.
  std::uint64_t serve(const ServerRequest& request, std::size_t max_hops,
                      std::size_t* hops) const;

  /// serve() for a request whose destination key was already resolved by
  /// dest_key() on this epoch.
  std::uint64_t serve_keyed(ServeScheme scheme, const ServeRequest& request,
                            std::size_t max_hops, std::size_t* hops) const;

  /// Digest of a fixed seeded self-audit batch over every present scheme,
  /// computed once at load. audit() re-serves the same batch and returns
  /// whether the digest still matches — the cross-flip fingerprint check.
  std::uint64_t self_fingerprint() const { return self_fingerprint_; }
  bool audit() const { return compute_self_fingerprint() == self_fingerprint_; }

  /// Grace counting: in-flight requests pin the epoch they serve under.
  void pin() { in_flight_.fetch_add(1, std::memory_order_acquire); }
  void unpin() { in_flight_.fetch_sub(1, std::memory_order_release); }
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Number of ServerEpoch objects currently alive in the process — the test
  /// hook proving old epochs are actually destroyed (and unmapped) after
  /// their grace period.
  static std::size_t alive();

 private:
  ServerEpoch() = default;
  /// Builds the hop runtimes over arena_ and records the self-fingerprint.
  void start_serving();
  std::uint64_t compute_self_fingerprint() const;

  std::uint64_t id_ = 0;
  LoadInfo load_info_;
  std::optional<MappedSnapshot> mapping_;  // engaged only on the mmap path
  std::vector<std::uint8_t> bytes_;        // the heap-read path's file bytes
  std::size_t n_ = 0;
  double epsilon_ = 0;
  CsrGraph csr_;
  mutable std::once_flag stack_once_;
  mutable SnapshotStack stack_;  // decoded on first stack() unless adopted
  std::shared_ptr<const HopArena> arena_;
  std::array<std::unique_ptr<HopScheme>, kNumServeSchemes> schemes_;
  std::uint64_t self_fingerprint_ = 0;
  std::atomic<std::size_t> in_flight_{0};
  bool counted_alive_ = false;  // alive() bookkeeping (set once compiled)
};

struct ServerOptions {
  /// Bounded ring capacity per shard. A submit finding its shard full sheds
  /// (default) or blocks (backpressure).
  std::size_t queue_depth = 1024;
  /// Number of request shards; 0 means one per Executor worker.
  std::size_t shards = 0;
  /// Full shard: block the submitter until a pump makes room, instead of
  /// shedding. Requires some thread to keep pumping, or stop() to abort.
  bool backpressure = false;
  /// Hop budget per request; 0 = default_hop_budget(n).
  std::size_t max_hops = 0;
  /// Stamp submit/completion times and report submit->completion latency.
  bool collect_latencies = true;
};

/// Running totals (monotone; readable from any thread).
struct ServerCounters {
  std::uint64_t submitted = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t shed = 0;
  std::uint64_t served = 0;
  std::uint64_t swaps = 0;
};

class Server {
 public:
  explicit Server(const ServerOptions& options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Atomically installs `epoch` as the serving epoch and re-audits both the
  /// outgoing and incoming epochs' self-fingerprints (CR_CHECK on mismatch —
  /// a failed audit means torn tables and must not serve). Returns the
  /// previous epoch (which stays alive while pinned requests drain).
  std::shared_ptr<ServerEpoch> publish(std::shared_ptr<ServerEpoch> epoch);

  /// The epoch new requests will be served under right now.
  std::shared_ptr<ServerEpoch> current() const;

  /// Enqueues one request under caller-chosen id (== the index of its result
  /// slot in the vector later passed to pump; ids must be unique while in
  /// flight). Returns false when the request was shed (full shard in
  /// shedding mode, or the server is stopped) — a shed request is never
  /// served and its slot never written. In backpressure mode a full shard
  /// blocks until room or stop().
  bool submit(const ServerRequest& request, std::uint64_t id);

  /// Drains every shard, merges the drained requests into one wave, and
  /// serves it through dispatch_sorted (runtime/serve.hpp): (scheme,
  /// destination key) order, 64-request chunks on the Executor, writing
  /// results[id] for each. The whole wave serves under one pin of the
  /// current epoch. `results` must outlive the call and be sized past every
  /// in-flight id. Returns the number of requests served. Safe to call
  /// concurrently (drains are exactly-once; slots are id-disjoint).
  std::size_t pump(std::vector<ServerResult>& results);

  /// pump() until every shard is empty.
  std::size_t drain(std::vector<ServerResult>& results);

  /// Rejects all future submits and wakes blocked (backpressure) submitters.
  /// Queued-but-unserved requests remain for a final drain().
  void stop();

  std::size_t queued() const;
  std::size_t shards() const { return shards_.size(); }
  ServerCounters counters() const;

  /// serve_batch's order-independent digest over the delivered slots of
  /// `results` (fold_batch_digest by id). Equal to the full-batch
  /// fingerprint when nothing was shed; any subset of delivered ids yields
  /// the same contribution per id, so two runs shedding the same requests
  /// agree.
  static std::uint64_t delivered_digest(const std::vector<ServerResult>& results);

 private:
  struct Entry {
    ServerRequest request;
    std::uint64_t id = 0;
    double submit_ts_us = 0;  // steady-clock stamp (0 if latencies off)
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable room;
    std::vector<Entry> ring;  // bounded by options_.queue_depth
  };

  ServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<ServerEpoch> epoch_;  // guarded by epoch_mu_
  mutable std::mutex epoch_mu_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace compactroute
