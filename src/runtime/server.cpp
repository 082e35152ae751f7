#include "runtime/server.hpp"

#include <chrono>
#include <utility>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"

namespace compactroute {

namespace {

/// Seed of the fixed per-epoch self-audit batch. The batch is a function of
/// (seed, scheme, n) only, so the same snapshot loaded twice — or audited at
/// load time and again mid-flip — serves identical requests.
constexpr std::uint64_t kSelfAuditSeed = 0x5e1fa0d1;
constexpr std::size_t kSelfAuditRequests = 32;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::size_t> g_epochs_alive{0};

/// Pin-for-scope guard: exceptions thrown out of a serve must not leak the
/// grace count, or the epoch would never retire.
class EpochPin {
 public:
  explicit EpochPin(ServerEpoch& epoch) : epoch_(epoch) { epoch_.pin(); }
  ~EpochPin() { epoch_.unpin(); }
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

 private:
  ServerEpoch& epoch_;
};

}  // namespace

const char* serve_scheme_name(ServeScheme scheme) {
  switch (scheme) {
    case ServeScheme::kHierarchical: return "labeled-hierarchical";
    case ServeScheme::kScaleFree: return "labeled-scale-free";
    case ServeScheme::kSimpleNi: return "ni-simple";
    case ServeScheme::kScaleFreeNi: return "ni-scale-free";
  }
  return "unknown";
}

// ---------------------------------------------------------------- ServerEpoch

std::shared_ptr<ServerEpoch> ServerEpoch::load(const std::string& path,
                                               bool use_mmap,
                                               std::uint64_t id) {
  using Clock = std::chrono::steady_clock;
  auto epoch = std::shared_ptr<ServerEpoch>(new ServerEpoch());
  epoch->id_ = id;

  const auto t0 = Clock::now();
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  if (use_mmap) {
    epoch->mapping_.emplace(path);
    data = epoch->mapping_->data();
    size = epoch->mapping_->size();
  } else {
    epoch->bytes_ = read_snapshot_file(path);
    data = epoch->bytes_.data();
    size = epoch->bytes_.size();
  }
  std::vector<SnapshotSection> sections;
  {
    CR_OBS_SPAN("load.verify", "io");
    sections = snapshot_directory(data, size);
  }
  const auto t1 = Clock::now();
  epoch->load_info_.used_mmap = use_mmap;
  epoch->load_info_.file_bytes = size;
  epoch->load_info_.load_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  {
    CR_OBS_SPAN("load.restore", "runtime");
    ServingSnapshot serving = restore_serving_snapshot(data, sections);
    epoch->n_ = serving.n;
    epoch->epsilon_ = serving.epsilon;
    epoch->csr_ = std::move(serving.csr);
    epoch->arena_ = std::move(serving.arena);
  }
  epoch->load_info_.arena_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
  epoch->start_serving();
  return epoch;
}

std::shared_ptr<ServerEpoch> ServerEpoch::adopt(SnapshotStack stack,
                                                std::uint64_t id) {
  using Clock = std::chrono::steady_clock;
  auto epoch = std::shared_ptr<ServerEpoch>(new ServerEpoch());
  epoch->id_ = id;
  const auto t0 = Clock::now();
  epoch->n_ = stack.n;
  epoch->epsilon_ = stack.epsilon;
  epoch->csr_ = stack.csr;
  epoch->arena_ = stack.build_arena();
  epoch->load_info_.arena_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::call_once(epoch->stack_once_,
                 [&] { epoch->stack_ = std::move(stack); });
  epoch->start_serving();
  return epoch;
}

void ServerEpoch::start_serving() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const HopArena& a = *arena_;
  if (a.hier_present) {
    schemes_[0] = std::make_unique<HierarchicalHopScheme>(arena_);
  }
  if (a.sf_present) schemes_[1] = std::make_unique<ScaleFreeHopScheme>(arena_);
  if (a.simple_present) {
    schemes_[2] = std::make_unique<SimpleNameIndependentHopScheme>(arena_);
  }
  if (a.sfni_present) {
    schemes_[3] = std::make_unique<ScaleFreeNameIndependentHopScheme>(arena_);
  }
  load_info_.arena_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  {
    CR_OBS_SPAN("load.self_audit", "server");
    try {
      self_fingerprint_ = compute_self_fingerprint();
    } catch (const InvariantError& e) {
      // A snapshot-built epoch always serves its own audit batch; tables
      // that trip an invariant on it are corrupt, however well-formed.
      throw SnapshotError(std::string("corrupt snapshot: load-time serve "
                                      "audit failed: ") +
                          e.what());
    }
  }
  g_epochs_alive.fetch_add(1, std::memory_order_relaxed);
  counted_alive_ = true;
}

const SnapshotStack& ServerEpoch::stack() const {
  std::call_once(stack_once_, [this] {
    stack_ = mapping_ ? mapping_->decode() : decode_snapshot(bytes_);
  });
  return stack_;
}

ServerEpoch::~ServerEpoch() {
  // The grace invariant: destruction (and with it the munmap of mapping_)
  // must only happen once no request holds a pin. shared_ptr ownership makes
  // premature destruction a bug in the pin protocol, not a race we tolerate.
  CR_CHECK_MSG(in_flight_.load(std::memory_order_acquire) == 0,
               "epoch destroyed with requests in flight");
  if (counted_alive_) g_epochs_alive.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t ServerEpoch::alive() {
  return g_epochs_alive.load(std::memory_order_relaxed);
}

bool ServerEpoch::has(ServeScheme scheme) const {
  return hop_scheme(scheme) != nullptr;
}

std::uint64_t ServerEpoch::dest_key(ServeScheme scheme, NodeId dest) const {
  CR_CHECK(dest < n_);
  switch (scheme) {
    case ServeScheme::kHierarchical:
    case ServeScheme::kScaleFree:
      return std::uint64_t{arena_->leaf_label[dest]};
    case ServeScheme::kSimpleNi:
    case ServeScheme::kScaleFreeNi:
      return arena_->name_of[dest];
  }
  CR_CHECK_MSG(false, "unknown serve scheme");
  return 0;
}

std::uint64_t ServerEpoch::serve(const ServerRequest& request,
                                 std::size_t max_hops,
                                 std::size_t* hops) const {
  ServeRequest one;
  one.src = request.src;
  one.dest_key = dest_key(request.scheme, request.dest);
  return serve_keyed(request.scheme, one, max_hops, hops);
}

std::uint64_t ServerEpoch::serve_keyed(ServeScheme scheme,
                                       const ServeRequest& request,
                                       std::size_t max_hops,
                                       std::size_t* hops) const {
  const HopScheme* hop = hop_scheme(scheme);
  CR_CHECK_MSG(hop != nullptr, "request for a scheme this epoch lacks");
  const std::size_t budget =
      max_hops != 0 ? max_hops : default_hop_budget(n_);
  return serve_one(csr_, *hop, request, budget, hops);
}

std::uint64_t ServerEpoch::compute_self_fingerprint() const {
  // A deterministic mixed-scheme batch over this epoch's own tables, served
  // sequentially (publish() runs this mid-flip; keeping it off the Executor
  // avoids contending with a concurrent pump's parallel region).
  std::uint64_t digest = 0;
  std::size_t k = 0;
  for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
    const ServeScheme scheme = static_cast<ServeScheme>(s);
    if (!has(scheme)) continue;
    Prng prng = Prng::split(kSelfAuditSeed, s);
    for (std::size_t i = 0; i < kSelfAuditRequests; ++i, ++k) {
      ServerRequest request;
      request.scheme = scheme;
      request.src = static_cast<NodeId>(prng.next_below(n_));
      NodeId dest = static_cast<NodeId>(prng.next_below(n_ - 1));
      if (dest >= request.src) ++dest;
      request.dest = dest;
      digest = fold_batch_digest(digest, serve(request, 0, nullptr), k);
    }
  }
  return digest;
}

// --------------------------------------------------------------------- Server

Server::Server(const ServerOptions& options) : options_(options) {
  CR_CHECK_MSG(options_.queue_depth > 0, "queue depth must be positive");
  const std::size_t count =
      options_.shards != 0 ? options_.shards : Executor::global().workers();
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->ring.reserve(options_.queue_depth);
    shards_.push_back(std::move(shard));
  }
}

Server::~Server() { stop(); }

std::shared_ptr<ServerEpoch> Server::publish(
    std::shared_ptr<ServerEpoch> epoch) {
  CR_CHECK_MSG(epoch != nullptr, "cannot publish a null epoch");
  // Audit the incoming stack before any request can route on it, and the
  // outgoing one after its final requests were issued: both must still serve
  // their load-time fingerprints, or tables were torn somewhere.
  CR_CHECK_MSG(epoch->audit(), "incoming epoch failed its serve audit");
  std::shared_ptr<ServerEpoch> previous;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    previous = std::move(epoch_);
    epoch_ = std::move(epoch);
  }
  if (previous) {
    CR_CHECK_MSG(previous->audit(), "outgoing epoch failed its serve audit");
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  CR_OBS_COUNT("serve.epoch.swaps");
  return previous;
}

std::shared_ptr<ServerEpoch> Server::current() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

bool Server::submit(const ServerRequest& request, std::uint64_t id) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = *shards_[id % shards_.size()];
  bool enqueued = false;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    for (;;) {
      if (stopped_.load(std::memory_order_acquire)) break;
      if (shard.ring.size() < options_.queue_depth) {
        Entry entry;
        entry.request = request;
        entry.id = id;
        entry.submit_ts_us = options_.collect_latencies ? now_us() : 0;
        shard.ring.push_back(entry);
        enqueued = true;
        break;
      }
      if (!options_.backpressure) break;
      shard.room.wait(lock);
    }
  }
  // Counted after the shard lock is released, through per-thread cached
  // handles: the request path does no by-name registry lookup.
  if (enqueued) {
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    CR_OBS_HOT_COUNT("serve.queue.enqueued");
    return true;
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  CR_OBS_HOT_COUNT("serve.queue.shed");
  return false;
}

std::size_t Server::pump(std::vector<ServerResult>& results) {
  // The pumping thread's wave buffers, reused across pumps: a steady-state
  // pump allocates nothing. Exactly-once drain: under the shard lock each
  // ring appends to the wave and is cleared (keeping its capacity);
  // concurrent pumps therefore partition the queued requests between them.
  static thread_local std::vector<Entry> wave;
  static thread_local std::vector<DispatchKey> keys;
  wave.clear();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->ring.empty()) continue;
    wave.insert(wave.end(), shard->ring.begin(), shard->ring.end());
    shard->ring.clear();
    shard->room.notify_all();
  }
  const std::size_t total = wave.size();
  if (total == 0) return 0;
  // Monotone time-integral proxy for instantaneous depth: every pump adds
  // the occupancy it observed, so depth-per-pump is recoverable from two
  // scrapes (DESIGN.md §12).
  CR_OBS_HOT_ADD("serve.queue.depth", total);

  // One epoch pin per pump: the whole drained wave serves under the same
  // tables, even if a publish lands mid-wave.
  const std::shared_ptr<ServerEpoch> epoch = current();
  CR_CHECK_MSG(epoch != nullptr, "pump with no published epoch");
  EpochPin pin(*epoch);

  // Shards only stripe the submit-side lock: the wave serves in one
  // (scheme, destination) order across every shard's requests.
  keys.resize(total);
  for (std::size_t k = 0; k < total; ++k) {
    const Entry& entry = wave[k];
    CR_CHECK_MSG(entry.id < results.size(),
                 "result slot out of range for request id");
    keys[k].dest_key = epoch->dest_key(entry.request.scheme, entry.request.dest);
    keys[k].item = k;
    keys[k].scheme = static_cast<std::uint8_t>(entry.request.scheme);
  }

  // Workers see the pumping thread's wave through this pointer (a
  // thread_local named inside the chunk would be the worker's own).
  const Entry* entries = wave.data();
  dispatch_sorted("server.pump", keys,
                  [&](const DispatchKey* first, const DispatchKey* last) {
#ifndef CR_OBS_DISABLED
    obs::LogHistogram* latency_hist =
        options_.collect_latencies ? &serve_latency_histogram() : nullptr;
#endif
    for (const DispatchKey* key = first; key != last; ++key) {
      const Entry& entry = entries[key->item];
      ServeRequest request;
      request.src = entry.request.src;
      request.dest_key = key->dest_key;
      std::size_t hops = 0;
      const std::uint64_t fp = epoch->serve_keyed(
          entry.request.scheme, request, options_.max_hops, &hops);
      ServerResult& slot = results[entry.id];
      slot.fingerprint = fp;
      slot.epoch = epoch->id();
      slot.hops = static_cast<std::uint32_t>(hops);
      if (options_.collect_latencies) {
        slot.latency_us = now_us() - entry.submit_ts_us;
#ifndef CR_OBS_DISABLED
        latency_hist->record(slot.latency_us);
#endif
      }
      slot.status.store(ServeStatus::kDelivered, std::memory_order_release);
    }
  });
  served_.fetch_add(total, std::memory_order_relaxed);
  return total;
}

std::size_t Server::drain(std::vector<ServerResult>& results) {
  std::size_t total = 0;
  for (;;) {
    const std::size_t served = pump(results);
    if (served == 0 && queued() == 0) break;
    total += served;
  }
  return total;
}

void Server::stop() {
  stopped_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->room.notify_all();
  }
}

std::size_t Server::queued() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->ring.size();
  }
  return total;
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.enqueued = enqueued_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.served = served_.load(std::memory_order_relaxed);
  c.swaps = swaps_.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t Server::delivered_digest(
    const std::vector<ServerResult>& results) {
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].status.load(std::memory_order_acquire) !=
        ServeStatus::kDelivered) {
      continue;
    }
    digest = fold_batch_digest(digest, results[i].fingerprint, i);
  }
  return digest;
}

}  // namespace compactroute
