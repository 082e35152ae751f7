#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace compactroute {

namespace {

constexpr std::size_t kMaxWorkers = 256;

// Set while this thread is executing a chunk; nested parallel_for calls run
// inline instead of re-entering the pool (which would deadlock on run_mutex_).
thread_local bool tls_in_chunk = false;

struct ChunkGuard {
  ChunkGuard() { tls_in_chunk = true; }
  ~ChunkGuard() { tls_in_chunk = false; }
};

/// CR_THREADS, or 0 if unset/garbage (garbage falls through to hardware
/// concurrency; crtool --threads validates strictly before it gets here).
std::size_t env_workers() {
  const char* env = std::getenv("CR_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v == 0) return 0;
  return std::min<std::size_t>(v, kMaxWorkers);
}

#ifndef CR_OBS_DISABLED
/// A region's telemetry handles in the calling thread's registry shard.
struct RegionMeters {
  const char* region;
  obs::Counter* tasks;
  obs::Counter* chunks;
  obs::Timer* timer;  // "parallel.<region>"
};

/// The calling thread's handles for `region`, looked up in the registry on
/// the thread's first region of that name and cached by the literal's
/// address (registry nodes are stable), so a steady-state region start
/// builds no string and takes no registry lock. The cache holds one entry
/// per parallel_for call site the thread has run.
RegionMeters region_meters(const char* region) {
  static thread_local std::vector<RegionMeters> cache;
  for (const RegionMeters& meters : cache) {
    if (meters.region == region) return meters;
  }
  obs::Registry& registry = obs::local_registry();
  cache.push_back({region, &registry.counter("parallel.tasks"),
                   &registry.counter("parallel.chunks"),
                   &registry.timer(std::string("parallel.") + region)});
  return cache.back();
}
#endif

/// One parallel region. Workers pull chunk indices from `next`; the chunk
/// geometry is fixed up front so scheduling order cannot affect results.
struct Job {
  Executor::ChunkFn fn;
  void* ctx;
  std::size_t n;
  std::size_t chunk;
  std::size_t num_chunks;
  std::atomic<std::size_t> next{0};

  std::mutex m;
  std::condition_variable done_cv;
  std::size_t done = 0;              // chunks fully processed
  std::size_t error_chunk = 0;       // lowest failing chunk (valid iff error)
  std::exception_ptr error;

  void work() {
    std::size_t processed = 0;
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      const std::size_t first = c * chunk;
      const std::size_t last = std::min(n, first + chunk);
      try {
        ChunkGuard guard;
        fn(ctx, first, last);
      } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        if (!error || c < error_chunk) {
          error = std::current_exception();
          error_chunk = c;
        }
      }
      ++processed;
    }
    if (processed > 0) {
      std::lock_guard<std::mutex> lock(m);
      done += processed;
      if (done == num_chunks) done_cv.notify_all();
    }
  }
};

}  // namespace

struct Executor::Pool {
  std::mutex run_mutex;  // one parallel region at a time

  std::mutex m;  // guards threads/current/generation/stop
  std::condition_variable wake;
  std::vector<std::thread> threads;
  std::shared_ptr<Job> current;
  std::uint64_t generation = 0;
  bool stop = false;
  std::atomic<std::size_t> spawned{0};  // helper threads ever started

  std::atomic<std::size_t> override_workers{0};

  std::size_t resolve_workers() {
    const std::size_t forced = override_workers.load(std::memory_order_relaxed);
    if (forced > 0) return std::min(forced, kMaxWorkers);
    const std::size_t env = env_workers();
    if (env > 0) return env;
    return std::max<std::size_t>(
        1, std::min<std::size_t>(std::thread::hardware_concurrency(),
                                 kMaxWorkers));
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(m);
        wake.wait(lock,
                  [&] { return stop || (current && generation != seen); });
        if (stop) return;
        seen = generation;
        job = current;
      }
      job->work();
    }
  }

  /// Grows or shrinks the pool to `count` helper threads (callers always
  /// participate, so `count` is workers - 1). Only called under run_mutex.
  void ensure_threads(std::size_t count) {
    if (threads.size() == count) return;
    shutdown();
    {
      std::lock_guard<std::mutex> lock(m);
      stop = false;
    }
    threads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      threads.emplace_back([this] { worker_loop(); });
    }
    spawned.fetch_add(count, std::memory_order_relaxed);
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(m);
      stop = true;
    }
    wake.notify_all();
    for (std::thread& t : threads) t.join();
    threads.clear();
  }
};

Executor::Executor() : pool_(std::make_unique<Pool>()) {}

Executor::~Executor() { pool_->shutdown(); }

Executor& Executor::global() {
  static Executor executor;
  return executor;
}

std::size_t Executor::workers() { return pool_->resolve_workers(); }

void Executor::set_workers(std::size_t n) {
  pool_->override_workers.store(n, std::memory_order_relaxed);
}

std::size_t Executor::threads_spawned() const {
  return pool_->spawned.load(std::memory_order_relaxed);
}

void Executor::run(const char* region, std::size_t n, std::size_t chunk,
                   ChunkFn fn, void* ctx) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;

#ifndef CR_OBS_DISABLED
  const RegionMeters meters = region_meters(region);
  meters.tasks->inc();
  meters.chunks->inc(num_chunks);
  obs::ScopedTimer span(*meters.timer);
#else
  (void)region;
#endif

  // Inline path: nested regions, a single worker, or a single chunk. Runs
  // the identical chunk sequence in index order, so results (and telemetry
  // chunk counts) match the pooled path bit for bit.
  if (tls_in_chunk || num_chunks == 1 || workers() == 1) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      ChunkGuard guard;
      fn(ctx, c * chunk, std::min(n, (c + 1) * chunk));
    }
    return;
  }

  // The pool is sized by the configured worker count, not by this region's
  // chunk count: helpers that find no chunk go back to sleep, so a small
  // region between two large ones joins and respawns no thread.
  std::lock_guard<std::mutex> run_lock(pool_->run_mutex);
  pool_->ensure_threads(workers() - 1);

  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->ctx = ctx;
  job->n = n;
  job->chunk = chunk;
  job->num_chunks = num_chunks;

  {
    std::lock_guard<std::mutex> lock(pool_->m);
    pool_->current = job;
    ++pool_->generation;
  }
  pool_->wake.notify_all();

  job->work();  // the calling thread is a worker too

  {
    std::unique_lock<std::mutex> lock(job->m);
    job->done_cv.wait(lock, [&] { return job->done == job->num_chunks; });
  }
  {
    std::lock_guard<std::mutex> lock(pool_->m);
    pool_->current.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace compactroute
