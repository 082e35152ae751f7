#pragma once
//
// Deterministic parallel execution layer.
//
// Every parallel loop in the library goes through this executor so that one
// place owns the worker pool, the determinism contract, and the telemetry.
// The contract: work over [0, n) is split into chunks of a fixed size chosen
// by the *call site* — chunk boundaries depend only on (n, chunk), never on
// the worker count — and each chunk writes disjoint state. Any computation
// obeying that is bit-identical for every CR_THREADS value, including 1,
// which the test suite enforces for all scheme tables and stretch statistics
// (see tests/test_parallel.cpp and DESIGN.md §"Execution layer").
//
// Worker-count resolution, first match wins:
//   1. Executor::set_workers(n) with n >= 1 (programmatic override),
//   2. the CR_THREADS environment variable (clamped to [1, 256]),
//   3. std::thread::hardware_concurrency().
//
// Exceptions thrown inside a chunk are captured; after the region completes,
// the exception from the lowest-indexed failing chunk is rethrown on the
// calling thread, so error identity is as deterministic as the results.
//
// Nested parallel_for calls (from inside a chunk) run inline on the calling
// worker with the same chunk structure — safe, deterministic, no deadlock.
//
#include <cstddef>
#include <memory>
#include <type_traits>

namespace compactroute {

class Executor {
 public:
  using ChunkFn = void (*)(void* ctx, std::size_t first, std::size_t last);

  /// Process-wide executor backing every parallel_for in the library.
  static Executor& global();

  /// Effective worker count under the current configuration (>= 1).
  std::size_t workers();

  /// Programmatic override of the worker count; 0 restores automatic
  /// resolution (CR_THREADS env var, else hardware concurrency). Takes
  /// effect from the next parallel region.
  void set_workers(std::size_t n);

  /// Runs fn(ctx, c * chunk, min(n, (c + 1) * chunk)) for every chunk index
  /// c in [0, ceil(n / chunk)). `region` names the loop for telemetry
  /// (timer "parallel.<region>", counters "parallel.tasks" /
  /// "parallel.chunks") and must be a string literal: the telemetry handles
  /// are cached per thread by its address. Blocks until every chunk has run.
  void run(const char* region, std::size_t n, std::size_t chunk, ChunkFn fn,
           void* ctx);

  /// Helper threads this executor has started so far (monotone). The pool
  /// holds workers() - 1 helpers and is rebuilt only when the worker count
  /// changes, so regions of any chunk count leave this unchanged.
  std::size_t threads_spawned() const;

  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

 private:
  Executor();

  struct Pool;
  std::unique_ptr<Pool> pool_;
};

/// Maps fn(first, last) over [0, n) in deterministic chunks of `chunk`
/// indices (see Executor::run). fn must only write state disjoint between
/// chunks; it may throw (first failing chunk's exception is rethrown).
template <typename Fn>
void parallel_for(const char* region, std::size_t n, std::size_t chunk,
                  Fn&& fn) {
  Executor::global().run(
      region, n, chunk,
      [](void* ctx, std::size_t first, std::size_t last) {
        (*static_cast<std::remove_reference_t<Fn>*>(ctx))(first, last);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

}  // namespace compactroute
