#pragma once
//
// Process-wide sharded metric store. Every thread that touches a CR_OBS_*
// macro lazily acquires a private Registry shard; updates go to that shard
// with no cross-thread contention, and readers call scrape() to merge all
// shards into one plain Registry snapshot.
//
// Shards outlive their owning thread (they are held by shared_ptr in the
// shard list), so an Executor worker's counts remain scrapeable after the
// pool winds down. Scrape order is the shard *creation* order, which is
// deterministic for a fixed thread-spawn sequence; all merged quantities are
// either integers or sums of identical addends per shard, so scraped values
// do not depend on worker interleaving.
//
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace compactroute::obs {

class ShardedRegistry {
 public:
  /// The process-wide instance used by the CR_OBS_* macros.
  static ShardedRegistry& global();

  ShardedRegistry();
  ShardedRegistry(const ShardedRegistry&) = delete;
  ShardedRegistry& operator=(const ShardedRegistry&) = delete;

  /// The calling thread's shard of *this* sharded registry; created on first
  /// use. The reference stays valid for the registry's lifetime.
  Registry& local();

  /// Merges every shard into a fresh snapshot. Safe concurrently with
  /// writers (counters/timers/log histograms are atomic); values observed are
  /// at least everything published before the call. Shards merge in creation
  /// order, so repeated scrapes of a quiescent registry are bit-identical.
  std::shared_ptr<Registry> scrape() const;

  /// Zeroes every metric in every shard (registrations survive).
  void reset();

  /// Number of shards created so far (== distinct threads that metered).
  std::size_t shard_count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Registry>> shards_;
  // Process-unique id; TLS caches are keyed on it so a ShardedRegistry that
  // dies and another reusing its address never see stale shard pointers.
  std::uint64_t instance_id_;
};

/// Scrape of the global sharded registry (what `crtool serve --obs-out`,
/// the JSON exporters, and the benches read).
std::shared_ptr<Registry> scrape_global();

/// Zeroes the global sharded registry across all shards.
void reset_global();

/// Small dense ordinal for the calling thread (0 for the first thread that
/// asks, 1 for the next, ...). Stable for the thread's lifetime; used as the
/// `tid` in trace exports and the shard tag in flight-recorder dumps.
std::size_t thread_ordinal();

}  // namespace compactroute::obs
