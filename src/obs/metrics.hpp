#pragma once
//
// Telemetry primitives: counters, timers, and histograms, kept in named
// registries so any layer (nets, schemes, runtime, benches) can meter itself
// without plumbing handles through constructors.
//
// Since PR 7 the process-wide store is *sharded*: every thread owns a private
// Registry shard (see obs/sharded.hpp) and the CR_OBS_* macros below write to
// the calling thread's shard, so hot-loop updates never contend on a shared
// lock. Readers merge all shards with ShardedRegistry::scrape(), which is the
// only way to observe process totals.
//
// Hot-path discipline: instrumentation sites use the CR_OBS_* macros, which
// compile to nothing when the library is built with CR_OBS_DISABLED (CMake
// option of the same name). The data types themselves stay available under
// the flag — offline analysis (StretchStats histograms, JSON export) must
// keep working; only the implicit global metering disappears.
//
// Thread-safety contract per type:
//   Counter      — relaxed atomics; safe to bump and read concurrently.
//   Timer        — relaxed atomics (CAS loop for the double total); safe to
//                  add and read concurrently.
//   LogHistogram — relaxed-atomic buckets and aggregates; one writer per
//                  shard plus any number of concurrent readers is safe.
//   Histogram    — plain fields (the offline/uniform-bucket type); callers
//                  synchronize externally (merge between phases).
//
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/check.hpp"

namespace compactroute::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall-clock time over any number of timed spans. Fully atomic:
/// cross-thread add_ms/read is safe (the double total uses a CAS loop so no
/// update is ever lost).
class Timer {
 public:
  void add_ms(double ms) {
    double cur = total_ms_.load(std::memory_order_relaxed);
    while (!total_ms_.compare_exchange_weak(cur, cur + ms,
                                            std::memory_order_relaxed)) {
    }
    spans_.fetch_add(1, std::memory_order_relaxed);
  }
  double total_ms() const { return total_ms_.load(std::memory_order_relaxed); }
  std::uint64_t spans() const { return spans_.load(std::memory_order_relaxed); }
  void merge(const Timer& other) {
    double cur = total_ms_.load(std::memory_order_relaxed);
    const double add = other.total_ms();
    while (!total_ms_.compare_exchange_weak(cur, cur + add,
                                            std::memory_order_relaxed)) {
    }
    spans_.fetch_add(other.spans(), std::memory_order_relaxed);
  }
  void reset() {
    total_ms_.store(0, std::memory_order_relaxed);
    spans_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> total_ms_{0};
  std::atomic<std::uint64_t> spans_{0};
};

/// Fixed uniform-bucket histogram over [lo, hi) with explicit underflow and
/// overflow bins. Percentiles are estimated by linear interpolation inside
/// the bucket containing the requested rank; a rank falling in the overflow
/// bin reports the exact observed maximum (and symmetrically the minimum for
/// underflow), so the estimate is never outside the observed range.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets + 2, 0) {
    CR_CHECK(buckets > 0 && hi > lo);
  }

  void record(double x) {
    ++counts_[bucket_of(x)];
    ++count_;
    sum_ += x;
    if (count_ == 1) {
      min_ = max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
  }

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }
  double min() const { return min_; }
  double max() const { return max_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Number of interior buckets (excluding underflow/overflow).
  std::size_t buckets() const { return counts_.size() - 2; }
  double bucket_width() const {
    return (hi_ - lo_) / static_cast<double>(buckets());
  }
  /// Count in interior bucket b (0-based).
  std::uint64_t bucket_count(std::size_t b) const { return counts_[b + 1]; }
  std::uint64_t underflow() const { return counts_.front(); }
  std::uint64_t overflow() const { return counts_.back(); }
  /// Lower edge of interior bucket b.
  double bucket_edge(std::size_t b) const {
    return lo_ + static_cast<double>(b) * bucket_width();
  }

  /// Estimated q-quantile, q in [0, 1].
  double percentile(double q) const;

  /// Adds another histogram with identical bucketing into this one.
  void merge(const Histogram& other);

  void reset();

 private:
  std::size_t bucket_of(double x) const {
    if (x < lo_) return 0;
    if (x >= hi_) return counts_.size() - 1;
    const auto b = static_cast<std::size_t>((x - lo_) / bucket_width());
    // Guard against floating-point edge rounding at x ~ hi_.
    return 1 + std::min(b, buckets() - 1);
  }

  double lo_, hi_;
  std::vector<std::uint64_t> counts_;  // [underflow, b0..b_{k-1}, overflow]
  std::size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Log-bucketed (HDR-style) histogram for values spanning many decades —
/// latencies, stretch tails. The range [lo, hi) is covered by consecutive
/// octaves [lo·2^o, lo·2^(o+1)), each split into `sub_buckets_per_octave`
/// linear sub-buckets, so the relative quantization error of any recorded
/// value is at most 1/sub_buckets_per_octave, uniformly across the range.
/// Explicit underflow (x < lo, including NaN) and overflow (x >= hi) bins.
///
/// Bucketization is exact integer arithmetic on the binary exponent (frexp),
/// never a float log, so a value always lands in the same bucket on every
/// platform and the golden percentile tests can assert exact doubles.
///
/// Concurrency: buckets and aggregates are relaxed atomics; the intended use
/// is one writer per registry shard with concurrent scrapers, which is race-
/// free. Percentiles interpolate inside the winning bucket and are clamped to
/// the observed [min, max], exactly like Histogram.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t sub_buckets_per_octave);
  /// Relaxed snapshot copy (for merging scrapes into plain values).
  LogHistogram(const LogHistogram& other);
  LogHistogram& operator=(const LogHistogram&) = delete;

  void record(double x);

  std::size_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::size_t c = count();
    return c ? sum() / static_cast<double>(c) : 0;
  }
  double min() const;
  double max() const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t sub_buckets_per_octave() const { return spb_; }
  std::size_t octaves() const { return octaves_; }
  /// Worst-case relative error of any percentile estimate inside the range.
  double relative_error_bound() const {
    return 1.0 / static_cast<double>(spb_);
  }

  /// Number of interior buckets (excluding underflow/overflow).
  std::size_t buckets() const { return counts_.size() - 2; }
  std::uint64_t bucket_count(std::size_t b) const {
    return counts_[b + 1].load(std::memory_order_relaxed);
  }
  std::uint64_t underflow() const {
    return counts_.front().load(std::memory_order_relaxed);
  }
  std::uint64_t overflow() const {
    return counts_.back().load(std::memory_order_relaxed);
  }
  /// Lower edge of interior bucket b: lo · 2^(b/spb) · (1 + (b%spb)/spb).
  double bucket_lower(std::size_t b) const;
  /// Upper edge (the lower edge of bucket b+1; the last octave's top).
  double bucket_upper(std::size_t b) const;

  /// Estimated q-quantile, q in [0, 1]; clamped to the observed range.
  double percentile(double q) const;

  /// Adds another histogram with identical geometry into this one.
  void merge(const LogHistogram& other);

  void reset();

 private:
  std::size_t bucket_of(double x) const;

  double lo_, hi_;
  std::size_t spb_;
  std::size_t octaves_;
  // [underflow, b0..b_{k-1}, overflow], k = octaves * spb
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::size_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Named metric store — one shard of the process-wide ShardedRegistry, or a
/// standalone scratch registry (scrape targets, tests). Lookup creates on
/// first use; references stay valid for the registry's lifetime (node-stable
/// containers). Lookups lock a per-registry mutex: uncontended (a few ns)
/// when the registry is a thread's own shard, which is why the macros below
/// stay cheap. Cache the returned reference outside any per-item loop.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Timer& timer(const std::string& name);
  /// Bucket geometry is fixed by the first call for a given name.
  Histogram& histogram(const std::string& name, double lo = 0, double hi = 1,
                       std::size_t buckets = 32);
  /// Geometry fixed by the first call. Defaults cover 1e-3..1e9 (e.g.
  /// microsecond latencies from sub-ns to ~17 min) at ≤ 12.5% relative error.
  LogHistogram& log_histogram(const std::string& name, double lo = 1e-3,
                              double hi = 1e9,
                              std::size_t sub_buckets_per_octave = 8);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Timer>& timers() const { return timers_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, LogHistogram>& log_histograms() const {
    return log_histograms_;
  }

  /// Merges every metric into `out` (creating names there on first use).
  /// Safe to call while the owning thread keeps writing counters, timers,
  /// and log histograms; uniform Histograms must be quiescent.
  void merge_into(Registry& out) const;

  /// Zeroes every metric (keeps registrations and bucket geometry).
  void reset();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Timer> timers_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, LogHistogram> log_histograms_;
};

/// The calling thread's shard of the process-wide ShardedRegistry (see
/// obs/sharded.hpp — defined there; declared here so the macros below can
/// reach it without a circular include). Never contends with other threads.
Registry& local_registry();

/// RAII span feeding a registry Timer on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : timer_(&timer), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    timer_->add_ms(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace compactroute::obs

#define CR_OBS_CONCAT_INNER(a, b) a##b
#define CR_OBS_CONCAT(a, b) CR_OBS_CONCAT_INNER(a, b)

// Instrumentation macros — the only way library code should touch the
// sharded registry, so a CR_OBS_DISABLED build carries zero telemetry cost.
// All of them write to the calling thread's private shard.
#ifdef CR_OBS_DISABLED
#define CR_OBS_COUNT(name) ((void)0)
#define CR_OBS_ADD(name, delta) ((void)0)
#define CR_OBS_HOT_COUNT(name) ((void)0)
#define CR_OBS_HOT_ADD(name, delta) ((void)0)
#define CR_OBS_SCOPED_TIMER(name) ((void)0)
#else
#define CR_OBS_COUNT(name) \
  ::compactroute::obs::local_registry().counter(name).inc()
#define CR_OBS_ADD(name, delta) \
  ::compactroute::obs::local_registry().counter(name).inc(delta)
// Per-request-grade counting: resolves the shard-local counter once per
// thread per call site and caches the pointer (registry nodes are stable),
// so the steady state is a single relaxed fetch_add — no name string, no
// registry lock, no map lookup.
#define CR_OBS_HOT_ADD(name, delta)                                 \
  do {                                                              \
    static thread_local ::compactroute::obs::Counter* cr_obs_hot_ = \
        &::compactroute::obs::local_registry().counter(name);       \
    cr_obs_hot_->inc(delta);                                        \
  } while (0)
#define CR_OBS_HOT_COUNT(name) CR_OBS_HOT_ADD(name, 1)
#define CR_OBS_SCOPED_TIMER(name)                     \
  ::compactroute::obs::ScopedTimer CR_OBS_CONCAT(     \
      cr_obs_span_, __LINE__)(                        \
      ::compactroute::obs::local_registry().timer(name))
#endif
