#pragma once
//
// Measurement rules shared by the benchmark and its self-tests: percentile
// reporting, the clock and memory probes, open-loop due-time accounting, the
// thread budget, and the small formatting helpers every result needs (hex
// digests, provenance).
//
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/server.hpp"

namespace crbench {

/// Steady-clock microseconds on the same epoch Server uses for its own
/// submit stamps, so harness and server timestamps subtract directly.
double now_us();

/// Busy-waits until now_us() >= deadline_us (returns immediately if past).
void spin_until(double deadline_us);

/// CPU time consumed so far by every thread of this process, in seconds.
/// Unlike wall time it excludes time the (virtual) CPUs were stolen by the
/// host or spent waiting to be scheduled.
double process_cpu_seconds();

// ----------------------------------------------------------------- quantiles

/// A nearest-rank percentile of a sample, with how many samples lie beyond
/// it. The reporting rule: a percentile is only quoted when at least
/// kMinBeyond samples lie beyond it, and always with the sample count.
struct Quantile {
  double q = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool supported = false;  // beyond >= kMinBeyond
};

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile of an ascending-sorted sample: the value at index
/// ceil(q n) - 1. Empty samples give an unsupported zero.
Quantile quantile_sorted(const std::vector<double>& sorted, double q);

/// Sorts a copy, then quantile_sorted.
Quantile quantile(std::vector<double> values, double q);

/// The highest of {0.5, 0.9, 0.99, 0.999, 0.9999} that has at least
/// kMinBeyond samples beyond it in a sample of `n`; 0 when even the median
/// does not.
double highest_supported_quantile(std::size_t n);

double median(std::vector<double> values);

// ---------------------------------------------------------------- host speed

/// Milliseconds for a fixed dependent chain of 64-bit multiply-adds, the
/// fastest of three: it runs at the core's clock and touches no memory, so
/// it gauges how fast the shared host runs this CPU at that moment. The
/// benchmark times it between measurement phases. On the 4-vCPU guest it was
/// tuned on, the chain's time moved by up to a fifth between runs, and the
/// program's latencies, rates and build times moved with it.
double clock_probe_ms();

/// The probe time that counts as reference speed: about its median on the
/// tuning host, so scaled figures read like that host's plain ones.
inline constexpr double kProbeReferenceMs = 9.5;

/// Milliseconds for a dependent pointer chase of 300,000 steps through one
/// cycle over 8 MiB, the fastest of three: memory past the core's private
/// caches, which neighbouring guests contend for. Routing a request chases
/// table entries the same way, so the open loop's latencies follow it too.
double memory_probe_ms();

/// The memory probe's reference time, about its median on the tuning host.
inline constexpr double kMemoryProbeReferenceMs = 25.0;

/// Scale for a phase bracketed by probes taking `before_ms` and `after_ms`:
/// kProbeReferenceMs over their mean. A time measured in the phase times
/// this (a rate divided by it) is the figure at reference speed.
double speed_scale(double before_ms, double after_ms);

// ------------------------------------------------------- open-loop accounting

/// Per-request timestamps of an open-loop run, all in now_us() units.
struct OpenLoopStamps {
  std::vector<double> due_us;     // when the schedule said to send it
  std::vector<double> call_us;    // when the generator called submit()
  std::vector<double> ret_us;     // when submit() returned
  std::vector<std::uint8_t> accepted;
};

/// Latency of every delivered request measured from when it was DUE, not
/// from when it was submitted: completion - due, where completion is
/// submit-return + the server's own submit->completion latency (an upper
/// bound: the server stamps the request inside submit). A generator that
/// falls behind therefore charges its lateness to every request it delays.
/// Undelivered (shed or never served) requests are counted in `*failed` and
/// contribute no latency.
std::vector<double> due_time_latencies(
    const OpenLoopStamps& stamps,
    const std::vector<compactroute::ServerResult>& results,
    std::size_t* failed);

/// The same for request i alone: false when it was not delivered.
bool due_time_latency(const OpenLoopStamps& stamps,
                      const std::vector<compactroute::ServerResult>& results,
                      std::size_t i, double* latency_us);

/// How late the generator ran: call - due per request (>= 0 up to clock
/// granularity).
std::vector<double> generator_lateness(const OpenLoopStamps& stamps);

// -------------------------------------------------------------- thread budget

/// Threads the benchmark runs at once: the Executor's workers (the pumping
/// thread is one of them), the open-loop generator, and the reload loader on
/// workloads that reload. `total` never exceeds `nproc` once nproc can hold
/// one worker plus the helpers; below that the plan is flagged.
struct ThreadPlan {
  std::size_t nproc = 0;
  std::size_t workers = 0;
  std::size_t generator = 1;
  std::size_t loader = 0;
  std::size_t total = 0;
  bool within_budget = false;
};

ThreadPlan plan_threads(std::size_t nproc, bool reloads);

/// CPUs this process may run on (sched_getaffinity), like `nproc`.
std::size_t available_cpus();

/// Current thread count of this process (/proc/self/status "Threads:").
std::size_t process_threads();

// ------------------------------------------------------------------ formatting

/// "0x" + 16 lowercase hex digits: 64-bit digests never travel as doubles.
std::string hex64(std::uint64_t value);

/// /proc/cpuinfo "model name" of the first CPU, or "unknown".
std::string cpu_model();

}  // namespace crbench
