#include "harness.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace crbench {

using compactroute::ServerResult;
using compactroute::ServeStatus;

double now_us() {
  // Same clock and epoch as runtime/server's submit stamps.
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void spin_until(double deadline_us) {
  while (now_us() < deadline_us) {
  }
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// Nearest-rank index ceil(q n) - 1 of a non-empty sample of size n.
std::size_t rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<std::size_t>(
             std::clamp(rank, 1.0, static_cast<double>(n))) - 1;
}

}  // namespace

Quantile quantile_sorted(const std::vector<double>& sorted, double q) {
  Quantile out;
  out.q = q;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  const std::size_t index = rank_index(sorted.size(), q);
  out.value = sorted[index];
  out.beyond = sorted.size() - 1 - index;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

Quantile quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

double highest_supported_quantile(std::size_t n) {
  double best = 0;
  if (n == 0) return best;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (n - 1 - rank_index(n, q) >= kMinBeyond) best = q;
  }
  return best;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double clock_probe_ms() {
  constexpr std::size_t kSteps = 6000000;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_us();
    std::uint64_t x = 1;
    for (std::size_t i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    const double ms = (now_us() - t0) * 1e-3;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

double memory_probe_ms() {
  constexpr std::size_t kNodes = std::size_t{1} << 21;  // 8 MiB of uint32
  constexpr std::size_t kSteps = 300000;
  // Sattolo's shuffle: one cycle through every node, in an order no
  // prefetcher follows.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kNodes);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint32_t>(i);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(v[i], v[(state >> 33) % i]);
    }
    return v;
  }();
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_us();
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
    volatile std::uint32_t sink = at;
    (void)sink;
    const double ms = (now_us() - t0) * 1e-3;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

double speed_scale(double before_ms, double after_ms) {
  return kProbeReferenceMs / (0.5 * (before_ms + after_ms));
}

bool due_time_latency(const OpenLoopStamps& stamps,
                      const std::vector<ServerResult>& results, std::size_t i,
                      double* latency_us) {
  if (stamps.accepted[i] == 0 ||
      results[i].status.load(std::memory_order_acquire) != ServeStatus::kDelivered) {
    return false;
  }
  const double completion = stamps.ret_us[i] + results[i].latency_us;
  *latency_us = completion - stamps.due_us[i];
  return true;
}

std::vector<double> due_time_latencies(const OpenLoopStamps& stamps,
                                       const std::vector<ServerResult>& results,
                                       std::size_t* failed) {
  std::vector<double> out;
  out.reserve(stamps.due_us.size());
  std::size_t missing = 0;
  for (std::size_t i = 0; i < stamps.due_us.size(); ++i) {
    double latency = 0;
    if (due_time_latency(stamps, results, i, &latency)) {
      out.push_back(latency);
    } else {
      ++missing;
    }
  }
  if (failed != nullptr) *failed = missing;
  return out;
}

std::vector<double> generator_lateness(const OpenLoopStamps& stamps) {
  std::vector<double> out(stamps.due_us.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = stamps.call_us[i] - stamps.due_us[i];
  }
  return out;
}

ThreadPlan plan_threads(std::size_t nproc, bool reloads) {
  ThreadPlan plan;
  plan.nproc = nproc;
  plan.generator = 1;
  plan.loader = reloads ? 1 : 0;
  const std::size_t helpers = plan.generator + plan.loader;
  plan.workers = nproc > helpers ? nproc - helpers : 1;
  plan.total = plan.workers + helpers;
  plan.within_budget = plan.total <= nproc;
  return plan;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::strtoull(line.c_str() + 8, nullptr, 10));
    }
  }
  return 0;
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace crbench
