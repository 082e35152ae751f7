#pragma once
//
// Peak-RSS introspection for the build pipeline and benches. Linux exposes
// the process high-water mark as VmHWM in /proc/self/status; elsewhere the
// readers degrade to 0 so callers never need platform guards. The kernel
// mark is monotone per process — reset_peak_rss() rewinds it (write "5" to
// /proc/self/clear_refs) so a sweep can attribute a peak to one build.
//
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"

namespace compactroute::obs {

/// Peak resident set size of this process in bytes (VmHWM), or 0 when the
/// proc interface is unavailable (non-Linux, restricted mounts).
inline std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      if (std::sscanf(line + 6, "%zu", &kb) != 1) kb = 0;
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

/// Rewinds the kernel's VmHWM mark so the next peak_rss_bytes() reflects
/// only allocations made after this call. Returns false where unsupported;
/// callers then see a process-lifetime (monotone) peak, which is still an
/// upper bound.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && wrote;
}

/// Publishes the current peak RSS into the "mem.peak" counter as a
/// high-water mark: the merged counter value tracks the largest peak ever
/// published (each call adds only the growth since the last publish). Safe
/// to call from any thread, any number of times.
inline void publish_peak_rss() {
#ifndef CR_OBS_DISABLED
  static std::atomic<std::size_t> published{0};
  const std::size_t cur = peak_rss_bytes();
  std::size_t prev = published.load(std::memory_order_relaxed);
  while (cur > prev) {
    if (published.compare_exchange_weak(prev, cur,
                                        std::memory_order_relaxed)) {
      CR_OBS_ADD("mem.peak", cur - prev);
      break;
    }
  }
#endif
}

}  // namespace compactroute::obs
