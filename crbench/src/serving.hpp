#pragma once
//
// The serving half of the benchmark: a closed loop that keeps every Server
// shard full (capacity), and an open loop that offers requests on a fixed
// schedule from a generator thread while the calling thread pumps, with an
// optional loader thread that reloads and publishes the snapshot every K
// requests.
//
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "runtime/server.hpp"

namespace crbench {

struct CapacityRound {
  std::size_t requests = 0;
  std::size_t shed = 0;
  double seconds = 0;
  double cpu_seconds = 0;
  bool traced = false;  // spans were being recorded during this round
};

/// One closed-loop round over the whole `stream`: submit one full-capacity
/// wave (shards x queue depth), pump, repeat. `results` is reset to pending
/// first. When span collection is on, every wave's submit and pump is a span.
CapacityRound run_capacity_round(compactroute::Server& server,
                                 std::size_t queue_depth,
                                 const std::vector<compactroute::ServerRequest>& stream,
                                 std::vector<compactroute::ServerResult>& results);

struct PumpRecord {
  double start_us = 0;
  double end_us = 0;
  std::size_t served = 0;
};

struct OpenLoopPlan {
  double offered_rps = 0;
  /// Reload + publish every this many submitted requests (0 = never). The
  /// loader runs every requested reload, so a run of N requests always makes
  /// floor((N - 1) / K) swaps.
  std::size_t reload_every = 0;
  std::function<std::shared_ptr<compactroute::ServerEpoch>()> load_epoch;
  /// Test hook: the generator sleeps this long before submitting request
  /// `stall_at` (never, by default).
  std::size_t stall_at = static_cast<std::size_t>(-1);
  double stall_us = 0;
};

struct OpenLoopRun {
  OpenLoopStamps stamps;
  std::vector<PumpRecord> pumps;  // non-empty pumps, in order
  std::vector<double> publish_start_us;  // each reload's publish call, in order
  std::size_t threads_seen = 0;   // process thread count once all threads run
};

/// Offers `stream` at plan.offered_rps: a generator thread submits request
/// i at its due time start + i / rate (or as soon as it can, when behind)
/// while the calling thread pumps until everything submitted is served.
OpenLoopRun run_open_loop(compactroute::Server& server,
                          const std::vector<compactroute::ServerRequest>& stream,
                          std::vector<compactroute::ServerResult>& results,
                          const OpenLoopPlan& plan);

/// Queue wait and service time of each delivered open-loop request. The
/// server stamps a request inside submit(), so it completed somewhere in
/// [submit call, submit return] + its server latency. The draining pump is
/// the first one that started after the submit call and ended no earlier
/// than that window opens; queue wait runs from the submit call to the
/// pump's start (the call, not the return: the pump often drains a request
/// before submit() has returned), and service is the rest of the server
/// latency. `reconciled` counts requests for which such a pump exists and
/// started before the completion window closed (each bound within
/// `slack_us`): their latency splits into the two parts.
struct LatencySplit {
  std::vector<double> queue_wait_us;
  std::vector<double> service_us;
  std::size_t reconciled = 0;
  std::size_t delivered = 0;
};
LatencySplit split_latency(const OpenLoopRun& run,
                           const std::vector<compactroute::ServerResult>& results,
                           double slack_us);

}  // namespace crbench
