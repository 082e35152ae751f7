#include "serving.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/check.hpp"
#include "obs/spans.hpp"

namespace crbench {

using namespace compactroute;

CapacityRound run_capacity_round(Server& server, std::size_t queue_depth,
                                 const std::vector<ServerRequest>& stream,
                                 std::vector<ServerResult>& results) {
  CR_CHECK(results.size() >= stream.size());
  for (ServerResult& r : results) {
    r.status.store(ServeStatus::kPending, std::memory_order_relaxed);
  }
  CapacityRound round;
  round.requests = stream.size();
  round.traced = obs::SpanCollector::global().enabled();
  const std::size_t wave = server.shards() * queue_depth;
  obs::SpanScope span("harness.capacity_round", "harness");
  const double t0 = now_us();
  const double cpu0 = process_cpu_seconds();
  for (std::size_t first = 0; first < stream.size(); first += wave) {
    const std::size_t last = std::min(stream.size(), first + wave);
    {
      obs::SpanScope submit_span("server.submit_wave", "server");
      for (std::size_t i = first; i < last; ++i) {
        if (!server.submit(stream[i], i)) ++round.shed;
      }
    }
    obs::SpanScope pump_span("server.pump", "server");
    server.pump(results);
  }
  round.seconds = (now_us() - t0) * 1e-6;
  round.cpu_seconds = process_cpu_seconds() - cpu0;
  return round;
}

namespace {

/// Joins a thread on scope exit, after running `before_join` (which must
/// make the thread's loop finish) — so an exception on the pumping thread
/// never destroys a joinable std::thread.
class JoinGuard {
 public:
  JoinGuard(std::thread& thread, std::function<void()> before_join)
      : thread_(thread), before_join_(std::move(before_join)) {}
  ~JoinGuard() { join(); }
  void join() {
    if (before_join_) before_join_();
    before_join_ = nullptr;
    if (thread_.joinable()) thread_.join();
  }
  JoinGuard(const JoinGuard&) = delete;
  JoinGuard& operator=(const JoinGuard&) = delete;

 private:
  std::thread& thread_;
  std::function<void()> before_join_;
};

}  // namespace

/// How long the pumping thread spins after finding every shard empty before
/// it polls again. Both open-loop threads spin rather than sleep: on a
/// shared (virtualized) host a sleeping thread often takes a millisecond or
/// more to be woken, which would swamp the latencies measured.
constexpr double kIdlePollUs = 1.0;

OpenLoopRun run_open_loop(Server& server, const std::vector<ServerRequest>& stream,
                          std::vector<ServerResult>& results,
                          const OpenLoopPlan& plan) {
  CR_CHECK(plan.offered_rps > 0);
  CR_CHECK(results.size() >= stream.size());
  CR_CHECK_MSG(plan.reload_every == 0 || plan.load_epoch != nullptr,
               "reloads need a loader");
  const std::size_t count = stream.size();
  OpenLoopRun run;
  OpenLoopStamps& st = run.stamps;
  st.due_us.assign(count, 0);
  st.call_us.assign(count, 0);
  st.ret_us.assign(count, 0);
  st.accepted.assign(count, 0);
  run.pumps.reserve(count);

  // Loader: runs every requested reload, in order, off the serving path.
  std::mutex reload_mu;
  std::condition_variable reload_cv;
  std::size_t reloads_requested = 0;
  bool reloads_closed = false;
  std::vector<double> publish_start_us;  // the loader's until it is joined
  std::thread loader;
  if (plan.reload_every != 0) {
    loader = std::thread([&] {
      std::size_t done = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(reload_mu);
          reload_cv.wait(lock, [&] {
            return reloads_requested > done || reloads_closed;
          });
          if (reloads_requested == done) return;
        }
        obs::SpanScope span("server.reload", "server");
        std::shared_ptr<ServerEpoch> epoch = plan.load_epoch();
        publish_start_us.push_back(now_us());
        server.publish(std::move(epoch));
        ++done;
      }
    });
  }
  JoinGuard loader_guard(loader, [&] {
    std::lock_guard<std::mutex> lock(reload_mu);
    reloads_closed = true;
    reload_cv.notify_all();
  });

  const double period_us = 1e6 / plan.offered_rps;
  const double start_us = now_us() + 2000;  // let every thread get going
  std::atomic<bool> generator_done{false};
  std::thread generator([&] {
    for (std::size_t i = 0; i < count; ++i) {
      const double due = start_us + static_cast<double>(i) * period_us;
      st.due_us[i] = due;
      if (i == plan.stall_at) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(plan.stall_us));
      }
      spin_until(due);
      st.call_us[i] = now_us();
      st.accepted[i] = server.submit(stream[i], i) ? 1 : 0;
      st.ret_us[i] = now_us();
      if (plan.reload_every != 0 && (i + 1) % plan.reload_every == 0 &&
          i + 1 < count) {
        std::lock_guard<std::mutex> lock(reload_mu);
        ++reloads_requested;
        reload_cv.notify_all();
      }
    }
    generator_done.store(true, std::memory_order_release);
  });
  JoinGuard generator_guard(generator, nullptr);

  run.threads_seen = process_threads();
  obs::SpanScope span("harness.open_loop", "harness");
  for (;;) {
    const bool done = generator_done.load(std::memory_order_acquire);
    const double s = now_us();
    const std::size_t served = server.pump(results);
    if (served > 0) {
      run.pumps.push_back({s, now_us(), served});
      continue;
    }
    // Nothing queued after the generator finished: everything is served.
    if (done) break;
    spin_until(now_us() + kIdlePollUs);
  }
  loader_guard.join();  // runs every reload still requested
  run.publish_start_us = std::move(publish_start_us);
  return run;
}

LatencySplit split_latency(const OpenLoopRun& run,
                           const std::vector<ServerResult>& results,
                           double slack_us) {
  LatencySplit out;
  const OpenLoopStamps& st = run.stamps;
  for (std::size_t i = 0; i < st.due_us.size(); ++i) {
    if (st.accepted[i] == 0 ||
        results[i].status.load(std::memory_order_acquire) !=
            ServeStatus::kDelivered) {
      continue;
    }
    ++out.delivered;
    const double latency = results[i].latency_us;
    // The server stamps the request inside submit(), so its completion lies
    // in [call + latency, return + latency].
    const double completion_lo = st.call_us[i] + latency;
    const double completion_hi = st.ret_us[i] + latency;
    // The draining pump: the first one that started after the submit call
    // and had not ended before the earliest possible completion.
    auto it = std::lower_bound(
        run.pumps.begin(), run.pumps.end(), st.call_us[i] - slack_us,
        [](const PumpRecord& p, double t) { return p.start_us < t; });
    while (it != run.pumps.end() && it->end_us < completion_lo - slack_us) ++it;
    if (it == run.pumps.end()) continue;
    const double wait = it->start_us - st.call_us[i];
    out.queue_wait_us.push_back(wait);
    out.service_us.push_back(latency - wait);
    if (it->start_us <= completion_hi + slack_us) ++out.reconciled;
  }
  return out;
}

}  // namespace crbench
