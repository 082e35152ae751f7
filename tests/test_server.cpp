// Soak/correctness battery for the zero-downtime serving engine
// (runtime/server, DESIGN.md §12):
//
//   * epoch hot-swap soak — 4 requester threads submit/pump against a shared
//     Server while the main thread publishes >= 8 fresh epochs alternating
//     between two DIFFERENT snapshots (grid 8x8 vs grid 16x4, same n, very
//     different routes). Every delivered fingerprint must equal the golden
//     route of the exact epoch that served it (results[i].epoch says which),
//     and after the threads retire every superseded epoch must actually have
//     been destroyed (weak_ptr expiry + ServerEpoch::alive()) — the RCU grace
//     protocol in action. The TSan CI job runs this test.
//   * shedding determinism — same seed, same submission order, same depth:
//     two runs shed the same requests, the delivered digest matches, and a
//     shed request's slot is never written (a shed request NEVER returns a
//     route); a burst that fits the queues sheds nothing, and an 8x burst
//     sheds all but capacity;
//   * backpressure — a full shard blocks the submitter instead of shedding;
//     with a pumper thread draining, every request is eventually delivered
//     and the shed counter stays zero;
//   * sorted merged pump — a 3-shard wave served in (scheme, destination)
//     order gives every slot its own route, folds per scheme to
//     serve_batch's fingerprint, and serves under one epoch even while
//     another thread publishes;
//   * grace counting + publish audit plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded.hpp"
#include "routing/naming.hpp"
#include "runtime/serve.hpp"
#include "runtime/server.hpp"

namespace compactroute {
namespace {

constexpr double kEps = 0.5;

std::vector<std::uint8_t> encode_stack(const Graph& g) {
  MetricSpace metric(g);
  NetHierarchy hierarchy(metric);
  Naming naming = Naming::random(metric.n(), 4242);
  HierarchicalLabeledScheme hier(metric, hierarchy, kEps);
  ScaleFreeLabeledScheme sf(metric, hierarchy, kEps);
  SimpleNameIndependentScheme simple(metric, hierarchy, naming, hier, kEps);
  ScaleFreeNameIndependentScheme sfni(metric, hierarchy, naming, sf, kEps);
  return encode_snapshot(metric, kEps, hierarchy, naming, hier, sf, simple,
                         sfni);
}

/// Two snapshots over the SAME node-id space (n = 64) but different
/// topologies, so most requests route differently — a response fingerprint
/// identifies which epoch served it.
const std::vector<std::uint8_t>& bytes_a() {
  static const auto* b = new std::vector<std::uint8_t>(
      encode_stack(make_grid(8, 8)));
  return *b;
}
const std::vector<std::uint8_t>& bytes_b() {
  static const auto* b = new std::vector<std::uint8_t>(
      encode_stack(make_grid(16, 4)));
  return *b;
}

/// Even epoch ids serve snapshot A, odd ids snapshot B.
std::shared_ptr<ServerEpoch> make_epoch(std::uint64_t id) {
  return ServerEpoch::adopt(
      decode_snapshot(id % 2 == 0 ? bytes_a() : bytes_b()), id);
}

std::vector<ServerRequest> mixed_requests(std::size_t n, std::size_t count,
                                          std::uint64_t seed) {
  Prng rng(seed);
  std::vector<ServerRequest> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].src = static_cast<NodeId>(rng.next_below(n));
    do {
      out[i].dest = static_cast<NodeId>(rng.next_below(n));
    } while (out[i].dest == out[i].src);
    out[i].scheme = static_cast<ServeScheme>(i % kNumServeSchemes);
  }
  return out;
}

TEST(ServerEpoch, LoadInfoAuditAndSchemes) {
  Executor::global().set_workers(1);
  const auto epoch = make_epoch(0);
  EXPECT_EQ(epoch->id(), 0u);
  EXPECT_EQ(epoch->n(), 64u);
  for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
    EXPECT_TRUE(epoch->has(static_cast<ServeScheme>(s)));
  }
  EXPECT_NE(epoch->self_fingerprint(), 0u);
  EXPECT_TRUE(epoch->audit());
  EXPECT_EQ(epoch->in_flight(), 0u);
  epoch->pin();
  EXPECT_EQ(epoch->in_flight(), 1u);
  epoch->unpin();
  EXPECT_EQ(epoch->in_flight(), 0u);
}

TEST(ServerEpoch, DestKeyMatchesStackTables) {
  Executor::global().set_workers(1);
  const auto epoch = make_epoch(0);
  const SnapshotStack& stack = epoch->stack();
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(epoch->dest_key(ServeScheme::kHierarchical, v),
              std::uint64_t{stack.hierarchy->leaf_label(v)});
    EXPECT_EQ(epoch->dest_key(ServeScheme::kSimpleNi, v),
              stack.naming->name_of(v));
  }
}

#ifndef CR_OBS_DISABLED
std::uint64_t scheme_decodes(bool* registered = nullptr) {
  const auto scraped = obs::scrape_global();
  const auto it = scraped->counters().find("snapshot.scheme_decodes");
  if (registered != nullptr) *registered = it != scraped->counters().end();
  return it == scraped->counters().end() ? 0 : it->second.value();
}

/// Completed HopArena::build calls (its `arena.build` timer's span count).
std::uint64_t arena_builds() {
  const auto scraped = obs::scrape_global();
  const auto it = scraped->timers().find("arena.build");
  return it == scraped->timers().end() ? 0 : it->second.spans();
}

// The zero-decode contract: loading an epoch from its file, publishing it and
// serving through it run no scheme-section decoder and compile no arena; the
// first stack() call decodes the four scheme sections exactly once, and later
// calls reuse it.
TEST(ServerEpoch, LoadPublishAndServeCallNoSchemeDecoder) {
  Executor::global().set_workers(1);
  preregister_serving_metrics();
  bool registered = false;
  const std::uint64_t before = scheme_decodes(&registered);
  EXPECT_TRUE(registered) << "snapshot.scheme_decodes is not pre-registered";

  const std::string path = ::testing::TempDir() + "cr_server_zero_decode.snap";
  write_snapshot_file(path, bytes_a());
  for (const bool use_mmap : {true, false}) {
    const std::uint64_t start = scheme_decodes();
    const std::uint64_t builds = arena_builds();
    const auto epoch = ServerEpoch::load(path, use_mmap, 2);
    Server server;
    server.publish(epoch);
    const auto requests = mixed_requests(64, 64, 11);
    std::vector<ServerResult> results(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(server.submit(requests[i], i));
    }
    server.drain(results);
    for (const ServerResult& r : results) {
      EXPECT_EQ(r.status.load(), ServeStatus::kDelivered);
    }
    EXPECT_EQ(scheme_decodes(), start) << "load/publish/serve decoded a scheme";
    EXPECT_EQ(arena_builds(), builds) << "load/publish/serve compiled an arena";

    const SnapshotStack& stack = epoch->stack();
    EXPECT_EQ(scheme_decodes(), start + 4);
    EXPECT_EQ(&epoch->stack(), &stack);
    EXPECT_EQ(scheme_decodes(), start + 4);
    // The restored tables key destinations exactly as the decoded stack.
    for (NodeId v = 0; v < 64; ++v) {
      EXPECT_EQ(epoch->dest_key(ServeScheme::kScaleFree, v),
                std::uint64_t{stack.hierarchy->leaf_label(v)});
      EXPECT_EQ(epoch->dest_key(ServeScheme::kScaleFreeNi, v),
                stack.naming->name_of(v));
    }
  }
  EXPECT_EQ(scheme_decodes(), before + 8);
  std::remove(path.c_str());
}

// stack() is safe to race: concurrent first calls decode once and all see
// the same stack (the TSan CI job runs this file).
TEST(ServerEpoch, ConcurrentStackCallsDecodeOnce) {
  Executor::global().set_workers(1);
  const std::string path = ::testing::TempDir() + "cr_server_stack_race.snap";
  write_snapshot_file(path, bytes_a());
  const auto epoch = ServerEpoch::load(path, /*use_mmap=*/true, 3);
  const std::uint64_t start = scheme_decodes();
  std::vector<const SnapshotStack*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = &epoch->stack(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const SnapshotStack* stack : seen) EXPECT_EQ(stack, seen[0]);
  EXPECT_EQ(seen[0]->n, 64u);
  EXPECT_EQ(scheme_decodes(), start + 4);
  std::remove(path.c_str());
}
#endif  // CR_OBS_DISABLED

// The tentpole soak: concurrent requesters, continuous epoch flips between
// two different snapshots, per-request fingerprint attribution, and grace-
// protocol epoch release. Runs under TSan in the server-soak CI job.
TEST(Server, EpochHotSwapSoak) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBatch = 32;  // ids per thread per round
  constexpr std::size_t kMinFlips = 8;
  Executor::global().set_workers(4);

  const std::size_t alive_before = ServerEpoch::alive();
  const auto requests = mixed_requests(64, kThreads * kBatch, 7);

  // Golden fingerprints of every request under each snapshot's tables.
  std::vector<std::uint64_t> golden_a(requests.size());
  std::vector<std::uint64_t> golden_b(requests.size());
  std::size_t discriminating = 0;
  {
    const auto ea = make_epoch(0);
    const auto eb = make_epoch(1);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      golden_a[i] = ea->serve(requests[i], 0, nullptr);
      golden_b[i] = eb->serve(requests[i], 0, nullptr);
      if (golden_a[i] != golden_b[i]) ++discriminating;
    }
  }
  // The two snapshots must actually disagree, or the flip check is vacuous.
  ASSERT_GT(discriminating, requests.size() / 2);

  ServerOptions options;
  options.queue_depth = 64;
  options.shards = 4;
  Server server(options);
  server.publish(make_epoch(0));

  std::vector<ServerResult> results(requests.size());
  std::vector<std::weak_ptr<ServerEpoch>> superseded;
  std::atomic<bool> stop_requesters{false};
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> mismatches{0};

  const auto requester = [&](std::size_t t) {
    const std::size_t first = t * kBatch;
    const std::size_t last = first + kBatch;
    while (!stop_requesters.load(std::memory_order_acquire)) {
      for (std::size_t i = first; i < last; ++i) {
        ASSERT_TRUE(server.submit(requests[i], i));
      }
      // Pump until every own id is delivered; other threads' pumps may do
      // some of the serving — slots are id-disjoint, status is the release-
      // ordered completion flag.
      for (;;) {
        (void)server.pump(results);
        bool all = true;
        for (std::size_t i = first; i < last; ++i) {
          if (results[i].status.load(std::memory_order_acquire) !=
              ServeStatus::kDelivered) {
            all = false;
            break;
          }
        }
        if (all) break;
        std::this_thread::yield();
      }
      for (std::size_t i = first; i < last; ++i) {
        const std::uint64_t expected =
            results[i].epoch % 2 == 0 ? golden_a[i] : golden_b[i];
        if (results[i].fingerprint != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        results[i].status.store(ServeStatus::kPending,
                                std::memory_order_release);
      }
      rounds_done.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(requester, t);
  }

  // Flip continuously while the requesters hammer the queues: each publish
  // re-audits both epochs' self-fingerprints (CR_CHECK inside publish).
  std::uint64_t next_id = 1;
  for (std::size_t flip = 0; flip < kMinFlips; ++flip) {
    std::shared_ptr<ServerEpoch> old = server.publish(make_epoch(next_id++));
    ASSERT_NE(old, nullptr);
    superseded.push_back(old);
    old.reset();  // grace: the server no longer references it either
    // Let a few requester rounds land on the new epoch.
    const std::size_t target = rounds_done.load(std::memory_order_relaxed) + 2;
    while (rounds_done.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
  }
  stop_requesters.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  server.drain(results);

  EXPECT_EQ(mismatches.load(), 0u)
      << "a response fingerprint matched neither its serving epoch's golden";
  EXPECT_GE(server.counters().swaps, kMinFlips + 1);
  EXPECT_EQ(server.counters().shed, 0u);

  // Grace-protocol release: with the requesters retired and our references
  // dropped, every superseded epoch must be gone — destroyed, and on a mmap
  // epoch unmapped — leaving only the currently published one.
  for (const std::weak_ptr<ServerEpoch>& w : superseded) {
    EXPECT_TRUE(w.expired()) << "a superseded epoch outlived its grace period";
  }
  EXPECT_EQ(ServerEpoch::alive(), alive_before + 1);
}

// Two bursts pin both ends of the shed curve: one that fits the queues
// (nothing sheds) and one at 8x capacity (all but capacity sheds).
TEST(Server, SheddingIsDeterministicAndShedSlotsStayUntouched) {
  Executor::global().set_workers(1);
  const auto epoch = make_epoch(0);

  ServerOptions options;
  options.queue_depth = 32;
  options.shards = 2;  // fixed, not worker-derived: determinism by construction
  const std::size_t capacity = options.queue_depth * options.shards;

  for (const std::size_t burst : {capacity, 8 * capacity}) {
    SCOPED_TRACE(::testing::Message() << "burst " << burst);
    const auto requests = mixed_requests(64, burst, 21);

    struct RunOutcome {
      std::vector<bool> accepted;
      std::uint64_t shed = 0;
      std::uint64_t digest = 0;
    };
    const auto run_once = [&] {
      Server server(options);
      server.publish(epoch);
      std::vector<ServerResult> results(requests.size());
      RunOutcome out;
      out.accepted.resize(requests.size());
      // Submit the whole burst before any pump: everything past the per-shard
      // depth sheds, as a pure function of the submission order.
      for (std::size_t i = 0; i < requests.size(); ++i) {
        out.accepted[i] = server.submit(requests[i], i);
      }
      server.drain(results);
      out.shed = server.counters().shed;
      out.digest = Server::delivered_digest(results);

      // Contract: a shed request is never served and its slot never written.
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (out.accepted[i]) {
          EXPECT_EQ(results[i].status.load(), ServeStatus::kDelivered);
          EXPECT_EQ(results[i].fingerprint,
                    epoch->serve(requests[i], 0, nullptr));
        } else {
          EXPECT_EQ(results[i].status.load(), ServeStatus::kPending);
          EXPECT_EQ(results[i].fingerprint, 0u);
          EXPECT_EQ(results[i].epoch, 0u);
          EXPECT_EQ(results[i].hops, 0u);
        }
      }
      return out;
    };

    const RunOutcome first = run_once();
    const RunOutcome second = run_once();
    EXPECT_EQ(first.shed, burst - capacity);  // exactly capacity accepted
    EXPECT_EQ(first.accepted, second.accepted);
    EXPECT_EQ(first.shed, second.shed);
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_NE(first.digest, 0u);
  }
}

TEST(Server, BackpressureBlocksInsteadOfShedding) {
  constexpr std::size_t kCount = 4096;
  Executor::global().set_workers(2);
  const auto epoch = make_epoch(0);
  const auto requests = mixed_requests(64, kCount, 33);

  ServerOptions options;
  options.queue_depth = 16;  // far below the burst: submits must block
  options.shards = 2;
  options.backpressure = true;
  Server server(options);
  server.publish(epoch);

  std::vector<ServerResult> results(kCount);
  std::atomic<bool> stop_pumper{false};
  std::thread pumper([&] {
    while (!stop_pumper.load(std::memory_order_acquire)) {
      if (server.pump(results) == 0) std::this_thread::yield();
    }
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_TRUE(server.submit(requests[i], i));
  }
  stop_pumper.store(true, std::memory_order_release);
  pumper.join();
  server.drain(results);

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.enqueued, kCount);
  EXPECT_EQ(counters.served, kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(results[i].status.load(), ServeStatus::kDelivered);
  }
  // Full un-shed batch: the delivered digest is the batch fingerprint, and
  // it must be reproducible from the goldens.
  std::uint64_t expected = 0;
  {
    std::vector<ServerResult> golden(kCount);
    Server replay(ServerOptions{.queue_depth = kCount, .shards = 1});
    replay.publish(epoch);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_TRUE(replay.submit(requests[i], i));
    }
    replay.drain(golden);
    expected = Server::delivered_digest(golden);
  }
  EXPECT_EQ(Server::delivered_digest(results), expected);
}

// One pump merges every shard's drain into one sorted wave (DESIGN.md §12).
// The order may not show in any output: each slot must hold its own route,
// each scheme's slots must digest to that scheme's serve_batch fingerprint,
// and the whole wave must serve under one epoch even while another thread
// keeps publishing.
TEST(Server, SortedMergedPumpMatchesServeAndServeBatch) {
  constexpr std::size_t kBurst = 1000;  // ~16 dispatch chunks, 4 schemes
  Executor::global().set_workers(4);
  const auto epoch = make_epoch(0);
  const auto requests = mixed_requests(64, kBurst, 45);

  ServerOptions options;
  options.queue_depth = 512;
  options.shards = 3;
  Server server(options);
  server.publish(epoch);
  std::vector<ServerResult> results(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(server.submit(requests[i], i));
  }
  ASSERT_EQ(server.pump(results), kBurst);  // one wave drains all 3 shards

  std::uint64_t expected_digest = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_EQ(results[i].status.load(), ServeStatus::kDelivered);
    std::size_t hops = 0;
    const std::uint64_t fp = epoch->serve(requests[i], 0, &hops);
    EXPECT_EQ(results[i].fingerprint, fp) << "request " << i;
    EXPECT_EQ(results[i].hops, hops) << "request " << i;
    EXPECT_EQ(results[i].epoch, epoch->id());
    expected_digest = fold_batch_digest(expected_digest, fp, i);
  }
  EXPECT_EQ(Server::delivered_digest(results), expected_digest);

  // Per scheme: the slots of that scheme's requests, in id order, digest to
  // serve_batch's fingerprint of the same requests.
  ServeOptions batch_options;
  batch_options.collect_latencies = false;
  batch_options.instrument = false;
  for (std::size_t s = 0; s < kNumServeSchemes; ++s) {
    const ServeScheme scheme = static_cast<ServeScheme>(s);
    SCOPED_TRACE(serve_scheme_name(scheme));
    std::vector<ServerResult> served;
    std::vector<ServeRequest> batch;
    std::uint64_t served_hops = 0;
    for (std::size_t i = 0; i < kBurst; ++i) {
      if (requests[i].scheme != scheme) continue;
      served.push_back(results[i]);
      served_hops += results[i].hops;
      ServeRequest one;
      one.src = requests[i].src;
      one.dest_key = epoch->dest_key(scheme, requests[i].dest);
      batch.push_back(one);
    }
    ASSERT_GT(batch.size(), kDispatchChunk);
    const ServeStats stats =
        serve_batch(epoch->csr(), *epoch->hop_scheme(scheme), batch,
                    batch_options);
    EXPECT_EQ(Server::delivered_digest(served), stats.fingerprint);
    EXPECT_EQ(served_hops, stats.total_hops);
  }

  // Concurrent publishes: every pump's wave carries one epoch id, and each
  // route is the one that epoch's tables give. One worker serves the wave's
  // chunks one after another, so a wave spans many flips of the publisher,
  // which alternates two prebuilt epochs.
  Executor::global().set_workers(1);
  const auto other = make_epoch(1);
  std::vector<std::uint64_t> golden_a(kBurst), golden_b(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    golden_a[i] = epoch->serve(requests[i], 0, nullptr);
    golden_b[i] = other->serve(requests[i], 0, nullptr);
  }
  std::atomic<bool> stop_publisher{false};
  std::thread publisher([&] {
    for (std::size_t k = 1; !stop_publisher.load(std::memory_order_acquire);
         ++k) {
      server.publish(k % 2 == 1 ? other : epoch);
    }
  });
  std::size_t flips_seen = 0;
  std::uint64_t previous_epoch = epoch->id();
  for (std::size_t round = 0; round < 500 && flips_seen < 8; ++round) {
    for (ServerResult& r : results) {
      r.status.store(ServeStatus::kPending, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(server.submit(requests[i], i));
    }
    ASSERT_EQ(server.pump(results), kBurst);
    const std::uint64_t wave_epoch = results[0].epoch;
    if (wave_epoch != previous_epoch) ++flips_seen;
    previous_epoch = wave_epoch;
    for (std::size_t i = 0; i < kBurst; ++i) {
      ASSERT_EQ(results[i].epoch, wave_epoch) << "round " << round;
      ASSERT_EQ(results[i].fingerprint,
                wave_epoch % 2 == 0 ? golden_a[i] : golden_b[i])
          << "round " << round << " request " << i;
    }
  }
  stop_publisher.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_GE(flips_seen, 1u) << "no publish landed between pumps";
}

TEST(Server, StopRejectsSubmitsAndWakesBackpressure) {
  Executor::global().set_workers(1);
  ServerOptions options;
  options.queue_depth = 1;
  options.shards = 1;
  options.backpressure = true;
  Server server(options);
  server.publish(make_epoch(0));

  ServerRequest request;
  request.src = 0;
  request.dest = 1;
  ASSERT_TRUE(server.submit(request, 0));  // fills the one-slot ring
  // A second submit would block forever; stop() from another thread must
  // wake it and turn it into a shed.
  std::thread stopper([&] { server.stop(); });
  EXPECT_FALSE(server.submit(request, 1));
  stopper.join();
  EXPECT_FALSE(server.submit(request, 2));  // stopped: rejected outright
  EXPECT_EQ(server.counters().shed, 2u);

  // The queued-but-unserved request survives stop() for a final drain.
  std::vector<ServerResult> results(1);
  EXPECT_EQ(server.drain(results), 1u);
  EXPECT_EQ(results[0].status.load(), ServeStatus::kDelivered);
}

TEST(Server, PublishReturnsPreviousAndReleasesIt) {
  Executor::global().set_workers(1);
  const std::size_t alive_before = ServerEpoch::alive();
  Server server;
  std::weak_ptr<ServerEpoch> first_epoch;
  {
    auto epoch = make_epoch(0);
    first_epoch = epoch;
    EXPECT_EQ(server.publish(std::move(epoch)), nullptr);
  }
  EXPECT_FALSE(first_epoch.expired());  // the server keeps it alive
  EXPECT_EQ(server.current()->id(), 0u);

  std::shared_ptr<ServerEpoch> old = server.publish(make_epoch(1));
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->id(), 0u);
  EXPECT_EQ(old->in_flight(), 0u);
  old.reset();
  EXPECT_TRUE(first_epoch.expired());
  EXPECT_EQ(server.current()->id(), 1u);
  EXPECT_EQ(ServerEpoch::alive(), alive_before + 1);
  EXPECT_EQ(server.counters().swaps, 2u);
}

}  // namespace
}  // namespace compactroute
