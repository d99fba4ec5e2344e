// The parallel delivery substrate (sim/message_plane.h) and the bulk
// adversary scan APIs (sim/adversary.h): segment stitching reproduces the
// serial wire exactly, pool-sharded counting-sort delivery yields
// bit-identical inboxes and metrics, drop_where/scan_messages match the
// serial scans (including rng draw order), the all-multicast streamed fast
// path replays the same messages, and the thread pool's per-lane busy
// counters actually tick.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/params.h"
#include "harness/experiment.h"
#include "sim/adversary.h"
#include "sim/message_plane.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "support/thread_pool.h"

namespace omx::sim {
namespace {

struct Pay {
  std::uint32_t v = 0;
  std::uint64_t bit_size() const { return 32; }
  bool operator==(const Pay&) const = default;
};

constexpr std::uint32_t kN = 64;
constexpr unsigned kLanes = 4;

// Queue a deterministic mixed wire (unicasts + broadcasts + multicasts)
// through `log`, restricted to senders in [lo, hi). With [0, n) this is
// exactly the serial round; per-shard ranges stitched in order reproduce it.
void queue_sends(SendLog<Pay>& log, std::uint32_t lo, std::uint32_t hi) {
  for (std::uint32_t p = lo; p < hi; ++p) {
    log.broadcast(p, Pay{p}, /*include_self=*/p % 2 == 0);
    log.send(p, (p + 7) % kN, Pay{p * 3 + 1});
    if (p % 3 == 0) {
      const ProcessId neigh[] = {(p + 1) % kN, (p + 5) % kN, (p + 9) % kN};
      log.multicast(p, neigh, Pay{p * 5 + 2});
    }
  }
}

// A sealed serial-reference plane over the wire above (n*n-scale logical
// messages, comfortably past kParallelGrain so the sharded paths engage).
void build_serial(MessagePlane<Pay>& plane, std::uint32_t round = 0) {
  plane.begin_round(round);
  queue_sends(plane.log(), 0, kN);
  plane.seal();
}

// The same wire staged across `kLanes` shard arenas and stitched.
void build_stitched(MessagePlane<Pay>& plane, std::vector<SendLog<Pay>>& stage,
                    std::uint32_t round = 0) {
  plane.begin_round(round);
  stage.assign(kLanes, SendLog<Pay>(kN));
  std::vector<SendLog<Pay>*> ptrs;
  for (unsigned w = 0; w < kLanes; ++w) {
    stage[w].set_round(round);
    queue_sends(stage[w], kN * w / kLanes, kN * (w + 1) / kLanes);
    ptrs.push_back(&stage[w]);
  }
  plane.stitch(ptrs);
  plane.seal();
}

TEST(Stitch, ReproducesSerialWireExactly) {
  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  MessagePlane<Pay> stitched(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(stitched, stage);

  ASSERT_EQ(stitched.num_messages(), serial.num_messages());
  ASSERT_GE(serial.num_messages(), MessagePlane<Pay>::kParallelGrain);
  for (std::size_t i = 0; i < serial.num_messages(); ++i) {
    ASSERT_EQ(stitched.from(i), serial.from(i)) << "index " << i;
    ASSERT_EQ(stitched.to(i), serial.to(i)) << "index " << i;
    ASSERT_EQ(stitched.payload(i), serial.payload(i)) << "index " << i;
    ASSERT_EQ(stitched.payload_bits(i), serial.payload_bits(i));
  }
  EXPECT_EQ(stitched.wire_bits(), serial.wire_bits());
}

// Drop a deterministic subset (every 5th message) on both planes.
template <class Plane>
void drop_some(Plane& plane) {
  for (std::size_t i = 0; i < plane.num_messages(); i += 5) {
    plane.mark_dropped(i);
  }
}

TEST(ParallelDelivery, InboxesAndMetricsMatchSerial) {
  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  drop_some(serial);
  Metrics ms;
  serial.deliver(ms);

  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> par(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(par, stage);
  drop_some(par);
  Metrics mp;
  par.deliver(mp, nullptr, &pool, kLanes);

  EXPECT_EQ(mp.messages, ms.messages);
  EXPECT_EQ(mp.comm_bits, ms.comm_bits);
  EXPECT_EQ(mp.omitted, ms.omitted);
  for (ProcessId p = 0; p < kN; ++p) {
    const auto a = serial.inbox(p);
    const auto b = par.inbox(p);
    ASSERT_EQ(b.size(), a.size()) << "inbox of p" << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].from, a[i].from);
      EXPECT_EQ(b[i].to, a[i].to);
      EXPECT_EQ(b[i].payload, a[i].payload);
    }
  }
}

TEST(BulkAdversary, DropWhereMatchesSerialBitset) {
  const std::uint32_t kT = 8;
  auto run = [&](support::ThreadPool* pool, unsigned lanes,
                 MessagePlane<Pay>& plane) {
    FaultState faults(kN, kT);
    for (ProcessId p = 0; p < 4; ++p) faults.corrupt(p);
    AdversaryContext<Pay> ctx(0, &plane, &faults, pool, lanes);
    ctx.drop_where([](ProcessId from, ProcessId to) {
      return from < 4 || to < 4;
    });
  };

  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  run(nullptr, 1, serial);

  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> par(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(par, stage);
  run(&pool, kLanes, par);

  ASSERT_EQ(par.num_messages(), serial.num_messages());
  EXPECT_GT(serial.num_dropped(), 0u);
  EXPECT_EQ(par.num_dropped(), serial.num_dropped());
  for (std::size_t i = 0; i < serial.num_messages(); ++i) {
    ASSERT_EQ(par.dropped(i), serial.dropped(i)) << "index " << i;
  }
}

TEST(BulkAdversary, DropWhereRejectsIllegalMatchInParallel) {
  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> plane(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(plane, stage);
  FaultState faults(kN, 2);
  faults.corrupt(0);
  AdversaryContext<Pay> ctx(0, &plane, &faults, &pool, kLanes);
  // Matches messages between non-corrupted endpoints: the legality firewall
  // must throw from the sharded scan exactly as it does serially.
  EXPECT_THROW(ctx.drop_where([](ProcessId from, ProcessId to) {
                 return from >= 10 && to >= 10;
               }),
               AdversaryViolation);
}

TEST(BulkAdversary, ScanMessagesConsumesInAscendingIndexOrder) {
  auto collect = [&](support::ThreadPool* pool, unsigned lanes,
                     MessagePlane<Pay>& plane) {
    FaultState faults(kN, 1);
    AdversaryContext<Pay> ctx(0, &plane, &faults, pool, lanes);
    std::vector<std::tuple<std::size_t, ProcessId, ProcessId>> hits;
    ctx.scan_messages(
        [](ProcessId from, ProcessId to) { return (from + to) % 7 == 0; },
        [&](std::size_t idx, ProcessId from, ProcessId to) {
          hits.emplace_back(idx, from, to);
        });
    return hits;
  };

  MessagePlane<Pay> serial(kN);
  build_serial(serial);
  const auto ref = collect(nullptr, 1, serial);
  ASSERT_FALSE(ref.empty());

  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> par(kN);
  std::vector<SendLog<Pay>> stage;
  build_stitched(par, stage);
  const auto got = collect(&pool, kLanes, par);

  EXPECT_EQ(got, ref);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(std::get<0>(got[i - 1]), std::get<0>(got[i]));
  }
}

TEST(StreamedDelivery, AllMulticastWireTakesTheListOnlyPathCorrectly) {
  // Every send is a kList multicast (a graph-restricted machine's wire):
  // the streamed front buffer takes the O(degree)-per-receiver fast path.
  // Check against materialized delivery of the identical wire.
  auto queue = [](MessagePlane<Pay>& plane) {
    for (std::uint32_t p = 0; p < kN; ++p) {
      std::vector<ProcessId> neigh;
      for (std::uint32_t d = 1; d <= 20; ++d) neigh.push_back((p + d) % kN);
      plane.multicast(p, neigh, Pay{p});
    }
  };
  MessagePlane<Pay> mat(kN);
  mat.begin_round(0);
  queue(mat);
  mat.seal();
  drop_some(mat);
  Metrics mm;
  mat.deliver(mm);

  support::ThreadPool pool(kLanes);
  MessagePlane<Pay> str(kN);
  str.begin_round(0);
  queue(str);
  str.seal();
  drop_some(str);
  Metrics msr;
  str.deliver_streamed(msr, &pool, kLanes);

  EXPECT_EQ(msr.messages, mm.messages);
  EXPECT_EQ(msr.comm_bits, mm.comm_bits);
  EXPECT_EQ(msr.omitted, mm.omitted);
  for (ProcessId p = 0; p < kN; ++p) {
    const auto ref = mat.inbox(p);
    std::vector<std::pair<ProcessId, Pay>> got;
    str.stream_inbox(p, [&](ProcessId from, const Pay& pay) {
      got.emplace_back(from, pay);
    });
    ASSERT_EQ(got.size(), ref.size()) << "p" << p;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].first, ref[i].from);
      EXPECT_EQ(got[i].second, ref[i].payload);
    }
  }
}

TEST(ThreadPoolClocks, LaneBusyCountersTick) {
  support::ThreadPool pool(kLanes);
  for (unsigned w = 0; w < kLanes; ++w) {
    EXPECT_EQ(pool.lane_busy_ns(w), 0u);
  }
  pool.run([](unsigned) {
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 2'000'000; ++i) x += i;
  });
  for (unsigned w = 0; w < kLanes; ++w) {
    EXPECT_GT(pool.lane_busy_ns(w), 0u) << "lane " << w;
  }
}

// Bit-identity of sharded runs is the determinism matrix's job; this pins
// the engine's per-run stats sink.
TEST(EngineStats, ShardedRoundsBillEveryLane) {
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.attack = harness::Attack::RandomOmission;
  cfg.n = 96;
  cfg.t = core::Params::max_t_optimal(cfg.n);
  cfg.seed = 3;
  cfg.threads = 4;
  sim::EngineStats stats;
  cfg.engine_stats = &stats;
  ASSERT_TRUE(harness::run_experiment(cfg).ok());
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_EQ(stats.parallel_rounds, stats.rounds);
  EXPECT_EQ(stats.fused_ns, 0u);  // kept for external drivers, always 0
  ASSERT_EQ(stats.lane_busy_ns.size(), 4u);
  for (const std::uint64_t ns : stats.lane_busy_ns) EXPECT_GT(ns, 0u);
}

}  // namespace
}  // namespace omx::sim
