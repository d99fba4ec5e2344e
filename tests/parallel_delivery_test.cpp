// The parallel delivery substrate (sim/message_plane.h) and the bulk
// adversary scan APIs (sim/adversary.h): segment stitching reproduces the
// serial wire exactly, pool-sharded counting-sort delivery yields
// bit-identical inboxes and metrics, drop_where/scan_messages match the
// serial scans (including rng draw order), the all-multicast streamed fast
// path replays the same messages, materialized inboxes (references into
// the sealed wire) outlive the next round's send phase, and the thread
// pool's per-lane busy counters actually tick.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "adversary/strategies.h"
#include "core/messages.h"
#include "core/params.h"
#include "harness/experiment.h"
#include "sim/adversary.h"
#include "sim/message_plane.h"
#include "sim/metrics.h"
#include "rng/ledger.h"
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
      EXPECT_EQ(b[i].payload.get(), a[i].payload.get());
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
      EXPECT_EQ(got[i].second, ref[i].payload.get());
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

// ---------------------------------------------------------------------------
// Reference inboxes: an inbox entry points at its payload on the sealed
// wire, so the wire must stay intact until the receivers' round is over —
// while the next round's sends reallocate the own log and fill the other
// bank of shard arenas.

static_assert(std::is_trivially_copyable_v<Message<core::Msg>>);
static_assert(sizeof(Message<core::Msg>) == 16);

/// p's payload in `round`: a spread message (heap entries) that encodes
/// (p, round), so a receiver can tell whose and which round's it reads.
core::Msg spread_of(ProcessId p, std::uint32_t round) {
  core::SpreadMsg m;
  for (std::uint32_t i = 0; i <= (p + round) % 5; ++i) {
    m.entries.push_back(core::SpreadEntry{p, round, i});
  }
  return m;
}

bool is_spread_of(const core::Msg& msg, ProcessId p, std::uint32_t round) {
  const auto* sm = std::get_if<core::SpreadMsg>(&msg);
  if (sm == nullptr || sm->entries.size() != (p + round) % 5 + 1) {
    return false;
  }
  for (std::uint32_t i = 0; i < sm->entries.size(); ++i) {
    const core::SpreadEntry& e = sm->entries[i];
    if (e.group != p || e.ones != round || e.zeros != i) return false;
  }
  return true;
}

/// Three receivers of p's multicast.
std::vector<ProcessId> list_of(ProcessId p, std::uint32_t n) {
  return {(p + 2) % n, (p + 3) % n, (p + 5) % n};
}

/// Round `round`'s sends of processes [lo, hi): a broadcast, a unicast to
/// the next process and a multicast, each its own payload.
void queue_spread(SendLog<core::Msg>& log, std::uint32_t lo, std::uint32_t hi,
                  std::uint32_t round) {
  const std::uint32_t n = log.num_processes();
  for (ProcessId p = lo; p < hi; ++p) {
    log.broadcast(p, spread_of(p, round), /*include_self=*/false);
    log.send(p, (p + 1) % n, spread_of(p, round));
    log.multicast(p, list_of(p, n), spread_of(p, round));
  }
}

TEST(ReferenceInboxes, OutliveTheNextRoundsSendPhase) {
  // Round 0: the own log carries the first quarter of the senders, one
  // bank of shard arenas the rest.
  MessagePlane<core::Msg> plane(kN);
  std::vector<SendLog<core::Msg>> bank0, bank1;
  for (unsigned w = 0; w < 2; ++w) {
    bank0.emplace_back(kN);
    bank1.emplace_back(kN);
  }
  plane.begin_round(0);
  queue_spread(plane.log(), 0, kN / 4, 0);
  queue_spread(bank0[0], kN / 4, kN / 2, 0);
  queue_spread(bank0[1], kN / 2, kN, 0);
  SendLog<core::Msg>* const banked0[] = {&bank0[0], &bank0[1]};
  plane.stitch(banked0);
  plane.seal();
  Metrics m;
  plane.deliver(m);
  std::vector<std::vector<ProcessId>> senders(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    ASSERT_EQ(plane.inbox(p).size(), kN + 3u) << "p" << p;
    for (const Message<core::Msg>& msg : plane.inbox(p)) {
      senders[p].push_back(msg.from);
    }
  }

  // Round 1: eight times round 0's sends through the own log (its payload
  // vector reallocates), plus the other bank; then seal.
  plane.begin_round(1);
  for (int rep = 0; rep < 8; ++rep) queue_spread(plane.log(), 0, kN, 1);
  queue_spread(bank1[0], 0, kN / 2, 1);
  queue_spread(bank1[1], kN / 2, kN, 1);
  SendLog<core::Msg>* const banked1[] = {&bank1[0], &bank1[1]};
  plane.stitch(banked1);
  plane.seal();

  for (ProcessId p = 0; p < kN; ++p) {
    const auto inbox = plane.inbox(p);
    ASSERT_EQ(inbox.size(), senders[p].size()) << "p" << p;
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      EXPECT_EQ(inbox[i].from, senders[p][i]);
      EXPECT_EQ(inbox[i].to, p);
      EXPECT_TRUE(is_spread_of(inbox[i].payload, inbox[i].from, 0))
          << "p" << p << " message " << i;
    }
  }
}

/// Every process sends round r's payloads (as queue_spread) and, in round
/// r+1, checks that its inbox holds exactly round r's payloads addressed
/// to it, while its own sends of round r+1 go on the wire.
class SpreadEchoMachine final : public Machine<core::Msg> {
 public:
  static constexpr std::uint32_t kRounds = 6;

  std::uint32_t num_processes() const override { return kN; }
  void begin_round(std::uint32_t round) override { cur_ = round; }
  void round(ProcessId p, RoundIo<core::Msg>& io) override {
    if (cur_ > 0) {
      const auto inbox = io.inbox();
      bad_[p] += inbox.size() != kN + 3u;
      for (const Message<core::Msg>& msg : inbox) {
        bad_[p] += msg.to != p || !is_spread_of(msg.payload, msg.from, cur_ - 1);
      }
      checked_[p] += 1;
    }
    io.send_to_all(spread_of(p, cur_));
    io.send((p + 1) % kN, spread_of(p, cur_));
    io.send_to(list_of(p, kN), spread_of(p, cur_));
  }
  bool finished() const override { return cur_ + 1 >= kRounds; }

  std::vector<std::uint32_t> bad_ = std::vector<std::uint32_t>(kN, 0);
  std::vector<std::uint32_t> checked_ = std::vector<std::uint32_t>(kN, 0);

 private:
  std::uint32_t cur_ = 0;
};

TEST(ReferenceInboxes, SurviveShardedRoundsThroughRunner) {
  for (const unsigned lanes : {1u, 2u, 4u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    SpreadEchoMachine machine;
    rng::Ledger ledger(kN, 1);
    adversary::NullAdversary<core::Msg> none;
    EngineStats stats;
    Runner<core::Msg>::Options opts;
    opts.threads = lanes;
    opts.stats = &stats;
    Runner<core::Msg> runner(kN, 0, &ledger, &none, opts);
    runner.run(machine);
    EXPECT_EQ(stats.parallel_rounds, lanes > 1 ? stats.rounds : 0u);
    for (ProcessId p = 0; p < kN; ++p) {
      EXPECT_EQ(machine.bad_[p], 0u) << "p" << p;
      EXPECT_EQ(machine.checked_[p], SpreadEchoMachine::kRounds - 1) << p;
    }
  }
}

}  // namespace
}  // namespace omx::sim
