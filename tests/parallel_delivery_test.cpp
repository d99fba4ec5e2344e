// The parallel delivery substrate (sim/message_plane.h) and the bulk
// adversary scan APIs (sim/adversary.h): segment stitching reproduces the
// serial wire exactly, every inbox matches one brute-force oracle (bucket
// each surviving logical message by receiver, in index order) on every
// wire shape at every lane count, through the plane and through the
// Runner, drop_where/scan_messages match the serial scans (including rng
// draw order), inboxes (references into the delivered wire) outlive the
// next round's send phase, and the thread pool's per-lane busy counters
// actually tick.
#include <gtest/gtest.h>

#include <cstdint>
#include <ranges>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

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

// Queue a deterministic mixed wire (unicasts, broadcasts with and without
// self-delivery, multicasts skipping the sender) through `log`, restricted
// to senders in [lo, hi). With [0, n) this is exactly the serial round;
// per-shard ranges stitched in order reproduce it.
void queue_sends(SendLog<Pay>& log, std::uint32_t lo, std::uint32_t hi) {
  for (std::uint32_t p = lo; p < hi; ++p) {
    log.broadcast(p, Pay{p}, /*include_self=*/p % 2 == 0);
    log.send(p, (p + 7) % kN, Pay{p * 3 + 1});
    if (p % 3 == 0) {
      const ProcessId neigh[] = {(p + 1) % kN, p, (p + 5) % kN, (p + 9) % kN};
      log.multicast(p, neigh, Pay{p * 5 + 2}, /*skip=*/p);
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

// ---------------------------------------------------------------------------
// The inbox oracle: bucket every surviving logical message by its
// receiver, in logical-index order. Delivery must hand each receiver
// exactly its bucket — same senders, same order, and the very payload
// objects on the wire (compared by address: nothing may be copied).

struct Seen {
  ProcessId from;
  ProcessId to;
  const void* payload;
  bool operator==(const Seen&) const = default;
};

/// Brute-force reference over a sealed wire; `View` is a MessagePlane or
/// an AdversaryContext (same indexed accessors).
template <class View>
std::vector<std::vector<Seen>> reference_inboxes(const View& wire,
                                                 std::uint32_t n) {
  std::vector<std::vector<Seen>> ref(n);
  for (std::size_t i = 0; i < wire.num_messages(); ++i) {
    if (wire.dropped(i)) continue;
    ref[wire.to(i)].push_back(Seen{wire.from(i), wire.to(i), &wire.payload(i)});
  }
  return ref;
}

template <class P>
std::vector<Seen> seen(const Inbox<P>& inbox) {
  std::vector<Seen> got;
  for (const Message<P>& msg : inbox) {
    got.push_back(Seen{msg.from, msg.to, &msg.payload.get()});
  }
  return got;
}

static_assert(std::ranges::forward_range<Inbox<Pay>>);
static_assert(std::is_trivially_copyable_v<Message<core::Msg>>);
static_assert(sizeof(Message<core::Msg>) == 16);

/// Deliver a sealed wire at `lanes` (1 = no pool) and check every inbox
/// and the accounting against the oracle.
void expect_oracle_inboxes(MessagePlane<Pay>& plane, unsigned lanes) {
  const auto ref = reference_inboxes(plane, kN);
  const std::size_t total = plane.num_messages();
  const std::size_t dropped = plane.num_dropped();
  const std::uint64_t bits = plane.wire_bits();
  support::ThreadPool pool(lanes);
  Metrics m;
  plane.deliver(m, nullptr, lanes > 1 ? &pool : nullptr, lanes);
  EXPECT_EQ(m.messages, total);
  EXPECT_EQ(m.omitted, dropped);
  EXPECT_EQ(m.comm_bits, bits);
  for (ProcessId p = 0; p < kN; ++p) {
    EXPECT_EQ(seen(plane.inbox(p)), ref[p]) << "inbox of p" << p;
  }
}

TEST(InboxOracle, MixedWireAtEveryLaneCount) {
  for (const unsigned lanes : {1u, 2u, 4u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    MessagePlane<Pay> serial(kN);
    build_serial(serial);
    drop_some(serial);
    expect_oracle_inboxes(serial, lanes);

    MessagePlane<Pay> stitched(kN);
    std::vector<SendLog<Pay>> stage;
    build_stitched(stitched, stage);
    drop_some(stitched);
    expect_oracle_inboxes(stitched, lanes);
  }
}

TEST(InboxOracle, MulticastOnlyWireAtEveryLaneCount) {
  // A graph-restricted machine's wire: no broadcast group to merge, every
  // message comes from the receiver's own index.
  for (const unsigned lanes : {1u, 2u, 4u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    MessagePlane<Pay> plane(kN);
    plane.begin_round(0);
    for (std::uint32_t p = 0; p < kN; ++p) {
      std::vector<ProcessId> neigh;
      for (std::uint32_t d = 1; d <= 20; ++d) neigh.push_back((p + d) % kN);
      plane.multicast(p, neigh, Pay{p});
    }
    plane.seal();
    drop_some(plane);
    expect_oracle_inboxes(plane, lanes);
  }
}

TEST(InboxOracle, BroadcastOnlyWireWithoutDrops) {
  // The all-to-all round of a fault-free flood: the receivers' index is
  // empty and no drop bit is consulted.
  MessagePlane<Pay> plane(kN);
  plane.begin_round(0);
  for (std::uint32_t p = 0; p < kN; ++p) {
    plane.broadcast(p, Pay{p}, /*include_self=*/p % 3 == 0);
  }
  plane.seal();
  expect_oracle_inboxes(plane, 1);
  const Inbox<Pay> inbox = plane.inbox(0);
  ASSERT_FALSE(inbox.empty());
  EXPECT_EQ(inbox.front().from, 0u);  // p=0 broadcasts to itself first
  EXPECT_EQ(std::ranges::distance(inbox), kN);  // every sender reaches 0
}

TEST(InboxOracle, EmptyBeforeTheFirstDelivery) {
  MessagePlane<Pay> plane(kN);
  for (ProcessId p = 0; p < kN; ++p) EXPECT_TRUE(plane.inbox(p).empty());
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
// Reference inboxes: an inbox entry points at its payload on the delivered
// wire, so the wire must stay intact until the receivers' round is over —
// while the next round's sends reallocate the own log and fill the other
// bank of shard arenas.

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

/// p's multicast list: three receivers and p itself, which the send skips.
std::vector<ProcessId> list_of(ProcessId p, std::uint32_t n) {
  return {(p + 2) % n, p, (p + 3) % n, (p + 5) % n};
}

/// Round `round`'s sends of processes [lo, hi): a broadcast (with
/// self-delivery for even senders), a unicast to the next process and a
/// multicast, each its own payload.
void queue_spread(SendLog<core::Msg>& log, std::uint32_t lo, std::uint32_t hi,
                  std::uint32_t round) {
  const std::uint32_t n = log.num_processes();
  for (ProcessId p = lo; p < hi; ++p) {
    log.broadcast(p, spread_of(p, round), /*include_self=*/p % 2 == 0);
    log.send(p, (p + 1) % n, spread_of(p, round));
    log.multicast(p, list_of(p, n), spread_of(p, round), /*skip=*/p);
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
  drop_some(plane);
  const auto ref = reference_inboxes(plane, kN);
  Metrics m;
  plane.deliver(m);

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
    EXPECT_EQ(seen(plane.inbox(p)), ref[p]) << "p" << p;
    for (const Message<core::Msg>& msg : plane.inbox(p)) {
      EXPECT_TRUE(is_spread_of(msg.payload, msg.from, 0)) << "p" << p;
    }
  }
}

/// Corrupts processes 1 and 5, omits a pattern of their messages every
/// round, and records the oracle inboxes of the round it just shaped.
class OracleAdversary final : public Adversary<core::Msg> {
 public:
  void intervene(AdversaryContext<core::Msg>& ctx) override {
    if (ctx.round() == 0) {
      ctx.corrupt(1);
      ctx.corrupt(5);
    }
    const std::uint32_t r = ctx.round();
    ctx.drop_where([r](ProcessId from, ProcessId to) {
      const bool faulty = from == 1 || from == 5 || to == 1 || to == 5;
      return faulty && (from + to + r) % 3 == 0;
    });
    ref_ = reference_inboxes(ctx, kN);
  }

  std::vector<std::vector<Seen>> ref_;
};

/// Every process sends round r's payloads (as queue_spread) and, in round
/// r+1, checks its inbox against the oracle the adversary recorded for
/// round r, and that every payload is still round r's, while its own sends
/// of round r+1 go on the wire.
class SpreadEchoMachine final : public Machine<core::Msg> {
 public:
  static constexpr std::uint32_t kRounds = 6;

  explicit SpreadEchoMachine(const OracleAdversary* oracle)
      : oracle_(oracle) {}

  std::uint32_t num_processes() const override { return kN; }
  void begin_round(std::uint32_t round) override { cur_ = round; }
  void round(ProcessId p, RoundIo<core::Msg>& io) override {
    if (cur_ > 0) {
      bad_[p] += seen(io.inbox()) != oracle_->ref_[p];
      for (const Message<core::Msg>& msg : io.inbox()) {
        bad_[p] += !is_spread_of(msg.payload, msg.from, cur_ - 1);
      }
      checked_[p] += 1;
    }
    io.send_to_all(spread_of(p, cur_), /*include_self=*/p % 2 == 0);
    io.send((p + 1) % kN, spread_of(p, cur_));
    io.send_to_except(list_of(p, kN), p, spread_of(p, cur_));
  }
  bool finished() const override { return cur_ + 1 >= kRounds; }

  std::vector<std::uint32_t> bad_ = std::vector<std::uint32_t>(kN, 0);
  std::vector<std::uint32_t> checked_ = std::vector<std::uint32_t>(kN, 0);

 private:
  const OracleAdversary* oracle_;
  std::uint32_t cur_ = 0;
};

TEST(ReferenceInboxes, SurviveShardedRoundsThroughRunner) {
  for (const unsigned lanes : {1u, 2u, 4u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    OracleAdversary oracle;
    SpreadEchoMachine machine(&oracle);
    rng::Ledger ledger(kN, 1);
    EngineStats stats;
    Runner<core::Msg>::Options opts;
    opts.threads = lanes;
    opts.stats = &stats;
    Runner<core::Msg> runner(kN, 2, &ledger, &oracle, opts);
    const Metrics m = runner.run(machine).metrics;
    EXPECT_GT(m.omitted, 0u);
    EXPECT_EQ(stats.parallel_rounds, lanes > 1 ? stats.rounds : 0u);
    for (ProcessId p = 0; p < kN; ++p) {
      EXPECT_EQ(machine.bad_[p], 0u) << "p" << p;
      EXPECT_EQ(machine.checked_[p], SpreadEchoMachine::kRounds - 1) << p;
    }
  }
}

}  // namespace
}  // namespace omx::sim
