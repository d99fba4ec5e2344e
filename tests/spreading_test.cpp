// White-box tests of GroupBitsSpreading (Algorithm 3): heartbeat liveness,
// link-death discipline, the forwarded-once amortization of Lemma 2, and
// count propagation through a damaged graph.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "adversary/strategies.h"
#include "core/optimal_core.h"
#include "core/params.h"
#include "groups/partition.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "sim/runner.h"

namespace omx::core {
namespace {

TEST(Spreading, FaultFreeRunKillsNoLinks) {
  const std::uint32_t n = 200;
  OptimalConfig cfg;
  cfg.t = 0;
  auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 1);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);
  adversary::NullAdversary<Msg> adv;
  sim::Runner<Msg> runner(n, 0, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  EXPECT_TRUE(machine.core().dead_links().empty())
      << "heartbeats must keep healthy links alive";
}

TEST(Spreading, DeadLinksAlwaysTouchAFaultyEndpoint) {
  const std::uint32_t n = 200;
  const std::uint32_t t = core::Params::max_t_optimal(n);
  OptimalConfig cfg;
  cfg.t = t;
  auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 2);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 2);
  adversary::RandomOmissionAdversary<Msg> adv(n, t, 0.95, 5);
  sim::Runner<Msg> runner(n, t, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);

  const auto dead = machine.core().dead_links();
  EXPECT_FALSE(dead.empty());  // at 95% drop, some links must die
  for (const auto& [m, q] : dead) {
    // A link can also die because its far end went (transitively)
    // inoperative — but inoperativity itself only arises from faulty
    // endpoints, so check the weaker, sound invariant: never between two
    // processes that are both non-faulty AND still operative.
    const bool both_healthy_operative =
        !runner.faults().is_corrupted(m) && !runner.faults().is_corrupted(q) &&
        machine.core().operative(m) && machine.core().operative(q);
    EXPECT_FALSE(both_healthy_operative)
        << "live healthy link was killed: " << m << " -> " << q;
  }
}

/// Counts SpreadEntry occurrences per (sender, receiver, group) per epoch,
/// after letting an optional inner adversary act on the round. Also counts
/// the senders whose spread fan-out shrank from one round to the next
/// within an epoch: a link died mid-epoch.
class ForwardOnceAuditor final : public sim::Adversary<Msg> {
 public:
  ForwardOnceAuditor(std::uint32_t epoch_rounds,
                     sim::Adversary<Msg>* inner = nullptr)
      : epoch_rounds_(epoch_rounds), inner_(inner) {}

  void intervene(sim::AdversaryContext<Msg>& ctx) override {
    if (inner_ != nullptr) inner_->intervene(ctx);
    const std::uint32_t epoch = ctx.round() / epoch_rounds_;
    std::map<std::uint32_t, std::uint32_t> fanout;
    for (const auto& m : ctx.messages()) {
      const auto* sm = std::get_if<SpreadMsg>(&m.payload);
      if (sm == nullptr) continue;
      ++fanout[m.from];
      for (const auto& e : sm->entries) {
        const auto key = std::make_tuple(epoch, m.from, m.to, e.group);
        violations_ += !seen_.insert(key).second;
      }
    }
    if (ctx.round() == last_round_ + 1 && epoch == last_epoch_) {
      for (const auto& [from, fan] : fanout) {
        const auto it = last_fanout_.find(from);
        shrinks_ += it != last_fanout_.end() && fan < it->second;
      }
    }
    last_round_ = ctx.round();
    last_epoch_ = epoch;
    last_fanout_ = std::move(fanout);
  }

  std::uint64_t violations() const { return violations_; }
  std::uint64_t entries() const { return seen_.size(); }
  std::uint64_t shrinks() const { return shrinks_; }

 private:
  std::uint32_t epoch_rounds_;
  sim::Adversary<Msg>* inner_;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint32_t>> seen_;
  std::uint64_t violations_ = 0;
  std::uint32_t last_round_ = UINT32_MAX - 1;
  std::uint32_t last_epoch_ = UINT32_MAX;
  std::map<std::uint32_t, std::uint32_t> last_fanout_;
  std::uint64_t shrinks_ = 0;
};

TEST(Spreading, EachGroupCountCrossesEachLinkAtMostOncePerEpoch) {
  // Fault-free, then under group-killer: links to the silenced groups die
  // during the spreading rounds, so each process keeps forwarding to a
  // shrinking live set while the dead links' history differs.
  const std::uint32_t n = 144;
  for (const std::uint32_t t : {0u, core::Params::max_t_optimal(n)}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    OptimalConfig cfg;
    cfg.t = t;
    auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 3);
    OptimalMachine machine(cfg, inputs);
    rng::Ledger ledger(n, 3);
    const auto partition = groups::SqrtPartition::shared_for(n);
    std::vector<std::vector<sim::ProcessId>> groups;
    for (std::uint32_t g = 0; g < partition->num_groups(); ++g) {
      const auto members = partition->members(g);
      groups.emplace_back(members.begin(), members.end());
    }
    adversary::GroupKillerAdversary<Msg> killer(std::move(groups));
    ForwardOnceAuditor auditor(machine.core().epoch_rounds(),
                               t > 0 ? &killer : nullptr);
    sim::Runner<Msg> runner(n, t, &ledger, &auditor);
    machine.set_fault_view(&runner.faults());
    runner.run(machine);
    EXPECT_GT(auditor.entries(), 0u);
    EXPECT_EQ(machine.core().dead_links().empty(), t == 0);
    EXPECT_EQ(auditor.shrinks() > 0, t > 0) << "no link died mid-epoch";
    EXPECT_EQ(auditor.violations(), 0u)
        << "Lemma 2 amortization: entries must be forwarded once per link";
  }
}

TEST(Spreading, HeartbeatBitsAreSmall) {
  // The liveness heartbeats must stay within the O(n log² n)-per-epoch
  // budget: measure pure-heartbeat (empty) spread messages.
  const std::uint32_t n = 256;
  OptimalConfig cfg;
  cfg.t = 0;
  auto inputs = harness::make_inputs(harness::InputPattern::AllOne, n, 1);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);

  class HeartbeatCounter final : public sim::Adversary<Msg> {
   public:
    void intervene(sim::AdversaryContext<Msg>& ctx) override {
      for (const auto& m : ctx.messages()) {
        if (const auto* sm = std::get_if<SpreadMsg>(&m.payload)) {
          heartbeat_bits_ += sm->entries.empty() ? sm->bit_size() : 0;
        }
      }
    }
    std::uint64_t heartbeat_bits_ = 0;
  } counter;

  sim::Runner<Msg> runner(n, 0, &ledger, &counter);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  const double logn = 8.0;  // log2(256)
  const double per_epoch = static_cast<double>(counter.heartbeat_bits_) /
                           machine.core().epochs_total();
  // n links of degree Δ = delta_factor·log n, S = spread_factor·log n
  // rounds, 1 bit each -> ~delta_factor·spread_factor·n·log² n per epoch.
  const core::Params params;
  const double constant = params.delta_factor * params.spread_factor * 1.5;
  EXPECT_LT(per_epoch, constant * n * logn * logn);
}

TEST(Spreading, CountsRouteAroundSilencedRegions) {
  // Silence a contiguous block of t processes (whole groups plus change):
  // every remaining operative process must still see every *live* group's
  // counts — the expander routes around the hole (Lemma 6).
  const std::uint32_t n = 225;  // 15 groups of 15
  const std::uint32_t t = core::Params::max_t_optimal(n);  // 7
  OptimalConfig cfg;
  cfg.t = t;
  auto inputs = harness::make_inputs(harness::InputPattern::AllOne, n, 1);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);
  std::vector<adversary::StaticCrashAdversary<Msg>::Crash> schedule;
  for (std::uint32_t i = 0; i < t; ++i) schedule.push_back({i, 0});
  adversary::StaticCrashAdversary<Msg> adv(schedule);
  sim::Runner<Msg> runner(n, t, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);

  for (std::uint32_t p = t; p < n; ++p) {
    if (!machine.core().operative(p)) continue;
    const auto est = machine.core().last_estimate(p);
    ASSERT_TRUE(est.has_value());
    // All n - t live inputs (all ones) are counted.
    EXPECT_GE(est->first, n - t) << p;
    EXPECT_EQ(est->second, 0u) << p;
  }
}

}  // namespace
}  // namespace omx::core
