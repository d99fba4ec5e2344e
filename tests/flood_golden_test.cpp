// Pinned goldens for the flood-set paths and the doubling gossip.
//
// Both once had a second, pair-list state representation next to the
// word-packed / run-length-coded one, compared live by a test. Every row
// below was captured from the pair-list form before it was deleted, so the
// packed form stays held to that oracle: full Metrics, per-process
// outcomes and the FNV-1a of the trace bytes, at every thread count the
// row is checked at. Harness rows pin per-process outcomes through the
// trace's kDecide records; machine rows also pin a digest of each
// process's final state. Traces are raw except at n=1024, where the packed
// storage format keeps them to a few MB.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/strategies.h"
#include "baselines/ben_or.h"
#include "baselines/doubling_gossip.h"
#include "core/optimal_core.h"
#include "core/param_consensus.h"
#include "core/params.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace omx {
namespace {

namespace fs = std::filesystem;
using harness::Algo;
using harness::Attack;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    bytes(std::string(reinterpret_cast<const char*>(&v), sizeof v));
  }
};

std::uint64_t file_fnv(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_FALSE(os.str().empty()) << path;
  fs::remove(path);
  Fnv f;
  f.bytes(os.str());
  return f.h;
}

/// Per-test trace path: ctest runs the cases of this file concurrently.
fs::path trace_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  const fs::path dir = fs::temp_directory_path() / "omx_flood_golden";
  fs::create_directories(dir);
  return dir / (name + ".trace");
}

struct Pinned {
  std::uint64_t rounds, messages, comm_bits, random_calls, random_bits;
  std::uint32_t corrupted;
  std::uint64_t omitted;
  /// Harness rows: time_rounds. Machine rows: FNV-1a of every process's
  /// final state (see the row helpers).
  std::uint64_t outcome;
  /// Harness rows: decision | agreement << 1 | validity << 2 |
  /// all_decided << 3 | hit_round_cap << 4. Machine rows: 0.
  unsigned verdict;
  /// FNV-1a of the trace file; 0 for an untraced (streamed) run.
  std::uint64_t trace;
  bool operator==(const Pinned&) const = default;
};

/// The row literal as written in the tables below (also what the
/// forced-fallback digests hash).
std::string literal(const Pinned& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%llu, %llu, %llu, %llu, %llu, %u, %llu, %llu, 0x%x, "
                "0x%016llxull}",
                static_cast<unsigned long long>(p.rounds),
                static_cast<unsigned long long>(p.messages),
                static_cast<unsigned long long>(p.comm_bits),
                static_cast<unsigned long long>(p.random_calls),
                static_cast<unsigned long long>(p.random_bits), p.corrupted,
                static_cast<unsigned long long>(p.omitted),
                static_cast<unsigned long long>(p.outcome), p.verdict,
                static_cast<unsigned long long>(p.trace));
  return buf;
}

void PrintTo(const Pinned& p, std::ostream* os) { *os << literal(p); }

Pinned from_metrics(const sim::Metrics& m, std::uint64_t outcome,
                    unsigned verdict) {
  return Pinned{m.rounds,    m.messages,  m.comm_bits, m.random_calls,
                m.random_bits, m.corrupted, m.omitted, outcome,
                verdict,     0};
}

/// One harness run; traced unless streamed or n > 1024.
Pinned run_harness(harness::ExperimentConfig cfg, unsigned threads,
                   bool streamed) {
  cfg.threads = threads;
  cfg.streamed = streamed;
  const bool traced = !streamed && cfg.n <= 1024;
  const fs::path path = trace_path();
  if (traced) {
    cfg.trace_path = path.string();
    cfg.trace_packed = cfg.n > 128;
  }
  const auto r = harness::run_experiment(cfg);
  Pinned p = from_metrics(
      r.metrics, r.time_rounds,
      unsigned{r.decision} | unsigned{r.agreement} << 1 |
          unsigned{r.validity} << 2 | unsigned{r.all_nonfaulty_decided} << 3 |
          unsigned{r.hit_round_cap} << 4);
  if (traced) p.trace = file_fnv(path);
  return p;
}

std::string lower_name(Algo algo, Attack attack) {
  std::string name = std::string(harness::to_string(algo)) + "_" +
                     harness::to_string(attack);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// ---------------------------------------------------------------------------
// FloodSet and Ben-Or through the harness, random inputs, at 1, 2, 4 and 8
// lanes: materialized and traced, then streamed. At n=96 (t=3) and n=64
// (t=2) each round's all-to-all wire clears the engine's parallel grain,
// so sharded delivery and the adversary's bulk scans genuinely engage.

struct HarnessRow {
  Algo algo;
  Attack attack;
  std::uint32_t n, t;
  std::uint64_t seed;
  Pinned want;
};

class HarnessGolden : public ::testing::TestWithParam<HarnessRow> {};

TEST_P(HarnessGolden, MatchesPinnedRow) {
  const HarnessRow& row = GetParam();
  harness::ExperimentConfig cfg;
  cfg.algo = row.algo;
  cfg.attack = row.attack;
  cfg.n = row.n;
  cfg.t = row.t;
  cfg.seed = row.seed;
  Pinned untraced = row.want;
  untraced.trace = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_harness(cfg, threads, false), row.want);
    EXPECT_EQ(run_harness(cfg, threads, true), untraced);
  }
}

const HarnessRow kHarnessRows[] = {
    {Algo::FloodSet, Attack::None, 64, 4, 9,
     {6, 12096, 1568448, 0, 0, 0, 0, 6, 0xe, 0x42784552d3d75952ull}},
    {Algo::FloodSet, Attack::RandomOmission, 64, 4, 9,
     {6, 16128, 1572480, 0, 0, 4, 1569, 6, 0xe, 0x44fed29457fdc4f2ull}},
    {Algo::FloodSet, Attack::None, 1024, 4, 9,
     {6, 3142656, 10732170240, 0, 0, 0, 0, 6, 0xe, 0x0d5a4994ed88c893ull}},
    {Algo::FloodSet, Attack::RandomOmission, 1024, 4, 9,
     {6, 4189185, 10733216769, 0, 0, 4, 26136, 6, 0xe,
      0xccc6f24f8d263ba3ull}},
    {Algo::FloodSet, Attack::None, 96, 3, 3,
     {5, 27360, 5882400, 0, 0, 0, 0, 5, 0xe, 0xf9d355ebd7e59d36ull}},
    {Algo::FloodSet, Attack::RandomOmission, 96, 3, 3,
     {5, 36480, 5891520, 0, 0, 3, 1788, 5, 0xe, 0x5762a222a7661d2aull}},
    {Algo::FloodSet, Attack::StaticCrash, 96, 3, 7,
     {5, 27265, 5758805, 0, 0, 3, 849, 5, 0xf, 0x8a6796cd0cfcb4faull}},
    {Algo::BenOr, Attack::RandomOmission, 96, 3, 5,
     {3, 27552, 36672, 1, 1, 3, 1351, 3, 0xe, 0xf3117e0083bd57f0ull}},
    {Algo::BenOr, Attack::Chaos, 64, 2, 11,
     {3, 12224, 16256, 0, 0, 0, 0, 3, 0xe, 0x42165cb6d587a75dull}},
};

INSTANTIATE_TEST_SUITE_P(
    Pinned, HarnessGolden, ::testing::ValuesIn(kHarnessRows),
    [](const ::testing::TestParamInfo<HarnessRow>& info) {
      const HarnessRow& r = info.param;
      return lower_name(r.algo, r.attack) + "_n" + std::to_string(r.n) +
             "_s" + std::to_string(r.seed);
    });

// n = 4096 has no pinned row (the pair-list oracle took minutes there):
// the run must meet the consensus spec and be invariant across delivery
// mode and thread count.
TEST(FloodScale, N4096InvariantAcrossDeliveryAndThreads) {
  harness::ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.n = 4096;
  cfg.t = 3;
  cfg.seed = 9;
  const Pinned base = run_harness(cfg, 1, false);
  EXPECT_EQ(base.verdict & 0xeu, 0xeu);  // agreement, validity, all decided
  EXPECT_EQ(run_harness(cfg, 8, false), base);
  EXPECT_EQ(run_harness(cfg, 1, true), base);
  EXPECT_EQ(run_harness(cfg, 8, true), base);
}

// ---------------------------------------------------------------------------
// Optimal (Algorithm 1) and Param (Algorithm 4) with the fallback forced:
// one epoch that is far too short, alternating inputs. Each row covers
// four random-bit budgets x three seeds; its digest chains the literal of
// every run. Every run must really reach the fallback.

struct FallbackRow {
  Algo algo;
  Attack attack;
  std::uint32_t n;
  std::uint64_t digest;
};

class FallbackGolden : public ::testing::TestWithParam<FallbackRow> {};

TEST_P(FallbackGolden, EntersFallbackAndMatchesPinnedDigest) {
  const FallbackRow& row = GetParam();
  harness::ExperimentConfig cfg;
  cfg.algo = row.algo;
  cfg.attack = row.attack;
  cfg.n = row.n;
  cfg.t = row.algo == Algo::Param ? core::Params::max_t_param(row.n)
                                  : core::Params::max_t_optimal(row.n);
  cfg.x = 3;
  cfg.inputs = harness::InputPattern::Alternating;
  cfg.params.epoch_factor = 0.01;
  cfg.params.min_epochs = 1;

  std::uint32_t schedule = 0;
  if (row.algo == Algo::Optimal) {
    schedule = core::OptimalCore::schedule_length(cfg.params, cfg.n, cfg.t,
                                                  /*truncated=*/false);
  } else {
    core::ParamConfig pc;
    pc.params = cfg.params;
    pc.t = cfg.t;
    pc.x = cfg.x;
    schedule = core::ParamMachine(pc, harness::make_inputs(cfg.inputs, cfg.n,
                                                           1))
                   .scheduled_rounds();
  }
  const std::uint32_t fallback_start = schedule - (cfg.t + 3);

  Fnv digest;
  std::string runs;
  for (const std::uint64_t budget :
       {rng::kUnlimited, std::uint64_t{0}, std::uint64_t{24},
        std::uint64_t{512}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      cfg.random_bit_budget = budget;
      cfg.seed = seed;
      const Pinned serial = run_harness(cfg, 1, false);
      EXPECT_GT(serial.rounds, fallback_start)
          << "budget=" << budget << " seed=" << seed;
      EXPECT_EQ(run_harness(cfg, 4, false), serial)
          << "budget=" << budget << " seed=" << seed;
      digest.bytes(literal(serial));
      runs += "\n  budget=" + std::to_string(budget) +
              " seed=" + std::to_string(seed) + ": " + literal(serial);
    }
  }
  EXPECT_EQ(digest.h, row.digest) << runs;
}

// t = max_t_param(48) = 0, so no attack can act on Param at n=48: its one
// row stands for all six.
const FallbackRow kFallbackRows[] = {
    {Algo::Optimal, Attack::None, 48, 0xfa57ac57ba8fd4c0ull},
    {Algo::Optimal, Attack::StaticCrash, 48, 0x3bc47ad88d70b678ull},
    {Algo::Optimal, Attack::RandomOmission, 48, 0x4697c825aa2f26e1ull},
    {Algo::Optimal, Attack::SplitBrain, 48, 0x594a694412a1eec0ull},
    {Algo::Optimal, Attack::CoinHiding, 48, 0x755ff02c4a502a40ull},
    {Algo::Optimal, Attack::Chaos, 48, 0x8a69cf9246bab202ull},
    {Algo::Optimal, Attack::None, 96, 0xcd0907a1be41ad8bull},
    {Algo::Optimal, Attack::StaticCrash, 96, 0x30290143fdcc5a30ull},
    {Algo::Optimal, Attack::RandomOmission, 96, 0xdc0a6f8a1842efddull},
    {Algo::Optimal, Attack::SplitBrain, 96, 0x06485f324018b765ull},
    {Algo::Optimal, Attack::CoinHiding, 96, 0x54d465035f3e326aull},
    {Algo::Optimal, Attack::Chaos, 96, 0xe043005506844993ull},
    {Algo::Param, Attack::None, 48, 0x4fe30bca4beb0c44ull},
    {Algo::Param, Attack::None, 96, 0x3a0085d45f6fa910ull},
    {Algo::Param, Attack::StaticCrash, 96, 0x09cac573d2bf4e3full},
    {Algo::Param, Attack::RandomOmission, 96, 0xc3455bd83524b88eull},
    {Algo::Param, Attack::SplitBrain, 96, 0x27c45ae95936e3a5ull},
    {Algo::Param, Attack::CoinHiding, 96, 0x6150f43c6da062d9ull},
    {Algo::Param, Attack::Chaos, 96, 0x4e10adf78c1e4c32ull},
};

INSTANTIATE_TEST_SUITE_P(
    ForcedFallback, FallbackGolden, ::testing::ValuesIn(kFallbackRows),
    [](const ::testing::TestParamInfo<FallbackRow>& info) {
      const FallbackRow& r = info.param;
      return lower_name(r.algo, r.attack) + "_n" + std::to_string(r.n);
    });

// ---------------------------------------------------------------------------
// Machine rows: drive sim::Runner directly, traced, at 1 and 8 lanes.

template <class M>
Pinned run_machine(M& machine, std::uint32_t n, std::uint32_t t,
                   std::uint64_t ledger_seed, sim::Adversary<core::Msg>& adv,
                   unsigned threads) {
  rng::Ledger ledger(n, ledger_seed);
  const fs::path path = trace_path();
  trace::TraceWriter tracer(path.string(), n);
  sim::Runner<core::Msg>::Options opts;
  opts.threads = threads;
  opts.trace = &tracer;
  sim::Runner<core::Msg> runner(n, t, &ledger, &adv, opts);
  machine.set_fault_view(&runner.faults());
  const sim::Metrics m = runner.run(machine).metrics;
  tracer.close();
  Pinned p = from_metrics(m, 0, 0);
  p.trace = file_fnv(path);
  return p;
}

// Ben-Or with a tiny voting cap: every survivor enters the flood-set
// fallback tail.
struct BenOrRow {
  const char* name;
  bool starve;
  Pinned want;
};

class BenOrTailGolden : public ::testing::TestWithParam<BenOrRow> {};

TEST_P(BenOrTailGolden, MatchesPinnedRow) {
  const BenOrRow& row = GetParam();
  const std::uint32_t n = 64, t = 4;
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    baselines::BenOrConfig cfg;
    cfg.t = t;
    cfg.round_cap = 2;
    baselines::BenOrMachine machine(
        cfg, harness::make_inputs(harness::InputPattern::Alternating, n, 1));
    adversary::NullAdversary<core::Msg> none;
    std::vector<sim::ProcessId> victims;
    for (std::uint32_t i = 0; i < t; ++i) victims.push_back(i * 3 + 1);
    adversary::StarveReceiversAdversary<core::Msg> starver(victims);
    sim::Adversary<core::Msg>& adv =
        row.starve ? static_cast<sim::Adversary<core::Msg>&>(starver)
                   : static_cast<sim::Adversary<core::Msg>&>(none);
    Pinned got = run_machine(machine, n, t, 42, adv, threads);
    Fnv f;
    for (sim::ProcessId p = 0; p < n; ++p) {
      const core::MemberOutcome o = machine.outcome(p);
      f.u64(o.decided);
      f.u64(o.has_value);
      f.u64(o.value);
      f.u64(static_cast<std::uint64_t>(o.decision_round));
    }
    got.outcome = f.h;
    EXPECT_EQ(got, row.want);
  }
}

const BenOrRow kBenOrRows[] = {
    {"None", false,
     {8, 20288, 1576640, 128, 128, 0, 0, 0xa092d7eecaa69325ull, 0x0,
      0xacf59cf28bea2112ull}},
    {"Starve", true,
     {3, 11968, 16000, 60, 60, 4, 744, 0xc4690fda8664b525ull, 0x0,
      0x2fc92e2dcceba1d1ull}},
};

INSTANTIATE_TEST_SUITE_P(
    Tail, BenOrTailGolden, ::testing::ValuesIn(kBenOrRows),
    [](const ::testing::TestParamInfo<BenOrRow>& info) {
      return std::string(info.param.name);
    });

// Doubling gossip: fault-free, receive-starved (the §B.3 attack), and
// crashes under crash semantics at the default exchange cap and at 32 (a
// run ends before either cap binds). Random inputs, seed 7; ledger seed 1.
enum class GossipAttack { None, Starve, Crash };

struct GossipRow {
  const char* name;
  std::uint32_t n, t;
  GossipAttack attack;
  std::uint32_t max_exchanges;
  Pinned want;
};

class GossipGolden : public ::testing::TestWithParam<GossipRow> {};

TEST_P(GossipGolden, MatchesPinnedRow) {
  const GossipRow& row = GetParam();
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    baselines::DoublingConfig cfg;
    cfg.t = row.t;
    cfg.max_exchanges = row.max_exchanges;
    baselines::DoublingGossipMachine machine(
        cfg, harness::make_inputs(harness::InputPattern::Random, row.n, 7));
    std::unique_ptr<sim::Adversary<core::Msg>> adv;
    switch (row.attack) {
      case GossipAttack::None:
        adv = std::make_unique<adversary::NullAdversary<core::Msg>>();
        break;
      case GossipAttack::Starve:
        adv = std::make_unique<
            adversary::StarveReceiversAdversary<core::Msg>>(
            std::vector<sim::ProcessId>{3, 9, 11, 40});
        break;
      case GossipAttack::Crash: {
        std::vector<adversary::StaticCrashAdversary<core::Msg>::Crash> crashes;
        for (std::uint32_t i = 0; i < row.t; ++i) {
          crashes.push_back({(i * 37 + 5) % row.n, i * 2});
        }
        adv = std::make_unique<adversary::StaticCrashAdversary<core::Msg>>(
            crashes);
        machine.set_crash_semantics(true);
        break;
      }
    }
    Pinned got = run_machine(machine, row.n, row.t, 1, *adv, threads);
    Fnv f;
    for (sim::ProcessId p = 0; p < row.n; ++p) {
      f.u64(machine.known_of(p));
      f.u64(machine.ones_of(p));
      f.u64(machine.zeros_of(p));
      f.u64(machine.contacts_of(p));
      f.u64(machine.doublings_of(p));
      f.u64(machine.completed(p));
    }
    got.outcome = f.h;
    EXPECT_EQ(got, row.want);
  }
}

const GossipRow kGossipRows[] = {
    {"N64None", 64, 0, GossipAttack::None, 0,
     {11, 7680, 304128, 0, 0, 0, 0, 0x8c8d91c377ddd325ull, 0x0,
      0x4e734720640d4fd5ull}},
    {"N301None", 301, 0, GossipAttack::None, 0,
     {13, 65016, 13610016, 0, 0, 0, 0, 0xf6bc05dc26a7fc5dull, 0x0,
      0x70da89b1071a14f8ull}},
    {"N128Starve", 128, 4, GossipAttack::Starve, 0,
     {13, 24689, 1937851, 0, 0, 4, 2186, 0xfa8f76ac420aa325ull, 0x0,
      0x7f561f828a3f07adull}},
    {"N64CrashDefaultCap", 64, 6, GossipAttack::Crash, 0,
     {11, 7206, 270939, 0, 0, 6, 234, 0x52cdb488c0c77f24ull, 0x0,
      0x2b9a1b43dca4af62ull}},
    {"N64CrashCap32", 64, 6, GossipAttack::Crash, 32,
     {11, 7206, 270939, 0, 0, 6, 234, 0x52cdb488c0c77f24ull, 0x0,
      0x2b9a1b43dca4af62ull}},
    {"N200CrashDefaultCap", 200, 12, GossipAttack::Crash, 0,
     {11, 31360, 4782210, 0, 0, 6, 320, 0x2b6042f7db020530ull, 0x0,
      0x330d673d184e3864ull}},
    {"N200CrashCap32", 200, 12, GossipAttack::Crash, 32,
     {11, 31360, 4782210, 0, 0, 6, 320, 0x2b6042f7db020530ull, 0x0,
      0x330d673d184e3864ull}},
};

INSTANTIATE_TEST_SUITE_P(
    Gossip, GossipGolden, ::testing::ValuesIn(kGossipRows),
    [](const ::testing::TestParamInfo<GossipRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace omx
