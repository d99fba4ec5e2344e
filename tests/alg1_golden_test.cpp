// Pinned goldens for Algorithm 1 (Optimal) and Algorithm 4 (Param) under
// the adversaries that kill links.
//
// Algorithm 3 once kept one `sent` row per (link, group) and sent one
// unicast per live link; it now keeps one row per group and sends one
// multicast to the live neighbors. The two agree only while every live
// link has been sent the same entries, which is exactly what link-killing
// attacks stress. Every row below was captured from the per-link form:
// full Metrics, the run's verdict and the FNV-1a of the trace bytes, at
// 1 and 4 lanes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "core/params.h"
#include "harness/experiment.h"

namespace omx {
namespace {

namespace fs = std::filesystem;
using harness::Algo;
using harness::Attack;

std::uint64_t file_fnv(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_FALSE(os.str().empty()) << path;
  fs::remove(path);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : os.str()) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Per-test trace path: ctest runs the cases of this file concurrently.
fs::path trace_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  const fs::path dir = fs::temp_directory_path() / "omx_alg1_golden";
  fs::create_directories(dir);
  return dir / (name + ".trace");
}

struct Pinned {
  std::uint64_t rounds, messages, comm_bits, random_calls, random_bits;
  std::uint32_t corrupted;
  std::uint64_t omitted, time_rounds;
  /// decision | agreement << 1 | validity << 2 | all_decided << 3 |
  /// hit_round_cap << 4.
  unsigned verdict;
  /// FNV-1a of the (packed) trace file.
  std::uint64_t trace;
  bool operator==(const Pinned&) const = default;
};

void PrintTo(const Pinned& p, std::ostream* os) {
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
                static_cast<unsigned long long>(p.time_rounds), p.verdict,
                static_cast<unsigned long long>(p.trace));
  *os << buf;
}

struct Row {
  Algo algo;
  Attack attack;
  std::uint32_t n;
  std::uint32_t x;  // Param only
  std::uint64_t seed;
  Pinned want;
};

Pinned run_traced(harness::ExperimentConfig cfg, unsigned threads) {
  const fs::path path = trace_path();
  cfg.threads = threads;
  cfg.trace_path = path.string();
  cfg.trace_packed = true;
  const auto r = harness::run_experiment(cfg);
  const auto& m = r.metrics;
  const unsigned verdict =
      unsigned{r.decision} | unsigned{r.agreement} << 1 |
      unsigned{r.validity} << 2 | unsigned{r.all_nonfaulty_decided} << 3 |
      unsigned{r.hit_round_cap} << 4;
  return Pinned{m.rounds,       m.messages,  m.comm_bits,   m.random_calls,
                m.random_bits,  m.corrupted, m.omitted,     r.time_rounds,
                verdict,        file_fnv(path)};
}

class LinkKillingGolden : public ::testing::TestWithParam<Row> {};

TEST_P(LinkKillingGolden, MatchesPinnedRow) {
  const Row& row = GetParam();
  harness::ExperimentConfig cfg;
  cfg.algo = row.algo;
  cfg.attack = row.attack;
  cfg.n = row.n;
  cfg.x = row.x;
  cfg.t = row.algo == Algo::Param ? core::Params::max_t_param(row.n)
                                  : core::Params::max_t_optimal(row.n);
  cfg.inputs = harness::InputPattern::Half;  // vote in the coin band
  cfg.seed = row.seed;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_traced(cfg, threads), row.want);
  }
}

const Row kRows[] = {
    {Algo::Optimal, Attack::CoinHiding, 96, 1, 3,
     {299, 612966, 2991241, 96, 96, 3, 2604, 299, 0xe, 0x75d854eebd7ac9cfull}},
    {Algo::Optimal, Attack::GroupKiller, 96, 1, 3,
     {299, 607985, 2947349, 0, 0, 3, 2885, 299, 0xe, 0x1e5ba8b54fdcaac1ull}},
    {Algo::Optimal, Attack::Chaos, 96, 1, 3,
     {299, 615581, 3030004, 93, 93, 3, 1604, 299, 0xe, 0x7d3a2efdac0dd9acull}},
    {Algo::Optimal, Attack::RandomOmission, 96, 1, 3,
     {299, 614794, 3017512, 93, 93, 3, 2425, 299, 0xe, 0xd5d97c8bb79a6a37ull}},
    {Algo::Optimal, Attack::CoinHiding, 160, 1, 5,
     {362, 1382863, 7719748, 318, 318, 5, 5743, 362, 0xe,
      0x74ac318ef778555eull}},
    {Algo::Optimal, Attack::GroupKiller, 160, 1, 5,
     {362, 1364002, 7479175, 0, 0, 5, 6602, 362, 0xe, 0xa90653af402a55d0ull}},
    {Algo::Optimal, Attack::Chaos, 160, 1, 5,
     {362, 1391000, 7707143, 160, 160, 5, 3548, 362, 0xe,
      0xfc1f22edf2035c06ull}},
    {Algo::Optimal, Attack::RandomOmission, 160, 1, 5,
     {362, 1361314, 7468713, 0, 0, 5, 6954, 362, 0xe, 0x14f0fdf385d004c6ull}},
    {Algo::Param, Attack::GroupKiller, 256, 4, 7,
     {944, 1682474, 5745125, 0, 0, 4, 3695, 944, 0xf, 0x643649816a3137f5ull}},
};

INSTANTIATE_TEST_SUITE_P(
    Pinned, LinkKillingGolden, ::testing::ValuesIn(kRows),
    [](const ::testing::TestParamInfo<Row>& info) {
      const Row& r = info.param;
      std::string name = std::string(harness::to_string(r.algo)) + "_" +
                         harness::to_string(r.attack) + "_n" +
                         std::to_string(r.n);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace omx
