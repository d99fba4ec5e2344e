// The crash-safe sweep runner: verdict taxonomy, retry policy, checkpoint
// resume (including the byte-identity guarantee after an interrupt), config
// serialization/hashing, repro capture, and guarded_main's exit codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/params.h"
#include "farm/shard.h"
#include "harness/sweep.h"
#include "rng/ledger.h"
#include "support/check.h"
#include "support/prng.h"

namespace omx::harness {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Per-test scratch directory under the gtest temp root.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_sweep_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A sub-millisecond trial: FloodSet at toy scale.
ExperimentConfig tiny_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.attack = Attack::None;
  cfg.n = 8;
  cfg.t = 2;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Config serialization, parsing, hashing.

TEST(ConfigSerialization, RoundTripsThroughParse) {
  ExperimentConfig cfg;
  cfg.algo = Algo::Param;
  cfg.attack = Attack::CoinHiding;
  cfg.inputs = InputPattern::Alternating;
  cfg.explicit_inputs = {1, 0, 1, 1, 0, 1, 0, 0};
  cfg.n = 8;
  cfg.t = 3;
  cfg.x = 2;
  cfg.seed = 0xDEADBEEFCAFEull;
  cfg.random_bit_budget = 123456;
  cfg.drop_prob = 0.37;
  cfg.max_rounds = 99;
  cfg.deadline_ms = 1500;
  cfg.params = core::Params::paper();

  ExperimentConfig back;
  std::string err;
  ASSERT_TRUE(parse_config(serialize_config(cfg), &back, &err)) << err;
  // Canonical text equality == field equality for everything serialized.
  EXPECT_EQ(serialize_config(back), serialize_config(cfg));
  EXPECT_EQ(back.explicit_inputs, cfg.explicit_inputs);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_DOUBLE_EQ(back.drop_prob, cfg.drop_prob);
}

TEST(ConfigSerialization, ParseIgnoresCommentsAndRejectsGarbage) {
  ExperimentConfig cfg;
  std::string err;
  EXPECT_TRUE(parse_config("# comment\n\nn=16\nt=3\n", &cfg, &err));
  EXPECT_EQ(cfg.n, 16u);
  EXPECT_EQ(cfg.t, 3u);
  EXPECT_FALSE(parse_config("no equals sign here\n", &cfg, &err));
  EXPECT_FALSE(parse_config("unknown_key=1\n", &cfg, &err));
  EXPECT_FALSE(err.empty());
}

TEST(ConfigSerialization, ParseReportsByteOffsetOfFirstBadLine) {
  ExperimentConfig cfg;
  std::string err;
  std::size_t off = 99;
  EXPECT_TRUE(parse_config("n=16\n", &cfg, &err, &off));

  // Two good lines (13 + 12 bytes including newlines), then debris.
  EXPECT_FALSE(
      parse_config("algo=optimal\nattack=none\nbogus line\n", &cfg, &err, &off));
  EXPECT_EQ(off, 25u);

  // Offsets count raw bytes: CRLF line endings include the CR.
  EXPECT_FALSE(parse_config("algo=optimal\r\nbogus\r\n", &cfg, &err, &off));
  EXPECT_EQ(off, 14u);

  // A bad *value* points at its line, not at the start of the file.
  EXPECT_FALSE(parse_config("n=16\nalgo=quantum\n", &cfg, &err, &off));
  EXPECT_EQ(off, 5u);

  // The offset parameter stays optional for callers that only want yes/no.
  EXPECT_FALSE(parse_config("bogus\n", &cfg, &err));
}

TEST(ConfigHash, IgnoresWorkerLaneCountButNotSeeds) {
  ExperimentConfig a = tiny_config(7);
  ExperimentConfig b = a;
  b.threads = 8;  // bit-identical engine → must not change the key
  EXPECT_EQ(config_key(a), config_key(b));

  b = a;
  b.seed = 8;
  EXPECT_NE(config_key(a), config_key(b));
  EXPECT_EQ(config_key(a).size(), 16u);
}

// The flood paths lost their pair-list representation and round
// pipelining, and the engine its second delivery mode, but checkpoints,
// .repro files and search states written before that must keep their
// keys. Every key below was printed by the code that still had them.
TEST(ConfigHash, KeysOfEarlierCheckpointsStillMatch) {
  ExperimentConfig flood;
  flood.algo = Algo::FloodSet;
  flood.n = 64;
  flood.t = 2;
  flood.seed = 5;
  EXPECT_EQ(config_key(flood), "b5808e791ced17b6");
  flood.packed = true;
  EXPECT_EQ(config_key(flood), "09837482832d5fc8");

  ExperimentConfig benor = flood;
  benor.algo = Algo::BenOr;
  benor.streamed = true;
  EXPECT_EQ(config_key(benor), "31ab444ded58c131");

  ExperimentConfig optimal = flood;
  optimal.algo = Algo::Optimal;
  optimal.packed = false;
  EXPECT_EQ(config_key(optimal), "b23c0991a5bc6b4e");

  // streamed=1 selects nothing now, but keeps its keys: these two were
  // printed by the code that still had two delivery modes (and refused to
  // run either config).
  optimal.streamed = true;
  EXPECT_EQ(config_key(optimal), "d33252e09f973f49");
  ExperimentConfig param = optimal;
  param.algo = Algo::Param;
  EXPECT_EQ(config_key(param), "67f40970e677a80c");
}

TEST(ConfigSerialization, AcceptsPackedAndRemovedPipelineLines) {
  // Pipelined trials were serialized with a pipeline=1 line.
  ExperimentConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_config(
      "algo=floodset\nn=64\nt=2\nseed=5\npacked=1\npipeline=1\n", &cfg,
      &err))
      << err;
  EXPECT_TRUE(cfg.packed);
  EXPECT_EQ(config_key(cfg), "09837482832d5fc8");
  EXPECT_EQ(serialize_config(cfg).find("pipeline"), std::string::npos);
}

TEST(SweepCheckpoint, ResumesAnEarlierPipelinedCheckpointWithoutRerunning) {
  // Checkpointed with packed=1, pipeline=1 and 2 lanes by the code that
  // still had pipelining.
  const fs::path dir = scratch("earlier");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "ckpt.jsonl").string();
  const std::string line =
      R"({"key":"ec5a2b0bc87d583c","verdict":"ok","attempts":1,"seed":1,)"
      R"("time_rounds":4,"rounds":4,"messages":168,"comm_bits":1624,)"
      R"("random_calls":0,"random_bits":0,"omitted":0,"corrupted":0,)"
      R"("operative_end":0,"decision":1,"agreement":true,"validity":true,)"
      R"("all_decided":true,"hit_round_cap":false,"hit_deadline":false,)"
      R"("error":"","repro":""})"
      "\n";
  std::ofstream(opts.checkpoint_path, std::ios::binary) << line;

  Sweep resumed(opts);
  ExperimentConfig cfg = tiny_config(1);
  cfg.packed = true;
  cfg.threads = 2;
  const auto trial = resumed.run(cfg);
  EXPECT_TRUE(trial.from_checkpoint);
  EXPECT_EQ(trial.result.metrics.comm_bits, 1624u);
  EXPECT_EQ(resumed.resumed(), 1u);
  EXPECT_EQ(slurp(opts.checkpoint_path), line);
}

// ---------------------------------------------------------------------------
// Verdict taxonomy through the isolation shell.

TEST(SweepVerdicts, OkTrialKeepsItsResult) {
  Sweep sweep(SweepOptions{});
  const auto trial = sweep.run(tiny_config(1));
  EXPECT_EQ(trial.verdict, Verdict::Ok);
  EXPECT_TRUE(trial.ok());
  EXPECT_TRUE(trial.error.empty());
  EXPECT_GT(trial.result.time_rounds, 0u);
  EXPECT_EQ(sweep.trials(), 1u);
  EXPECT_EQ(sweep.failures(), 0u);
}

TEST(SweepVerdicts, InvalidConfigIsAPreconditionVerdictNotACrash) {
  SweepOptions opts;
  opts.capture_repro = false;
  Sweep sweep(opts);
  auto cfg = tiny_config(1);
  cfg.t = cfg.n;  // violates t < n
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::Precondition);
  EXPECT_FALSE(trial.ok());
  EXPECT_NE(trial.error.find("t < n"), std::string::npos) << trial.error;
  // The poisoned trial's metrics are zeroed, not half-filled.
  EXPECT_EQ(trial.result.time_rounds, 0u);
  EXPECT_EQ(sweep.failures(), 1u);
}

TEST(SweepVerdicts, RoundCapIsItsOwnVerdict) {
  Sweep sweep(SweepOptions{});
  auto cfg = tiny_config(1);
  cfg.t = 4;
  cfg.max_rounds = 2;  // FloodSet needs t+1 > 2 rounds
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::RoundCap);
  EXPECT_TRUE(trial.result.hit_round_cap);
  EXPECT_FALSE(trial.ok());
}

TEST(SweepVerdicts, StalledTrialTimesOutInsteadOfHangingTheSweep) {
  SweepOptions opts;
  opts.trial_deadline_ms = 1;  // far below this workload's runtime
  Sweep sweep(opts);
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.n = 512;  // ~n^2 messages per round for t+1 rounds: >> 1ms
  cfg.t = core::Params::max_t_optimal(cfg.n);
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::Timeout);
  EXPECT_TRUE(trial.result.hit_deadline);
  EXPECT_FALSE(trial.ok());
  EXPECT_EQ(sweep.failures(), 1u);
}

// ---------------------------------------------------------------------------
// Retry policy: transient verdicts re-run with perturbed seeds.

TEST(SweepRetries, TransientVerdictsRetryWithPerturbedSeeds) {
  SweepOptions opts;
  opts.max_attempts = 3;
  Sweep sweep(opts);
  auto cfg = tiny_config(1234);
  cfg.t = 4;
  cfg.max_rounds = 2;  // RoundCap on every attempt
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::RoundCap);
  EXPECT_EQ(trial.attempts, 3u);
  // The recorded attempt's seed is the documented deterministic perturbation.
  EXPECT_EQ(trial.seed_used, mix64(1234, 0x5EED00 + 3));
}

TEST(SweepRetries, FailureVerdictsAreNotRetried) {
  SweepOptions opts;
  opts.max_attempts = 5;
  opts.capture_repro = false;
  Sweep sweep(opts);
  auto cfg = tiny_config(1);
  cfg.t = cfg.n;  // Precondition: deterministic, retrying is pointless
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::Precondition);
  EXPECT_EQ(trial.attempts, 1u);
  EXPECT_EQ(trial.seed_used, 1u);
}

// ---------------------------------------------------------------------------
// Checkpointing and resume.

TEST(SweepCheckpoint, ResumeReplaysRecordedTrialsWithoutRerunning) {
  const fs::path dir = scratch("resume");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "ckpt.jsonl").string();

  std::vector<TrialOutcome> first;
  {
    Sweep sweep(opts);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      first.push_back(sweep.run(tiny_config(s)));
    }
    EXPECT_EQ(sweep.resumed(), 0u);
  }
  const std::string bytes_after_first = slurp(opts.checkpoint_path);
  EXPECT_EQ(std::count(bytes_after_first.begin(), bytes_after_first.end(),
                       '\n'),
            3);

  Sweep resumed(opts);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const auto trial = resumed.run(tiny_config(s));
    EXPECT_TRUE(trial.from_checkpoint);
    EXPECT_EQ(trial.verdict, first[s - 1].verdict);
    EXPECT_EQ(trial.result.time_rounds, first[s - 1].result.time_rounds);
    EXPECT_EQ(trial.result.metrics.comm_bits,
              first[s - 1].result.metrics.comm_bits);
    EXPECT_EQ(trial.result.decision, first[s - 1].result.decision);
  }
  EXPECT_EQ(resumed.trials(), 3u);
  EXPECT_EQ(resumed.resumed(), 3u);
  // Replay must not grow or rewrite the file.
  EXPECT_EQ(slurp(opts.checkpoint_path), bytes_after_first);
}

TEST(SweepCheckpoint, InterruptedSweepResumesToByteIdenticalResults) {
  const fs::path dir = scratch("interrupt");
  const int kTrials = 5;

  // The uninterrupted reference run.
  SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "reference.jsonl").string();
  {
    Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= kTrials; ++s) sweep.run(tiny_config(s));
  }
  const std::string reference = slurp(ref_opts.checkpoint_path);

  // Simulate kill -9 after two trials: keep two complete lines plus a torn
  // fragment of the third (what a mid-write kill leaves at worst).
  std::string torn;
  {
    std::istringstream is(reference);
    std::string line;
    for (int i = 0; i < 2 && std::getline(is, line); ++i) {
      torn += line;
      torn += '\n';
    }
    std::getline(is, line);
    torn += line.substr(0, line.size() / 2);  // no trailing newline
  }
  SweepOptions cut_opts;
  cut_opts.checkpoint_path = (dir / "interrupted.jsonl").string();
  {
    std::ofstream out(cut_opts.checkpoint_path, std::ios::binary);
    out << torn;
  }

  // Resume: the two recorded trials replay, the torn one re-runs.
  Sweep sweep(cut_opts);
  for (std::uint64_t s = 1; s <= kTrials; ++s) sweep.run(tiny_config(s));
  EXPECT_EQ(sweep.resumed(), 2u);
  EXPECT_EQ(sweep.trials(), std::uint64_t{kTrials});

  // The acceptance criterion: the final result table is byte-identical to
  // the uninterrupted run's.
  EXPECT_EQ(slurp(cut_opts.checkpoint_path), reference);
}

TEST(SweepCheckpoint, CheckpointLineRoundTripsAndRejectsTornPrefixes) {
  Sweep sweep{SweepOptions{}};
  const TrialOutcome outcome = sweep.run(tiny_config(3));
  const std::string key = config_key(tiny_config(3));
  const std::string line = checkpoint_line(key, outcome);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  std::string back_key;
  TrialOutcome back;
  ASSERT_TRUE(parse_checkpoint_line(line, &back_key, &back));
  EXPECT_EQ(back_key, key);
  EXPECT_TRUE(back.from_checkpoint);
  EXPECT_EQ(back.verdict, outcome.verdict);
  EXPECT_EQ(back.seed_used, outcome.seed_used);
  EXPECT_EQ(back.result.time_rounds, outcome.result.time_rounds);
  EXPECT_EQ(back.result.metrics.messages, outcome.result.metrics.messages);
  // Canonical: a replayed outcome re-serializes to the identical line (the
  // farm's shard merge and the checkpoint's byte-identity both lean on it).
  EXPECT_EQ(checkpoint_line(back_key, back), line);

  // Every proper prefix is what a kill -9 mid-write can leave behind; none
  // may parse (a half-line must burn the lease, never fake a result).
  for (std::size_t cut = 0; cut < line.size(); cut += 7) {
    EXPECT_FALSE(parse_checkpoint_line(line.substr(0, cut), &back_key, &back))
        << "prefix of length " << cut << " parsed";
  }
}

TEST(SweepCheckpoint, UnicodeEscapesNeedFourHexDigits) {
  // Control bytes in an error message are written as \u00XX and read back
  // exactly; a \u escape whose digits are not hex is a corrupt line, never
  // a silent NUL byte.
  TrialOutcome outcome;
  outcome.error = "bell\x07here";
  const std::string line = checkpoint_line("0123456789abcdef", outcome);
  ASSERT_NE(line.find("\\u0007"), std::string::npos) << line;
  std::string key;
  TrialOutcome back;
  ASSERT_TRUE(parse_checkpoint_line(line, &key, &back));
  EXPECT_EQ(back.error, outcome.error);
  EXPECT_EQ(checkpoint_line(key, back), line);

  for (const char* bad : {"\\uZZZZ", "\\u00g7", "\\u007", "\\ud800"}) {
    std::string corrupt = line;
    corrupt.replace(corrupt.find("\\u0007"), 6, bad);
    EXPECT_FALSE(parse_checkpoint_line(corrupt, &key, &back)) << corrupt;
  }
}

TEST(SweepCheckpoint, TornLineWarningNamesTheFinalLine) {
  // A checkpoint whose *final* line is torn is the expected kill -9
  // artifact; the loader must drop exactly that line, say so, and re-run
  // only the affected trial.
  const fs::path dir = scratch("torn_tail");
  SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  {
    Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 3; ++s) sweep.run(tiny_config(s));
  }
  const std::string reference = slurp(ref_opts.checkpoint_path);

  // Truncate mid-way through the last line (no trailing newline).
  SweepOptions torn_opts;
  torn_opts.checkpoint_path = (dir / "torn.jsonl").string();
  {
    const std::size_t last_nl = reference.find_last_of('\n', reference.size() - 2);
    ASSERT_NE(last_nl, std::string::npos);
    std::ofstream out(torn_opts.checkpoint_path, std::ios::binary);
    out << reference.substr(0, last_nl + 1 + 10);
  }

  Sweep resumed(torn_opts);
  for (std::uint64_t s = 1; s <= 3; ++s) resumed.run(tiny_config(s));
  EXPECT_EQ(resumed.resumed(), 2u);   // the torn third line did not resume
  EXPECT_EQ(resumed.trials(), 3u);
  EXPECT_EQ(slurp(torn_opts.checkpoint_path), reference);
}

TEST(SweepCheckpoint, FinalLineWithoutItsNewlineIsTorn) {
  // A write cut just before the '\n' leaves a line that parses. It is still
  // debris: an append after it would glue two records into one.
  const fs::path dir = scratch("no_newline");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "ckpt.jsonl").string();
  {
    Sweep sweep(opts);
    for (std::uint64_t s = 1; s <= 2; ++s) sweep.run(tiny_config(s));
  }
  const std::string reference = slurp(opts.checkpoint_path);
  std::ofstream(opts.checkpoint_path, std::ios::binary | std::ios::trunc)
      << reference.substr(0, reference.size() - 1);

  Sweep resumed(opts);
  EXPECT_EQ(slurp(opts.checkpoint_path),
            reference.substr(0, reference.find('\n') + 1));  // repaired
  for (std::uint64_t s = 1; s <= 2; ++s) resumed.run(tiny_config(s));
  EXPECT_EQ(resumed.resumed(), 1u);
  EXPECT_EQ(slurp(opts.checkpoint_path), reference);
}

TEST(SweepCheckpoint, DuplicateKeyResolvesLikeTheFarmMerge) {
  // Three different lines for one key. Neither the first nor the last
  // wins: Sweep's resume and the farm's merge both keep the
  // lexicographically smallest, so the two tools agree on the record.
  const fs::path dir = scratch("duplicate");
  const ExperimentConfig cfg = tiny_config(1);
  const std::string key = config_key(cfg);
  const auto line_with_seed = [&](std::uint64_t seed) {
    TrialOutcome o;
    o.seed_used = seed;
    return checkpoint_line(key, o);
  };
  const std::string smallest = line_with_seed(1);
  fs::create_directories(dir / "shards");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "shards" / "ckpt.jsonl").string();
  std::ofstream(opts.checkpoint_path, std::ios::binary)
      << line_with_seed(5) << "\n"
      << smallest << "\n"
      << line_with_seed(9) << "\n";

  Sweep resumed(opts);
  const TrialOutcome trial = resumed.run(cfg);
  EXPECT_TRUE(trial.from_checkpoint);
  EXPECT_EQ(trial.seed_used, 1u);
  EXPECT_EQ(checkpoint_line(key, trial), smallest);

  const farm::ShardScan merged = farm::merge_shards(
      (dir / "shards").string(), (dir / "merged.jsonl").string());
  EXPECT_EQ(merged.duplicate_keys, 2u);
  EXPECT_EQ(slurp(dir / "merged.jsonl"), smallest + "\n");
}

// ---------------------------------------------------------------------------
// Repro capture.

TEST(SweepRepro, ModelViolationsCaptureAReplayableConfig) {
  const fs::path dir = scratch("repro");
  SweepOptions opts;
  opts.repro_dir = (dir / "repro").string();
  Sweep sweep(opts);

  auto cfg = tiny_config(77);
  cfg.t = cfg.n + 3;  // Precondition — a model-violation verdict
  const auto trial = sweep.run(cfg);
  ASSERT_EQ(trial.verdict, Verdict::Precondition);
  ASSERT_FALSE(trial.repro_path.empty());
  EXPECT_EQ(fs::path(trial.repro_path).extension(), ".repro");
  EXPECT_TRUE(fs::exists(trial.repro_path));

  // The capture parses back to the exact offending config.
  ExperimentConfig replayed;
  std::string err;
  ASSERT_TRUE(parse_config(slurp(trial.repro_path), &replayed, &err)) << err;
  EXPECT_EQ(serialize_config(replayed), serialize_config(cfg));
  // And replaying it reproduces the failure class.
  EXPECT_THROW(run_experiment(replayed), PreconditionError);
}

TEST(SweepRepro, OkTrialsCaptureNothing) {
  const fs::path dir = scratch("repro_ok");
  SweepOptions opts;
  opts.repro_dir = (dir / "repro").string();
  Sweep sweep(opts);
  const auto trial = sweep.run(tiny_config(1));
  EXPECT_EQ(trial.verdict, Verdict::Ok);
  EXPECT_TRUE(trial.repro_path.empty());
  EXPECT_FALSE(fs::exists(dir / "repro"));  // not even an empty directory
}

// ---------------------------------------------------------------------------
// Environment-driven defaults and the summary line.

TEST(SweepOptionsEnv, ReadsTheDocumentedVariables) {
  ::setenv("OMX_SWEEP_CHECKPOINT", "ck.jsonl", 1);
  ::setenv("OMX_SWEEP_REPRO_DIR", "rdir", 1);
  ::setenv("OMX_SWEEP_DEADLINE_MS", "2500", 1);
  ::setenv("OMX_SWEEP_RETRIES", "2", 1);
  ::setenv("OMX_SWEEP_NO_REPRO", "1", 1);
  ::setenv("OMX_SWEEP_NO_TRACE", "1", 1);
  const SweepOptions o = SweepOptions::from_env();
  ::unsetenv("OMX_SWEEP_CHECKPOINT");
  ::unsetenv("OMX_SWEEP_REPRO_DIR");
  ::unsetenv("OMX_SWEEP_DEADLINE_MS");
  ::unsetenv("OMX_SWEEP_RETRIES");
  ::unsetenv("OMX_SWEEP_NO_REPRO");
  ::unsetenv("OMX_SWEEP_NO_TRACE");
  EXPECT_EQ(o.checkpoint_path, "ck.jsonl");
  EXPECT_EQ(o.repro_dir, "rdir");
  EXPECT_EQ(o.trial_deadline_ms, 2500u);
  EXPECT_EQ(o.max_attempts, 3u);  // 1 + retries
  EXPECT_FALSE(o.capture_repro);
  EXPECT_FALSE(o.capture_trace);
}

TEST(SweepSummary, QuietWhenAllOkLoudWhenNot) {
  Sweep quiet(SweepOptions{});
  quiet.run(tiny_config(1));
  std::ostringstream os;
  quiet.print_summary(os);
  EXPECT_TRUE(os.str().empty());

  SweepOptions opts;
  opts.capture_repro = false;
  Sweep loud(opts);
  loud.run(tiny_config(1));
  auto bad = tiny_config(2);
  bad.t = bad.n;
  loud.run(bad);
  os.str("");
  loud.print_summary(os);
  EXPECT_NE(os.str().find("1 ok"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("1 precondition"), std::string::npos) << os.str();
}

// ---------------------------------------------------------------------------
// guarded_main: the documented failure-class exit codes.

TEST(GuardedMain, MapsEachFailureClassToItsExitCode) {
  EXPECT_EQ(guarded_main([] { return 0; }), 0);
  EXPECT_EQ(guarded_main([] { return 7; }), 7);
  EXPECT_EQ(guarded_main([]() -> int { throw PreconditionError("p"); }), 2);
  EXPECT_EQ(guarded_main([]() -> int { throw InvariantError("i"); }), 3);
  EXPECT_EQ(guarded_main([]() -> int { throw AdversaryViolation("a"); }), 4);
  EXPECT_EQ(guarded_main([]() -> int { throw rng::BudgetExhausted("b"); }), 3);
  EXPECT_EQ(guarded_main([]() -> int { throw std::runtime_error("r"); }), 3);
  // Corrupt input is its own class (5), even though it is-a
  // PreconditionError so legacy EXPECT_THROW call sites keep passing.
  EXPECT_EQ(guarded_main([]() -> int {
              throw CorruptInputError("f.trace", 7, "bad");
            }),
            5);
}

TEST(GuardedMain, CorruptInputErrorCarriesPathAndOffset) {
  const CorruptInputError e("data/run.trace", 4096, "truncated record");
  EXPECT_EQ(e.path(), "data/run.trace");
  EXPECT_EQ(e.byte_offset(), 4096u);
  const std::string what = e.what();
  EXPECT_NE(what.find("data/run.trace"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 4096"), std::string::npos) << what;
  EXPECT_NE(what.find("truncated record"), std::string::npos) << what;
}

}  // namespace
}  // namespace omx::harness
