// The sweep farm: lease/retry/backoff policy on an injected clock (no
// sleeping), shard scan/repair/merge torn-tail tolerance, and the daemon
// end-to-end — forked local workers, crash and hang chaos via the test
// hooks, resume from shards, status over the default endpoint, and the
// headline contract that a farm's merged output equals a single-process
// Sweep's checkpoint after canonical sort.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "farm/farm.h"
#include "farm/shard.h"
#include "farm/workqueue.h"
#include "harness/sweep.h"
#include "support/check.h"

namespace omx::farm {
namespace {

namespace fs = std::filesystem;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_farm_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A sub-millisecond trial, same as sweep_test's.
harness::ExperimentConfig tiny(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.attack = harness::Attack::None;
  cfg.n = 8;
  cfg.t = 2;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::string> sorted_lines(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Fast, quiet farm defaults for the in-process e2e tests.
FarmOptions fast_opts(const fs::path& dir) {
  FarmOptions o;
  o.dir = dir.string();
  o.workers = 3;
  o.backoff_base_ms = 1;
  o.use_artifact_cache = false;
  o.sweep.capture_repro = false;
  o.sweep.capture_trace = false;
  return o;
}

// ---------------------------------------------------------------------------
// WorkQueue: lease/retry/backoff semantics on an injected clock.

TEST(WorkQueue, LeaseExpiresOnceAndRetriesExactlyPerBudget) {
  std::uint64_t now = 0;
  WorkQueueOptions o;
  o.watchdog_ms = 100;
  o.max_attempts = 2;
  o.backoff_base_ms = 10;
  WorkQueue q(o, [&] { return now; });
  ASSERT_TRUE(q.add("k", tiny(1)));

  const auto idx = q.acquire();
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(q.item(*idx).attempts, 1u);
  EXPECT_EQ(q.item(*idx).lease_deadline_ms, 100u);

  now = 99;
  EXPECT_TRUE(q.expired().empty());
  now = 100;
  EXPECT_EQ(q.expired(), std::vector<std::size_t>{*idx});
  // The watchdog fires once per lease: the daemon fails it once, not in a
  // loop on every pass of its event loop.
  EXPECT_TRUE(q.expired().empty());

  EXPECT_TRUE(q.fail(*idx));  // re-queued: budget allows a second lease
  EXPECT_EQ(q.count(ItemState::Pending), 1u);
  EXPECT_FALSE(q.acquire().has_value());  // backoff gates it
  EXPECT_EQ(q.next_deadline_in(), std::uint64_t{10});

  now = 110;
  const auto again = q.acquire();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(q.item(*again).attempts, 2u);
  EXPECT_EQ(q.retries(), 1u);  // re-leased exactly once

  now = 210;
  EXPECT_EQ(q.expired().size(), 1u);
  EXPECT_FALSE(q.fail(*again));  // budget exhausted
  EXPECT_EQ(q.count(ItemState::Failed), 1u);
  EXPECT_TRUE(q.all_settled());
  EXPECT_EQ(q.retries(), 1u);
}

TEST(WorkQueue, BackoffDoublesUpToTheCap) {
  std::uint64_t now = 0;
  WorkQueueOptions o;
  o.max_attempts = 5;
  o.backoff_base_ms = 100;
  o.backoff_cap_ms = 300;
  WorkQueue q(o, [&] { return now; });
  ASSERT_TRUE(q.add("k", tiny(1)));

  std::vector<std::uint64_t> waits;
  for (int round = 0; round < 4; ++round) {
    const auto idx = q.acquire();
    ASSERT_TRUE(idx.has_value());
    ASSERT_TRUE(q.fail(*idx));
    waits.push_back(q.item(*idx).eligible_at_ms - now);
    now = q.item(*idx).eligible_at_ms;
  }
  EXPECT_EQ(waits, (std::vector<std::uint64_t>{100, 200, 300, 300}));
}

TEST(WorkQueue, RejectsDuplicateKeysAndUnknownResumes) {
  WorkQueue q(WorkQueueOptions{}, [] { return std::uint64_t{0}; });
  EXPECT_TRUE(q.add("k", tiny(1)));
  EXPECT_FALSE(q.add("k", tiny(1)));  // the grid must not double-run a cell
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.mark_done("unknown"));
  EXPECT_TRUE(q.mark_done("k"));
  EXPECT_TRUE(q.all_settled());
}

// ---------------------------------------------------------------------------
// Shards: torn-tail tolerance, repair, canonical merge.

std::string line_for(const std::string& key, std::uint64_t seed) {
  harness::TrialOutcome o;
  o.seed_used = seed;
  return harness::checkpoint_line(key, o);
}

TEST(Shards, ScanDropsTornLinesAndCollapsesDuplicates) {
  const fs::path dir = scratch("scan");
  const std::string a = line_for("aaaa", 1);
  const std::string b = line_for("bbbb", 2);
  {
    std::ofstream s0(dir / "worker-0.jsonl", std::ios::binary);
    s0 << a << "\n" << b.substr(0, b.size() / 2);  // torn tail, no newline
    std::ofstream s1(dir / "worker-1.jsonl", std::ios::binary);
    s1 << b << "\n" << a << "\n";  // b complete here; a duplicated
  }
  const ShardScan scan = scan_shards(dir.string());
  EXPECT_EQ(scan.lines.size(), 2u);
  EXPECT_EQ(scan.lines.at("aaaa"), a);
  EXPECT_EQ(scan.lines.at("bbbb"), b);
  EXPECT_EQ(scan.torn_lines, 1u);
  EXPECT_EQ(scan.duplicate_keys, 1u);
}

TEST(Shards, RepairRewritesTheParseablePrefixAtomically) {
  const fs::path dir = scratch("repair");
  const fs::path shard = dir / "worker-0.jsonl";
  const std::string a = line_for("aaaa", 1);
  const std::string b = line_for("bbbb", 2);
  {
    std::ofstream out(shard, std::ios::binary);
    out << a << "\n" << b.substr(0, 20);
  }
  EXPECT_EQ(repair_shard(shard.string()), 1u);
  {
    std::ifstream in(shard, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(os.str(), a + "\n");  // appends now start on a line boundary
  }
  EXPECT_EQ(repair_shard(shard.string()), 0u);            // already clean
  EXPECT_EQ(repair_shard((dir / "absent.jsonl").string()), 0u);
}

TEST(Shards, MergePublishesCanonicalKeyOrder) {
  const fs::path dir = scratch("merge");
  fs::create_directories(dir / "shards");
  const std::string z = line_for("zzzz", 1);
  const std::string a = line_for("aaaa", 2);
  {
    std::ofstream s0(dir / "shards" / "worker-0.jsonl", std::ios::binary);
    s0 << z << "\n";
    std::ofstream s1(dir / "shards" / "worker-1.jsonl", std::ios::binary);
    s1 << a << "\n";
  }
  const fs::path out = dir / "merged.jsonl";
  merge_shards((dir / "shards").string(), out.string());
  std::ifstream in(out, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), a + "\n" + z + "\n");
}

// ---------------------------------------------------------------------------
// Farm end-to-end (real forked workers; trials are sub-millisecond).

TEST(Farm, MergedOutputEqualsSingleProcessSweep) {
  const fs::path dir = scratch("e2e");

  harness::SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  ref_opts.capture_repro = false;
  {
    harness::Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 6; ++s) sweep.run(tiny(s));
  }

  Farm farm(fast_opts(dir / "farm"));
  for (std::uint64_t s = 1; s <= 6; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  EXPECT_FALSE(farm.add(tiny(1)));  // duplicate cell rejected
  const FarmReport report = farm.run();

  EXPECT_EQ(report.items, 6u);
  EXPECT_EQ(report.done, 6u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.crashed_workers, 0u);
  EXPECT_EQ(report.exit_codes.at(0), 6u);
  EXPECT_TRUE(report.all_ok());

  EXPECT_EQ(sorted_lines(report.merged_path),
            sorted_lines(dir / "ref.jsonl"));
}

TEST(Farm, CrashedWorkerBurnsOnlyItsLeaseAndConvergesByteIdentically) {
  const fs::path dir = scratch("crash");

  harness::SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  ref_opts.capture_repro = false;
  {
    harness::Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 4; ++s) sweep.run(tiny(s));
  }

  // First lease of seed 2's item SIGKILLs itself mid-worker; the retry
  // keeps the ORIGINAL seed, so the merged output still matches the
  // single-process reference byte for byte.
  ::setenv("OMX_FARM_TEST_CRASH_KEY", harness::config_key(tiny(2)).c_str(), 1);
  Farm farm(fast_opts(dir / "farm"));
  for (std::uint64_t s = 1; s <= 4; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  const FarmReport report = farm.run();
  ::unsetenv("OMX_FARM_TEST_CRASH_KEY");

  EXPECT_EQ(report.crashed_workers, 1u);
  EXPECT_EQ(report.watchdog_kills, 0u);
  EXPECT_EQ(report.releases, 1u);  // re-leased exactly once
  EXPECT_EQ(report.done, 4u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(sorted_lines(report.merged_path),
            sorted_lines(dir / "ref.jsonl"));
}

TEST(Farm, HungWorkerIsWatchdogKilledAndExhaustsToASyntheticOutcome) {
  const fs::path dir = scratch("hang");
  const std::string hang_key = harness::config_key(tiny(2));
  ::setenv("OMX_FARM_TEST_HANG_KEY", hang_key.c_str(), 1);

  FarmOptions opts = fast_opts(dir / "farm");
  opts.watchdog_ms = 150;
  opts.max_attempts = 2;
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 3; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  const FarmReport report = farm.run();
  ::unsetenv("OMX_FARM_TEST_HANG_KEY");

  // Hung on both leases: the watchdog killed each, the budget allowed one
  // re-lease, then the daemon recorded a synthetic outcome.
  EXPECT_EQ(report.watchdog_kills, 2u);
  EXPECT_EQ(report.crashed_workers, 0u);
  EXPECT_EQ(report.releases, 1u);
  EXPECT_EQ(report.done, 2u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_FALSE(report.all_ok());

  // Every queued key appears exactly once in the merge — the exhausted one
  // as a timeout-verdict line naming the farm as the cause.
  const auto lines = sorted_lines(report.merged_path);
  ASSERT_EQ(lines.size(), 3u);
  std::size_t hung_seen = 0;
  for (const auto& line : lines) {
    std::string key;
    harness::TrialOutcome out;
    ASSERT_TRUE(harness::parse_checkpoint_line(line, &key, &out)) << line;
    if (key == hang_key) {
      ++hung_seen;
      EXPECT_EQ(out.verdict, harness::Verdict::Timeout);
      EXPECT_EQ(out.attempts, 2u);
      EXPECT_NE(out.error.find("watchdog"), std::string::npos) << out.error;
    } else {
      EXPECT_EQ(out.verdict, harness::Verdict::Ok);
    }
  }
  EXPECT_EQ(hung_seen, 1u);
}

TEST(Farm, ResumesFromShardsAndToleratesTornTails) {
  const fs::path dir = scratch("resume");

  harness::SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  ref_opts.capture_repro = false;
  {
    harness::Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 6; ++s) sweep.run(tiny(s));
  }

  // First daemon "dies" after covering half the grid.
  {
    Farm first(fast_opts(dir / "farm"));
    for (std::uint64_t s = 1; s <= 3; ++s) ASSERT_TRUE(first.add(tiny(s)));
    ASSERT_TRUE(first.run().all_ok());
  }
  // Simulate a worker killed mid-write before the daemon died: torn debris
  // at the tail of a shard.
  {
    std::ofstream shard(dir / "farm" / "shards" / "worker-0.jsonl",
                        std::ios::binary | std::ios::app);
    shard << "{\"key\":\"torn-by-kill-9";
  }

  Farm second(fast_opts(dir / "farm"));
  for (std::uint64_t s = 1; s <= 6; ++s) ASSERT_TRUE(second.add(tiny(s)));
  const FarmReport report = second.run();

  EXPECT_EQ(report.resumed, 3u);  // recorded items did not re-run
  EXPECT_EQ(report.done, 3u);
  EXPECT_GE(report.torn_shard_lines, 1u);  // the debris was repaired away
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(sorted_lines(report.merged_path),
            sorted_lines(dir / "ref.jsonl"));
}

// ---------------------------------------------------------------------------
// Status and results over the daemon's framed endpoint.

/// One framed request to the endpoint `<dir>/endpoint` names; the decoded
/// response, or an empty object while no daemon is up yet.
flat_json::Object query(const fs::path& farm_dir, const std::string& type) {
  std::ifstream in(Farm::endpoint_path_for(farm_dir.string()));
  std::string endpoint;
  if (!std::getline(in, endpoint) || endpoint.empty()) return {};
  auto conn = dial(Endpoint::parse(endpoint));
  flat_json::Object response;
  std::string payload;
  if (conn == nullptr ||
      !conn->send(flat_json::encode({{"type", type}, {"rid", "1"}})) ||
      conn->recv(&payload, 5000) != RecvStatus::Ok ||
      !flat_json::parse(payload, &response)) {
    return {};
  }
  return response;
}

TEST(FarmStatus, ServesStatusAndResultsOverTheDefaultEndpoint) {
  const fs::path dir = scratch("status");
  // The daemon child runs one item that hangs forever (no watchdog), so it
  // stays alive to be queried; the parent SIGKILLs it when done — which is
  // itself a daemon-death the farm design must shrug off.
  ::setenv("OMX_FARM_TEST_HANG_KEY", harness::config_key(tiny(1)).c_str(), 1);
  const pid_t daemon_pid = ::fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    FarmOptions opts = fast_opts(dir / "farm");
    opts.workers = 1;
    Farm farm(opts);
    farm.add(tiny(1));
    farm.run();
    ::_exit(0);
  }
  ::unsetenv("OMX_FARM_TEST_HANG_KEY");

  std::string status;
  for (int i = 0; i < 250 && status.find("\"leased\":1") == std::string::npos;
       ++i) {
    status = flat_json::get(query(dir / "farm", "status"), "json");
    ::usleep(20 * 1000);
  }
  EXPECT_NE(status.find("\"items\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"leased\":1"), std::string::npos) << status;
  // `run`'s default endpoint is the farm directory's own socket.
  EXPECT_NE(status.find("farm.sock"), std::string::npos) << status;

  const auto results = query(dir / "farm", "results");
  EXPECT_EQ(flat_json::get(results, "type"), "results");
  EXPECT_EQ(flat_json::get(results, "lines"), "");  // the only item hangs

  const auto bogus = query(dir / "farm", "frobnicate");
  EXPECT_EQ(flat_json::get(bogus, "type"), "error");
  EXPECT_NE(flat_json::get(bogus, "detail").find("unknown"),
            std::string::npos);

  ::kill(daemon_pid, SIGKILL);
  int ignored = 0;
  ::waitpid(daemon_pid, &ignored, 0);
}

}  // namespace
}  // namespace omx::farm
