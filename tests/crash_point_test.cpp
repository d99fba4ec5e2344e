// A crash at every write boundary of the durable trial log.
//
// This binary links with -Wl,--wrap=write,--wrap=fsync,--wrap=rename, so
// every write(2), fsync(2) and rename(2) the (static) omx libraries make
// goes through the wrappers below. A reference run records the sequence of
// those operations. Then, for every operation k, a forked child repeats
// the run from scratch and _exits at the k-th operation: before it, or, for
// a write, after half of its bytes or after all but its last byte (a torn
// line, and a line cut just before its '\n'). The parent resumes from what
// the child left. At every cut:
//   * the resumed file is byte-identical to the uninterrupted run's;
//   * exactly the records whose write had not completed are re-done;
//   * a checkpoint line that names a .repro names a complete one.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "farm/shard.h"
#include "harness/sweep.h"
#include "support/durable.h"

namespace {

enum class Cut { Before, HalfWritten, AllButLastByte };

struct Op {
  char kind;         // 'w' write, 'f' fsync, 'r' rename
  std::string path;  // the file written or synced, the rename's target
};

bool g_active = false;            // count operations (off while resuming)
std::vector<Op> g_ops;            // operations seen while active
std::size_t g_cut_at = SIZE_MAX;  // index of the operation to crash at
Cut g_cut = Cut::Before;

constexpr int kCutExit = 77;

std::string fd_path(int fd) {
  char buf[4096];
  const std::string link = "/proc/self/fd/" + std::to_string(fd);
  const ssize_t n = ::readlink(link.c_str(), buf, sizeof buf);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

/// Record one operation; true iff the process must crash at it.
bool at_cut(char kind, std::string path) {
  if (!g_active) return false;
  g_ops.push_back({kind, std::move(path)});
  return g_ops.size() - 1 == g_cut_at;
}

}  // namespace

extern "C" {

ssize_t __real_write(int fd, const void* buf, size_t n);
int __real_fsync(int fd);
int __real_rename(const char* from, const char* to);

ssize_t __wrap_write(int fd, const void* buf, size_t n) {
  if (g_active && at_cut('w', fd_path(fd))) {
    if (g_cut == Cut::HalfWritten) __real_write(fd, buf, n / 2);
    if (g_cut == Cut::AllButLastByte && n > 0) __real_write(fd, buf, n - 1);
    ::_exit(kCutExit);
  }
  return __real_write(fd, buf, n);
}

int __wrap_fsync(int fd) {
  if (g_active && at_cut('f', fd_path(fd))) ::_exit(kCutExit);
  return __real_fsync(fd);
}

int __wrap_rename(const char* from, const char* to) {
  if (g_active &&
      at_cut('r', std::filesystem::weakly_canonical(to).string())) {
    ::_exit(kCutExit);
  }
  return __real_rename(from, to);
}

}  // extern "C"

namespace omx {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

fs::path scratch(const std::string& name) {
  const fs::path dir =
      fs::absolute(fs::path(::testing::TempDir()) / ("omx_crash_" + name));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Run `body` with every operation recorded; return the operations.
std::vector<Op> record_ops(const std::function<void()>& body) {
  g_ops.clear();
  g_cut_at = SIZE_MAX;
  g_active = true;
  body();
  g_active = false;
  return g_ops;
}

/// Run `body` in a child that crashes at operation k; false if the child
/// ended any other way.
bool run_cut(const std::function<void()>& body, std::size_t k, Cut cut) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    g_ops.clear();
    g_cut_at = k;
    g_cut = cut;
    g_active = true;
    try {
      body();
    } catch (...) {
    }
    ::_exit(0);  // the cut was never reached
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == kCutExit;
}

/// Writes to `path` that completed before operation k.
std::size_t writes_before(const std::vector<Op>& ops, std::size_t k,
                          const std::string& path) {
  const std::string canonical = fs::weakly_canonical(path).string();
  std::size_t n = 0;
  for (std::size_t i = 0; i < k; ++i) {
    n += ops[i].kind == 'w' && ops[i].path == canonical;
  }
  return n;
}

/// Every (operation, cut) pair of a recorded run.
template <class Visit>
void for_each_cut(const std::vector<Op>& ops, Visit&& visit) {
  for (std::size_t k = 0; k < ops.size(); ++k) {
    visit(k, Cut::Before);
    if (ops[k].kind == 'w') {
      visit(k, Cut::HalfWritten);
      visit(k, Cut::AllButLastByte);
    }
  }
}

std::string describe(const std::vector<Op>& ops, std::size_t k, Cut cut) {
  static const char* names[] = {"before", "half-way through",
                                "one byte short of"};
  return std::string("crash ") + names[static_cast<int>(cut)] + " op " +
         std::to_string(k) + " (" + ops[k].kind + " " + ops[k].path + ")";
}

// ---------------------------------------------------------------------------
// (i) A 3-trial Sweep whose middle trial captures a repro.

harness::ExperimentConfig trial(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.attack = harness::Attack::None;
  cfg.n = 8;
  cfg.t = seed == 2 ? cfg.n + 3 : 2;  // seed 2: a precondition verdict
  cfg.seed = seed;
  return cfg;
}

constexpr std::uint64_t kTrials = 3;

struct SweepRun {
  fs::path dir;
  harness::SweepOptions opts;

  explicit SweepRun(const fs::path& d) : dir(d) {
    opts.checkpoint_path = (dir / "ckpt.jsonl").string();
    opts.repro_dir = (dir / "repro").string();
    opts.capture_trace = false;
  }
  void reset() const {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  /// Run (or resume) the sweep; returns the trials replayed from the file.
  std::uint64_t run() const {
    harness::Sweep sweep(opts);
    for (std::uint64_t s = 1; s <= kTrials; ++s) sweep.run(trial(s));
    return sweep.resumed();
  }
};

TEST(CrashPoint, SweepResumesByteIdenticallyFromEveryCut) {
  const SweepRun run(scratch("sweep"));
  const std::vector<Op> ops = record_ops([&] { run.run(); });
  const std::string reference = slurp(run.opts.checkpoint_path);
  const std::string repro =
      run.opts.repro_dir + "/" + harness::config_key(trial(2)) + ".repro";
  const std::string reference_repro = slurp(repro);
  ASSERT_FALSE(reference_repro.empty());
  // Two operations per appended line, four per published repro.
  ASSERT_EQ(ops.size(), 2 * kTrials + 4);
  ASSERT_EQ(writes_before(ops, ops.size(), run.opts.checkpoint_path),
            kTrials);

  std::size_t cuts = 0;
  for_each_cut(ops, [&](std::size_t k, Cut cut) {
    SCOPED_TRACE(describe(ops, k, cut));
    run.reset();
    ASSERT_TRUE(run_cut([&] { run.run(); }, k, cut));
    ++cuts;

    // What the crash left: every record naming a repro names a whole one.
    harness::TrialLog left;
    harness::read_trial_log(run.opts.checkpoint_path, &left);
    for (const auto& [key, line] : left.lines) {
      std::string parsed_key;
      harness::TrialOutcome o;
      ASSERT_TRUE(harness::parse_checkpoint_line(line, &parsed_key, &o));
      if (!o.repro_path.empty()) {
        EXPECT_EQ(slurp(o.repro_path), reference_repro);
      }
    }

    const std::size_t durable =
        writes_before(ops, k, run.opts.checkpoint_path);
    EXPECT_EQ(run.run(), durable);  // the rest re-ran
    EXPECT_EQ(slurp(run.opts.checkpoint_path), reference);
    EXPECT_EQ(slurp(repro), reference_repro);
  });
  EXPECT_EQ(cuts, ops.size() + 2 * (kTrials + 1));
}

// ---------------------------------------------------------------------------
// (ii) The farm daemon's results shard: repair on resume, then append.

std::string result_line(const std::string& key) {
  harness::TrialOutcome o;
  o.seed_used = key.size();
  o.error = "result of " + key;
  return harness::checkpoint_line(key, o);
}

const std::vector<std::string> kKeys = {"aaaa", "bbbb", "cccc"};

/// What a restarted daemon does with its shards: a repairing scan, then
/// one durable append per result it still lacks. Returns the appends.
std::size_t resume_shard(const fs::path& shards) {
  const farm::ShardScan scan =
      farm::scan_shards(shards.string(), /*repair=*/true);
  std::size_t appended = 0;
  for (const auto& key : kKeys) {
    if (scan.lines.count(key) != 0) continue;
    EXPECT_TRUE(append_line_durably((shards / "results.jsonl").string(),
                                    result_line(key)));
    ++appended;
  }
  return appended;
}

TEST(CrashPoint, FarmShardRepairAndAppendResumeFromEveryCut) {
  const fs::path dir = scratch("shard");
  const fs::path shards = dir / "shards";
  const std::string shard = (shards / "results.jsonl").string();
  // The daemon died mid-append: one result durable, the next one torn.
  const std::string killed =
      result_line(kKeys[0]) + "\n" + result_line(kKeys[1]).substr(0, 30);
  const auto reset = [&] {
    fs::remove_all(shards);
    fs::create_directories(shards);
    std::ofstream(shard, std::ios::binary) << killed;
  };

  reset();
  const std::vector<Op> ops = record_ops([&] { resume_shard(shards); });
  const std::string reference = slurp(shard);
  ASSERT_EQ(reference, result_line(kKeys[0]) + "\n" + result_line(kKeys[1]) +
                           "\n" + result_line(kKeys[2]) + "\n");
  // The repair's publish (write, fsync, rename, directory fsync), then two
  // appends.
  ASSERT_EQ(ops.size(), 4u + 2 * 2);

  for_each_cut(ops, [&](std::size_t k, Cut cut) {
    SCOPED_TRACE(describe(ops, k, cut));
    reset();
    ASSERT_TRUE(run_cut([&] { resume_shard(shards); }, k, cut));
    const std::size_t durable = 1 + writes_before(ops, k, shard);
    EXPECT_EQ(resume_shard(shards), kKeys.size() - durable);
    EXPECT_EQ(slurp(shard), reference);
    EXPECT_EQ(farm::scan_shards(shards.string()).torn_lines, 0u);
  });
}

}  // namespace
}  // namespace omx
