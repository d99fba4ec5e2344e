// Shared pieces of the omxbench binary: clocks, process counters, the
// in-memory span recorder, and the per-workload result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.h"

namespace omxbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();
/// Peak resident set size of the process, in MiB.
double peak_rss_mb();
/// Bytes the process has passed to write(2) and friends (/proc/self/io).
std::uint64_t process_wchar();

/// In-memory span tree (workload -> setup / trial -> layer segment),
/// written out once when the run ends. Self time = duration minus the time
/// its children cover.
class Spans {
 public:
  int open(std::string name, int parent);
  void close(int id);
  /// JSON array of spans with start/end relative to the first span.
  std::string to_json() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// One timed sample. Usually one trial; on advsearch-loop one
/// Search::run() chunk, whose candidates share the sample evenly.
struct Sample {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t trials = 1;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

/// Totals and per-sample rates over a run's timed samples.
struct SampleSummary {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t trials = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  /// Wall ms per simulated round, one entry per sample that ran rounds.
  std::vector<double> round_ms;
  /// Wall s per trial, one entry per trial (a sample's trials share it).
  std::vector<double> trial_s;
};
SampleSummary summarize(const std::vector<Sample>& samples);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run of a workload hands back to main().
struct WorkloadResult {
  unsigned lanes = 1;
  double setup_s = 0;
  std::vector<Sample> samples;
  /// Peak RSS when the untraced timing ended (before any trace is read).
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that failed (empty = every check passed).
  std::vector<std::string> check_failures;
  /// Per-layer metrics (traced runs only).
  std::vector<Metric> layers;
  /// OutcomeLedger::finish over the digest trials.
  std::uint64_t digest = 0;
  std::uint64_t digest_entries = 0;
  /// Human-readable provenance lines (sizes, sample counts).
  std::vector<std::string> notes;
};

/// Run-wide settings handed to a workload.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  /// This process is part `part` of `parts` (run.py splits a run into
  /// several processes); parts start at different places in the seed pool.
  unsigned part = 0;
  unsigned parts = 1;
  std::string work_dir;
  Spans spans;
  int root_span = -1;
};

/// Remembers each distinct trial's outcome (keyed by a workload-chosen id)
/// so every later repetition of the same seed is checked against the first.
/// Entries recorded with `digest` set (the trials every run of a seed is
/// sure to reach) are folded into the workload digest.
class OutcomeLedger {
 public:
  struct Entry {
    std::vector<std::uint64_t> outcome;
    bool digest = false;
  };

  /// Returns false (and records a failure) when `key` was seen before with
  /// a different outcome vector.
  bool record(std::uint64_t key, const std::vector<std::uint64_t>& outcome,
              bool digest, WorkloadResult* result);
  /// FNV-1a over the digest entries in key order.
  void finish(WorkloadResult* result) const;
  const std::map<std::uint64_t, Entry>& entries() const { return seen_; }

 private:
  std::map<std::uint64_t, Entry> seen_;
};

/// The fields of Metrics the digest covers, plus the decision.
std::vector<std::uint64_t> outcome_of(const omx::sim::Metrics& m,
                                      std::uint8_t decision);

/// p-quantile (0..1) with linear interpolation; 0 for an empty input.
double quantile(std::vector<double> v, double p);

}  // namespace omxbench
