// JSONL result shards and the canonical merge.
//
// Shards hold finished-trial lines in harness::checkpoint_line format (the
// same record a single-process Sweep checkpoints), read by the same reader,
// harness::read_trial_log. The daemon is their only writer: every accepted
// result is appended durably (support::append_line_durably) to
// `<shards>/results.jsonl`, every retry-exhausted item's synthetic row to
// `<shards>/daemon.jsonl`. Any other `*.jsonl` there (the per-slot
// `worker-<slot>.jsonl` shards older farms wrote, or a Sweep checkpoint
// copied in) is read the same way, so an old farm directory resumes
// unchanged.
//
//   * a SIGKILL'd daemon leaves at most one torn final line per shard —
//     the reader drops it (that item re-runs), and a repairing scan
//     rewrites the file to its records before the next append, so later
//     appends cannot concatenate onto the debris;
//   * every completed trial is already a durable shard line, and a
//     restarted daemon rebuilds its done-set by rescanning the shards —
//     resume is byte-identical because the lines are, and the
//     deterministic engine re-produces any line that was mid-write;
//   * merge_shards() publishes `merged.jsonl` — all lines, deduplicated by
//     config-hash key under the reader's rule (the lexicographically
//     smallest line wins) and sorted canonically (by key), with
//     support/durable.h's publish_atomic.
#pragma once

#include <string>

#include "harness/sweep.h"

namespace omx::farm {

using ShardScan = harness::TrialLog;

/// Read every `*.jsonl` file under `shard_dir` (missing dir = empty scan),
/// repairing torn files first when `repair` is set.
ShardScan scan_shards(const std::string& shard_dir, bool repair = false);

/// Rewrite one shard file keeping only its records (publish_atomic).
/// No-op if the file is missing or already clean. Returns the number of
/// lines dropped.
std::size_t repair_shard(const std::string& shard_path);

/// Merge all shards into `out_path` (canonical order, deduplicated,
/// publish_atomic). Throws InvariantError on I/O failure — a merge
/// that silently vanished would void the farm's contract.
ShardScan merge_shards(const std::string& shard_dir,
                       const std::string& out_path);

}  // namespace omx::farm
