// JSONL result shards and the canonical merge.
//
// Shards hold finished-trial lines in harness::checkpoint_line format (the
// same record a single-process Sweep checkpoints). The daemon is their only
// writer: every accepted result is appended durably to
// `<shards>/results.jsonl`, every retry-exhausted item's synthetic row to
// `<shards>/daemon.jsonl`. Any other `*.jsonl` there (the per-slot
// `worker-<slot>.jsonl` shards older farms wrote) is read the same way, so
// an old farm directory resumes unchanged.
//
//   * a SIGKILL'd daemon leaves at most one torn final line per shard —
//     scan_shards() drops it (that item re-runs), and repair_shard()
//     rewrites the file to its parseable prefix before the next append, so
//     later appends cannot concatenate onto the debris;
//   * every completed trial is already a durable shard line, and a
//     restarted daemon rebuilds its done-set by rescanning the shards —
//     resume is byte-identical because the lines are, and the
//     deterministic engine re-produces any line that was mid-write;
//   * merge_shards() publishes `merged.jsonl` — all lines, deduplicated by
//     config-hash key and sorted canonically (by key), with
//     support/durable.h's publish_atomic. Duplicates are identical for a
//     deterministic engine; the merge keeps the lexicographically smallest
//     so even a pathological divergence merges deterministically.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace omx::farm {

struct ShardScan {
  /// key → full JSONL line, deduplicated, in canonical (key) order.
  std::map<std::string, std::string> lines;
  std::size_t torn_lines = 0;       // unparseable lines dropped
  std::size_t duplicate_keys = 0;   // extra occurrences collapsed
};

/// Parse every `*.jsonl` file under `shard_dir` (missing dir = empty scan).
ShardScan scan_shards(const std::string& shard_dir);

/// Rewrite one shard file keeping only its parseable lines
/// (publish_atomic). No-op if the file is missing or already clean. Returns
/// the number of lines dropped.
std::size_t repair_shard(const std::string& shard_path);

/// Merge all shards into `out_path` (canonical order, deduplicated,
/// publish_atomic). Throws InvariantError on I/O failure — a merge
/// that silently vanished would void the farm's contract.
ShardScan merge_shards(const std::string& shard_dir,
                       const std::string& out_path);

}  // namespace omx::farm
