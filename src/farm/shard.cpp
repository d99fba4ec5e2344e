#include "farm/shard.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "harness/sweep.h"
#include "support/check.h"
#include "support/durable.h"

namespace omx::farm {

namespace fs = std::filesystem;

namespace {

/// Feed every line of one shard into the scan.
void scan_file(const fs::path& path, ShardScan* scan) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    std::string key;
    harness::TrialOutcome outcome;
    if (!harness::parse_checkpoint_line(line, &key, &outcome)) {
      ++scan->torn_lines;
      continue;
    }
    const auto [it, inserted] = scan->lines.emplace(key, line);
    if (!inserted) {
      ++scan->duplicate_keys;
      // Deterministic winner (duplicates are identical for a deterministic
      // engine; smallest-line keeps the merge canonical even if not).
      if (line < it->second) it->second = line;
    }
  }
}

bool is_shard(const fs::directory_entry& e) {
  return e.is_regular_file() && e.path().extension() == ".jsonl";
}

}  // namespace

ShardScan scan_shards(const std::string& shard_dir) {
  ShardScan scan;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
    if (is_shard(entry)) scan_file(entry.path(), &scan);
  }
  return scan;
}

std::size_t repair_shard(const std::string& shard_path) {
  std::ifstream in(shard_path, std::ios::binary);
  if (!in) return 0;
  std::string kept;
  std::size_t dropped = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string key;
    harness::TrialOutcome outcome;
    if (harness::parse_checkpoint_line(line, &key, &outcome)) {
      kept += line;
      kept += '\n';
    } else {
      ++dropped;
    }
  }
  in.close();
  if (dropped == 0) return 0;
  OMX_CHECK(publish_atomic(shard_path, kept),
            "shard repair: cannot publish " + shard_path);
  std::fprintf(stderr,
               "farm: shard %s: dropped %zu torn line(s) left by a killed "
               "process — the affected trial(s) re-run\n",
               shard_path.c_str(), dropped);
  return dropped;
}

ShardScan merge_shards(const std::string& shard_dir,
                       const std::string& out_path) {
  ShardScan scan = scan_shards(shard_dir);
  std::string merged;
  for (const auto& [key, line] : scan.lines) {
    merged += line;
    merged += '\n';
  }
  OMX_CHECK(publish_atomic(out_path, merged),
            "merge: cannot publish " + out_path);
  return scan;
}

}  // namespace omx::farm
