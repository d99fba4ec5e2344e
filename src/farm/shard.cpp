#include "farm/shard.h"

#include <filesystem>

#include "support/check.h"
#include "support/durable.h"

namespace omx::farm {

namespace fs = std::filesystem;

ShardScan scan_shards(const std::string& shard_dir, bool repair) {
  ShardScan scan;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      harness::read_trial_log(entry.path().string(), &scan, repair);
    }
  }
  return scan;
}

std::size_t repair_shard(const std::string& shard_path) {
  ShardScan scan;
  return harness::read_trial_log(shard_path, &scan, /*repair=*/true);
}

ShardScan merge_shards(const std::string& shard_dir,
                       const std::string& out_path) {
  ShardScan scan = scan_shards(shard_dir);
  OMX_CHECK(publish_atomic(out_path, scan.text()),
            "merge: cannot publish " + out_path);
  return scan;
}

}  // namespace omx::farm
