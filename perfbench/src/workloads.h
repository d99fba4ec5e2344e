// The four named benchmark workloads (see perfbench/README.md).
#pragma once

#include <vector>

#include "bench.h"

namespace omxbench {

struct WorkloadDef {
  const char* name;
  /// Engine worker lanes the workload runs with; main() refuses a workload
  /// whose lanes exceed the host's hardware threads.
  unsigned lanes;
  void (*run)(RunContext& ctx, WorkloadResult* result);
};

const std::vector<WorkloadDef>& workloads();

}  // namespace omxbench
