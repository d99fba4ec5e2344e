// omxbench: the benchmark binary behind perfbench/run.py.
//
//   omxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--part <k> --parts <K>] [--smoke] [--work-dir <dir>]
//            [--source <id>]
//
// Runs one named workload (perfbench/README.md) in this process, checks its
// outputs, and prints provenance and metric lines followed by one JSON
// object as the last line of stdout. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the separate traced pass and reports the
// per-layer metrics. run.py splits a --trace 0 run into K processes
// (--part k --parts K), each set up cold and timed for seconds/K, and
// reports the median over the parts. Exit codes: 0 = result printed,
// 2 = bad arguments or a workload this host cannot run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace {

using namespace omxbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "omxbench: %s\n"
               "usage: omxbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--part <k> --parts <K>] [--smoke] "
               "[--work-dir <dir>] [--source <id>]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// End-to-end metrics, normalized per simulated round: a trial's length in
/// rounds depends on its seed (Ben-Or runs 3 to 12+ rounds at n=2048), the
/// cost of a round does not.
std::vector<Metric> end_to_end(const WorkloadResult& r) {
  const SampleSummary s = summarize(r.samples);
  const double rd = static_cast<double>(s.rounds);
  return {
      {"setup_s", r.setup_s, "s"},
      {"round_ms.p50", quantile(s.round_ms, 0.5), "ms"},
      {"rounds_per_s", s.wall_s > 0 ? rd / s.wall_s : 0, "1/s"},
      {"cpu_ms_per_round", s.rounds ? 1e3 * s.cpu_s / rd : 0, "ms"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir = ".bench_build/omxbench/work";
  std::string source = "unknown";
  RunContext ctx;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    try {
      if (a == "--workload") {
        const char* v = value();
        if (!v) return usage("--workload needs a value");
        workload = v;
      } else if (a == "--seed") {
        const char* v = value();
        if (!v) return usage("--seed needs a value");
        ctx.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        const char* v = value();
        if (!v) return usage("--seconds needs a value");
        ctx.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        const char* v = value();
        if (!v) return usage("--trace needs a value");
        trace = std::stoi(v);
      } else if (a == "--work-dir") {
        const char* v = value();
        if (!v) return usage("--work-dir needs a value");
        work_dir = v;
      } else if (a == "--source") {
        const char* v = value();
        if (!v) return usage("--source needs a value");
        source = v;
      } else if (a == "--part") {
        const char* v = value();
        if (!v) return usage("--part needs a value");
        ctx.part = static_cast<unsigned>(std::stoul(v));
      } else if (a == "--parts") {
        const char* v = value();
        if (!v) return usage("--parts needs a value");
        ctx.parts = static_cast<unsigned>(std::stoul(v));
      } else if (a == "--smoke") {
        ctx.smoke = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds and --trace 0|1 are required");
  }
  if (!(ctx.seconds > 0) || ctx.seed == 0 || ctx.seed > (1ull << 40)) {
    return usage("--seconds must be > 0 and --seed in [1, 2^40]");
  }
  if (ctx.parts == 0 || ctx.parts > 64 || ctx.part >= ctx.parts) {
    return usage("--part must be below --parts, and --parts in [1, 64]");
  }
  ctx.traced = trace == 1;

  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : workloads()) {
    if (workload == w.name) def = &w;
  }
  if (def == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  const unsigned hw = omx::support::ThreadPool::hardware_threads();
  if (def->lanes > hw) {
    std::fprintf(stderr,
                 "omxbench: %s needs %u lanes but this host has %u hardware "
                 "threads; refusing to measure an oversubscribed run\n",
                 def->name, def->lanes, hw);
    return 2;
  }

  // A cold set-up: no on-disk artifact may stand in for a graph build.
  ::unsetenv("OMX_ARTIFACT_CACHE");
  ctx.work_dir = work_dir + "/" + def->name;
  std::filesystem::remove_all(ctx.work_dir);
  std::filesystem::create_directories(ctx.work_dir);

  WorkloadResult result;
  result.lanes = def->lanes;
  ctx.root_span = ctx.spans.open(def->name, -1);
  try {
    def->run(ctx, &result);
  } catch (const std::exception& e) {
    result.check_failures.push_back(std::string("workload threw: ") + e.what());
    result.failed = std::max<std::uint64_t>(result.failed, 1);
  }
  ctx.spans.close(ctx.root_span);
  const bool correct = result.check_failures.empty() && result.failed == 0 &&
                       result.attempted > 0;

  std::printf("omxbench workload=%s seed=%llu seconds=%g trace=%d part=%u/%u "
              "smoke=%d\n",
              def->name, static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, trace, ctx.part, ctx.parts, ctx.smoke ? 1 : 0);
  std::printf("host: cpu=\"%s\" hardware_threads=%u lanes=%u\n",
              cpu_model().c_str(), hw, result.lanes);
  std::printf("build: compiler=\"%s\" build_type=%s source=%s\n",
              OMXBENCH_COMPILER, OMXBENCH_BUILD_TYPE, source.c_str());
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  const SampleSummary timed = summarize(result.samples);
  std::printf("timed: %zu samples, %llu trials (round_ms.p50 is over %zu "
              "samples)\n",
              result.samples.size(),
              static_cast<unsigned long long>(timed.trials),
              timed.round_ms.size());
  std::printf("digest: %016llx over %llu distinct trials\n",
              static_cast<unsigned long long>(result.digest),
              static_cast<unsigned long long>(result.digest_entries));
  std::printf("checks: %s (attempted=%llu failed=%llu)\n",
              correct ? "all passed" : "FAILED",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& f : result.check_failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }

  const std::vector<Metric> metrics =
      ctx.traced ? result.layers : end_to_end(result);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const std::string spans_path = work_dir + "/spans-" + def->name + "-part" +
                                 std::to_string(ctx.part) + ".json";
  std::ofstream(spans_path) << ctx.spans.to_json();
  std::printf("spans: %s\n", spans_path.c_str());
  std::filesystem::remove_all(ctx.work_dir);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(result.attempted, 1));
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
