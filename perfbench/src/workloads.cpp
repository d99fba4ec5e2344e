#include "workloads.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>

#include "adversary/strategies.h"
#include "advsearch/search.h"
#include "core/optimal_core.h"
#include "core/params.h"
#include "graph/comm_graph.h"
#include "groups/partition.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "layer_tap.h"
#include "rng/ledger.h"
#include "sim/runner.h"
#include "trace/analysis.h"
#include "trace/reader.h"

namespace omxbench {
namespace {

namespace h = omx::harness;
using omx::core::Params;
using omx::sim::EngineStats;

// Trial seeds run consecutively from seed * kSeedStride, so two benchmark
// seeds never share a trial.
constexpr std::uint64_t kSeedStride = 1000;

std::uint64_t trial_seed(const RunContext& ctx, std::uint64_t i) {
  return ctx.seed * kSeedStride + i;
}

// Warm-up trials run at one fixed seed outside every pool: a Ben-Or trial
// takes 3 to 12+ rounds depending on its seed, and set-up time must not.
constexpr std::uint64_t kWarmupSeed = 1;

// Every process runs at least this many timed samples; their outcomes (and
// the warm-up's) form the digest, so it does not depend on machine speed.
constexpr std::uint64_t kDigestSamples = 2;

/// Pool slot of the i-th sample: parts start spread over the pool, so a
/// run's parts between them cover all of it.
std::uint64_t pool_index(const RunContext& ctx, std::uint64_t i,
                         std::uint64_t pool) {
  return (ctx.part * pool / ctx.parts + i) % pool;
}

void fail(WorkloadResult* r, std::string what) {
  if (r->check_failures.size() < 16) {
    r->check_failures.push_back(std::move(what));
  }
}

bool trial_ok(const h::ExperimentResult& res) {
  return res.ok() && !res.hit_round_cap && !res.hit_deadline;
}

std::uint64_t engine_ns(const EngineStats& s) {
  return s.compute_ns + s.adversary_ns + s.delivery_ns + s.fused_ns;
}

/// *into += s, or *into -= s, field by field (lanes missing from *into
/// start at 0).
void stats_accumulate(EngineStats* into, const EngineStats& s,
                      bool subtract) {
  auto acc = [subtract](std::uint64_t* f, std::uint64_t v) {
    *f = subtract ? *f - v : *f + v;
  };
  acc(&into->rounds, s.rounds);
  acc(&into->compute_ns, s.compute_ns);
  acc(&into->adversary_ns, s.adversary_ns);
  acc(&into->delivery_ns, s.delivery_ns);
  acc(&into->stage_ns, s.stage_ns);
  acc(&into->merge_ns, s.merge_ns);
  acc(&into->fused_ns, s.fused_ns);
  if (into->lane_busy_ns.size() < s.lane_busy_ns.size()) {
    into->lane_busy_ns.resize(s.lane_busy_ns.size(), 0);
  }
  for (std::size_t i = 0; i < s.lane_busy_ns.size(); ++i) {
    acc(&into->lane_busy_ns[i], s.lane_busy_ns[i]);
  }
}

/// a - b, field by field.
EngineStats stats_delta(EngineStats a, const EngineStats& b) {
  stats_accumulate(&a, b, true);
  return a;
}

/// Everything the traced run measures; finish_layers turns it into the
/// per-layer metric list (zero where a layer is not used by the workload).
struct LayerReport {
  // Engine phases over the traced trials.
  std::uint64_t trials = 0;
  double wall_s = 0;
  EngineStats engine;
  std::vector<double> traced_round_ms;
  // Algorithm 1 protocol layers (sums over `core_trials` trials).
  LayerCosts core{};
  std::uint64_t core_trials = 0;
  // Shared graph / partition caches, cold.
  double graph_build_s = 0;
  double groups_build_s = 0;
  std::uint64_t graph_builds = 0;
  std::uint64_t groups_builds = 0;
  // Exact counts over the distinct trials.
  std::uint64_t random_bits = 0;
  std::uint64_t random_calls = 0;
  std::uint64_t omitted = 0;
  std::uint64_t corrupted = 0;
  // Sweep checkpoint.
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_write_bytes = 0;
  // Trace files and the search loop.
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_events = 0;
  double trace_read_s = 0;
  std::uint64_t trace_reads = 0;
  double evaluate_s = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t candidates = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t improved = 0;

  /// One traced sample covering `count` trials (candidates, on
  /// advsearch-loop).
  void add_trial(const EngineStats& s, double wall, std::uint64_t count = 1) {
    trials += count;
    wall_s += wall;
    stats_accumulate(&engine, s, false);
    if (s.rounds > 0) {
      traced_round_ms.push_back(1e3 * wall / static_cast<double>(s.rounds));
    }
  }

  /// Sum the exact counters of the ledger's digest trials.
  void add_counts(const OutcomeLedger& ledger) {
    for (const auto& [key, e] : ledger.entries()) {
      if (!e.digest) continue;
      random_calls += e.outcome[3];
      random_bits += e.outcome[4];
      omitted += e.outcome[5];
      corrupted += e.outcome[6];
    }
  }
};

double per(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

void finish_layers(const LayerReport& rep, const std::vector<Sample>& untraced,
                   WorkloadResult* r) {
  auto add = [&](std::string name, double value, const char* unit) {
    r->layers.push_back({std::move(name), value, unit});
  };
  // Untraced timing, per trial (the end-to-end metrics are per round).
  const SampleSummary u = summarize(untraced);
  const double wall = u.wall_s;
  add("trial_s.p50", quantile(u.trial_s, 0.5), "s");
  add("trial_s.p90", quantile(u.trial_s, 0.9), "s");
  add("trials_per_s", wall > 0 ? static_cast<double>(u.trials) / wall : 0,
      "1/s");
  add("cpu_s_per_trial", per(u.cpu_s, u.trials), "s");
  add("msgs_per_s", wall > 0 ? static_cast<double>(u.messages) / wall : 0,
      "1/s");
  add("round_ms.p90", quantile(u.round_ms, 0.9), "ms");
  add("samples", static_cast<double>(u.round_ms.size()), "count");
  add("peak_rss_mb", r->peak_rss_mb, "MB");
  add("tracing.overhead_ms_per_round",
      rep.traced_round_ms.empty()
          ? 0.0
          : quantile(rep.traced_round_ms, 0.5) - quantile(u.round_ms, 0.5),
      "ms");

  const EngineStats& e = rep.engine;
  const double n = static_cast<double>(std::max<std::uint64_t>(rep.trials, 1));
  add("sim.compute_s", 1e-9 * static_cast<double>(e.compute_ns) / n, "s");
  add("sim.stage_s", 1e-9 * static_cast<double>(e.stage_ns) / n, "s");
  add("sim.merge_s", 1e-9 * static_cast<double>(e.merge_ns) / n, "s");
  add("sim.adversary_s", 1e-9 * static_cast<double>(e.adversary_ns) / n, "s");
  add("sim.delivery_s", 1e-9 * static_cast<double>(e.delivery_ns) / n, "s");
  add("sim.rounds", static_cast<double>(e.rounds) / n, "count");
  double busy = 0;
  double busiest = 0;
  for (std::uint64_t b : e.lane_busy_ns) {
    busy += 1e-9 * static_cast<double>(b);
    busiest = std::max(busiest, 1e-9 * static_cast<double>(b));
  }
  add("sim.lane_busy_s", busy / n, "s");
  add("sim.lane_imbalance",
      busy > 0 ? busiest / (busy / static_cast<double>(e.lane_busy_ns.size()))
               : 0.0,
      "ratio");
  const double engine_s = 1e-9 * static_cast<double>(engine_ns(e));
  add("sim.engine_share", rep.wall_s > 0 ? engine_s / rep.wall_s : 0, "ratio");
  add("harness.overhead_s", rep.trials ? (rep.wall_s - engine_s) / n : 0, "s");

  const double ct =
      static_cast<double>(std::max<std::uint64_t>(rep.core_trials, 1));
  for (unsigned l = 0; l < kNumLayers; ++l) {
    const LayerCost& c = rep.core[l];
    const std::string p = std::string("core.") + layer_name(l) + ".";
    add(p + "rounds", static_cast<double>(c.rounds) / ct, "count");
    add(p + "compute_s", 1e-9 * static_cast<double>(c.compute_ns) / ct, "s");
    add(p + "adversary_s", 1e-9 * static_cast<double>(c.adversary_ns) / ct,
        "s");
    add(p + "delivery_s", 1e-9 * static_cast<double>(c.delivery_ns) / ct, "s");
    add(p + "messages", static_cast<double>(c.messages) / ct, "count");
    add(p + "bits", static_cast<double>(c.bits) / ct, "count");
    add(p + "rand_bits", static_cast<double>(c.rand_bits) / ct, "count");
  }

  add("graph.build_s", rep.graph_build_s, "s");
  add("graph.builds", static_cast<double>(rep.graph_builds), "count");
  add("groups.build_s", rep.groups_build_s, "s");
  add("groups.builds", static_cast<double>(rep.groups_builds), "count");
  add("rng.random_bits", static_cast<double>(rep.random_bits), "count");
  add("rng.random_calls", static_cast<double>(rep.random_calls), "count");
  add("adversary.omitted", static_cast<double>(rep.omitted), "count");
  add("adversary.corrupted", static_cast<double>(rep.corrupted), "count");
  add("harness.checkpoint_bytes", static_cast<double>(rep.checkpoint_bytes),
      "bytes");
  add("harness.checkpoint_write_bytes",
      static_cast<double>(rep.checkpoint_write_bytes), "bytes");
  add("trace.bytes", per(static_cast<double>(rep.trace_bytes), rep.trace_reads),
      "bytes");
  add("trace.events",
      per(static_cast<double>(rep.trace_events), rep.trace_reads), "count");
  add("trace.read_s", per(rep.trace_read_s, rep.trace_reads), "s");
  add("advsearch.evaluate_s", per(rep.evaluate_s, rep.evaluations), "s");
  add("advsearch.accept_ratio",
      per(static_cast<double>(rep.accepted), rep.candidates), "ratio");
  add("advsearch.reject_ratio",
      per(static_cast<double>(rep.rejected), rep.candidates), "ratio");
  add("advsearch.improved", static_cast<double>(rep.improved), "count");
}

/// One timed sample: run() under a "trial" span, with its wall and CPU
/// time filled in and the sample appended to r->samples.
template <class Run>
Sample timed_sample(RunContext& ctx, Run&& run, WorkloadResult* r) {
  const int span = ctx.spans.open("trial", ctx.root_span);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  Sample s = run();
  s.wall_s = seconds_between(t0, Clock::now());
  s.cpu_s = process_cpu_s() - cpu0;
  ctx.spans.close(span);
  r->samples.push_back(s);
  return s;
}

/// Closed loop, one client: trial(i) back to back until `seconds` have
/// passed and at least `min_samples` samples ran.
template <class Trial>
void timed_loop(RunContext& ctx, double seconds, std::uint64_t min_samples,
                Trial&& trial, WorkloadResult* r) {
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (i >= min_samples &&
        seconds_between(start, Clock::now()) >= seconds) {
      break;
    }
    timed_sample(ctx, [&] { return trial(i); }, r);
  }
  r->peak_rss_mb = peak_rss_mb();
}

/// One run_experiment trial with its output checks: the consensus verdict,
/// and an exact match with every earlier run of the same key.
Sample experiment_trial(const h::ExperimentConfig& cfg, std::uint64_t key,
                        bool digest, OutcomeLedger* ledger,
                        WorkloadResult* r) {
  Sample s;
  r->attempted += 1;
  try {
    const h::ExperimentResult res = h::run_experiment(cfg);
    bool ok = trial_ok(res);
    if (!ok) {
      fail(r, std::string(h::to_string(cfg.algo)) + " seed " +
                  std::to_string(cfg.seed) + ": consensus verdict not ok");
    }
    ok = ledger->record(key, outcome_of(res.metrics, res.decision), digest,
                        r) &&
         ok;
    if (!ok) r->failed += 1;
    s.rounds = res.metrics.rounds;
    s.messages = res.metrics.messages;
  } catch (const std::exception& e) {
    r->failed += 1;
    fail(r, std::string("trial threw: ") + e.what());
  }
  return s;
}

/// Time the cold shared-cache builds for n (before anything else uses n).
void cold_builds(std::uint32_t n, LayerReport* rep) {
  auto t0 = Clock::now();
  (void)omx::groups::SqrtPartition::shared_for(n);
  auto t1 = Clock::now();
  (void)omx::graph::CommGraph::common_for_shared(
      n, Params::practical().delta(n));
  auto t2 = Clock::now();
  rep->groups_build_s += seconds_between(t0, t1);
  rep->graph_build_s += seconds_between(t1, t2);
}

struct BuildCounters {
  std::uint64_t graph = omx::graph::CommGraph::common_for_shared_builds();
  std::uint64_t groups = omx::groups::SqrtPartition::shared_builds();
  void add_delta(LayerReport* rep) const {
    rep->graph_builds +=
        omx::graph::CommGraph::common_for_shared_builds() - graph;
    rep->groups_builds += omx::groups::SqrtPartition::shared_builds() - groups;
  }
};

double untraced_seconds(const RunContext& ctx) {
  return ctx.traced ? ctx.seconds / 2 : ctx.seconds;
}

// ---------------------------------------------------------------------------
// alg1-coinhiding: Algorithm 1 vs the Theorem-2 coin-hiding adversary.

h::ExperimentConfig alg1_config(std::uint32_t n, std::uint64_t seed) {
  h::ExperimentConfig c;
  c.algo = h::Algo::Optimal;
  c.attack = h::Attack::CoinHiding;
  c.n = n;
  c.t = Params::max_t_optimal(n);
  c.inputs = h::InputPattern::Random;
  c.seed = seed;
  c.threads = 1;
  return c;
}

struct DecoratedRun {
  omx::sim::Metrics metrics;
  std::uint8_t decision = 0;
  bool ok = false;
  LayerCosts costs{};
  LayerSchedule schedule;
  std::array<std::uint64_t, kNumLayers> typed_rounds{};
  std::uint64_t mistyped_rounds = 0;
};

/// run_experiment's Optimal + CoinHiding wiring, with the machine wrapped
/// in a LayerTap.
DecoratedRun run_decorated(const h::ExperimentConfig& cfg, EngineStats* stats,
                           Spans* spans, int parent) {
  const auto inputs = h::make_inputs(cfg.inputs, cfg.n, cfg.seed);
  omx::rng::Ledger ledger(cfg.n, cfg.seed);
  omx::core::OptimalConfig mc;
  mc.params = cfg.params;
  mc.t = cfg.t;
  omx::core::OptimalMachine machine(mc, inputs);
  omx::adversary::CoinHidingAdversary<omx::core::Msg> adversary(&machine,
                                                                &ledger);
  omx::sim::Runner<omx::core::Msg>::Options opts;
  opts.max_rounds = machine.core().scheduled_rounds() + cfg.n + 16;
  opts.stats = stats;
  opts.threads = cfg.threads;
  omx::sim::Runner<omx::core::Msg> runner(cfg.n, cfg.t, &ledger, &adversary,
                                          opts);
  machine.set_fault_view(&runner.faults());
  LayerTap tap(&machine, stats, spans, parent);
  const omx::sim::RunResult rr = runner.run(tap);
  tap.finish();

  DecoratedRun out;
  out.metrics = rr.metrics;
  out.costs = tap.costs();
  out.typed_rounds = tap.typed_rounds();
  out.mistyped_rounds = tap.mistyped_rounds();
  out.schedule = LayerSchedule(machine.core());
  bool any = false;
  bool agree = true;
  bool all_decided = true;
  for (omx::sim::ProcessId p = 0; p < cfg.n; ++p) {
    if (runner.faults().is_corrupted(p)) continue;
    const auto o = machine.core().outcome(p);
    if (!o.decided) {
      all_decided = false;
    } else if (!any) {
      any = true;
      out.decision = o.value;
    } else if (o.value != out.decision) {
      agree = false;
    }
  }
  out.ok = any && agree && all_decided && !rr.hit_round_cap;
  return out;
}

/// One layered trial: the decorated run (times) plus a packed-trace run of
/// the same config (counts), with the three traced-run identities checked.
void layered_trial(RunContext& ctx, const h::ExperimentConfig& cfg,
                   OutcomeLedger* ledger, LayerReport* rep,
                   WorkloadResult* r) {
  const std::string seed = " (seed " + std::to_string(cfg.seed) + ")";
  EngineStats stats;
  const int span = ctx.spans.open("trial.layered", ctx.root_span);
  const auto t0 = Clock::now();
  DecoratedRun dr = run_decorated(cfg, &stats, &ctx.spans, span);
  const double wall = seconds_between(t0, Clock::now());
  ctx.spans.close(span);
  rep->add_trial(stats, wall);
  r->attempted += 1;

  bool ok = dr.ok;
  if (!dr.ok) fail(r, "decorated run: consensus verdict not ok" + seed);
  // Identity 1: the decorator changes nothing observable.
  if (!ledger->record(cfg.seed, outcome_of(dr.metrics, dr.decision), false,
                      r)) {
    fail(r, "decorated Metrics differ from run_experiment" + seed);
    ok = false;
  }
  // Identity 2a: the schedule's layer of every round agrees with the type
  // of the messages that round sent, and both epoch layers were seen.
  if (dr.mistyped_rounds != 0 || dr.typed_rounds[kAgg] == 0 ||
      dr.typed_rounds[kSpread] == 0) {
    fail(r, "round layers disagree with delivered message types (" +
                std::to_string(dr.mistyped_rounds) + " rounds)" + seed);
    ok = false;
  }

  // Per-layer counts from a packed trace of the same config.
  h::ExperimentConfig traced = cfg;
  traced.trace_path = ctx.work_dir + "/alg1.trace";
  traced.trace_packed = true;
  const h::ExperimentResult res = h::run_experiment(traced);
  if (!ledger->record(cfg.seed, outcome_of(res.metrics, res.decision), false,
                      r)) {
    ok = false;
  }
  const auto r0 = Clock::now();
  const omx::trace::TraceData td = omx::trace::read_trace(traced.trace_path);
  rep->trace_read_s += seconds_between(r0, Clock::now());
  rep->trace_reads += 1;
  rep->trace_bytes += td.file_bytes;
  rep->trace_events += td.events.size();
  LayerCosts counts{};
  bill_envelopes(dr.schedule, omx::trace::envelopes(td.events), &counts);
  std::filesystem::remove(traced.trace_path);
  // Identity 2b: the tap billed each layer the rounds the trace recorded
  // for it (engine round boundaries vs the trace's round markers).
  for (unsigned l = 0; l < kNumLayers; ++l) {
    if (counts[l].rounds != dr.costs[l].rounds) {
      fail(r, std::string("tap rounds differ from trace rounds in layer ") +
                  layer_name(l) + seed);
      ok = false;
    }
  }
  // Identity 3: per-layer counts sum exactly to Metrics.
  LayerCost total{};
  for (const LayerCost& c : counts) {
    total.rounds += c.rounds;
    total.messages += c.messages;
    total.bits += c.bits;
    total.rand_bits += c.rand_bits;
    total.rand_calls += c.rand_calls;
    total.omitted += c.omitted;
  }
  const auto& m = dr.metrics;
  if (total.rounds != m.rounds || total.messages != m.messages ||
      total.bits != m.comm_bits ||
      total.rand_bits != m.random_bits ||
      total.rand_calls != m.random_calls || total.omitted != m.omitted) {
    fail(r, "per-layer trace counts do not sum to Metrics" + seed);
    ok = false;
  }
  if (!ok) r->failed += 1;

  for (unsigned l = 0; l < kNumLayers; ++l) {
    LayerCost& c = rep->core[l];
    c.rounds += dr.costs[l].rounds;
    c.compute_ns += dr.costs[l].compute_ns;
    c.adversary_ns += dr.costs[l].adversary_ns;
    c.delivery_ns += dr.costs[l].delivery_ns;
    c.messages += counts[l].messages;
    c.bits += counts[l].bits;
    c.rand_bits += counts[l].rand_bits;
  }
  rep->core_trials += 1;
}

void run_alg1(RunContext& ctx, WorkloadResult* r) {
  const std::uint32_t n = ctx.smoke ? 64 : 512;
  const std::uint64_t pool = ctx.smoke ? 2 : 4;
  const std::uint64_t layered = ctx.smoke ? 1 : 2;
  r->notes.push_back("alg1-coinhiding: optimal vs coin-hiding, n=" +
                     std::to_string(n) + " t=" +
                     std::to_string(Params::max_t_optimal(n)) +
                     ", materialized delivery, seed pool " +
                     std::to_string(pool));
  OutcomeLedger ledger;
  LayerReport rep;

  const int setup = ctx.spans.open("setup", ctx.root_span);
  const auto t0 = Clock::now();
  const BuildCounters builds;
  if (ctx.traced) cold_builds(n, &rep);
  experiment_trial(alg1_config(n, kWarmupSeed), kWarmupSeed, true, &ledger, r);
  builds.add_delta(&rep);
  r->setup_s = seconds_between(t0, Clock::now());
  ctx.spans.close(setup);

  timed_loop(
      ctx, untraced_seconds(ctx), kDigestSamples,
      [&](std::uint64_t i) {
        const std::uint64_t seed = trial_seed(ctx, pool_index(ctx, i, pool));
        return experiment_trial(alg1_config(n, seed), seed,
                                i < kDigestSamples, &ledger, r);
      },
      r);

  if (ctx.traced) {
    for (std::uint64_t k = 0; k < layered; ++k) {
      layered_trial(ctx, alg1_config(n, trial_seed(ctx, k)), &ledger, &rep,
                    r);
    }
    rep.add_counts(ledger);
    finish_layers(rep, r->samples, r);
  }
  ledger.finish(r);
}

// ---------------------------------------------------------------------------
// benor-coinhiding: Ben-Or vs the vote-hiding adversary, packed + streamed,
// two lanes.

h::ExperimentConfig benor_config(std::uint32_t n, std::uint64_t seed) {
  h::ExperimentConfig c;
  c.algo = h::Algo::BenOr;
  c.attack = h::Attack::CoinHiding;
  c.n = n;
  c.t = Params::max_t_optimal(n);
  c.inputs = h::InputPattern::Random;
  c.seed = seed;
  c.threads = 2;
  c.packed = true;
  c.streamed = true;
  return c;
}

void run_benor(RunContext& ctx, WorkloadResult* r) {
  const std::uint32_t n = ctx.smoke ? 128 : 2048;
  const std::uint64_t pool = ctx.smoke ? 2 : 16;
  const std::uint64_t traced_trials = ctx.smoke ? 1 : 4;
  r->notes.push_back("benor-coinhiding: benor vs coin-hiding, n=" +
                     std::to_string(n) + " t=" +
                     std::to_string(Params::max_t_optimal(n)) +
                     ", packed+streamed, 2 lanes, seed pool " +
                     std::to_string(pool));
  OutcomeLedger ledger;
  LayerReport rep;

  const int setup = ctx.spans.open("setup", ctx.root_span);
  const auto t0 = Clock::now();
  experiment_trial(benor_config(n, kWarmupSeed), kWarmupSeed, true, &ledger,
                   r);
  r->setup_s = seconds_between(t0, Clock::now());
  ctx.spans.close(setup);

  timed_loop(
      ctx, untraced_seconds(ctx), kDigestSamples,
      [&](std::uint64_t i) {
        const std::uint64_t seed = trial_seed(ctx, pool_index(ctx, i, pool));
        return experiment_trial(benor_config(n, seed), seed,
                                i < kDigestSamples, &ledger, r);
      },
      r);

  if (ctx.traced) {
    for (std::uint64_t k = 0; k < traced_trials; ++k) {
      EngineStats stats;
      h::ExperimentConfig cfg = benor_config(n, trial_seed(ctx, k));
      cfg.engine_stats = &stats;
      const int span = ctx.spans.open("trial.traced", ctx.root_span);
      const auto t1 = Clock::now();
      experiment_trial(cfg, cfg.seed, false, &ledger, r);
      rep.add_trial(stats, seconds_between(t1, Clock::now()));
      ctx.spans.close(span);
    }
    rep.add_counts(ledger);
    finish_layers(rep, r->samples, r);
  }
  ledger.finish(r);
}

// ---------------------------------------------------------------------------
// sweep-grid: serial harness::Sweep with a JSONL checkpoint over a grid of
// machines x adversary strategies.

struct Cell {
  h::Algo algo;
  std::uint32_t n;
  h::Attack attack;
};

std::vector<Cell> sweep_cells(bool smoke) {
  const std::uint32_t small = smoke ? 32 : 128;
  const std::uint32_t large = smoke ? 64 : 256;
  std::vector<Cell> cells;
  for (const auto& [algo, n] :
       {std::pair{h::Algo::Optimal, small}, std::pair{h::Algo::Param, small},
        std::pair{h::Algo::BenOr, large},
        std::pair{h::Algo::FloodSet, large}}) {
    for (h::Attack a : {h::Attack::StaticCrash, h::Attack::RandomOmission,
                        h::Attack::GroupKiller, h::Attack::Chaos,
                        h::Attack::CoinHiding}) {
      // Coin hiding needs a vote-probing machine; FloodSet has none.
      if (a == h::Attack::CoinHiding && algo == h::Algo::FloodSet) continue;
      cells.push_back({algo, n, a});
    }
  }
  return cells;
}

h::ExperimentConfig cell_config(const Cell& cell, std::uint64_t seed) {
  h::ExperimentConfig c;
  c.algo = cell.algo;
  c.attack = cell.attack;
  c.n = cell.n;
  c.x = 4;
  c.t = cell.algo == h::Algo::Param ? Params::max_t_param(cell.n)
                                    : Params::max_t_optimal(cell.n);
  c.packed = cell.algo == h::Algo::BenOr || cell.algo == h::Algo::FloodSet;
  c.inputs = h::InputPattern::Random;
  c.seed = seed;
  // The Ben-Or cells step on two engine lanes: this is where the lane
  // sharding and the thread pool are measured.
  c.threads = cell.algo == h::Algo::BenOr ? 2 : 1;
  return c;
}

struct SweepPass {
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t wchar = 0;
};

/// One pass: a fresh Sweep with a fresh checkpoint over every cell at
/// seeds first_seed .. first_seed + seeds - 1. `on_trial` wraps each
/// Sweep::run call; the pass ends early once `stop()` says so.
template <class OnTrial, class Stop>
SweepPass sweep_pass(const RunContext& ctx, const std::vector<Cell>& cells,
                     std::uint64_t first_seed, std::uint64_t seeds,
                     bool digest, OutcomeLedger* ledger, WorkloadResult* r,
                     OnTrial&& on_trial, Stop&& stop) {
  h::SweepOptions opts;
  opts.checkpoint_path = ctx.work_dir + "/sweep.jsonl";
  opts.repro_dir = ctx.work_dir + "/repro";
  std::filesystem::remove(opts.checkpoint_path);
  const std::uint64_t w0 = process_wchar();
  SweepPass pass;
  {
    h::Sweep sweep(opts);
    for (std::uint64_t s = 0; s < seeds; ++s) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (stop()) break;
        h::ExperimentConfig cfg = cell_config(cells[c], first_seed + s);
        on_trial(cfg, [&](const h::ExperimentConfig& run_cfg) {
          Sample out;
          r->attempted += 1;
          const h::TrialOutcome o = sweep.run(run_cfg);
          bool ok = o.ok() && !o.from_checkpoint;
          if (!ok) {
            fail(r, std::string("sweep trial ") + h::to_string(cfg.algo) +
                        "/" + h::to_string(cfg.attack) + " seed " +
                        std::to_string(cfg.seed) + ": verdict " +
                        h::to_string(o.verdict) + " " + o.error);
          }
          const std::uint64_t key = (cfg.seed << 8) | c;
          ok = ledger->record(key,
                              outcome_of(o.result.metrics, o.result.decision),
                              digest, r) &&
               ok;
          if (!ok) r->failed += 1;
          out.rounds = o.result.metrics.rounds;
          out.messages = o.result.metrics.messages;
          return out;
        });
      }
    }
  }
  pass.wchar = process_wchar() - w0;
  std::error_code ec;
  pass.checkpoint_bytes = std::filesystem::file_size(opts.checkpoint_path, ec);
  std::filesystem::remove(opts.checkpoint_path);
  return pass;
}

void run_sweep(RunContext& ctx, WorkloadResult* r) {
  const std::vector<Cell> cells = sweep_cells(ctx.smoke);
  const std::uint64_t seeds = ctx.smoke ? 1 : 4;  // per cell per pass
  const std::uint64_t pool = 2;                   // distinct passes
  r->notes.push_back("sweep-grid: " + std::to_string(cells.size()) +
                     " cells (benor on 2 lanes, the rest on 1) x " +
                     std::to_string(seeds) +
                     " seeds per pass, fresh checkpoint per pass, " +
                     std::to_string(pool) + " distinct passes");
  OutcomeLedger ledger;
  LayerReport rep;
  auto plain = [](const h::ExperimentConfig& cfg, auto&& run) {
    return run(cfg);
  };
  auto never = [] { return false; };

  const int setup = ctx.spans.open("setup", ctx.root_span);
  const auto t0 = Clock::now();
  const BuildCounters builds;
  if (ctx.traced) cold_builds(cells.front().n, &rep);
  // Warm-up: every cell once.
  sweep_pass(ctx, cells, kWarmupSeed, 1, true, &ledger, r, plain, never);
  builds.add_delta(&rep);
  r->setup_s = seconds_between(t0, Clock::now());
  ctx.spans.close(setup);

  // The first pass always completes (it is the digest); later passes stop
  // at the first trial boundary past the time limit.
  const auto start = Clock::now();
  auto out_of_time = [&] {
    return seconds_between(start, Clock::now()) >= untraced_seconds(ctx);
  };
  for (std::uint64_t p = 0; p == 0 || !out_of_time(); ++p) {
    const std::uint64_t block = pool_index(ctx, p, pool);
    sweep_pass(ctx, cells, trial_seed(ctx, block * seeds), seeds, p == 0,
               &ledger, r, [&](const h::ExperimentConfig& cfg, auto&& run) {
                 return timed_sample(ctx, [&] { return run(cfg); }, r);
               },
               [&] { return p > 0 && out_of_time(); });
  }
  r->peak_rss_mb = peak_rss_mb();

  if (ctx.traced) {
    const SweepPass pass = sweep_pass(
        ctx, cells, trial_seed(ctx, 0), seeds, false, &ledger, r,
        [&](h::ExperimentConfig cfg, auto&& run) {
          EngineStats stats;
          cfg.engine_stats = &stats;
          const int span = ctx.spans.open("trial.traced", ctx.root_span);
          const auto t1 = Clock::now();
          Sample s = run(cfg);
          rep.add_trial(stats, seconds_between(t1, Clock::now()));
          ctx.spans.close(span);
          return s;
        },
        never);
    rep.checkpoint_bytes = pass.checkpoint_bytes;
    rep.checkpoint_write_bytes = pass.wchar;
    rep.add_counts(ledger);
    finish_layers(rep, r->samples, r);
  }
  ledger.finish(r);
}

// ---------------------------------------------------------------------------
// advsearch-loop: the closed-loop adversary search on FloodSet/rand-omit.

void run_advsearch(RunContext& ctx, WorkloadResult* r) {
  const std::uint32_t n = ctx.smoke ? 32 : 128;
  const std::uint32_t chunk = ctx.smoke ? 4 : 16;   // candidates per sample
  const std::uint64_t pool = ctx.smoke ? 1 : 16;    // seeded searches
  const std::uint64_t traced_chunks = ctx.smoke ? 1 : 4;
  r->notes.push_back("advsearch-loop: floodset vs rand-omit, n=" +
                     std::to_string(n) + ", " + std::to_string(pool) +
                     " searches seeded from the analytic attack, " +
                     std::to_string(chunk) + " candidates per sample");
  OutcomeLedger ledger;
  LayerReport rep;
  // The engine-stats sink rides in the base config into every replay; it
  // supplies the rounds each chunk simulated.
  EngineStats stats;

  const int setup = ctx.spans.open("setup", ctx.root_span);
  const auto t0 = Clock::now();
  std::vector<omx::advsearch::Search> seeded;
  for (std::uint64_t j = 0; j < pool; ++j) {
    h::ExperimentConfig base;
    base.algo = h::Algo::FloodSet;
    base.n = n;
    base.t = Params::max_t_optimal(n);
    base.inputs = h::InputPattern::Random;
    base.seed = trial_seed(ctx, j);
    base.engine_stats = &stats;
    omx::advsearch::SearchOptions opts;
    opts.iterations = chunk;
    opts.seed = base.seed;
    opts.work_dir = ctx.work_dir + "/advsearch";
    seeded.emplace_back(base, opts);
    seeded.back().seed_from_attack(h::Attack::RandomOmission);
  }
  r->setup_s = seconds_between(t0, Clock::now());
  ctx.spans.close(setup);

  // One chunk = a copy of a seeded search run for `chunk` candidates; the
  // same copy always replays the same candidates, so its result is checked
  // against the first run of that search.
  auto run_chunk = [&](std::uint64_t j, bool digest,
                       omx::advsearch::Search* s) {
    Sample out;
    out.trials = chunk;
    const std::uint64_t rounds0 = stats.rounds;
    r->attempted += chunk;
    try {
      s->run();
      out.rounds = stats.rounds - rounds0;
      const auto& best = s->best_score();
      const auto& st = s->stats();
      bool ok = true;
      if (s->baseline_score().better_than(best)) {
        fail(r, "search best is worse than its analytic baseline");
        ok = false;
      }
      ok = ledger.record(j,
                         {best.rounds_to_decide, best.rand_bits,
                          best.delivered, best.all_decided ? 1u : 0u,
                          st.evaluated, st.rejected, st.accepted, st.improved},
                         digest, r) &&
           ok;
      if (!ok) r->failed += chunk;
    } catch (const std::exception& e) {
      r->failed += chunk;
      fail(r, std::string("search threw: ") + e.what());
    }
    return out;
  };
  timed_loop(
      ctx, untraced_seconds(ctx), kDigestSamples,
      [&](std::uint64_t i) {
        const std::uint64_t j = pool_index(ctx, i, pool);
        omx::advsearch::Search s = seeded[j];
        return run_chunk(j, i < kDigestSamples, &s);
      },
      r);

  if (ctx.traced) {
    for (std::uint64_t k = 0; k < traced_chunks; ++k) {
      omx::advsearch::Search s = seeded[k % pool];
      const EngineStats before = stats;
      const int span = ctx.spans.open("trial.traced", ctx.root_span);
      const auto t1 = Clock::now();
      run_chunk(k % pool, false, &s);
      const double wall = seconds_between(t1, Clock::now());
      ctx.spans.close(span);
      rep.add_trial(stats_delta(stats, before), wall, chunk);
      rep.candidates += s.stats().evaluated - 1;  // minus the seeding replay
      rep.accepted += s.stats().accepted;
      rep.rejected += s.stats().rejected;
      rep.improved += s.stats().improved;

      // evaluate(best()) must reproduce best_score().
      omx::advsearch::Score again;
      const auto e0 = Clock::now();
      const bool legal = s.evaluate(s.best(), &again);
      rep.evaluate_s += seconds_between(e0, Clock::now());
      rep.evaluations += 1;
      if (!legal || !(again == s.best_score())) {
        fail(r, "evaluate(best()) does not reproduce best_score()");
      }
      const auto r0 = Clock::now();
      const omx::trace::TraceData td =
          omx::trace::read_trace(s.trace_path("cand"));
      rep.trace_read_s += seconds_between(r0, Clock::now());
      rep.trace_reads += 1;
      rep.trace_bytes += td.file_bytes;
      rep.trace_events += td.events.size();
      const omx::trace::TraceTotals tt = omx::trace::totals(td.events);
      rep.random_bits += tt.random_bits;
      rep.random_calls += tt.random_calls;
      rep.omitted += tt.omitted;
      rep.corrupted += tt.corrupted;
    }
    finish_layers(rep, r->samples, r);
  }
  ledger.finish(r);
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"alg1-coinhiding", 1, run_alg1},
      {"benor-coinhiding", 2, run_benor},
      {"sweep-grid", 2, run_sweep},
      {"advsearch-loop", 1, run_advsearch},
  };
  return defs;
}

}  // namespace omxbench
