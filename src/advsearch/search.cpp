#include "advsearch/search.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "harness/sweep.h"
#include "support/check.h"
#include "support/durable.h"

namespace omx::advsearch {

namespace {

/// Distinct processes a schedule corrupts, ascending.
std::vector<std::uint32_t> corrupt_set(const adversary::Schedule& s) {
  std::vector<std::uint32_t> ps;
  for (const adversary::ScheduleOp& op : s.ops) {
    if (op.kind == adversary::ScheduleOp::Kind::Corrupt) ps.push_back(op.a);
  }
  std::sort(ps.begin(), ps.end());
  ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
  return ps;
}

std::uint64_t to_u64(const std::string& v) {
  return std::strtoull(v.c_str(), nullptr, 10);
}

}  // namespace

Search::Search(harness::ExperimentConfig base, SearchOptions opts)
    : base_(std::move(base)), opts_(std::move(opts)) {
  base_.attack = harness::Attack::Schedule;
  base_.schedule.clear();
  base_.trace_path.clear();
  std::filesystem::create_directories(opts_.work_dir);
}

std::string Search::trace_path(const std::string& name) const {
  return opts_.work_dir + "/" + name + ".trace";
}

bool Search::evaluate(const adversary::Schedule& s, Score* out,
                      const std::string& trace_name) {
  harness::ExperimentConfig cfg = base_;
  cfg.attack = harness::Attack::Schedule;
  cfg.schedule = s.to_string();
  cfg.trace_path = trace_path(trace_name);
  cfg.trace_packed = true;
  stats_.evaluated += 1;
  try {
    (void)harness::run_experiment(cfg);
  } catch (const AdversaryViolation&) {
    // The firewall spoke: this genome oversteps the omission model.
    // Reject the candidate whole — scoring whatever prefix executed would
    // quietly credit the search with power it does not have.
    stats_.rejected += 1;
    return false;
  }
  *out = score_trace(trace::read_trace(cfg.trace_path));
  return true;
}

void Search::seed_from_attack(harness::Attack attack) {
  baseline_attack_ = harness::to_string(attack);
  harness::ExperimentConfig cfg = base_;
  cfg.attack = attack;
  cfg.schedule.clear();
  cfg.trace_path = trace_path("baseline");
  cfg.trace_packed = true;
  (void)harness::run_experiment(cfg);
  const trace::TraceData baseline_trace = trace::read_trace(cfg.trace_path);
  baseline_score_ = score_trace(baseline_trace);

  // Extraction fidelity check: the schedule written down from the analytic
  // run must replay to the identical score (the engine is deterministic,
  // so anything else means the extraction lost information).
  const adversary::Schedule seeded = extract_schedule(baseline_trace);
  Score replayed;
  OMX_REQUIRE(evaluate(seeded, &replayed, "seeded"),
              "seeded schedule extracted from '" + baseline_attack_ +
                  "' was rejected by the legality firewall");
  OMX_CHECK(replayed == baseline_score_,
            "seeded schedule does not reproduce the analytic score "
            "(analytic: " + baseline_score_.to_string() +
                "; replay: " + replayed.to_string() + ")");

  current_ = seeded;
  best_ = seeded;
  current_score_ = baseline_score_;
  best_score_ = baseline_score_;
  iter_ = 0;
  stats_ = SearchStats{};
  stats_.evaluated = 1;  // the fidelity replay above
  horizon_ = static_cast<std::uint32_t>(baseline_score_.rounds_to_decide) + 2;
}

adversary::Schedule Search::mutate(Xoshiro256& gen) const {
  const std::uint32_t n = base_.n;
  adversary::Schedule s = current_;
  const std::vector<std::uint32_t> corrupts = corrupt_set(current_);
  // A mutation choice can be inapplicable (e.g. nothing to remove); retry a
  // few times, falling back to the unchanged schedule (a wasted but
  // harmless iteration) if nothing applies.
  for (int attempt = 0; attempt < 8; ++attempt) {
    switch (gen.below(6)) {
      case 0: {  // add a drop on a corrupted endpoint
        if (corrupts.empty()) continue;
        const std::uint32_t p =
            corrupts[static_cast<std::size_t>(gen.below(corrupts.size()))];
        const std::uint32_t q = static_cast<std::uint32_t>(gen.below(n));
        if (q == p) continue;
        const bool outgoing = gen.bernoulli(0.5);
        s.ops.push_back({adversary::ScheduleOp::Kind::Drop,
                         static_cast<std::uint32_t>(gen.below(horizon_)),
                         outgoing ? p : q, outgoing ? q : p});
        break;
      }
      case 1: {  // silence a corrupted process for one round
        if (corrupts.empty()) continue;
        s.ops.push_back({adversary::ScheduleOp::Kind::Silence,
                         static_cast<std::uint32_t>(gen.below(horizon_)),
                         corrupts[static_cast<std::size_t>(
                             gen.below(corrupts.size()))],
                         0});
        break;
      }
      case 2: {  // corrupt a fresh process (skip if the budget is full —
                 // that candidate is a certain reject, not worth a replay)
        if (corrupts.size() >= base_.t) continue;
        const std::uint32_t p = static_cast<std::uint32_t>(gen.below(n));
        if (std::binary_search(corrupts.begin(), corrupts.end(), p)) continue;
        s.ops.push_back({adversary::ScheduleOp::Kind::Corrupt,
                         static_cast<std::uint32_t>(gen.below(horizon_)), p,
                         0});
        break;
      }
      case 3: {  // remove one op (removing a corrupt may strand its drops —
                 // the firewall will reject that candidate, honestly)
        if (s.ops.empty()) continue;
        s.ops.erase(s.ops.begin() +
                    static_cast<std::ptrdiff_t>(gen.below(s.ops.size())));
        break;
      }
      case 4: {  // shift one op a round earlier/later
        if (s.ops.empty()) continue;
        adversary::ScheduleOp& op =
            s.ops[static_cast<std::size_t>(gen.below(s.ops.size()))];
        if (gen.bernoulli(0.5)) {
          if (op.round + 1 >= horizon_) continue;
          op.round += 1;
        } else {
          if (op.round == 0) continue;
          op.round -= 1;
        }
        break;
      }
      default: {  // retarget a drop's honest endpoint
        std::vector<std::size_t> drops;
        for (std::size_t i = 0; i < s.ops.size(); ++i) {
          if (s.ops[i].kind == adversary::ScheduleOp::Kind::Drop) {
            drops.push_back(i);
          }
        }
        if (drops.empty()) continue;
        adversary::ScheduleOp& op =
            s.ops[drops[static_cast<std::size_t>(gen.below(drops.size()))]];
        const std::uint32_t q = static_cast<std::uint32_t>(gen.below(n));
        if (q == op.a || q == op.b) continue;
        op.b = q;
        break;
      }
    }
    s.normalize();
    if (!(s == current_)) return s;
    s = current_;
  }
  return s;
}

void Search::run() {
  while (iter_ < opts_.iterations) {
    // Per-iteration generator: iteration i draws the same stream whether
    // this process ran 0..i straight through or resumed from a checkpoint.
    Xoshiro256 gen(mix64(opts_.seed, iter_));
    const adversary::Schedule candidate = mutate(gen);
    Score sc;
    const bool legal = evaluate(candidate, &sc);
    if (legal) {
      const double delta = sc.scalar() - current_score_.scalar();
      const double temp =
          opts_.t0 * std::pow(opts_.alpha, static_cast<double>(iter_));
      const bool accept =
          delta >= 0.0 ||
          (temp > 0.0 && gen.uniform01() < std::exp(delta / temp));
      if (accept) {
        current_ = candidate;
        current_score_ = sc;
        stats_.accepted += 1;
        horizon_ = std::max(
            horizon_,
            static_cast<std::uint32_t>(sc.rounds_to_decide) + 2);
      }
      if (sc.better_than(best_score_)) {
        best_ = candidate;
        best_score_ = sc;
        stats_.improved += 1;
      }
    }
    // iter_ counts *completed* iterations, so a checkpoint written here
    // resumes at exactly the next mutation — mid-search kill -9 replays
    // nothing and skips nothing.
    ++iter_;
    if (!opts_.state_path.empty() && opts_.checkpoint_every != 0 &&
        iter_ % opts_.checkpoint_every == 0) {
      save_state();
    }
  }
  if (!opts_.state_path.empty()) save_state();
}

void Search::save_state() const {
  std::ostringstream out;
  out << "# omxadv search state — resume: omxadv search --state <this>\n";
  out << "baseline_attack=" << baseline_attack_ << "\n";
  out << "baseline_rounds=" << baseline_score_.rounds_to_decide << "\n";
  out << "baseline_rand_bits=" << baseline_score_.rand_bits << "\n";
  out << "baseline_delivered=" << baseline_score_.delivered << "\n";
  out << "baseline_all_decided=" << (baseline_score_.all_decided ? 1 : 0)
      << "\n";
  out << "best=" << best_.to_string() << "\n";
  out << "best_rounds=" << best_score_.rounds_to_decide << "\n";
  out << "best_rand_bits=" << best_score_.rand_bits << "\n";
  out << "best_delivered=" << best_score_.delivered << "\n";
  out << "best_all_decided=" << (best_score_.all_decided ? 1 : 0) << "\n";
  out << "current=" << current_.to_string() << "\n";
  out << "current_rounds=" << current_score_.rounds_to_decide << "\n";
  out << "current_rand_bits=" << current_score_.rand_bits << "\n";
  out << "current_delivered=" << current_score_.delivered << "\n";
  out << "current_all_decided=" << (current_score_.all_decided ? 1 : 0)
      << "\n";
  out << "iter=" << iter_ << "\n";
  out << "horizon=" << horizon_ << "\n";
  out << "search_seed=" << opts_.seed << "\n";
  out << "evaluated=" << stats_.evaluated << "\n";
  out << "rejected=" << stats_.rejected << "\n";
  out << "accepted=" << stats_.accepted << "\n";
  out << "improved=" << stats_.improved << "\n";
  out << "config:\n";
  out << harness::serialize_config(base_);
  OMX_REQUIRE(publish_atomic(opts_.state_path, out.str()),
              "advsearch: cannot publish state file " + opts_.state_path);
}

bool Search::load_state() {
  std::ifstream in(opts_.state_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::size_t line_offset = 0;
  const auto corrupt = [&](const std::string& detail) -> CorruptInputError {
    return CorruptInputError(opts_.state_path, line_offset, detail);
  };
  std::istringstream is(text);
  std::string line;
  std::size_t raw_size = 0;
  bool saw_iter = false;
  for (; std::getline(is, line); line_offset += raw_size + 1) {
    raw_size = line.size();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (line == "config:") {
      // Everything after this marker is a serialize_config body.
      const std::size_t cfg_offset = line_offset + raw_size + 1;
      harness::ExperimentConfig cfg;
      std::string err;
      std::size_t bad = 0;
      if (!harness::parse_config(text.substr(cfg_offset), &cfg, &err, &bad)) {
        line_offset = cfg_offset + bad;
        throw corrupt("bad embedded config: " + err);
      }
      base_ = cfg;
      base_.attack = harness::Attack::Schedule;
      base_.schedule.clear();
      base_.trace_path.clear();
      if (!saw_iter) {
        line_offset = 0;
        throw corrupt("state file has a config but no iter= line");
      }
      return true;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) throw corrupt("bad line: " + line);
    const std::string k = line.substr(0, eq);
    const std::string v = line.substr(eq + 1);
    std::string err;
    if (k == "baseline_attack") {
      baseline_attack_ = v;
    } else if (k == "best" || k == "current") {
      adversary::Schedule s;
      if (!adversary::Schedule::parse(v, &s, &err)) {
        throw corrupt("bad " + k + " schedule: " + err);
      }
      (k == "best" ? best_ : current_) = s;
    } else if (k == "baseline_rounds") {
      baseline_score_.rounds_to_decide = to_u64(v);
    } else if (k == "baseline_rand_bits") {
      baseline_score_.rand_bits = to_u64(v);
    } else if (k == "baseline_delivered") {
      baseline_score_.delivered = to_u64(v);
    } else if (k == "baseline_all_decided") {
      baseline_score_.all_decided = v == "1";
    } else if (k == "best_rounds") {
      best_score_.rounds_to_decide = to_u64(v);
    } else if (k == "best_rand_bits") {
      best_score_.rand_bits = to_u64(v);
    } else if (k == "best_delivered") {
      best_score_.delivered = to_u64(v);
    } else if (k == "best_all_decided") {
      best_score_.all_decided = v == "1";
    } else if (k == "current_rounds") {
      current_score_.rounds_to_decide = to_u64(v);
    } else if (k == "current_rand_bits") {
      current_score_.rand_bits = to_u64(v);
    } else if (k == "current_delivered") {
      current_score_.delivered = to_u64(v);
    } else if (k == "current_all_decided") {
      current_score_.all_decided = v == "1";
    } else if (k == "iter") {
      iter_ = static_cast<std::uint32_t>(to_u64(v));
      saw_iter = true;
    } else if (k == "horizon") {
      horizon_ = static_cast<std::uint32_t>(to_u64(v));
    } else if (k == "search_seed") {
      opts_.seed = to_u64(v);
    } else if (k == "evaluated") {
      stats_.evaluated = to_u64(v);
    } else if (k == "rejected") {
      stats_.rejected = to_u64(v);
    } else if (k == "accepted") {
      stats_.accepted = to_u64(v);
    } else if (k == "improved") {
      stats_.improved = to_u64(v);
    } else {
      throw corrupt("unknown key: " + k);
    }
  }
  line_offset = text.size();
  throw corrupt("state file truncated before its config: section");
}

}  // namespace omx::advsearch
