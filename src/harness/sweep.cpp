#include "harness/sweep.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rng/ledger.h"
#include "support/check.h"
#include "support/durable.h"
#include "support/flat_json.h"
#include "support/prng.h"
#include "trace/trace.h"

namespace omx::harness {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::RoundCap: return "round_cap";
    case Verdict::Timeout: return "timeout";
    case Verdict::Precondition: return "precondition";
    case Verdict::Invariant: return "invariant";
    case Verdict::AdversaryViolation: return "adversary_violation";
  }
  return "?";
}

namespace {

bool verdict_from_string(const std::string& s, Verdict* out) {
  for (auto v : {Verdict::Ok, Verdict::RoundCap, Verdict::Timeout,
                 Verdict::Precondition, Verdict::Invariant,
                 Verdict::AdversaryViolation}) {
    if (s == to_string(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Shortest decimal that round-trips a double (repro files and hashes must
/// agree bit-for-bit with what parse_config reads back).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t to_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

}  // namespace

/// One checkpoint line: the full TrialOutcome, keyed by config hash. Every
/// field a driver prints must be here, or resume would not be
/// byte-identical with the uninterrupted run.
std::string checkpoint_line(const std::string& key, const TrialOutcome& o) {
  const ExperimentResult& r = o.result;
  std::ostringstream os;
  os << "{\"key\":\"" << key << "\""
     << ",\"verdict\":\"" << to_string(o.verdict) << "\""
     << ",\"attempts\":" << o.attempts
     << ",\"seed\":" << o.seed_used
     << ",\"time_rounds\":" << r.time_rounds
     << ",\"rounds\":" << r.metrics.rounds
     << ",\"messages\":" << r.metrics.messages
     << ",\"comm_bits\":" << r.metrics.comm_bits
     << ",\"random_calls\":" << r.metrics.random_calls
     << ",\"random_bits\":" << r.metrics.random_bits
     << ",\"omitted\":" << r.metrics.omitted
     << ",\"corrupted\":" << r.corrupted
     << ",\"operative_end\":" << r.operative_end
     << ",\"decision\":" << unsigned{r.decision}
     << ",\"agreement\":" << (r.agreement ? "true" : "false")
     << ",\"validity\":" << (r.validity ? "true" : "false")
     << ",\"all_decided\":" << (r.all_nonfaulty_decided ? "true" : "false")
     << ",\"hit_round_cap\":" << (r.hit_round_cap ? "true" : "false")
     << ",\"hit_deadline\":" << (r.hit_deadline ? "true" : "false")
     << ",\"error\":\"" << flat_json::escape(o.error) << "\""
     << ",\"repro\":\"" << flat_json::escape(o.repro_path) << "\"}";
  return os.str();
}

bool parse_checkpoint_line(const std::string& line, std::string* key,
                           TrialOutcome* o) {
  flat_json::Object kv;
  if (!flat_json::parse(line, &kv)) return false;
  const auto need = [&](const char* k, std::string* dst) -> bool {
    const auto it = kv.find(k);
    if (it == kv.end()) return false;
    *dst = it->second;
    return true;
  };
  std::string s;
  if (!need("key", key)) return false;
  if (!need("verdict", &s) || !verdict_from_string(s, &o->verdict))
    return false;
  if (!need("attempts", &s)) return false;
  o->attempts = static_cast<std::uint32_t>(to_u64(s));
  if (!need("seed", &s)) return false;
  o->seed_used = to_u64(s);
  ExperimentResult& r = o->result;
  if (!need("time_rounds", &s)) return false;
  r.time_rounds = to_u64(s);
  if (!need("rounds", &s)) return false;
  r.metrics.rounds = to_u64(s);
  if (!need("messages", &s)) return false;
  r.metrics.messages = to_u64(s);
  if (!need("comm_bits", &s)) return false;
  r.metrics.comm_bits = to_u64(s);
  if (!need("random_calls", &s)) return false;
  r.metrics.random_calls = to_u64(s);
  if (!need("random_bits", &s)) return false;
  r.metrics.random_bits = to_u64(s);
  if (!need("omitted", &s)) return false;
  r.metrics.omitted = to_u64(s);
  if (!need("corrupted", &s)) return false;
  r.corrupted = static_cast<std::uint32_t>(to_u64(s));
  r.metrics.corrupted = r.corrupted;
  if (!need("operative_end", &s)) return false;
  r.operative_end = static_cast<std::uint32_t>(to_u64(s));
  if (!need("decision", &s)) return false;
  r.decision = static_cast<std::uint8_t>(to_u64(s));
  if (!need("agreement", &s)) return false;
  r.agreement = s == "true";
  if (!need("validity", &s)) return false;
  r.validity = s == "true";
  if (!need("all_decided", &s)) return false;
  r.all_nonfaulty_decided = s == "true";
  if (!need("hit_round_cap", &s)) return false;
  r.hit_round_cap = s == "true";
  if (!need("hit_deadline", &s)) return false;
  r.hit_deadline = s == "true";
  if (!need("error", &o->error)) return false;
  if (!need("repro", &o->repro_path)) return false;
  o->from_checkpoint = true;
  return true;
}

void TrialLog::add(const std::string& key, std::string line) {
  const auto it = lines.lower_bound(key);
  if (it == lines.end() || it->first != key) {
    lines.emplace_hint(it, key, std::move(line));
    return;
  }
  ++duplicate_keys;
  if (line < it->second) it->second = std::move(line);
}

std::string TrialLog::text() const {
  std::string out;
  for (const auto& [key, line] : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::size_t read_trial_log(const std::string& path, TrialLog* log,
                           bool repair) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::string kept;  // the records, in file order, for a repair
  std::size_t torn = 0;
  std::size_t lineno = 0;
  std::size_t first_torn = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    std::string key;
    TrialOutcome outcome;
    // eof() after a successful getline: the line has no '\n'.
    if (in.eof() || !parse_checkpoint_line(line, &key, &outcome)) {
      if (torn++ == 0) first_torn = lineno;
      continue;
    }
    if (repair) {
      kept += line;
      kept += '\n';
    }
    log->add(key, std::move(line));
  }
  log->torn_lines += torn;
  if (repair && torn > 0) {
    in.close();
    OMX_CHECK(publish_atomic(path, kept), "cannot repair " + path);
    std::fprintf(stderr,
                 "%s: dropped %zu torn line(s), first at line %zu%s — the "
                 "affected trial(s) re-run\n",
                 path.c_str(), torn, first_torn,
                 (torn == 1 && first_torn == lineno)
                     ? " (the final line, cut by an interrupted write)"
                     : "");
  }
  return torn;
}

namespace {

bool transient(Verdict v) {
  return v == Verdict::Timeout || v == Verdict::RoundCap;
}

bool model_violation(Verdict v) {
  return v == Verdict::Precondition || v == Verdict::Invariant ||
         v == Verdict::AdversaryViolation;
}

}  // namespace

std::string serialize_config(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << "algo=" << to_string(cfg.algo) << "\n";
  os << "attack=" << to_string(cfg.attack) << "\n";
  os << "n=" << cfg.n << "\n";
  os << "t=" << cfg.t << "\n";
  os << "x=" << cfg.x << "\n";
  os << "inputs=" << to_string(cfg.inputs) << "\n";
  if (!cfg.explicit_inputs.empty()) {
    os << "explicit_inputs=";
    for (const auto b : cfg.explicit_inputs) os << (b ? '1' : '0');
    os << "\n";
  }
  os << "seed=" << cfg.seed << "\n";
  os << "random_bit_budget=" << cfg.random_bit_budget << "\n";
  os << "drop_prob=" << format_double(cfg.drop_prob) << "\n";
  if (!cfg.schedule.empty()) os << "schedule=" << cfg.schedule << "\n";
  os << "max_rounds=" << cfg.max_rounds << "\n";
  os << "deadline_ms=" << cfg.deadline_ms << "\n";
  os << "threads=" << cfg.threads << "\n";
  if (cfg.packed) os << "packed=1\n";
  if (cfg.streamed) os << "streamed=1\n";
  if (!cfg.trace_path.empty()) os << "trace_path=" << cfg.trace_path << "\n";
  if (cfg.trace_packed) os << "trace_packed=1\n";
  os << "params.delta_factor=" << format_double(cfg.params.delta_factor)
     << "\n";
  os << "params.spread_factor=" << format_double(cfg.params.spread_factor)
     << "\n";
  os << "params.epoch_factor=" << format_double(cfg.params.epoch_factor)
     << "\n";
  os << "params.gossip_factor=" << format_double(cfg.params.gossip_factor)
     << "\n";
  os << "params.min_epochs=" << cfg.params.min_epochs << "\n";
  os << "params.early_decide=" << (cfg.params.early_decide ? 1 : 0) << "\n";
  return os.str();
}

bool parse_config(const std::string& text, ExperimentConfig* out,
                  std::string* error, std::size_t* error_offset) {
  std::size_t line_offset = 0;  // byte offset of the current line in text
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    if (error_offset) *error_offset = line_offset;
    return false;
  };
  ExperimentConfig cfg;
  std::istringstream is(text);
  std::string line;
  std::size_t raw_line_size = 0;  // pre-CR-strip size, for offset tracking
  for (; std::getline(is, line);
       line_offset += raw_line_size + 1 /* the consumed newline */) {
    raw_line_size = line.size();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail("bad line: " + line);
    const std::string k = line.substr(0, eq);
    const std::string v = line.substr(eq + 1);
    if (k == "algo") {
      if (!algo_from_string(v, &cfg.algo)) return fail("bad algo: " + v);
    } else if (k == "attack") {
      if (!attack_from_string(v, &cfg.attack))
        return fail("bad attack: " + v);
    } else if (k == "inputs") {
      if (!inputs_from_string(v, &cfg.inputs))
        return fail("bad inputs: " + v);
    } else if (k == "explicit_inputs") {
      cfg.explicit_inputs.clear();
      for (const char c : v) {
        if (c != '0' && c != '1')
          return fail("bad explicit_inputs bit: " + std::string(1, c));
        cfg.explicit_inputs.push_back(c == '1' ? 1 : 0);
      }
    } else if (k == "n") {
      cfg.n = static_cast<std::uint32_t>(to_u64(v));
    } else if (k == "t") {
      cfg.t = static_cast<std::uint32_t>(to_u64(v));
    } else if (k == "x") {
      cfg.x = static_cast<std::uint32_t>(to_u64(v));
    } else if (k == "seed") {
      cfg.seed = to_u64(v);
    } else if (k == "random_bit_budget") {
      cfg.random_bit_budget = to_u64(v);
    } else if (k == "drop_prob") {
      cfg.drop_prob = std::strtod(v.c_str(), nullptr);
    } else if (k == "schedule") {
      cfg.schedule = v;
    } else if (k == "max_rounds") {
      cfg.max_rounds = to_u64(v);
    } else if (k == "deadline_ms") {
      cfg.deadline_ms = to_u64(v);
    } else if (k == "threads") {
      cfg.threads = static_cast<unsigned>(to_u64(v));
    } else if (k == "packed") {
      cfg.packed = v == "1" || v == "true";
    } else if (k == "streamed") {
      cfg.streamed = v == "1" || v == "true";
    } else if (k == "pipeline") {
      // Removed round-pipelining switch: older checkpoints and .repro
      // files may still carry the line, and it never changed a result.
    } else if (k == "trace_path") {
      cfg.trace_path = v;
    } else if (k == "trace_packed") {
      cfg.trace_packed = v == "1" || v == "true";
    } else if (k == "params.delta_factor") {
      cfg.params.delta_factor = std::strtod(v.c_str(), nullptr);
    } else if (k == "params.spread_factor") {
      cfg.params.spread_factor = std::strtod(v.c_str(), nullptr);
    } else if (k == "params.epoch_factor") {
      cfg.params.epoch_factor = std::strtod(v.c_str(), nullptr);
    } else if (k == "params.gossip_factor") {
      cfg.params.gossip_factor = std::strtod(v.c_str(), nullptr);
    } else if (k == "params.min_epochs") {
      cfg.params.min_epochs = static_cast<std::uint32_t>(to_u64(v));
    } else if (k == "params.early_decide") {
      cfg.params.early_decide = v == "1" || v == "true";
    } else {
      return fail("unknown key: " + k);
    }
  }
  *out = cfg;
  return true;
}

std::uint64_t config_hash(const ExperimentConfig& cfg) {
  // The worker-lane count cannot change a trial's outcome (the engine is
  // bit-identical at every setting), so it must not change the key either:
  // a sweep resumed with a different --threads still matches its records.
  // Same for the trace sink (observation, not behaviour).
  ExperimentConfig canon = cfg;
  canon.threads = 1;
  canon.engine_stats = nullptr;
  canon.trace_path.clear();
  canon.trace_packed = false;  // storage format, not behaviour
  return fnv1a(serialize_config(canon));
}

std::string config_key(const ExperimentConfig& cfg) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(config_hash(cfg)));
  return buf;
}

SweepOptions SweepOptions::from_env() {
  SweepOptions o;
  if (const char* v = std::getenv("OMX_SWEEP_CHECKPOINT")) {
    o.checkpoint_path = v;
  }
  if (const char* v = std::getenv("OMX_SWEEP_REPRO_DIR")) o.repro_dir = v;
  if (const char* v = std::getenv("OMX_SWEEP_DEADLINE_MS")) {
    o.trial_deadline_ms = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = std::getenv("OMX_SWEEP_RETRIES")) {
    o.max_attempts = 1 + static_cast<std::uint32_t>(
                             std::strtoul(v, nullptr, 10));
  }
  if (std::getenv("OMX_SWEEP_NO_REPRO")) o.capture_repro = false;
  if (std::getenv("OMX_SWEEP_NO_TRACE")) o.capture_trace = false;
  return o;
}

Sweep::Sweep() : Sweep(SweepOptions::from_env()) {}

Sweep::Sweep(SweepOptions options) : options_(std::move(options)) {
  // Repair before the first append, so it cannot land on a torn tail.
  if (checkpointing()) {
    read_trial_log(options_.checkpoint_path, &recorded_, /*repair=*/true);
  }
}

TrialOutcome Sweep::run_isolated(const ExperimentConfig& cfg) const {
  TrialOutcome out;
  out.seed_used = cfg.seed;
  try {
    out.result = run_experiment(cfg);
    out.verdict = out.result.hit_deadline ? Verdict::Timeout
                  : out.result.hit_round_cap ? Verdict::RoundCap
                                             : Verdict::Ok;
  } catch (const AdversaryViolation& e) {
    out.verdict = Verdict::AdversaryViolation;
    out.error = e.what();
  } catch (const PreconditionError& e) {
    out.verdict = Verdict::Precondition;
    out.error = e.what();
  } catch (const InvariantError& e) {
    out.verdict = Verdict::Invariant;
    out.error = e.what();
  } catch (const rng::BudgetExhausted& e) {
    // A protocol that overdraws instead of degrading is a protocol bug —
    // the invariant "respect the metered budget" broke.
    out.verdict = Verdict::Invariant;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.verdict = Verdict::Invariant;
    out.error = e.what();
  }
  if (!out.error.empty()) out.result = ExperimentResult{};
  return out;
}

std::string Sweep::capture_repro(const ExperimentConfig& cfg,
                                 const TrialOutcome& outcome,
                                 std::string* trace_path) const {
  std::error_code ec;
  std::filesystem::create_directories(options_.repro_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sweep: cannot create repro dir %s: %s\n",
                 options_.repro_dir.c_str(), ec.message().c_str());
    return "";
  }
  const std::string stem = options_.repro_dir + "/" + config_key(cfg);
  const std::string path = stem + ".repro";

  // Re-run the failing trial with a trace attached: the engine is
  // deterministic, so the capture is the event history of the recorded
  // failure, ending exactly where the violation threw (the writer flushes
  // through the unwind). Failures are rare; paying one extra run for a
  // debuggable artifact is the point of capturing at all.
  if (options_.capture_trace && trace::kCompiledIn) {
    ExperimentConfig traced = cfg;
    traced.trace_path = stem + ".trace";
    // Captures are written packed: every reader handles both formats, the
    // farm indexes by filename, and compressed artifacts are the point of
    // storing traces per failure at all (ROADMAP item 3).
    traced.trace_packed = true;
    const TrialOutcome replay = run_isolated(traced);
    if (replay.verdict != outcome.verdict) {
      std::fprintf(stderr,
                   "sweep: trace re-run of %s reproduced verdict %s, "
                   "original was %s — keeping the trace anyway\n",
                   path.c_str(), to_string(replay.verdict),
                   to_string(outcome.verdict));
    }
    if (std::filesystem::exists(traced.trace_path, ec)) {
      *trace_path = traced.trace_path;
    }
  }

  std::string first_line = outcome.error;
  if (const auto nl = first_line.find('\n'); nl != std::string::npos) {
    first_line.resize(nl);
  }
  std::ostringstream out;
  out << "# replay with: omxsim --repro " << path << "\n";
  out << "# verdict: " << to_string(outcome.verdict) << "\n";
  out << "# error: " << first_line << "\n";
  if (!trace_path->empty()) {
    out << "# trace: " << *trace_path << " (analyze with omxtrace)\n";
  }
  out << serialize_config(cfg);
  // Durable before the checkpoint line that names it is appended.
  if (!publish_atomic(path, out.str())) {
    std::fprintf(stderr, "sweep: cannot write repro file %s\n", path.c_str());
    return "";
  }
  return path;
}

TrialOutcome Sweep::run(ExperimentConfig cfg) {
  if (options_.trial_deadline_ms != 0) {
    cfg.deadline_ms = options_.trial_deadline_ms;
  }

  std::string key;
  if (checkpointing()) {
    key = config_key(cfg);
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = recorded_.lines.find(key);
    if (it != recorded_.lines.end()) {
      TrialOutcome out;
      std::string parsed_key;
      parse_checkpoint_line(it->second, &parsed_key, &out);
      ++trials_;
      ++resumed_;
      ++counts_[out.verdict];
      return out;
    }
  }

  const std::uint64_t base_seed = cfg.seed;
  TrialOutcome out;
  std::uint32_t attempt = 1;
  for (;; ++attempt) {
    // Retries perturb the seed deterministically, so "the third attempt of
    // trial (cfg)" is itself reproducible.
    cfg.seed = attempt == 1 ? base_seed : mix64(base_seed, 0x5EED00 + attempt);
    out = run_isolated(cfg);
    if (!transient(out.verdict) || attempt >= options_.max_attempts) break;
  }
  out.attempts = attempt;

  if (model_violation(out.verdict) && options_.capture_repro) {
    out.repro_path = capture_repro(cfg, out, &out.trace_path);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++trials_;
  if (attempt > 1) ++retried_;
  ++counts_[out.verdict];
  if (checkpointing()) {
    std::string line = checkpoint_line(key, out);
    if (!append_line_durably(options_.checkpoint_path, line)) {
      throw std::runtime_error("sweep: cannot append to checkpoint " +
                               options_.checkpoint_path);
    }
    recorded_.add(key, std::move(line));
  }
  return out;
}

std::uint64_t Sweep::trials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trials_;
}

std::uint64_t Sweep::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t bad = 0;
  for (const auto& [v, c] : counts_) {
    if (v != Verdict::Ok) bad += c;
  }
  return bad;
}

std::uint64_t Sweep::resumed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resumed_;
}

std::map<Verdict, std::uint64_t> Sweep::verdict_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::string Sweep::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "sweep: " << trials_ << " trial(s)";
  const char* sep = " — ";
  for (const auto& [v, c] : counts_) {
    os << sep << c << " " << to_string(v);
    sep = ", ";
  }
  if (resumed_ > 0) os << "; " << resumed_ << " from checkpoint";
  if (retried_ > 0) os << "; " << retried_ << " retried";
  return os.str();
}

void Sweep::print_summary(std::ostream& os) const {
  bool interesting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    interesting = resumed_ > 0 || retried_ > 0 ||
                  counts_.size() > 1 ||
                  (counts_.size() == 1 && counts_.begin()->first != Verdict::Ok);
  }
  if (interesting) os << summary() << "\n";
}

int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const AdversaryViolation& e) {
    std::fprintf(stderr, "adversary violation: %s\n", e.what());
    return 4;
  } catch (const CorruptInputError& e) {
    // Before PreconditionError: a corrupt *input file* is the operator's
    // data gone bad, not a caller bug, and scripts branch on the code.
    std::fprintf(stderr, "%s\n", e.what());
    return 5;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "precondition failed: %s\n", e.what());
    return 2;
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "invariant violated: %s\n", e.what());
    return 3;
  } catch (const rng::BudgetExhausted& e) {
    std::fprintf(stderr, "invariant violated: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}

}  // namespace omx::harness
