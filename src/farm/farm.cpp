#include "farm/farm.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "farm/remote_worker.h"
#include "farm/shard.h"
#include "support/check.h"
#include "support/durable.h"

namespace omx::farm {

namespace fs = std::filesystem;

namespace {

/// How long stop_local_workers waits for workers to notice their closed
/// socketpair before it SIGKILLs the stragglers.
constexpr std::uint64_t kLocalStopMs = 2000;

int exit_code_for_verdict(harness::Verdict v) {
  switch (v) {
    case harness::Verdict::Ok:
    case harness::Verdict::RoundCap:
    case harness::Verdict::Timeout:
      return 0;  // recorded, possibly imperfect — but the line is durable
    case harness::Verdict::Precondition:
      return 2;
    case harness::Verdict::Invariant:
      return 3;
    case harness::Verdict::AdversaryViolation:
      return 4;
  }
  return 3;
}

}  // namespace

Farm::Farm(FarmOptions options)
    : options_(std::move(options)),
      queue_(WorkQueueOptions{options_.watchdog_ms, options_.max_attempts,
                              options_.backoff_base_ms,
                              options_.backoff_cap_ms},
             steady_now_ms) {
  OMX_REQUIRE(!options_.dir.empty(), "farm needs a state directory");
  OMX_REQUIRE(options_.workers >= 1 || !options_.listen.empty(),
              "farm needs local workers or a listen endpoint");
  OMX_REQUIRE(options_.workers >= 0, "farm worker count cannot be negative");
  std::error_code ec;
  fs::create_directories(shard_dir(), ec);
  OMX_REQUIRE(!ec, "farm: cannot create " + shard_dir() + ": " + ec.message());
  // Workers never checkpoint on their own: the shard line IS the
  // checkpoint, written exactly once per completed trial.
  options_.sweep.checkpoint_path.clear();
  if (options_.use_artifact_cache &&
      std::getenv("OMX_ARTIFACT_CACHE") == nullptr) {
    ::setenv("OMX_ARTIFACT_CACHE", (options_.dir + "/cache").c_str(), 0);
  }
}

bool Farm::add(const harness::ExperimentConfig& cfg) {
  // Fold the sweep-level trial deadline into the config before hashing,
  // exactly as Sweep::run does: the item's key must equal the key a
  // single-process `omxsim --deadline-ms ... --checkpoint` sweep records,
  // or the merged output stops matching the reference byte for byte.
  harness::ExperimentConfig keyed = cfg;
  if (options_.sweep.trial_deadline_ms != 0) {
    keyed.deadline_ms = options_.sweep.trial_deadline_ms;
  }
  const bool added = queue_.add(harness::config_key(keyed), keyed);
  if (added) ++report_.items;
  return added;
}

std::string Farm::endpoint_path_for(const std::string& dir) {
  return dir + "/endpoint";
}

void Farm::resume_from_shards() {
  // Repair first: a shard whose tail was torn by a killed daemon must not
  // receive appends after the debris, or the next line would be corrupted.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir(), ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      report_.torn_shard_lines += repair_shard(entry.path().string());
    }
  }
  const ShardScan scan = scan_shards(shard_dir());
  for (const auto& [key, line] : scan.lines) {
    if (queue_.mark_done(key)) ++report_.resumed;
  }
  if (!scan.lines.empty()) durable_dirty_ = true;
}

// ---------------------------------------------------------------------------
// Local workers: forked RemoteWorkers on socketpairs.

void Farm::fork_local_workers() {
  const std::uint64_t now = steady_now_ms();
  for (int slot = 0; slot < options_.workers; ++slot) {
    auto& at = respawn_at_[static_cast<std::size_t>(slot)];
    if (!at || *at > now) continue;
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      std::fprintf(stderr, "farm: socketpair failed: %s\n",
                   std::strerror(errno));
      at = now + options_.backoff_base_ms;
      continue;
    }
    std::fflush(nullptr);  // no duplicated stdio buffers in the child
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      local_worker_process(slot, fds[1]);  // never returns
    }
    ::close(fds[1]);
    if (pid < 0) {
      std::fprintf(stderr, "farm: fork failed: %s\n", std::strerror(errno));
      ::close(fds[0]);
      at = now + options_.backoff_base_ms;
      continue;
    }
    peers_.push_back(Peer{adopt_fd(fds[0]), RemotePeer{}, pid, slot});
    at.reset();
  }
}

[[noreturn]] void Farm::local_worker_process(int slot, int fd) {
  // Drop every daemon descriptor: a worker holding the listener would keep
  // a TCP port bound after the daemon died, and one holding a sibling's
  // socketpair would hide the daemon's death from that sibling. _exit, not
  // exit: the daemon's destructors (the listener unlinks its socket) and
  // atexit state are not the worker's to run.
  if (listener_) ::close(listener_->fd());
  for (auto& p : peers_) p.conn->close();
  RemoteWorkerOptions o;
  o.dir = options_.dir + "/workers/" + std::to_string(slot);
  o.name = "local-" + std::to_string(slot);
  o.sweep = options_.sweep;
  int code = 2;
  try {
    RemoteWorker worker(o, adopt_fd(fd));
    code = worker.run().daemon_finished ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "farm: local worker %d: %s\n", slot, e.what());
  }
  std::fflush(nullptr);
  ::_exit(code);
}

void Farm::bury_local_worker(const Peer& dead) {
  // The socketpair closed, so the worker is gone: no link to sever, no
  // reconnect to wait for. The lease it held burns now, not at a watchdog
  // deadline that `run` does not set by default.
  if (dead.peer.lease) {
    const std::size_t index = *dead.peer.lease;
    const WorkItem& item = queue_.item(index);
    if (item.state == ItemState::Leased &&
        item.attempts == dead.peer.lease_epoch) {
      ++report_.crashed_workers;
      fail_lease(index, /*hung=*/false);
    }
  }
  ::waitpid(static_cast<pid_t>(dead.pid), nullptr, 0);
  respawn_at_[static_cast<std::size_t>(dead.slot)] =
      steady_now_ms() + options_.backoff_base_ms;
}

void Farm::stop_local_workers() {
  // Closing a socketpair is the stop signal: an idle worker wakes on the
  // EOF, a busy one kills its trial fork, and both exit.
  for (auto& p : peers_) {
    if (p.pid >= 0) p.conn->close();
  }
  const std::uint64_t deadline = steady_now_ms() + kLocalStopMs;
  for (const auto& p : peers_) {
    if (p.pid < 0) continue;
    const auto pid = static_cast<pid_t>(p.pid);
    while (::waitpid(pid, nullptr, WNOHANG) == 0) {
      if (steady_now_ms() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      ::usleep(1000);
    }
  }
  std::erase_if(peers_, [](const Peer& p) { return p.pid >= 0; });
}

// ---------------------------------------------------------------------------
// Lease failure.

void Farm::record_exhausted(const WorkItem& item, bool hung) {
  harness::TrialOutcome outcome;
  outcome.verdict =
      hung ? harness::Verdict::Timeout : harness::Verdict::Invariant;
  outcome.attempts = item.attempts;
  outcome.seed_used = item.config.seed;
  outcome.error = hung ? "farm: worker hung past the lease watchdog on every "
                         "attempt (retry budget exhausted)"
                       : "farm: worker crashed on every attempt (retry "
                         "budget exhausted)";
  // The synthetic line keeps the merged results total: every queued key
  // appears exactly once even when its trial never managed to record
  // itself. daemon.jsonl sits beside the results shard so the merge picks
  // it up like any other.
  if (!append_line_durably(daemon_shard_path(),
                           harness::checkpoint_line(item.key, outcome))) {
    std::fprintf(stderr, "farm: cannot record exhausted item %s\n",
                 item.key.c_str());
  }
  ++report_.failed;
  durable_dirty_ = true;
}

void Farm::fail_lease(std::size_t index, bool hung) {
  const WorkItem item = queue_.item(index);
  if (!queue_.fail(index)) record_exhausted(item, hung);
}

void Farm::expire_leases() {
  // A worker silent past the watchdog (no heartbeat): burn the lease. If
  // the worker is merely partitioned and eventually submits, the result
  // deduplicates.
  for (const std::size_t index : queue_.expired()) {
    ++report_.watchdog_kills;
    fail_lease(index, /*hung=*/true);
  }
}

std::string Farm::status_json() const {
  std::ostringstream os;
  os << "{\"items\":" << queue_.size()
     << ",\"pending\":" << queue_.count(ItemState::Pending)
     << ",\"leased\":" << queue_.count(ItemState::Leased)
     << ",\"done\":" << queue_.count(ItemState::Done)
     << ",\"failed\":" << queue_.count(ItemState::Failed)
     << ",\"resumed\":" << report_.resumed
     << ",\"releases\":" << queue_.retries()
     << ",\"workers\":" << options_.workers
     << ",\"workers_seen\":" << report_.workers_seen
     << ",\"crashed_workers\":" << report_.crashed_workers
     << ",\"watchdog_kills\":" << report_.watchdog_kills
     << ",\"duplicate_results\":" << report_.duplicate_results
     << ",\"listen\":\""
     << flat_json::escape(listener_ ? listener_->endpoint().to_string() : "")
     << "\"}";
  return os.str();
}

// ---------------------------------------------------------------------------
// The protocol (transport-independent request handler).

void Farm::note_artifacts(const std::string& key,
                          const flat_json::Object& msg) {
  const std::string repro = flat_json::get(msg, "repro");
  const std::string trace = flat_json::get(msg, "trace");
  if (repro.empty() && trace.empty()) return;
  auto& entry = artifacts_[key];
  if (!repro.empty()) entry["repro"] = repro;
  if (!trace.empty()) entry["trace"] = trace;
  const std::string worker = flat_json::get(msg, "worker");
  if (!worker.empty()) entry["worker"] = worker;
}

bool Farm::accept_result(const std::string& key, const std::string& line,
                         const flat_json::Object& msg) {
  const auto index = queue_.find(key);
  if (!index) {
    // Not an item of this grid (e.g. a worker outliving a daemon restart
    // with a narrower grid). Ack so the worker clears its spool; record
    // nothing — an unknown key must never grow the merge.
    ++report_.late_results;
    return true;
  }
  const ItemState state = queue_.item(*index).state;
  if (state == ItemState::Done) {
    ++report_.duplicate_results;  // idempotent resubmission: drop, ack
    return true;
  }
  if (state == ItemState::Failed) {
    // The daemon already recorded a synthetic outcome for this key; a late
    // real result would make the merge nondeterministic (two different
    // lines for one key), so the synthetic row wins and the late one is
    // dropped. Deterministically one row per key, always.
    ++report_.late_results;
    return true;
  }
  std::string parsed_key;
  harness::TrialOutcome outcome;
  if (!harness::parse_checkpoint_line(line, &parsed_key, &outcome) ||
      parsed_key != key) {
    ++report_.rejected_results;
    std::fprintf(stderr,
                 "farm: rejecting result for %s: line does not parse or "
                 "names a different key\n",
                 key.c_str());
    return false;
  }
  if (!append_line_durably(results_shard_path(), line)) {
    std::fprintf(stderr, "farm: cannot append result to %s\n",
                 results_shard_path().c_str());
    return false;  // no ack: the worker keeps its spool copy and retries
  }
  queue_.mark_done(key);
  ++report_.done;
  ++report_.exit_codes[exit_code_for_verdict(outcome.verdict)];
  durable_dirty_ = true;
  note_artifacts(key, msg);
  return true;
}

std::string Farm::handle_request(const flat_json::Object& msg,
                                 RemotePeer* peer) {
  const std::string type = flat_json::get(msg, "type");
  const std::string rid = flat_json::get(msg, "rid");
  const auto reply = [&](flat_json::Fields fields) {
    fields.insert(fields.begin() + 1, {"rid", rid});
    return flat_json::encode(fields);
  };
  const auto epoch_of = [&] {
    return static_cast<std::uint32_t>(
        std::strtoul(flat_json::get(msg, "epoch").c_str(), nullptr, 10));
  };

  if (type == "hello") {
    peer->name = flat_json::get(msg, "name");
    ++report_.workers_seen;
    // Heartbeat cadence: three per watchdog window keeps one lost
    // heartbeat from expiring a healthy lease.
    const std::uint64_t hb =
        options_.watchdog_ms == 0
            ? 1000
            : std::max<std::uint64_t>(options_.watchdog_ms / 3, 50);
    return reply({{"type", "helloed"},
                  {"heartbeat_ms", std::to_string(hb)},
                  {"watchdog_ms", std::to_string(options_.watchdog_ms)},
                  {"retries", std::to_string(options_.sweep.max_attempts)}});
  }
  if (type == "next") {
    if (queue_.all_settled()) return reply({{"type", "done"}});
    const auto index = queue_.acquire();
    if (!index) {
      std::uint64_t poll_ms = 200;
      if (const auto next = queue_.next_deadline_in()) {
        poll_ms = std::min<std::uint64_t>(*next + 1, 500);
      }
      return reply({{"type", "idle"}, {"poll_ms", std::to_string(poll_ms)}});
    }
    const WorkItem& item = queue_.item(*index);
    peer->lease = *index;
    peer->lease_epoch = item.attempts;
    return reply({{"type", "lease"},
                  {"key", item.key},
                  {"epoch", std::to_string(item.attempts)},
                  {"config", harness::serialize_config(item.config)}});
  }
  if (type == "heartbeat") {
    const auto index = queue_.find(flat_json::get(msg, "key"));
    if (index && queue_.renew(*index, epoch_of())) {
      return reply({{"type", "ok"}});
    }
    return reply({{"type", "stale"}});
  }
  if (type == "result") {
    const std::string key = flat_json::get(msg, "key");
    const std::size_t rejected_before = report_.rejected_results;
    if (accept_result(key, flat_json::get(msg, "line"), msg)) {
      return reply({{"type", "ok"}});
    }
    // Parse-rejected lines are the worker's bug (the frame checksum passed,
    // so the bytes arrived intact): telling it to retry would loop forever.
    // A daemon-side append failure, by contrast, is worth retrying.
    return reply(
        {{"type",
          report_.rejected_results > rejected_before ? "reject" : "retry"}});
  }
  if (type == "fail") {
    // The worker's trial fork died unrecorded, or its watchdog killed it.
    // Epoch-gated: a stale failure report must not burn the current lease.
    const auto index = queue_.find(flat_json::get(msg, "key"));
    if (index && queue_.item(*index).state == ItemState::Leased &&
        queue_.item(*index).attempts == epoch_of()) {
      const bool hung = flat_json::get(msg, "reason") == "watchdog";
      ++(hung ? report_.watchdog_kills : report_.crashed_workers);
      fail_lease(*index, hung);
      return reply({{"type", "ok"}});
    }
    return reply({{"type", "stale"}});
  }
  if (type == "status") {
    return reply({{"type", "status"}, {"json", status_json()}});
  }
  if (type == "results") {
    std::string lines;
    for (const auto& [key, line] : scan_shards(shard_dir()).lines) {
      lines += line;
      lines += '\n';
    }
    return reply({{"type", "results"}, {"lines", lines}});
  }
  if (type == "artifacts") {
    return reply({{"type", "artifacts"}, {"json", artifacts_json()}});
  }
  if (type == "follow") {
    peer->follow = true;
    durable_dirty_ = true;  // force a push so the subscriber catches up
    return reply({{"type", "ok"}});
  }
  return reply({{"type", "error"},
                {"detail", "unknown request type '" + type + "'"}});
}

// ---------------------------------------------------------------------------
// Event loop plumbing.

void Farm::open_endpoint() {
  const bool fallback = options_.listen.empty();
  const std::string spec =
      fallback ? "unix:" + fs::absolute(options_.dir + "/farm.sock").string()
               : options_.listen;
  try {
    listener_ = std::make_unique<Listener>(Endpoint::parse(spec));
  } catch (const PreconditionError& e) {
    if (!fallback) throw;
    // The default endpoint only serves status clients and dialed workers;
    // local workers ride socketpairs, so the farm still runs without it.
    std::fprintf(stderr, "farm: %s — status endpoint disabled\n", e.what());
    return;
  }
  // Publish the resolved endpoint (port 0 → real port) for scripts,
  // status clients and workers that only know the farm directory.
  if (!publish_atomic(endpoint_path_for(options_.dir),
                      listener_->endpoint().to_string() + "\n")) {
    std::fprintf(stderr, "farm: cannot publish %s\n",
                 endpoint_path_for(options_.dir).c_str());
  }
}

void Farm::pump_peer(Peer* p) {
  // Drain every frame that is already buffered; Timeout means "no more".
  for (;;) {
    std::string payload;
    const RecvStatus status = p->conn->recv(&payload, 0);
    if (status == RecvStatus::Timeout) return;
    if (status == RecvStatus::Closed) {
      p->conn->close();
      return;
    }
    if (status == RecvStatus::Corrupt) {
      ++report_.corrupt_frames;
      std::fprintf(stderr,
                   "farm: dropping connection%s: %s at byte offset %llu — "
                   "its lease, if any, expires via the watchdog\n",
                   p->peer.name.empty() ? ""
                                        : (" from " + p->peer.name).c_str(),
                   p->conn->corrupt_detail().c_str(),
                   static_cast<unsigned long long>(p->conn->corrupt_offset()));
      p->conn->close();
      return;
    }
    flat_json::Object msg;
    if (!flat_json::parse(payload, &msg)) {
      // The checksum passed but the payload is not a protocol message: a
      // peer speaking the wrong protocol. Refuse the connection.
      ++report_.corrupt_frames;
      p->conn->close();
      return;
    }
    if (p->pid < 0 && flat_json::get(msg, "type") == "hello") {
      dialed_hello_ = true;
    }
    const std::string response = handle_request(msg, &p->peer);
    if (!response.empty() && !p->conn->send(response)) {
      p->conn->close();
      return;
    }
  }
}

void Farm::push_follow_lines(bool final_push) {
  if (!durable_dirty_ && !final_push) return;
  durable_dirty_ = false;
  if (std::none_of(peers_.begin(), peers_.end(),
                   [](const Peer& p) { return p.peer.follow; })) {
    return;
  }
  const ShardScan scan = scan_shards(shard_dir());
  for (auto& p : peers_) {
    if (!p.peer.follow || p.conn->fd() < 0) continue;
    bool alive = true;
    for (const auto& [key, line] : scan.lines) {
      if (!p.peer.sent_keys.insert(key).second) continue;
      const std::string frame =
          flat_json::encode({{"type", "line"}, {"line", line}});
      if (!p.conn->send(frame)) {
        alive = false;
        break;
      }
    }
    if (final_push && alive) {
      p.conn->send(flat_json::encode({{"type", "end"}}));
    }
    if (!alive) p.conn->close();
  }
}

void Farm::pump_network(int timeout_ms) {
  std::vector<pollfd> pfds;
  if (listener_) pfds.push_back(pollfd{listener_->fd(), POLLIN, 0});
  const std::size_t first_peer = pfds.size();
  for (const auto& p : peers_) pfds.push_back(pollfd{p.conn->fd(), POLLIN, 0});
  if (::poll(pfds.data(), pfds.size(), timeout_ms) > 0) {
    const auto ready = [&](std::size_t i) {
      return (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    };
    // Peers first: accepting appends to peers_, which the pfds indices
    // below do not cover.
    for (std::size_t i = first_peer; i < pfds.size(); ++i) {
      if (ready(i)) pump_peer(&peers_[i - first_peer]);
    }
    if (listener_ && ready(0)) {
      if (auto conn = listener_->accept(0)) {
        peers_.push_back(Peer{std::move(conn), RemotePeer{}, -1, -1});
      }
    }
  }
  for (const auto& p : peers_) {
    if (p.conn->fd() < 0 && p.pid >= 0) bury_local_worker(p);
  }
  std::erase_if(peers_, [](const Peer& p) { return p.conn->fd() < 0; });
  push_follow_lines(false);
}

// ---------------------------------------------------------------------------
// Artifacts index (repro/trace capture paths per key).

std::string Farm::artifacts_json() const {
  std::string json = "{";
  for (const auto& [key, fields] : artifacts_) {
    if (json.size() > 1) json += ',';
    json += '"';
    flat_json::append_escaped(&json, key);
    json += "\":";
    json += flat_json::encode(flat_json::Fields(fields.begin(), fields.end()));
  }
  json += '}';
  return json;
}

void Farm::write_artifacts_index() {
  // Captures in the shared repro directory (local workers, and earlier
  // runs of this farm) are indexed by existence; dialed workers reported
  // theirs in the result messages, which already sit in artifacts_.
  std::error_code ec;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const std::string& key = queue_.item(i).key;
    const std::string stem = options_.sweep.repro_dir + "/" + key;
    if (fs::exists(stem + ".repro", ec)) {
      artifacts_[key]["repro"] = stem + ".repro";
    }
    if (fs::exists(stem + ".trace", ec)) {
      artifacts_[key]["trace"] = stem + ".trace";
    }
  }
  if (!publish_atomic(artifacts_path(), artifacts_json() + "\n")) {
    std::fprintf(stderr, "farm: cannot publish %s\n",
                 artifacts_path().c_str());
  }
}

// ---------------------------------------------------------------------------
// The daemon loop.

FarmReport Farm::run() {
  // A client vanishing mid-response must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
  resume_from_shards();
  open_endpoint();
  respawn_at_.assign(static_cast<std::size_t>(options_.workers),
                     std::uint64_t{0});

  while (!queue_.all_settled()) {
    expire_leases();
    fork_local_workers();
    int timeout_ms = 100;
    if (const auto next = queue_.next_deadline_in()) {
      timeout_ms = static_cast<int>(std::min<std::uint64_t>(*next + 1, 100));
    }
    pump_network(timeout_ms);
  }
  stop_local_workers();

  const ShardScan merged = merge_shards(shard_dir(), merged_path());
  report_.torn_shard_lines += merged.torn_lines;
  report_.merged_path = merged_path();
  report_.releases = queue_.retries();
  write_artifacts_index();
  push_follow_lines(/*final_push=*/true);

  // Linger briefly so dialed workers — connected or just now reconnecting
  // after a severed link — hear "done" instead of timing out against a
  // vanished daemon (their reconnect deadline would still end the run
  // correctly — this just ends it politely and promptly).
  const std::uint64_t linger_until =
      steady_now_ms() + options_.shutdown_linger_ms;
  while (listener_ && dialed_hello_ && steady_now_ms() < linger_until) {
    pump_network(20);
    push_follow_lines(/*final_push=*/true);
  }

  if (listener_) {
    ::unlink(endpoint_path_for(options_.dir).c_str());
    listener_.reset();
  }
  peers_.clear();
  return report_;
}

}  // namespace omx::farm
