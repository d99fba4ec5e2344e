#include "farm/remote_worker.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "farm/shard.h"
#include "farm/test_hooks.h"
#include "support/check.h"
#include "support/durable.h"

namespace omx::farm {

namespace fs = std::filesystem;

namespace {

/// Per-attempt wait for an RPC response before re-sending the request.
/// Short enough that a dropped response costs little, long enough that a
/// delay-chaos'd daemon usually answers in one attempt.
constexpr int kResponseTimeoutMs = 750;

[[noreturn]] void throw_corrupt(const Conn& conn, const std::string& where) {
  throw CorruptInputError(where, conn.corrupt_offset(),
                          "transport frame: " + conn.corrupt_detail());
}

std::uint32_t to_u32(const std::string& s) {
  return static_cast<std::uint32_t>(std::strtoul(s.c_str(), nullptr, 10));
}

}  // namespace

RemoteWorker::RemoteWorker(RemoteWorkerOptions options)
    : RemoteWorker(std::move(options), nullptr) {}

RemoteWorker::RemoteWorker(RemoteWorkerOptions options,
                           std::unique_ptr<Conn> conn)
    : options_(std::move(options)),
      conn_(std::move(conn)),
      adopted_(conn_ != nullptr) {
  if (!adopted_) endpoint_ = Endpoint::parse(options_.endpoint);
  OMX_REQUIRE(!options_.dir.empty(), "remote worker needs a state directory");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  OMX_REQUIRE(!ec, "remote worker: cannot create " + options_.dir + ": " +
                       ec.message());
  if (options_.name.empty()) {
    options_.name = "worker-" + std::to_string(::getpid());
  }
  // The shard line IS the checkpoint; never double-record.
  options_.sweep.checkpoint_path.clear();
}

void RemoteWorker::drop_conn() {
  if (conn_) {
    conn_->close();
    conn_.reset();
  }
}

bool RemoteWorker::hello(Conn* conn) {
  const std::string rid = std::to_string(++rid_);
  if (!conn->send(flat_json::encode(
          {{"type", "hello"}, {"rid", rid}, {"name", options_.name}}))) {
    return false;
  }
  // A chaos-dropped hello or reply falls out at the deadline and the whole
  // dial is retried; a socketpair loses nothing, so it just waits.
  const std::uint64_t deadline = adopted_
                                     ? std::numeric_limits<std::uint64_t>::max()
                                     : steady_now_ms() + 1000;
  while (steady_now_ms() < deadline) {
    std::string payload;
    const RecvStatus st = conn->recv(&payload, 100);
    if (st == RecvStatus::Corrupt) throw_corrupt(*conn, options_.endpoint);
    if (st == RecvStatus::Closed) return false;
    if (st != RecvStatus::Ok) continue;
    flat_json::Object msg;
    if (!flat_json::parse(payload, &msg) || flat_json::get(msg, "rid") != rid ||
        flat_json::get(msg, "type") != "helloed") {
      continue;  // stale frame from a previous connection's window
    }
    if (const std::string hb = flat_json::get(msg, "heartbeat_ms");
        !hb.empty()) {
      heartbeat_ms_ = std::strtoull(hb.c_str(), nullptr, 10);
    }
    watchdog_ms_ =
        std::strtoull(flat_json::get(msg, "watchdog_ms").c_str(), nullptr, 10);
    if (const std::string retries = flat_json::get(msg, "retries");
        !retries.empty()) {
      // Match the daemon's in-trial retry ladder so every worker produces
      // the byte-identical line a single-process sweep would.
      options_.sweep.max_attempts = to_u32(retries);
    }
    return true;
  }
  return false;
}

bool RemoteWorker::ensure_connected() {
  if (conn_) return true;
  if (adopted_) return false;  // a closed socketpair means the daemon died
  std::uint64_t backoff = options_.backoff_base_ms;
  if (!connect_fail_since_) connect_fail_since_ = steady_now_ms();
  for (;;) {
    auto conn = dial_with_chaos(endpoint_, options_.chaos);
    if (conn && hello(conn.get())) {
      conn_ = std::move(conn);
      if (connected_once_) ++report_.reconnects;
      connected_once_ = true;
      connect_fail_since_.reset();
      return true;
    }
    if (steady_now_ms() - *connect_fail_since_ >
        options_.reconnect_deadline_ms) {
      connect_fail_since_.reset();
      return false;
    }
    ::usleep(static_cast<useconds_t>(backoff * 1000));
    backoff = std::min(backoff * 2, options_.backoff_cap_ms);
  }
}

bool RemoteWorker::rpc(const Fields& fields, flat_json::Object* response) {
  const std::uint64_t start = steady_now_ms();
  for (;;) {
    if (!ensure_connected()) return false;
    const std::string rid = std::to_string(++rid_);
    Fields with_rid = fields;
    with_rid.insert(with_rid.begin() + 1, {"rid", rid});
    if (!conn_->send(flat_json::encode(with_rid))) {
      drop_conn();
    } else {
      const std::uint64_t deadline = steady_now_ms() + kResponseTimeoutMs;
      for (;;) {
        // A socketpair loses nothing: a slow daemon is waited for, never
        // re-asked (a re-sent "next" would strand the first lease).
        const std::uint64_t now = steady_now_ms();
        if (!adopted_ && now >= deadline) break;  // lost — re-send
        std::string payload;
        const RecvStatus st = conn_->recv(
            &payload, adopted_ ? kResponseTimeoutMs
                               : static_cast<int>(deadline - now));
        if (st == RecvStatus::Corrupt) {
          throw_corrupt(*conn_, options_.endpoint);
        }
        if (st == RecvStatus::Closed) {
          drop_conn();
          break;  // severed mid-exchange — reconnect and re-send
        }
        if (st != RecvStatus::Ok) continue;
        flat_json::Object msg;
        if (!flat_json::parse(payload, &msg)) continue;
        // A duplicated or delayed response answers an rid we have already
        // moved past; discard it — this is what keeps a lossy link from
        // desynchronizing the request/response stream.
        if (flat_json::get(msg, "rid") != rid) continue;
        *response = std::move(msg);
        return true;
      }
    }
    if (steady_now_ms() - start > options_.reconnect_deadline_ms) {
      return false;
    }
  }
}

[[noreturn]] void RemoteWorker::trial_child(const std::string& key,
                                            std::uint32_t epoch,
                                            harness::ExperimentConfig cfg,
                                            int out_fd) {
  // The trial never talks to the daemon; only its worker does.
  if (conn_) conn_->close();
  // Keyed by the lease epoch so "crash on first attempt" means the first
  // lease of the item anywhere.
  maybe_run_trial_chaos_hooks(key, epoch);
  harness::Sweep sweep(options_.sweep);
  cfg.threads = 1;  // farm parallelism is process-level
  const std::string line =
      harness::checkpoint_line(key, sweep.run(cfg)) + "\n";
  // _exit (not exit): the worker's atexit state is not ours to run.
  ::_exit(write_all(out_fd, line) ? 0 : 6);
}

bool RemoteWorker::report_failure(const std::string& key, std::uint32_t epoch,
                                  bool watchdog) {
  Fields fields = {
      {"type", "fail"}, {"key", key}, {"epoch", std::to_string(epoch)}};
  if (watchdog) fields.push_back({"reason", "watchdog"});
  flat_json::Object response;
  if (!rpc(fields, &response)) return false;
  ++report_.failures_reported;
  return true;
}

bool RemoteWorker::submit_line(const std::string& key, std::uint32_t epoch,
                               const std::string& line, bool from_spool) {
  Fields fields = {{"type", "result"},
                   {"key", key},
                   {"epoch", std::to_string(epoch)},
                   {"line", line},
                   {"worker", options_.name}};
  // Report capture paths so the daemon's artifacts index can point at this
  // worker's files (they are local to this host; the worker name says
  // where to look).
  if (!options_.sweep.repro_dir.empty()) {
    const std::string stem = options_.sweep.repro_dir + "/" + key;
    std::error_code ec;
    if (fs::exists(stem + ".repro", ec)) fields.push_back({"repro", stem + ".repro"});
    if (fs::exists(stem + ".trace", ec)) fields.push_back({"trace", stem + ".trace"});
  }
  const std::uint64_t start = steady_now_ms();
  for (;;) {
    flat_json::Object response;
    if (!rpc(fields, &response)) return false;  // spool keeps the line
    const std::string type = flat_json::get(response, "type");
    if (type == "ok") {
      spool_drop(line);
      if (from_spool) {
        ++report_.resubmitted;
      } else {
        ++report_.submitted;
      }
      return true;
    }
    if (type == "reject") {
      // The daemon read the line intact (frame checksum passed) and still
      // refused it: re-sending the same bytes cannot help.
      std::fprintf(stderr, "remote worker: daemon rejected result for %s\n",
                   key.c_str());
      spool_drop(line);
      return true;
    }
    // "retry": transient daemon-side trouble (e.g. its shard append
    // failed). Keep the spool copy and re-ask, bounded like a reconnect.
    if (steady_now_ms() - start > options_.reconnect_deadline_ms) {
      return false;
    }
    ::usleep(100 * 1000);
  }
}

void RemoteWorker::spool_drop(const std::string& line) {
  std::ifstream in(spool_path());
  std::string kept;
  std::string existing;
  bool dropped = false;
  while (std::getline(in, existing)) {
    if (!dropped && existing == line) {
      dropped = true;  // drop exactly one copy
      continue;
    }
    kept += existing;
    kept += '\n';
  }
  in.close();
  // A failed rewrite keeps the old spool; a resubmission dedups anyway.
  publish_atomic(spool_path(), kept);
}

bool RemoteWorker::resubmit_spool() {
  // A worker killed mid-append leaves a torn tail; the shard repairer
  // understands this exact format.
  repair_shard(spool_path());
  std::vector<std::string> lines;
  {
    std::ifstream in(spool_path());
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  for (const auto& line : lines) {
    std::string key;
    harness::TrialOutcome outcome;
    if (!harness::parse_checkpoint_line(line, &key, &outcome)) {
      spool_drop(line);  // repair should have caught this; belt and braces
      continue;
    }
    // Epoch 0: the granting lease is long gone, but result submission is
    // key-based by design — the daemon dedups if the line already landed.
    if (!submit_line(key, 0, line, /*from_spool=*/true)) return false;
  }
  return true;
}

bool RemoteWorker::run_trial(const std::string& key, std::uint32_t epoch,
                             const harness::ExperimentConfig& cfg) {
  ++report_.trials;
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    std::fprintf(stderr, "remote worker: pipe failed: %s\n",
                 std::strerror(errno));
    return report_failure(key, epoch, /*watchdog=*/false);
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipe_fds[0]);
    trial_child(key, epoch, cfg, pipe_fds[1]);  // never returns
  }
  ::close(pipe_fds[1]);
  const int out_fd = pipe_fds[0];
  if (pid < 0) {
    std::fprintf(stderr, "remote worker: fork failed: %s\n",
                 std::strerror(errno));
    ::close(out_fd);
    return report_failure(key, epoch, /*watchdog=*/false);
  }
  const auto kill_trial = [&] {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    ::close(out_fd);
  };

  // Collect the trial's line from the pipe, heartbeating the lease and
  // enforcing the watchdog meanwhile. EOF means the trial exited.
  std::string output;
  const std::uint64_t started = steady_now_ms();
  std::uint64_t next_heartbeat = started + heartbeat_ms_;
  for (;;) {
    const std::uint64_t now = steady_now_ms();
    if (watchdog_ms_ != 0 && now >= started + watchdog_ms_) {
      kill_trial();
      return report_failure(key, epoch, /*watchdog=*/true);
    }
    if (now >= next_heartbeat) {
      flat_json::Object response;
      if (!rpc({{"type", "heartbeat"},
                {"key", key},
                {"epoch", std::to_string(epoch)}},
               &response)) {
        // Daemon unreachable past the deadline (or, for a local worker,
        // dead): do not leave an orphan trial running against a farm that
        // no longer exists.
        kill_trial();
        return false;
      }
      ++report_.heartbeats;
      if (flat_json::get(response, "type") == "stale") {
        // The lease was superseded (we were presumed dead and the item
        // re-leased). Stop burning CPU on it; if our trial had already
        // finished, the spool/submit path would have deduped anyway.
        ++report_.stale_leases;
        kill_trial();
        return true;
      }
      next_heartbeat = steady_now_ms() + heartbeat_ms_;
      continue;
    }
    std::uint64_t wait = next_heartbeat - now;
    if (watchdog_ms_ != 0) wait = std::min(wait, started + watchdog_ms_ - now);
    pollfd pfds[2] = {{out_fd, POLLIN, 0},
                      {conn_ ? conn_->fd() : -1, POLLRDHUP, 0}};
    if (::poll(pfds, 2, static_cast<int>(wait)) <= 0) continue;
    if ((pfds[1].revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0) {
      // The daemon hung up. A socketpair is never redialed, so a local
      // worker stops here; a dialed one heartbeats now, which redials.
      if (adopted_) {
        kill_trial();
        drop_conn();
        return false;
      }
      next_heartbeat = now;
      continue;
    }
    if (pfds[0].revents == 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(out_fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    output.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(out_fd);
  ::waitpid(pid, nullptr, 0);

  // A trial that died before writing its whole line is a crash.
  std::string parsed_key;
  harness::TrialOutcome outcome;
  if (output.empty() || output.back() != '\n') {
    return report_failure(key, epoch, /*watchdog=*/false);
  }
  output.pop_back();
  if (!harness::parse_checkpoint_line(output, &parsed_key, &outcome) ||
      parsed_key != key) {
    return report_failure(key, epoch, /*watchdog=*/false);
  }
  // Durable-before-submit: the spool copy survives any crash between here
  // and the daemon's ack, and the restarted worker resubmits it.
  if (!append_line_durably(spool_path(), output)) {
    std::fprintf(stderr, "remote worker: cannot spool result for %s\n",
                 key.c_str());
    return report_failure(key, epoch, /*watchdog=*/false);
  }
  if (crash_after_write_hook_hits(key)) ::_exit(9);
  return submit_line(key, epoch, output, /*from_spool=*/false);
}

RemoteWorkerReport RemoteWorker::run() {
  ::signal(SIGPIPE, SIG_IGN);
  if (adopted_ && !hello(conn_.get())) {
    drop_conn();
    return report_;
  }
  if (!resubmit_spool()) return report_;
  for (;;) {
    flat_json::Object response;
    if (!rpc({{"type", "next"}}, &response)) break;  // gave up
    const std::string type = flat_json::get(response, "type");
    if (type == "done") {
      report_.daemon_finished = true;
      break;
    }
    if (type == "idle") {
      std::uint64_t poll_ms = options_.idle_poll_ms;
      if (const std::string p = flat_json::get(response, "poll_ms");
          !p.empty()) {
        poll_ms = std::min<std::uint64_t>(
            std::strtoull(p.c_str(), nullptr, 10), options_.idle_poll_ms);
      }
      // Sleep, but wake as soon as the daemon hangs up: a local worker must
      // not outlive its daemon by a whole poll interval.
      pollfd pfd{conn_->fd(), POLLRDHUP, 0};
      ::poll(&pfd, 1, static_cast<int>(std::max<std::uint64_t>(poll_ms, 10)));
      continue;
    }
    if (type == "lease") {
      const std::string key = flat_json::get(response, "key");
      const std::uint32_t epoch = to_u32(flat_json::get(response, "epoch"));
      harness::ExperimentConfig cfg;
      std::string error;
      if (!harness::parse_config(flat_json::get(response, "config"), &cfg,
                                 &error)) {
        // The frame checksum passed, so this is a protocol-level surprise
        // (e.g. daemon newer than us). Burn the lease promptly rather than
        // let the watchdog time it out.
        std::fprintf(stderr,
                     "remote worker: cannot parse leased config for %s: %s\n",
                     key.c_str(), error.c_str());
        if (!report_failure(key, epoch, /*watchdog=*/false)) break;
        continue;
      }
      if (!run_trial(key, epoch, cfg)) break;
      continue;
    }
    // Unknown response type: ignore and re-ask.
  }
  drop_conn();
  return report_;
}

}  // namespace omx::farm
