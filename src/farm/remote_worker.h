// The farm's one worker: `omxfarm work --connect`, and every local worker
// `omxfarm run --workers N` forks.
//
// A RemoteWorker asks the daemon for leases over a framed connection
// (transport.h), runs each leased trial in a fork of its own, and submits
// the result line. A dialed worker owns its connection and redials it; a
// local worker is handed one end of a socketpair by the daemon that forked
// it. Its crash-safety contract, adapted to a lossy link:
//
//   * the trial fork hands its line back over a pipe, so a trial orphaned
//     by its worker's death cannot write into a respawned worker's state;
//   * every completed trial's line is appended durably to a local spool
//     (<dir>/pending.jsonl) BEFORE the submit RPC — a worker killed between
//     "trial done" and "daemon acked" resubmits the spooled line when it
//     restarts, and the daemon's key-based dedup makes the resubmission a
//     no-op if the line already landed;
//   * the daemon's hello reply dictates the heartbeat cadence and the trial
//     watchdog. Heartbeats renew the lease; a "stale" answer means the
//     lease was superseded, and the worker kills its trial fork and moves
//     on. A trial running past the watchdog is killed and reported as a
//     watchdog failure, so a hung trial cannot hold its lease forever;
//   * every request carries a monotonic `rid` echoed by the daemon, so a
//     duplicated or delayed response is recognized and discarded instead of
//     desynchronizing the request/response stream;
//   * a lost message (request or response) surfaces as a timeout and the
//     request is simply re-sent — every daemon handler is idempotent or
//     epoch-gated, so re-asking is always safe;
//   * a severed dialed connection triggers capped-exponential-backoff
//     redial; the worker gives up only after reconnect_deadline_ms of
//     continuous failure (a vanished daemon must not leave zombie workers).
//     A closed socketpair is never redialed: it means the daemon died, so a
//     local worker kills its trial fork and exits;
//   * a corrupt frame (checksum failure) throws CorruptInputError carrying
//     the byte offset — under guarded_main that is exit 5, the same code a
//     corrupt checkpoint file produces. Bad bytes are never acted upon.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "farm/transport.h"
#include "harness/sweep.h"
#include "support/flat_json.h"

namespace omx::farm {

struct RemoteWorkerOptions {
  /// Daemon endpoint to dial ("unix:<path>", "tcp:<host>:<port>", or bare
  /// host:port). Unused by a worker constructed on an adopted connection.
  std::string endpoint;
  /// Worker state directory: pending.jsonl spool, repro/.
  std::string dir;
  /// Name reported in hello and attached to submitted artifacts.
  std::string name;
  /// FlakyTransport chaos spec applied to this worker's connection
  /// ("seed=...,drop=...,..."); empty = a well-behaved link.
  std::string chaos;
  /// Reconnect backoff: first retry after base, doubling to cap.
  std::uint64_t backoff_base_ms = 100;
  std::uint64_t backoff_cap_ms = 5000;
  /// Give up after this much continuous connect/RPC failure: the daemon is
  /// gone and is not coming back.
  std::uint64_t reconnect_deadline_ms = 30000;
  /// Upper bound on how long to sleep when the daemon answers "idle".
  std::uint64_t idle_poll_ms = 200;
  /// In-trial options (repro capture etc.). The daemon's hello response
  /// overrides max_attempts so retry ladders match the reference sweep;
  /// the leased config already carries its folded trial deadline.
  harness::SweepOptions sweep;
};

struct RemoteWorkerReport {
  std::size_t trials = 0;            // leases actually run
  std::size_t submitted = 0;         // result lines acked by the daemon
  std::size_t resubmitted = 0;       // spooled lines replayed on startup
  std::size_t failures_reported = 0; // trial crashes/hangs reported upstream
  std::size_t stale_leases = 0;      // trials abandoned on a stale heartbeat
  std::uint64_t reconnects = 0;      // successful redials after the first
  std::uint64_t heartbeats = 0;
  /// True when the daemon said "done"; false when the worker gave up on an
  /// unreachable daemon (the CLI exits nonzero in that case).
  bool daemon_finished = false;
};

class RemoteWorker {
 public:
  /// A dialed worker: connects to options.endpoint.
  explicit RemoteWorker(RemoteWorkerOptions options);
  /// A local worker on an already-connected socketpair end (null = dial
  /// options.endpoint); never redials.
  RemoteWorker(RemoteWorkerOptions options, std::unique_ptr<Conn> conn);

  /// Work until the daemon reports the grid settled ("done"), the reconnect
  /// deadline expires, or an adopted connection closes. Throws
  /// CorruptInputError on a corrupt frame. Blocking.
  RemoteWorkerReport run();

 private:
  using Fields = flat_json::Fields;

  std::string spool_path() const { return options_.dir + "/pending.jsonl"; }

  bool hello(Conn* conn);
  bool ensure_connected();
  void drop_conn();
  /// One reliable request/response exchange: sends (re-sending on timeout,
  /// reconnecting on sever) until the rid-matched response arrives or the
  /// reconnect deadline expires (returns false: give up).
  bool rpc(const Fields& fields, flat_json::Object* response);

  /// Returns false when the daemon became unreachable (ends the run).
  bool run_trial(const std::string& key, std::uint32_t epoch,
                 const harness::ExperimentConfig& cfg);
  [[noreturn]] void trial_child(const std::string& key, std::uint32_t epoch,
                                harness::ExperimentConfig cfg, int out_fd);
  bool report_failure(const std::string& key, std::uint32_t epoch,
                      bool watchdog);
  bool submit_line(const std::string& key, std::uint32_t epoch,
                   const std::string& line, bool from_spool);
  bool resubmit_spool();
  void spool_drop(const std::string& key);

  RemoteWorkerOptions options_;
  Endpoint endpoint_;
  std::unique_ptr<Conn> conn_;
  bool adopted_ = false;  // conn_ was handed over: never redial
  std::uint64_t rid_ = 0;
  // Dictated by the daemon's hello reply:
  std::uint64_t heartbeat_ms_ = 1000;
  std::uint64_t watchdog_ms_ = 0;  // 0 = no trial watchdog
  bool connected_once_ = false;
  std::optional<std::uint64_t> connect_fail_since_;
  RemoteWorkerReport report_;
};

}  // namespace omx::farm
