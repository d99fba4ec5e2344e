// omxfarm: fork-isolated, crash-safe sweep farm.
//
// The PR 4 sweep runner survives a *trial* failing because the trial runs
// inside an in-process isolation shell. The farm makes the failure domain a
// whole process: every trial runs in a fork of a RemoteWorker
// (remote_worker.h), so a trial that corrupts memory, SIGSEGVs, hangs, or is
// SIGKILL'd from outside burns only its lease, which the WorkQueue re-queues
// under its backoff/retry policy. `--workers N` forks N local RemoteWorkers
// on socketpairs; `omxfarm work --connect` processes dial the daemon's
// framed endpoint (transport.h; default unix:<dir>/farm.sock, published to
// <dir>/endpoint). Workers and `omxfarm status|results` clients all speak
// one protocol (handle_request).
//
// Durability layering (who survives what):
//
//   trial crash/hang → the worker reports "fail" (for a hang, once its
//                      watchdog killed the trial); the lease burns and the
//                      item re-runs with its original seed, or ends as a
//                      synthetic row once the retry budget is spent.
//   local worker     → its socketpair closes (a socketpair cannot be
//   death              severed like a network link), so the daemon fails
//                      the lease the worker held, reaps it and respawns
//                      its slot.
//   daemon SIGKILL   → every accepted result is already a durable shard
//                      line; local workers see their socketpair close, kill
//                      their trial and exit. A re-run daemon rescans the
//                      shards, repairs torn tails, runs only the remainder,
//                      and its workers resubmit the spools the old ones
//                      left — the merged output is byte-identical to an
//                      uninterrupted farm's (and, after canonical sort, to
//                      a single-process Sweep of the same grid).
//   corrupt cache    → the artifact cache checksums every entry; a torn or
//                      bit-flipped blob is a miss and the artifact is
//                      rebuilt. Decisions and metrics never change.
//
// Dialed workers extend the failure domain across a lossy wire. The
// omission-model discipline:
//
//   message lost      → request/response framing plus the worker's retry
//                       loop re-asks; a lost result resubmits from the
//                       worker's durable spool; a lost heartbeat at worst
//                       expires the lease, which re-queues the item.
//   message duplicated→ every submission is idempotent: the daemon keys
//                       results by config hash and drops the second copy,
//                       so no key ever yields two merged rows.
//   message delayed   → lease epochs (the item's attempt counter) make
//                       stale heartbeats and failure reports inert; stale
//                       *results* are accepted on purpose — deterministic
//                       trials make them byte-identical to fresh ones.
//   connection severed→ the worker reconnects with capped exponential
//                       backoff and resumes its in-flight trial; the
//                       daemon's lease watchdog re-queues items whose
//                       workers stay silent past the deadline.
//   frame corrupted   → the transport checksum rejects it; the daemon
//                       drops the connection (the lease watchdog recovers
//                       the item), the worker exits 5 (CorruptInputError
//                       with the byte offset) rather than act on bad bytes.
//   daemon killed     → durable shard lines survive; a restarted daemon
//                       rescans them while live workers finish in-flight
//                       trials, reconnect, and resubmit — dedup by key
//                       keeps the merge equal to a single-process sweep.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "farm/transport.h"
#include "farm/workqueue.h"
#include "harness/sweep.h"
#include "support/flat_json.h"

namespace omx::farm {

struct FarmOptions {
  /// Farm state directory: shards/, workers/, merged.jsonl, endpoint,
  /// farm.sock, cache/.
  std::string dir;
  /// Local workers: forked RemoteWorker processes, one per slot, each on a
  /// socketpair with its state under <dir>/workers/<slot>/ (0 = dialed
  /// workers only; requires a listen endpoint).
  int workers = 4;
  /// Framed endpoint for dialed workers and status/results clients
  /// ("unix:<path>" or "tcp:<host>:<port>", port 0 = kernel-assigned).
  /// Empty = unix:<dir>/farm.sock; if that path does not fit AF_UNIX the
  /// farm runs without an endpoint and says so. The resolved endpoint is
  /// published to <dir>/endpoint.
  std::string listen;
  /// After the last item settles, keep answering the endpoint for this long
  /// (only when a dialed worker has said hello) so connected workers
  /// receive "done" instead of discovering the daemon's death through their
  /// reconnect deadline.
  std::uint64_t shutdown_linger_ms = 500;
  /// Trial watchdog (ms), 0 = none. Every worker kills a trial running past
  /// it and reports a watchdog failure; the daemon also fails a lease whose
  /// worker stops heartbeating for this long. Distinct from the
  /// *cooperative* per-trial deadline (sweep.trial_deadline_ms), which a
  /// healthy engine honors by recording a timeout verdict; the watchdog is
  /// the backstop for a trial that cannot even do that.
  std::uint64_t watchdog_ms = 0;
  /// Farm-level leases per item (crash/hang retries; 1 = none).
  std::uint32_t max_attempts = 3;
  std::uint64_t backoff_base_ms = 100;
  std::uint64_t backoff_cap_ms = 5000;
  /// Point OMX_ARTIFACT_CACHE at <dir>/cache before forking workers (only
  /// when the variable is not already set), so all workers share one
  /// crash-consistent artifact store.
  bool use_artifact_cache = true;
  /// In-worker trial options (cooperative deadline, transient-verdict seed
  /// retries, repro capture) — the same knobs a single-process Sweep takes,
  /// so a farm and a Sweep given identical options produce identical lines.
  harness::SweepOptions sweep;
};

struct FarmReport {
  std::size_t items = 0;
  std::size_t done = 0;
  std::size_t failed = 0;    // retry budget exhausted (synthetic outcome)
  std::size_t resumed = 0;   // satisfied from shards before any lease
  std::uint64_t releases = 0;  // farm-level retries (leases beyond first)
  /// Trials that died unrecorded, plus local workers that died holding a
  /// lease.
  std::size_t crashed_workers = 0;
  /// Trials killed by their worker's watchdog, plus leases whose worker
  /// stopped heartbeating.
  std::size_t watchdog_kills = 0;
  std::size_t torn_shard_lines = 0;  // debris dropped by repair/merge
  std::size_t workers_seen = 0;       // hello'd connections, local or dialed
  std::size_t duplicate_results = 0;  // resubmissions dropped by key
  std::size_t late_results = 0;       // results for already-settled items
  std::size_t rejected_results = 0;   // unparseable/mismatched lines
  std::size_t corrupt_frames = 0;     // transport checksum rejections
  /// Verdict classes of the lines accepted during this run: 0 recorded
  /// (ok, round_cap, timeout), then the sweep's failure classes 2
  /// precondition, 3 invariant, 4 adversary violation.
  std::map<int, std::uint64_t> exit_codes;
  std::string merged_path;
  bool all_ok() const { return failed == 0; }
};

class Farm {
 public:
  explicit Farm(FarmOptions options);

  /// Queue one sweep cell. Returns false for a duplicate config hash.
  bool add(const harness::ExperimentConfig& cfg);

  /// Run the farm to completion: resume from shards, serve leases to local
  /// and dialed workers until every item settles, then publish
  /// <dir>/merged.jsonl. Blocking.
  FarmReport run();

  /// One-line JSON status snapshot (the "status" answer).
  std::string status_json() const;

  /// The protocol's request handler, transport-independent: one decoded
  /// request message in, one response message out (empty = no response;
  /// the connection state records side effects like follow subscription
  /// and the lease it holds). Public so protocol tests can drive
  /// lease/heartbeat/result semantics without sockets; the event loop calls
  /// it per frame.
  struct RemotePeer {
    std::string name;     // from hello
    bool follow = false;  // subscribed to the merged-line stream
    std::set<std::string> sent_keys;  // follow: lines already pushed
    std::optional<std::size_t> lease;  // item index of the last lease granted
    std::uint32_t lease_epoch = 0;
  };
  std::string handle_request(const flat_json::Object& msg, RemotePeer* peer);

  /// Path of the file the daemon publishes its resolved endpoint to.
  static std::string endpoint_path_for(const std::string& dir);

 private:
  struct Peer {
    std::unique_ptr<Conn> conn;
    RemotePeer peer;
    std::int64_t pid = -1;  // local worker process (-1: a dialed client)
    int slot = -1;          // local worker slot
  };

  std::string shard_dir() const { return options_.dir + "/shards"; }
  std::string results_shard_path() const {
    return shard_dir() + "/results.jsonl";
  }
  std::string daemon_shard_path() const {
    return shard_dir() + "/daemon.jsonl";
  }
  std::string merged_path() const { return options_.dir + "/merged.jsonl"; }
  std::string artifacts_path() const {
    return options_.dir + "/merged.artifacts.json";
  }

  void resume_from_shards();
  void open_endpoint();
  void fork_local_workers();
  [[noreturn]] void local_worker_process(int slot, int fd);
  void bury_local_worker(const Peer& dead);
  void stop_local_workers();
  void expire_leases();
  void fail_lease(std::size_t index, bool hung);
  void record_exhausted(const WorkItem& item, bool hung);
  void pump_network(int timeout_ms);
  void pump_peer(Peer* peer);
  void push_follow_lines(bool final_push);
  std::string artifacts_json() const;
  void write_artifacts_index();
  bool accept_result(const std::string& key, const std::string& line,
                     const flat_json::Object& msg);
  void note_artifacts(const std::string& key, const flat_json::Object& msg);

  FarmOptions options_;
  WorkQueue queue_;
  FarmReport report_;
  std::unique_ptr<Listener> listener_;
  std::vector<Peer> peers_;
  /// Per local slot: when its worker may be (re)forked; nullopt while one
  /// is alive.
  std::vector<std::optional<std::uint64_t>> respawn_at_;
  bool dialed_hello_ = false;   // a dialed worker has joined (linger on exit)
  bool durable_dirty_ = false;  // new lines since the last follow push
  /// key → {repro path, trace path, worker name}: the artifacts index,
  /// built from the repro directory and workers' result reports.
  std::map<std::string, std::map<std::string, std::string>> artifacts_;
};

}  // namespace omx::farm
