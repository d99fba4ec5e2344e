// Leased work queue for the sweep farm.
//
// A work item is one sweep cell (a full ExperimentConfig), keyed by its
// canonical config hash. The queue owns the retry/backoff policy that makes
// the farm's failure story stronger than the in-process verdict taxonomy:
//
//   * acquire() leases the earliest eligible pending item to a worker; a
//     lease carries a watchdog deadline (now + watchdog_ms), which the
//     worker's heartbeats push out;
//   * mark_done() retires an item whose result line is durable in a shard
//     (accepted from a worker, or found there on resume);
//   * fail() returns a leased item to the queue — a crashed or hung trial,
//     or a dead worker, burns only its lease. Each failure
//     increments the item's attempt count; the item becomes eligible again
//     after an exponential backoff (backoff_base_ms << (attempts-1), capped)
//     so a deterministic crasher cannot hot-loop the farm. Once the retry
//     budget (max_attempts) is exhausted the item is marked Failed and the
//     caller records a synthetic outcome for it;
//   * expired() lists leases whose watchdog deadline has passed (their
//     worker stopped heartbeating) so the daemon can fail() them: a silent
//     worker's item re-queues and its late result, if it ever arrives,
//     deduplicates.
//
// Lease epochs: an item's attempt counter doubles as a monotonic lease
// epoch. Every message a remote worker sends about a lease (heartbeat,
// trial-failure report) carries the epoch it was granted; renew() and the
// daemon's handlers compare it against the current attempts so a message
// from a superseded lease — delayed, duplicated, or from a worker that was
// presumed dead and re-leased — can never extend or fail the *current*
// lease. Result submission is deliberately NOT epoch-gated: the engine is
// deterministic, so a stale lease's result line is byte-identical to the
// one the current lease would produce, and accepting it early just saves
// work (the current lease's own submission then deduplicates).
//
// Re-runs keep the item's original config (and therefore its seed): the
// engine is deterministic, so a retried trial converges to exactly the line
// a single-process sweep would have produced — byte-identical merges. The
// *seed-perturbed* retry ladder for transient verdicts (timeout/round_cap)
// lives inside the worker's Sweep shell, same as single-process runs.
//
// Time is injected (a now-milliseconds function) so lease expiry and
// backoff are unit-testable without sleeping. The queue is single-owner
// (the daemon's event loop); it is not thread-safe and does not need to be.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace omx::farm {

enum class ItemState {
  Pending,   // waiting (possibly in backoff) for a worker slot
  Leased,    // running in a worker; lease carries a watchdog deadline
  Done,      // result line durable in a shard
  Failed,    // retry budget exhausted; synthetic outcome recorded
};

struct WorkItem {
  std::string key;  // canonical config hash (16 hex digits)
  harness::ExperimentConfig config;
  ItemState state = ItemState::Pending;
  std::uint32_t attempts = 0;        // leases granted so far
  std::uint64_t eligible_at_ms = 0;  // backoff gate (0 = immediately)
  // Lease bookkeeping (valid while state == Leased):
  std::uint64_t lease_deadline_ms = 0;
  bool watchdog_fired = false;  // this lease was killed by the watchdog
};

struct WorkQueueOptions {
  /// Lease watchdog: a lease not renewed within this many ms is failed.
  /// 0 = no watchdog.
  std::uint64_t watchdog_ms = 0;
  /// Total leases per item (1 = no farm-level retry).
  std::uint32_t max_attempts = 3;
  /// First retry waits this long; doubles per further attempt.
  std::uint64_t backoff_base_ms = 100;
  /// Backoff ceiling.
  std::uint64_t backoff_cap_ms = 5000;
};

class WorkQueue {
 public:
  using Clock = std::function<std::uint64_t()>;  // monotonic ms

  WorkQueue(WorkQueueOptions options, Clock now);

  /// Add a new pending item. Duplicate keys are rejected (returns false) —
  /// the grid expansion must not double-run a cell.
  bool add(std::string key, harness::ExperimentConfig config);

  /// Mark a key done: its line is durable in a shard (accepted from a
  /// worker, or found there on resume). Returns false if the key is unknown.
  bool mark_done(const std::string& key);

  /// Lease the earliest eligible pending item, or nullopt if none is
  /// eligible right now. The item's attempt count is incremented; the lease
  /// deadline is now + watchdog_ms.
  std::optional<std::size_t> acquire();

  /// Fail the current lease (trial crashed or hung, worker died or went
  /// silent).
  /// Returns true if the item was re-queued (with backoff), false if its
  /// retry budget is exhausted and it is now Failed.
  bool fail(std::size_t index);

  /// Index of the item with this key, or nullopt if unknown.
  std::optional<std::size_t> find(const std::string& key) const;

  /// Heartbeat: push the lease deadline out to now + watchdog_ms, but only
  /// when the item is still leased under the same epoch (attempts count) —
  /// a heartbeat from a superseded lease must not keep the current one
  /// alive. Returns false for a stale epoch or a non-leased item.
  bool renew(std::size_t index, std::uint32_t epoch);

  /// Indices of leased items whose watchdog deadline has passed (marks
  /// them watchdog_fired so the daemon fails each lease once).
  std::vector<std::size_t> expired();

  /// Milliseconds until the next item becomes eligible or the next lease
  /// expires (for the daemon's poll timeout); nullopt if nothing is timed.
  std::optional<std::uint64_t> next_deadline_in() const;

  bool all_settled() const;  // every item Done or Failed
  std::size_t size() const { return items_.size(); }
  const WorkItem& item(std::size_t index) const { return items_[index]; }
  std::size_t count(ItemState s) const;
  /// Total farm-level re-leases (attempts beyond each item's first).
  std::uint64_t retries() const { return retries_; }

 private:
  WorkQueueOptions options_;
  Clock now_;
  std::vector<WorkItem> items_;
  std::uint64_t retries_ = 0;
};

}  // namespace omx::farm
