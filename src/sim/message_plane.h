// Flat-buffer message plane: the engine's zero-allocation delivery substrate.
//
// The send side is factored into SendLog — a flat (fanout groups, payload
// arena) pair that both the plane itself (serial compute phase) and the
// engine's per-worker staging outboxes (sharded compute phase) use. Per
// round the plane stores:
//   * a payload arena — each *distinct* payload value is stored exactly
//     once, so a broadcast of one value to n-1 receivers costs one payload
//     slot, period;
//   * a group list — one POD entry per send *call* (unicast, broadcast, or
//     multicast), carrying the logical-index base of its fan-out. The
//     adversary and the metrics always observe *logical* point-to-point
//     messages: group g expands to fanout(g) consecutive logical indices
//     [base, base + fanout), in exactly the receiver order the equivalent
//     unicast loop would have produced — so a broadcast to n-1 receivers
//     costs O(1) staging instead of the n-1 twelve-byte records the
//     previous plane wrote, and a CSR-restricted multicast costs O(degree)
//     (its receiver list is copied once into a shared CSR-style arena);
//   * a word-packed drop set (`drops_`) marking adversary omissions by
//     logical index.
//
// Sharded rounds produce one private SendLog per worker; stitch() registers
// them as wire *segments* in shard (== ascending process id) order — no
// payloads or receiver lists are moved or copied. seal() then builds a flat
// per-group wire index (global logical bases + direct payload/receiver
// pointers into the segments), so the plane's logical message sequence is
// byte-identical to a serial round while the old O(payloads + receivers)
// merge copy is gone entirely.
//
// Two delivery modes:
//   * deliver() — materialized (default): a stable counting sort of the
//     surviving logical messages into one contiguous buffer plus a
//     per-receiver offset table; every inbox is a
//     std::span<const Message<P>>. An inbox entry is 16 trivially copyable
//     bytes: sender, receiver and a reference to the payload on the sealed
//     wire — no payload is copied. The delivered wire outlives the call:
//     the own log is swapped into the front buffer (as deliver_streamed()
//     does) and stitched shard arenas are double-banked by the engine, so
//     the references hold until the next round's delivery. Accounting is
//     aggregate (sealed message count, cached wire bits, drop popcount —
//     identical totals to a per-message walk); trace emission walks the
//     groups in logical-index order, reproducing the legacy per-record
//     stream bit-for-bit. Given a thread pool, the count/scatter passes
//     shard by destination range: each lane counts and scatters only
//     receivers in [n·w/L, n·(w+1)/L), so inboxes land in disjoint staging
//     slices and the result is bit-identical to the serial sort at every
//     lane count.
//   * deliver_streamed() — nothing is materialized: accounting is done per
//     group (fanout × cached payload bits) plus one popcount scan of the
//     drop set, and the sealed wire is swapped into a front buffer that
//     receivers iterate next round via stream_inbox() / RoundIo::
//     for_each_in(). A receiver's cost is O(groups + its multicast
//     entries), so an n-broadcast round costs O(n) per receiver *total* —
//     no n² inbox buffer ever exists, which is what makes full-information
//     protocols at n = 65536 fit in memory. A round whose wire is entirely
//     kList multicasts (graph-restricted machines: every send walks a CSR
//     adjacency list) skips the group walk and replays only the
//     per-receiver multicast index — O(Δ) per receiver, not O(groups).
//     The multicast index build itself shards by receiver range on the
//     pool. Streamed delivery produces the same Metrics as materialized
//     delivery; it does not support tracing or inbox() spans (the engine
//     enforces both).
//
// The adversary phase gets sharded helpers too: visit_index_range() walks
// any slice of the logical index space without the locate() cursor, and
// lane_index_range() splits that space at 64-aligned cuts so lanes own
// disjoint drop-bitset words — a parallel drop scan writes the same bitset
// a serial scan would, bit for bit.
//
// All buffers have round-persistent capacity: after warm-up, a round
// allocates only whatever the payloads themselves allocate internally.
// A round's payloads live until the round after next begins: one round on
// the wire, one round in the receivers' inboxes (or streamed front buffer).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "sim/metrics.h"
#include "support/check.h"
#include "support/thread_pool.h"
#include "trace/trace.h"

namespace omx::sim {

/// Word-packed omission flags (replaces the engine's old std::vector<bool>).
class DropSet {
 public:
  void reset(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }
  std::size_t size() const { return size_; }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Number of set (dropped) indices — a word-popcount scan, so per-round
  /// omission tallies (adversary::Recorder) cost O(messages/64), not a
  /// payload rescan.
  std::size_t count() const {
    std::size_t c = 0;
    for (const std::uint64_t w : words_) {
      c += static_cast<std::size_t>(std::popcount(w));
    }
    return c;
  }

  /// Visit every set index in ascending order (word-at-a-time scan; used by
  /// the engine's post-intervention legality audit).
  template <class Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        fn((w << 6) + b);
        bits &= bits - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

template <class P>
class MessagePlane;

/// One round's send-side log: fan-out groups over a payload arena. The
/// plane owns one (the wire's first segment); each engine worker owns
/// another (its staging arena) which is stitched onto the wire by pointer
/// at the shard barrier. Capacity persists across clear(), so steady-state
/// rounds do not allocate.
template <class P>
class SendLog {
 public:
  /// Sentinel for multicast: no process is skipped.
  static constexpr ProcessId kNobody = UINT32_MAX;

  /// Fan-out shape of one send call.
  enum class Kind : std::uint8_t {
    kUnicast,        // one receiver (field a)
    kBroadcast,      // every process except the sender, ascending id
    kBroadcastSelf,  // every process including the sender, ascending id
    kList,           // receivers_[a, a + b), in list order
  };

  /// One send call. Logical messages [base, base + fanout) expand in the
  /// receiver order documented on Kind; `base` is the group's offset in
  /// this log's local logical-index space (the plane's wire index adds the
  /// segment base when the log is stitched onto the wire).
  struct Group {
    std::uint64_t base;
    ProcessId from;
    std::uint32_t payload;  // slot in the payload arena
    std::uint32_t a;        // receiver (kUnicast) or arena offset (kList)
    std::uint32_t b;        // list length (kList)
    Kind kind;
  };

  explicit SendLog(std::uint32_t n = 0) : n_(n) {}

  /// Re-target the log at an n-process system and drop its contents.
  void reset(std::uint32_t n) {
    n_ = n;
    clear();
  }

  /// Drop this round's contents; capacity persists.
  void clear() {
    groups_.clear();
    receivers_.clear();
    payloads_.clear();
    total_ = 0;
  }

  std::uint32_t num_processes() const { return n_; }
  /// Number of *logical* point-to-point messages queued.
  std::size_t num_records() const { return static_cast<std::size_t>(total_); }
  std::size_t num_groups() const { return groups_.size(); }
  bool empty() const { return total_ == 0; }

  /// Stamp the round this log is collecting for (failure-message context).
  void set_round(std::uint32_t round) { round_ = round; }
  std::uint32_t round() const { return round_; }

  /// Pre-size the receiver arena (e.g. to the edge count of a CSR
  /// communication graph) so graph-restricted multicast rounds reach
  /// steady-state without reallocation.
  void reserve_receivers(std::size_t edges) { receivers_.reserve(edges); }

  void send(ProcessId from, ProcessId to, P payload) {
    OMX_CHECK(to < n_, "round " + std::to_string(round_) + ": process " +
                           std::to_string(from) +
                           " addressed a message to process " +
                           std::to_string(to) + ", outside the n=" +
                           std::to_string(n_) + " system");
    const std::uint32_t slot = stash(std::move(payload));
    groups_.push_back(Group{total_, from, slot, to, 0, Kind::kUnicast});
    total_ += 1;
  }

  /// One payload, fanned out to every process in id order (optionally
  /// including the sender itself). Logical messages and accounting are
  /// identical to the equivalent unicast loop.
  void broadcast(ProcessId from, P payload, bool include_self) {
    const std::uint32_t slot = stash(std::move(payload));
    const std::uint32_t fan = include_self ? n_ : n_ - 1;
    if (fan == 0) return;
    groups_.push_back(Group{total_, from, slot, 0, 0,
                            include_self ? Kind::kBroadcastSelf
                                         : Kind::kBroadcast});
    total_ += fan;
  }

  /// One payload, fanned out to the listed receivers in list order
  /// (`skip` is omitted where it appears; pass kNobody to keep all). The
  /// filtered list is copied once into the CSR-style receiver arena.
  void multicast(ProcessId from, std::span<const ProcessId> to, P payload,
                 ProcessId skip = kNobody) {
    const std::uint32_t slot = stash(std::move(payload));
    const auto offset = static_cast<std::uint64_t>(receivers_.size());
    OMX_CHECK(offset + to.size() <= UINT32_MAX,
              "multicast receiver arena exceeded 2^32 entries in one round");
    std::uint32_t len = 0;
    for (ProcessId q : to) {
      if (q == skip) continue;
      OMX_CHECK(q < n_, "round " + std::to_string(round_) + ": process " +
                            std::to_string(from) +
                            " multicast to process " + std::to_string(q) +
                            ", outside the n=" + std::to_string(n_) +
                            " system");
      receivers_.push_back(q);
      ++len;
    }
    if (len == 0) return;  // nothing on the wire (matches the unicast loop)
    groups_.push_back(Group{total_, from,  slot,
                            static_cast<std::uint32_t>(offset), len,
                            Kind::kList});
    total_ += len;
  }

  /// Receivers a group expands to.
  std::uint32_t fanout(const Group& g) const {
    switch (g.kind) {
      case Kind::kUnicast: return 1;
      case Kind::kBroadcast: return n_ - 1;
      case Kind::kBroadcastSelf: return n_;
      case Kind::kList: return g.b;
    }
    return 0;
  }

  /// Receiver of the rank-th logical message of group g (rank < fanout).
  ProcessId receiver(const Group& g, std::uint64_t rank) const {
    switch (g.kind) {
      case Kind::kUnicast:
        return g.a;
      case Kind::kBroadcast:
        return rank < g.from ? static_cast<ProcessId>(rank)
                             : static_cast<ProcessId>(rank + 1);
      case Kind::kBroadcastSelf:
        return static_cast<ProcessId>(rank);
      case Kind::kList:
        return receivers_[g.a + rank];
    }
    return 0;
  }

 private:
  friend class MessagePlane<P>;

  std::uint32_t stash(P&& payload) {
    payloads_.push_back(std::move(payload));
    return static_cast<std::uint32_t>(payloads_.size() - 1);
  }

  std::uint32_t n_;
  std::uint32_t round_ = 0;
  std::uint64_t total_ = 0;  // logical messages queued so far
  std::vector<Group> groups_;
  std::vector<ProcessId> receivers_;  // kList fan-out lists, CSR-style
  std::vector<P> payloads_;
};

template <class P>
class MessagePlane {
 public:
  /// Sentinel for multicast: no process is skipped.
  static constexpr ProcessId kNobody = SendLog<P>::kNobody;

  /// Below this many sealed messages the pool hand-off costs more than the
  /// parallel passes save; delivery and adversary scans fall back to the
  /// (bit-identical) serial walks.
  static constexpr std::size_t kParallelGrain = 1024;

  /// An attackable message surfaced by a sharded adversary scan.
  struct ScanHit {
    std::uint64_t idx;
    ProcessId from;
    ProcessId to;
  };

  explicit MessagePlane(std::uint32_t n)
      : n_(n), log_(n), front_log_(n), inbox_offsets_(n + 1, 0) {
    segs_.push_back(&log_);
  }

  // The wire index holds pointers into this plane's own log; moving the
  // plane would dangle them.
  MessagePlane(const MessagePlane&) = delete;
  MessagePlane& operator=(const MessagePlane&) = delete;

  std::uint32_t num_processes() const { return n_; }

  /// Start a round's send phase. Clears the wire's own segment (capacity
  /// persists) and detaches any stitched shard segments; the previous
  /// round's delivered inboxes (or streamed front buffer) stay readable.
  /// The round number stamps failure messages and guards against
  /// wrong-round injection.
  void begin_round(std::uint32_t round = 0) {
    round_ = round;
    log_.clear();
    log_.set_round(round);
    segs_.assign(1, &log_);
    sealed_ = 0;
    hint_ = 0;
  }

  /// Round currently on the wire (as stamped by begin_round).
  std::uint32_t round() const { return round_; }

  // --- send side (computation phase) ---

  /// The wire's own send log — the serial compute phase writes through it.
  SendLog<P>& log() { return log_; }

  void send(ProcessId from, ProcessId to, P payload) {
    log_.send(from, to, std::move(payload));
  }

  void broadcast(ProcessId from, P payload, bool include_self) {
    log_.broadcast(from, std::move(payload), include_self);
  }

  void multicast(ProcessId from, std::span<const ProcessId> to, P payload,
                 ProcessId skip = kNobody) {
    log_.multicast(from, to, std::move(payload), skip);
  }

  /// Stitch the workers' staging arenas onto the wire as segments, in the
  /// order given — which must be ascending shard order: each shard steps
  /// its processes in ascending id order, so segment concatenation *is* id
  /// order and the logical message sequence matches a serial round exactly.
  /// Nothing is copied; the shard logs must stay untouched until the
  /// round's delivery completes (streamed mode: until the *next* round's
  /// delivery swaps them out of the front buffer).
  void stitch(std::span<SendLog<P>* const> shards) {
    for (SendLog<P>* s : shards) {
      OMX_CHECK(s->n_ == n_,
                "round " + std::to_string(round_) +
                    ": staged log targets a different system (staged n=" +
                    std::to_string(s->n_) + ", wire n=" + std::to_string(n_) +
                    ")");
      segs_.push_back(s);
    }
  }

  // --- indexed logical-message view (adversary phase) ---

  /// Messages on the wire right now (live sum over all segments; the
  /// indexed accessors below additionally require seal()).
  std::size_t num_messages() const {
    std::uint64_t total = 0;
    for (const SendLog<P>* s : segs_) total += s->total_;
    return static_cast<std::size_t>(total);
  }
  ProcessId from(std::size_t i) const { return wire_[locate(i)].from; }
  ProcessId to(std::size_t i) const {
    const WireGroup& g = wire_[locate(i)];
    return receiver_of(g, i - g.base);
  }
  const P& payload(std::size_t i) const {
    return *wire_[locate(i)].payload;
  }

  /// End the send phase: build the flat wire index over all segments
  /// (global logical bases, direct payload/receiver pointers), size the
  /// drop set, and compute the bit-size cache — once per payload *slot*,
  /// so a broadcast's size is measured once, not n times. From here until
  /// delivery, the wire's contents are frozen — the adversary may omit
  /// messages, never add them — which is what makes the cache safe to
  /// share between the adversary phase (Recorder, wiretaps), trace
  /// emission and delivery accounting.
  void seal() {
    wire_.clear();
    payload_bits_.clear();
    non_list_groups_ = 0;
    std::uint64_t base = 0;
    std::uint32_t pbase = 0;
    for (const SendLog<P>* s : segs_) {
      for (const typename SendLog<P>::Group& g : s->groups_) {
        const ProcessId* recs = g.kind == SendLog<P>::Kind::kList
                                    ? s->receivers_.data() + g.a
                                    : nullptr;
        wire_.push_back(WireGroup{base + g.base,
                                  s->payloads_.data() + g.payload, recs,
                                  g.from, pbase + g.payload, g.a, g.b,
                                  g.kind});
        if (g.kind != SendLog<P>::Kind::kList) ++non_list_groups_;
      }
      for (const P& p : s->payloads_) payload_bits_.push_back(bit_size(p));
      base += s->total_;
      pbase += static_cast<std::uint32_t>(s->payloads_.size());
    }
    sealed_ = static_cast<std::size_t>(base);
    drops_.reset(sealed_);
    wire_bits_ = 0;
    for (const WireGroup& g : wire_) {
      wire_bits_ += static_cast<std::uint64_t>(fanout(g)) *
                    payload_bits_[g.pslot];
    }
    hint_ = 0;
  }

  /// Bit size of logical message #i (valid after seal()).
  std::uint64_t payload_bits(std::size_t i) const {
    return payload_bits_[wire_[locate(i)].pslot];
  }

  /// Total bits on the wire this round, dropped or not (valid after seal()).
  std::uint64_t wire_bits() const { return wire_bits_; }

  /// Number of messages marked dropped so far.
  std::size_t num_dropped() const { return drops_.count(); }

  void mark_dropped(std::size_t i) { drops_.set(i); }
  bool dropped(std::size_t i) const { return drops_.test(i); }

  /// Visit the index of every omitted message (engine legality audit).
  template <class Fn>
  void for_each_dropped(Fn&& fn) const {
    drops_.for_each_set(fn);
  }

  /// Visit every logical message with index in [lo, hi): fn(idx, from, to),
  /// ascending. Walks the wire index directly (no locate() cursor), so
  /// concurrent calls on disjoint ranges are safe — this is the substrate
  /// of the sharded adversary drop scan. Valid after seal().
  template <class Fn>
  void visit_index_range(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    auto it = std::upper_bound(
        wire_.begin(), wire_.end(), lo,
        [](std::uint64_t v, const WireGroup& g) { return v < g.base; });
    if (it != wire_.begin()) --it;
    for (; it != wire_.end() && it->base < hi; ++it) {
      const WireGroup& g = *it;
      const std::uint32_t fan = fanout(g);
      const std::uint64_t r0 = lo > g.base ? lo - g.base : 0;
      const std::uint64_t r1 =
          std::min<std::uint64_t>(fan, hi - g.base);
      for (std::uint64_t r = r0; r < r1; ++r) {
        fn(g.base + r, g.from, receiver_of(g, r));
      }
    }
  }

  /// Lane w's slice of the logical index space, cut at multiples of 64 so
  /// every lane owns disjoint *words* of the drop bitset: lanes may
  /// mark_dropped() concurrently within their own slice and the resulting
  /// bitset is identical to a serial scan's.
  std::pair<std::uint64_t, std::uint64_t> lane_index_range(
      unsigned w, unsigned lanes) const {
    const auto total = static_cast<std::uint64_t>(sealed_);
    const auto cut = [&](unsigned k) -> std::uint64_t {
      if (k >= lanes) return total;
      return (total * k / lanes) & ~std::uint64_t{63};
    };
    return {cut(w), cut(w + 1)};
  }

  /// Per-lane candidate buffers for sharded adversary scans (capacity
  /// persists across rounds, like every other plane buffer).
  std::vector<std::vector<ScanHit>>& scan_scratch(unsigned lanes) {
    if (scan_scratch_.size() < lanes) scan_scratch_.resize(lanes);
    return scan_scratch_;
  }

  // --- delivery (communication phase) ---

  /// Materialized delivery. Account every logical message (sent-but-omitted
  /// still costs bits: the sender spent them), then counting-sort the
  /// survivors into the inbox buffer as references to their wire payloads.
  /// Stable: each inbox sees its messages in global send order, exactly as
  /// the per-receiver push_back delivery did. With a trace sink, emits one
  /// kSend per logical message (and a kDrop after each omitted one) in wire
  /// order — the canonical order segment stitching already guarantees, so
  /// traced streams are bit-identical across thread counts. With a pool,
  /// the count and scatter passes shard by destination range
  /// (bit-identical result; traced runs stay serial).
  void deliver(Metrics& m, trace::TraceWriter* trace = nullptr,
               support::ThreadPool* pool = nullptr, unsigned lanes = 1) {
    check_sealed();
    m.messages += sealed_;
    m.comm_bits += wire_bits_;
    const std::size_t dropped = drops_.count();
    m.omitted += dropped;

    if (trace != nullptr) {
      for (const WireGroup& g : wire_) {
        const std::uint32_t fan = fanout(g);
        const std::uint64_t bits = payload_bits_[g.pslot];
        for (std::uint32_t r = 0; r < fan; ++r) {
          const std::uint64_t i = g.base + r;
          const ProcessId to = receiver_of(g, r);
          trace->emit(trace::Event{round_, trace::kSend, 0, g.from, to,
                                   bits});
          if (drops_.test(static_cast<std::size_t>(i))) {
            trace->emit(trace::Event{round_, trace::kDrop, 0, g.from, to, i});
          }
        }
      }
    }

    counts_.assign(n_, 0);
    const bool par = pool != nullptr && lanes > 1 && n_ >= lanes &&
                     sealed_ >= kParallelGrain;
    if (par) {
      pool->run([&](unsigned w) {
        count_range(dest_lo(w, lanes), dest_lo(w + 1, lanes));
      });
    } else {
      count_range(0, n_);
    }
    build_offsets();
    staging_.reserve(sealed_ - dropped);
    if (par) {
      pool->run([&](unsigned w) {
        scatter_range(dest_lo(w, lanes), dest_lo(w + 1, lanes));
      });
    } else {
      scatter_range(0, n_);
    }
    inbox_store_.swap(staging_);
    inbox_offsets_.swap(scratch_offsets_);
    // The inboxes reference the sealed wire: keep the own log's payloads
    // alive while log_ collects the next round (stitched shard arenas stay
    // in place; the engine double-banks them).
    std::swap(log_, front_log_);
  }

  /// Streamed delivery: aggregate accounting (identical Metrics totals to
  /// deliver()), no inbox materialization. The sealed wire is swapped into
  /// the front buffer that stream_inbox() iterates next round; per-receiver
  /// multicast entries are indexed once (counting sort over kList groups,
  /// sharded by receiver range when a pool is given) so a receiver's walk
  /// cost is O(groups + its own multicast entries) — or O(its own entries)
  /// when the whole wire is multicasts. Tracing is not supported in this
  /// mode (the engine routes traced runs through deliver()).
  void deliver_streamed(Metrics& m, support::ThreadPool* pool = nullptr,
                        unsigned lanes = 1) {
    check_sealed();
    streamed_mode_ = true;
    m.messages += sealed_;
    m.comm_bits += wire_bits_;
    const std::size_t dropped = drops_.count();
    m.omitted += dropped;

    // Per-receiver index of kList logical messages, ascending by logical
    // index within each receiver (counting sort in group order).
    std::size_t list_total = 0;
    for (const WireGroup& g : wire_) {
      if (g.kind == SendLog<P>::Kind::kList) list_total += g.b;
    }
    counts_.assign(n_, 0);
    const bool par = pool != nullptr && lanes > 1 && n_ >= lanes &&
                     list_total >= kParallelGrain;
    if (par) {
      pool->run([&](unsigned w) {
        list_count_range(dest_lo(w, lanes), dest_lo(w + 1, lanes));
      });
    } else {
      list_count_range(0, n_);
    }
    listed_offsets_.resize(n_ + 1);
    listed_offsets_[0] = 0;
    for (std::uint32_t p = 0; p < n_; ++p) {
      listed_offsets_[p + 1] = listed_offsets_[p] + counts_[p];
      counts_[p] = listed_offsets_[p];  // reuse as scatter cursors
    }
    listed_.resize(list_total);
    if (par) {
      pool->run([&](unsigned w) {
        list_scatter_range(dest_lo(w, lanes), dest_lo(w + 1, lanes));
      });
    } else {
      list_scatter_range(0, n_);
    }

    // Swap the sealed wire into the front buffer. The wire index's payload
    // and receiver pointers chase heap buffers, so swapping the own log's
    // *contents* (and leaving stitched shard arenas in place — the engine
    // double-banks them) keeps every pointer valid while log_ is reused
    // for the next round.
    std::swap(log_, front_log_);
    wire_.swap(front_wire_);
    std::swap(drops_, front_drops_);
    // In a fault-free round the per-message drop test is pure overhead —
    // and an expensive one: the indices a receiver probes are spread over
    // an n^2-bit set (33 MB at n=16384), so every test is a cache miss.
    // One flag turns all of them into a register compare.
    front_drops_any_ = dropped != 0;
    front_only_lists_ = non_list_groups_ == 0;
    listed_.swap(front_listed_);
    listed_offsets_.swap(front_listed_offsets_);
    front_valid_ = true;
  }

  /// Messages delivered to p by the most recent deliver() call.
  std::span<const Message<P>> inbox(ProcessId p) const {
    OMX_CHECK(!streamed_mode_,
              "inbox() is unavailable after streamed delivery — this "
              "machine requires materialized delivery "
              "(Runner Options::delivery)");
    return std::span<const Message<P>>(
        inbox_store_.data + inbox_offsets_[p],
        inbox_offsets_[p + 1] - inbox_offsets_[p]);
  }

  /// Visit every message delivered to p by the most recent
  /// deliver_streamed() call, in global send order: fn(from, payload).
  /// Broadcast/unicast membership is O(1) per group; kList entries come
  /// from the per-receiver index, merged by logical index — and when the
  /// whole front wire is kList groups (graph-restricted machines), the
  /// group walk is skipped entirely and the cost is O(p's own entries).
  template <class Fn>
  void stream_inbox(ProcessId p, Fn&& fn) const {
    if (!front_valid_) return;  // round 0: nothing delivered yet
    std::size_t k = front_listed_offsets_.empty() ? 0
                                                  : front_listed_offsets_[p];
    const std::size_t k_end =
        front_listed_offsets_.empty() ? 0 : front_listed_offsets_[p + 1];
    if (front_only_lists_) {
      for (; k < k_end; ++k) emit_listed(front_listed_[k], fn);
      return;
    }
    for (const WireGroup& g : front_wire_) {
      while (k < k_end && front_listed_[k].idx < g.base) {
        emit_listed(front_listed_[k], fn);
        ++k;
      }
      std::uint64_t idx;
      switch (g.kind) {
        case SendLog<P>::Kind::kUnicast:
          if (g.a != p) continue;
          idx = g.base;
          break;
        case SendLog<P>::Kind::kBroadcast:
          if (p == g.from) continue;
          idx = g.base + (p < g.from ? p : p - 1u);
          break;
        case SendLog<P>::Kind::kBroadcastSelf:
          idx = g.base + p;
          break;
        case SendLog<P>::Kind::kList:
          continue;  // covered by the per-receiver index
      }
      if (!front_drops_any_ ||
          !front_drops_.test(static_cast<std::size_t>(idx))) {
        fn(g.from, *g.payload);
      }
    }
    while (k < k_end) {
      emit_listed(front_listed_[k], fn);
      ++k;
    }
  }

 private:
  /// One send call on the sealed wire: its group metadata flattened across
  /// segments — global logical base, global payload slot (bit-size cache),
  /// and direct pointers to its payload and (kList) receiver list inside
  /// the owning segment. Pointers stay valid from seal() until the owning
  /// log is next cleared, which is what lets the front buffer outlive the
  /// swap in deliver_streamed().
  struct WireGroup {
    std::uint64_t base;
    const P* payload;
    const ProcessId* recs;  // kList receivers (segment arena + offset)
    ProcessId from;
    std::uint32_t pslot;    // global payload slot
    std::uint32_t a;        // receiver (kUnicast)
    std::uint32_t b;        // list length (kList)
    typename SendLog<P>::Kind kind;
  };

  struct ListedEntry {
    std::uint64_t idx;    // logical index (drop lookup + ordering)
    std::uint32_t group;  // ordinal into the (front) wire index
  };

  std::uint32_t fanout(const WireGroup& g) const {
    switch (g.kind) {
      case SendLog<P>::Kind::kUnicast: return 1;
      case SendLog<P>::Kind::kBroadcast: return n_ - 1;
      case SendLog<P>::Kind::kBroadcastSelf: return n_;
      case SendLog<P>::Kind::kList: return g.b;
    }
    return 0;
  }

  ProcessId receiver_of(const WireGroup& g, std::uint64_t rank) const {
    switch (g.kind) {
      case SendLog<P>::Kind::kUnicast:
        return static_cast<ProcessId>(g.a);
      case SendLog<P>::Kind::kBroadcast:
        return rank < g.from ? static_cast<ProcessId>(rank)
                             : static_cast<ProcessId>(rank + 1);
      case SendLog<P>::Kind::kBroadcastSelf:
        return static_cast<ProcessId>(rank);
      case SendLog<P>::Kind::kList:
        return g.recs[rank];
    }
    return 0;
  }

  ProcessId dest_lo(unsigned w, unsigned lanes) const {
    return static_cast<ProcessId>(std::uint64_t{n_} * w / lanes);
  }

  void check_sealed() const {
    // The wire was frozen at seal(); messages appearing afterwards would be
    // messages the adversary conjured into the round (an omission adversary
    // may suppress messages, never create or re-inject them).
    const std::size_t live = num_messages();
    if (live != sealed_) {
      throw AdversaryViolation(
          "round " + std::to_string(round_) + ": " +
          std::to_string(live - sealed_) +
          " message(s) appeared on the wire after the computation phase was "
          "sealed — an omission adversary cannot inject or re-route "
          "messages");
    }
  }

  /// Tally surviving messages per receiver, restricted to receivers in
  /// [lo, hi) — lanes on disjoint ranges touch disjoint counts_ slots.
  void count_range(ProcessId lo, ProcessId hi) {
    for (const WireGroup& g : wire_) {
      switch (g.kind) {
        case SendLog<P>::Kind::kUnicast: {
          const auto q = static_cast<ProcessId>(g.a);
          if (q >= lo && q < hi &&
              !drops_.test(static_cast<std::size_t>(g.base))) {
            ++counts_[q];
          }
          break;
        }
        case SendLog<P>::Kind::kBroadcast:
          for (ProcessId q = lo; q < hi; ++q) {
            if (q == g.from) continue;
            const std::uint64_t i = g.base + (q < g.from ? q : q - 1u);
            if (!drops_.test(static_cast<std::size_t>(i))) ++counts_[q];
          }
          break;
        case SendLog<P>::Kind::kBroadcastSelf:
          for (ProcessId q = lo; q < hi; ++q) {
            if (!drops_.test(static_cast<std::size_t>(g.base + q))) {
              ++counts_[q];
            }
          }
          break;
        case SendLog<P>::Kind::kList:
          for (std::uint32_t r = 0; r < g.b; ++r) {
            const ProcessId q = g.recs[r];
            if (q >= lo && q < hi &&
                !drops_.test(static_cast<std::size_t>(g.base + r))) {
              ++counts_[q];
            }
          }
          break;
      }
    }
  }

  /// Turn counts into inbox offsets and scatter cursors.
  void build_offsets() {
    scratch_offsets_.resize(n_ + 1);
    scratch_offsets_[0] = 0;
    for (std::uint32_t p = 0; p < n_; ++p) {
      scratch_offsets_[p + 1] = scratch_offsets_[p] + counts_[p];
      counts_[p] = scratch_offsets_[p];  // reuse as scatter cursors
    }
  }

  /// Scatter the survivors addressed to [lo, hi) into the staging buffer
  /// through the per-receiver cursors. Stable: the wire index is walked in
  /// global send order, so for a fixed receiver the cursor advances in
  /// send order — identical inboxes at every lane count. A slot records a
  /// reference to the wire payload, never a copy: a broadcast payload is
  /// shared, read-only, by all its receivers, possibly on different lanes.
  void scatter_range(ProcessId lo, ProcessId hi) {
    for (const WireGroup& g : wire_) {
      const std::uint32_t fan = fanout(g);
      std::uint32_t r0 = 0;
      std::uint32_t r1 = fan;
      // Broadcast ranks map 1:1 onto ascending receivers; clip the rank
      // window instead of scanning all n receivers per lane.
      if (g.kind == SendLog<P>::Kind::kBroadcast ||
          g.kind == SendLog<P>::Kind::kBroadcastSelf) {
        const std::uint32_t skip =
            g.kind == SendLog<P>::Kind::kBroadcast ? 1u : 0u;
        r0 = lo <= g.from || skip == 0 ? lo : lo - skip;
        r1 = std::min<std::uint32_t>(
            fan, hi <= g.from || skip == 0 ? hi : hi - skip);
      }
      for (std::uint32_t r = r0; r < r1; ++r) {
        const ProcessId to = receiver_of(g, r);
        if (to < lo || to >= hi) continue;
        const std::uint64_t i = g.base + r;
        if (drops_.test(static_cast<std::size_t>(i))) continue;
        ::new (static_cast<void*>(staging_.data + counts_[to]++))
            Message<P>{g.from, to, std::cref(*g.payload)};
      }
    }
  }

  /// Count kList entries addressed to [lo, hi) (streamed-mode index build).
  void list_count_range(ProcessId lo, ProcessId hi) {
    for (const WireGroup& g : wire_) {
      if (g.kind != SendLog<P>::Kind::kList) continue;
      for (std::uint32_t r = 0; r < g.b; ++r) {
        const ProcessId q = g.recs[r];
        if (q >= lo && q < hi) ++counts_[q];
      }
    }
  }

  /// Scatter kList entries addressed to [lo, hi) into the per-receiver
  /// multicast index (group order == ascending logical index per receiver).
  void list_scatter_range(ProcessId lo, ProcessId hi) {
    std::uint32_t gi = 0;
    for (const WireGroup& g : wire_) {
      if (g.kind == SendLog<P>::Kind::kList) {
        for (std::uint32_t r = 0; r < g.b; ++r) {
          const ProcessId q = g.recs[r];
          if (q >= lo && q < hi) {
            listed_[counts_[q]++] = ListedEntry{g.base + r, gi};
          }
        }
      }
      ++gi;
    }
  }

  template <class Fn>
  void emit_listed(const ListedEntry& e, Fn& fn) const {
    if (front_drops_any_ &&
        front_drops_.test(static_cast<std::size_t>(e.idx))) {
      return;
    }
    const WireGroup& g = front_wire_[e.group];
    fn(g.from, *g.payload);
  }

  /// Wire-index group covering logical index i (valid after seal()).
  /// Adversaries and the audit scan indices mostly in ascending order, so
  /// a cursor makes the common case O(1); random access falls back to
  /// binary search over group bases. The cursor is not thread-safe —
  /// sharded scans use visit_index_range() instead.
  std::size_t locate(std::size_t i) const {
    const auto covers = [&](std::size_t g) {
      return i >= wire_[g].base && i - wire_[g].base < fanout(wire_[g]);
    };
    if (hint_ < wire_.size() && covers(hint_)) return hint_;
    if (hint_ + 1 < wire_.size() && covers(hint_ + 1)) return ++hint_;
    auto it = std::upper_bound(
        wire_.begin(), wire_.end(), static_cast<std::uint64_t>(i),
        [](std::uint64_t v, const WireGroup& g) { return v < g.base; });
    OMX_CHECK(it != wire_.begin(), "logical message index out of range");
    hint_ = static_cast<std::size_t>(it - wire_.begin()) - 1;
    return hint_;
  }

  std::uint32_t n_;
  std::uint32_t round_ = 0;
  SendLog<P> log_;                  // the wire's own segment (segs_[0])
  std::vector<SendLog<P>*> segs_;   // wire segments, in shard order
  std::vector<WireGroup> wire_;     // flat index over segs_, built at seal()
  DropSet drops_;
  std::size_t sealed_ = 0;          // wire size recorded at seal()
  std::uint64_t wire_bits_ = 0;     // total bits on the wire, cached at seal()
  std::size_t non_list_groups_ = 0;
  mutable std::size_t hint_ = 0;    // sequential-access cursor for locate()

  // Front buffer: last round's own-log contents, swapped out of the way of
  // the next round so delivered inboxes (or the streamed front wire) can
  // keep referencing them. The rest is streamed mode's: last round's sealed
  // wire index, readable while the next round's sends accumulate.
  SendLog<P> front_log_;
  std::vector<WireGroup> front_wire_;
  DropSet front_drops_;
  bool front_drops_any_ = false;
  bool front_only_lists_ = false;
  std::vector<ListedEntry> front_listed_;
  std::vector<std::size_t> front_listed_offsets_;
  bool front_valid_ = false;
  bool streamed_mode_ = false;

  // Delivery scratch + double-buffered inboxes (all capacity-persistent).
  std::vector<std::uint64_t> payload_bits_;  // per payload slot, at seal()
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> scratch_offsets_;
  std::vector<ListedEntry> listed_;
  std::vector<std::size_t> listed_offsets_;
  /// Inbox storage: raw memory for trivially copyable messages. Growing
  /// allocates untouched memory and scatter_range() writes each slot on
  /// the lane that owns it, so the page faults of a grown buffer are taken
  /// by all lanes instead of serially by one thread before the scatter.
  static_assert(std::is_trivially_copyable_v<Message<P>> &&
                    std::is_trivially_destructible_v<Message<P>>,
                "inbox slots are raw memory, never destroyed");
  struct Slots {
    Message<P>* data = nullptr;
    std::size_t cap = 0;

    Slots() = default;
    Slots(const Slots&) = delete;
    Slots& operator=(const Slots&) = delete;
    ~Slots() { ::operator delete(static_cast<void*>(data)); }

    void swap(Slots& o) noexcept {
      std::swap(data, o.data);
      std::swap(cap, o.cap);
    }

    /// Room for n slots; the contents are dropped when the buffer grows.
    void reserve(std::size_t n) {
      if (n <= cap) return;
      const std::size_t grown = std::max(n, cap + cap / 2);
      ::operator delete(static_cast<void*>(data));
      data = static_cast<Message<P>*>(
          ::operator new(grown * sizeof(Message<P>)));
      cap = grown;
    }
  };
  Slots staging_;
  Slots inbox_store_;
  std::vector<std::size_t> inbox_offsets_;
  std::vector<std::vector<ScanHit>> scan_scratch_;
};

}  // namespace omx::sim
