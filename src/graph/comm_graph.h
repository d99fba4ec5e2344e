// Communication graph substrate (paper Theorem 4).
//
// The algorithms communicate along a sparse graph G with expected degree
// Δ = Θ(log n) that is (n/10)-expanding, (n/10, Δ/15)-edge-sparse, and has
// concentrated degrees. The paper has every process locally pick "the
// lexicographically smallest graph guaranteed by Theorem 4" — a purely
// combinatorial object derivable from n alone. Finding that graph is
// exponential, so we substitute a *deterministic seeded* Erdős–Rényi graph:
// the seed is a fixed hash of n, so all processes compute the identical
// graph with no communication, and Theorem 4 says it has the needed
// properties whp (our validators in graph/validate.h check them).
//
// Storage is CSR (compressed sparse row): one flat sorted neighbor array
// plus an n+1 offset table. Spreading/gossip touches every neighbor list
// every round; one contiguous allocation beats n separate vectors on cache
// locality and removes a pointer chase per neighbors() call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace omx::graph {

using Vertex = std::uint32_t;

class CommGraph {
 public:
  /// Build from an explicit adjacency structure (must be symmetric; checked).
  explicit CommGraph(std::vector<std::vector<Vertex>> adjacency);

  /// Erdős–Rényi G(n, p) with the given seed.
  static CommGraph erdos_renyi(std::uint32_t n, double edge_prob,
                               std::uint64_t seed);

  /// The common-knowledge graph for an n-process system: ER with edge
  /// probability Δ/(n-1), seeded deterministically from (n, Δ).
  static CommGraph common_for(std::uint32_t n, std::uint32_t delta);

  /// Memoized common_for: the graph is a pure function of (n, Δ), so
  /// experiment repetitions share one immutable instance instead of
  /// regenerating it. Thread-safe (parallel_map runs experiments
  /// concurrently) with per-key once semantics: concurrent first touches of
  /// the same (n, Δ) build exactly one graph, the rest block until it is
  /// ready. Entries live for the process lifetime.
  static std::shared_ptr<const CommGraph> common_for_shared(
      std::uint32_t n, std::uint32_t delta);

  /// Number of graphs ever constructed by common_for_shared (not cache
  /// hits) — observable evidence of the once-per-key guarantee for tests.
  static std::uint64_t common_for_shared_builds();

  /// Graphs common_for_shared loaded from the on-disk artifact cache
  /// (OMX_ARTIFACT_CACHE) instead of rebuilding.
  static std::uint64_t common_for_shared_disk_loads();

  /// Serialize the CSR arrays for the artifact cache. from_csr_blob
  /// validates structure (monotonic offsets, in-range sorted neighbors)
  /// and rebuilds without re-running the O(E log E) constructor checks;
  /// a malformed blob — the cache's checksum should have caught it first —
  /// yields nullopt, which cache users treat as a miss.
  std::vector<std::uint8_t> to_csr_blob() const;
  static std::optional<CommGraph> from_csr_blob(
      std::span<const std::uint8_t> blob);

  std::uint32_t n() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  std::uint64_t num_edges() const { return num_edges_; }
  std::uint32_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  std::span<const Vertex> neighbors(Vertex v) const {
    return std::span<const Vertex>(flat_.data() + offsets_[v],
                                   offsets_[v + 1] - offsets_[v]);
  }
  bool has_edge(Vertex u, Vertex v) const;

 private:
  CommGraph() = default;  // from_csr_blob fills the members directly

  std::vector<std::uint32_t> offsets_;  // n+1 row starts into flat_
  std::vector<Vertex> flat_;            // sorted neighbor lists, concatenated
  std::uint64_t num_edges_ = 0;
};

/// Slot lookups in one sorted neighbor list for a run of senders that
/// usually ascends: an engine inbox arrives in ascending sender order, so
/// each lookup advances a cursor, O(Δ) per inbox in total, instead of
/// binary-searching per message. A sender at or below the previous hit
/// (hand-built inboxes) falls back to a binary search.
class NeighborCursor {
 public:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  explicit NeighborCursor(std::span<const Vertex> neighbors)
      : nb_(neighbors) {}

  /// Slot of v in the list, or kAbsent if v is not a neighbor.
  std::uint32_t slot(Vertex v) {
    if (next_ > 0 && v <= nb_[next_ - 1]) {
      next_ = static_cast<std::size_t>(
          std::lower_bound(nb_.begin(), nb_.end(), v) - nb_.begin());
    } else {
      while (next_ < nb_.size() && nb_[next_] < v) ++next_;
    }
    if (next_ == nb_.size() || nb_[next_] != v) return kAbsent;
    return static_cast<std::uint32_t>(next_++);
  }

 private:
  std::span<const Vertex> nb_;
  std::size_t next_ = 0;
};

}  // namespace omx::graph
