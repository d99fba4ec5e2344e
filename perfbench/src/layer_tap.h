// Per-layer attribution for Algorithm 1 from outside the program.
//
// LayerTap decorates a core::OptimalMachine: it forwards every Machine
// call, and at each begin_round bills the EngineStats growth since the
// previous round boundary to the protocol layer of the round that just
// ended. Layers come from the public schedule (epoch_rounds, epochs_total,
// params().spread_rounds): each epoch is Algorithm 2 aggregation followed
// by Algorithm 3 spreading; then one decision broadcast and one collect
// round; then the flood fallback. The biased-majority vote runs inside the
// round that consumes the last spreading round's messages, so it is billed
// to that round's layer.
//
// The tap also checks its schedule against the machine: in each round it
// looks at the type of one delivered message (relay push/ack/share,
// spreading, decision, flood) and counts the rounds whose sender-side
// layer disagrees with the schedule's layer for the round it was sent in.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "bench.h"
#include "core/optimal_core.h"
#include "sim/runner.h"
#include "trace/analysis.h"

namespace omxbench {

enum Layer : unsigned { kAgg = 0, kSpread, kDecide, kFallback, kNumLayers };
const char* layer_name(unsigned layer);

struct LayerCost {
  std::uint64_t rounds = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t adversary_ns = 0;
  std::uint64_t delivery_ns = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t rand_bits = 0;
  std::uint64_t rand_calls = 0;
  std::uint64_t omitted = 0;
};
using LayerCosts = std::array<LayerCost, kNumLayers>;

/// Layer a message was sent in, from its type alone.
Layer layer_of_message(const omx::core::Msg& m);

/// Round -> layer, from the machine's public schedule.
class LayerSchedule {
 public:
  LayerSchedule() = default;
  explicit LayerSchedule(const omx::core::OptimalCore& core);
  Layer of(std::uint32_t round) const;

 private:
  std::uint32_t epoch_len_ = 0;
  std::uint32_t agg_len_ = 0;
  std::uint32_t decide_start_ = 0;
};

class LayerTap final : public omx::sim::Machine<omx::core::Msg> {
 public:
  LayerTap(omx::core::OptimalMachine* inner,
           const omx::sim::EngineStats* stats, Spans* spans, int parent);

  std::uint32_t num_processes() const override {
    return inner_->num_processes();
  }
  /// One lane only: round() keeps unsynchronized per-round state.
  void set_lanes(unsigned lanes) override;
  void begin_round(std::uint32_t round) override;
  void round(omx::sim::ProcessId p,
             omx::sim::RoundIo<omx::core::Msg>& io) override;
  bool finished() const override { return inner_->finished(); }

  /// Bill the last round; call once after Runner::run returns.
  void finish();
  const LayerCosts& costs() const { return costs_; }
  /// Sending rounds typed from a delivered message, per layer of that
  /// message's type, and how many disagreed with the schedule.
  const std::array<std::uint64_t, kNumLayers>& typed_rounds() const {
    return typed_;
  }
  std::uint64_t mistyped_rounds() const { return mistyped_; }

 private:
  void settle();

  omx::core::OptimalMachine* inner_;
  const omx::sim::EngineStats* stats_;
  LayerSchedule schedule_;
  Spans* spans_;
  int parent_;
  int open_span_ = -1;
  int current_ = -1;  // layer of the round in flight, -1 before round 0
  omx::sim::EngineStats seen_{};
  LayerCosts costs_{};
  bool round_typed_ = false;  // a message of this round's inbox was typed
  std::array<std::uint64_t, kNumLayers> typed_{};
  std::uint64_t mistyped_ = 0;
};

/// Add each round envelope (one per traced round) and its counts to the
/// layer of its round.
void bill_envelopes(const LayerSchedule& schedule,
                    std::span<const omx::trace::RoundEnvelope> rounds,
                    LayerCosts* costs);

}  // namespace omxbench
