#include "layer_tap.h"

#include <variant>

#include "support/check.h"

namespace omxbench {

const char* layer_name(unsigned layer) {
  switch (layer) {
    case kAgg: return "alg2_agg";
    case kSpread: return "alg3_spread";
    case kDecide: return "decide";
    case kFallback: return "fallback";
  }
  return "?";
}

Layer layer_of_message(const omx::core::Msg& m) {
  using namespace omx::core;
  if (std::holds_alternative<RelayPush>(m) ||
      std::holds_alternative<RelayAck>(m) ||
      std::holds_alternative<RelayShare>(m)) {
    return kAgg;
  }
  if (std::holds_alternative<SpreadMsg>(m)) return kSpread;
  if (std::holds_alternative<DecisionMsg>(m)) return kDecide;
  return kFallback;
}

LayerSchedule::LayerSchedule(const omx::core::OptimalCore& core)
    : epoch_len_(core.epoch_rounds()),
      decide_start_(core.epochs_total() * core.epoch_rounds()) {
  const std::uint32_t spread = core.params().spread_rounds(core.num_members());
  OMX_CHECK(spread <= epoch_len_, "spreading longer than an epoch");
  agg_len_ = epoch_len_ - spread;
}

Layer LayerSchedule::of(std::uint32_t round) const {
  if (round < decide_start_) {
    return round % epoch_len_ < agg_len_ ? kAgg : kSpread;
  }
  // Decision broadcast, then the collect round; everything after is the
  // deterministic fallback (and any slack rounds past its schedule).
  return round < decide_start_ + 2 ? kDecide : kFallback;
}

LayerTap::LayerTap(omx::core::OptimalMachine* inner,
                   const omx::sim::EngineStats* stats, Spans* spans,
                   int parent)
    : inner_(inner),
      stats_(stats),
      schedule_(inner->core()),
      spans_(spans),
      parent_(parent) {
  OMX_REQUIRE(stats != nullptr, "LayerTap needs an EngineStats sink");
}

void LayerTap::set_lanes(unsigned lanes) {
  OMX_REQUIRE(lanes <= 1, "LayerTap runs with one lane");
  inner_->set_lanes(lanes);
}

void LayerTap::round(omx::sim::ProcessId p,
                     omx::sim::RoundIo<omx::core::Msg>& io) {
  if (!round_typed_ && io.round() > 0 && !io.inbox().empty()) {
    // The inbox holds what was sent in the previous round.
    const Layer sent = layer_of_message(io.inbox().front().payload);
    typed_[sent] += 1;
    if (sent != schedule_.of(io.round() - 1)) mistyped_ += 1;
    round_typed_ = true;
  }
  inner_->round(p, io);
}

void LayerTap::settle() {
  if (current_ < 0) return;
  LayerCost& c = costs_[static_cast<unsigned>(current_)];
  c.rounds += stats_->rounds - seen_.rounds;
  c.compute_ns += stats_->compute_ns - seen_.compute_ns;
  c.adversary_ns += stats_->adversary_ns - seen_.adversary_ns;
  c.delivery_ns += stats_->delivery_ns - seen_.delivery_ns;
  seen_.rounds = stats_->rounds;
  seen_.compute_ns = stats_->compute_ns;
  seen_.adversary_ns = stats_->adversary_ns;
  seen_.delivery_ns = stats_->delivery_ns;
}

void LayerTap::begin_round(std::uint32_t round) {
  if (current_ < 0) {
    seen_.rounds = stats_->rounds;
    seen_.compute_ns = stats_->compute_ns;
    seen_.adversary_ns = stats_->adversary_ns;
    seen_.delivery_ns = stats_->delivery_ns;
  }
  settle();
  round_typed_ = false;
  const int layer = static_cast<int>(schedule_.of(round));
  if (layer != current_) {
    // One span per contiguous run of same-layer rounds.
    if (open_span_ >= 0) spans_->close(open_span_);
    open_span_ = spans_->open(layer_name(static_cast<unsigned>(layer)),
                              parent_);
    current_ = layer;
  }
  inner_->begin_round(round);
}

void LayerTap::finish() {
  settle();
  if (open_span_ >= 0) spans_->close(open_span_);
  open_span_ = -1;
}

void bill_envelopes(const LayerSchedule& schedule,
                    std::span<const omx::trace::RoundEnvelope> rounds,
                    LayerCosts* costs) {
  for (const auto& env : rounds) {
    LayerCost& c = (*costs)[schedule.of(env.round)];
    c.rounds += 1;
    c.messages += env.messages;
    c.bits += env.bits;
    c.rand_bits += env.rng_bits;
    c.rand_calls += env.rng_calls;
    c.omitted += env.omitted;
  }
}

}  // namespace omxbench
