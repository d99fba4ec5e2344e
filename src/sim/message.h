// Point-to-point messages of the synchronous network.
//
// The engine is templated on the protocol's payload type P. Requirements on
// P: movable, and `std::uint64_t bit_size(const P&)` must be findable by ADL
// (or P must have a `bit_size()` member). Bit accounting mirrors the paper's
// logical message contents; see support/bits.h for the convention.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <utility>

namespace omx::sim {

using ProcessId = std::uint32_t;

template <class P>
concept HasBitSizeMember = requires(const P& p) {
  { p.bit_size() } -> std::convertible_to<std::uint64_t>;
};

template <class P>
  requires HasBitSizeMember<P>
std::uint64_t bit_size(const P& p) {
  return p.bit_size();
}

/// One delivered message. The payload is a reference into the sealed wire
/// it was sent on (each distinct payload is stored there once, however
/// many receivers it fans out to); it stays valid until the receiver's
/// next round ends. `payload` converts to `const P&`; use `payload.get()`
/// for member access.
template <class P>
struct Message {
  ProcessId from;
  ProcessId to;
  std::reference_wrapper<const P> payload;
};

}  // namespace omx::sim
