// The virtual-time event heap of the service engine (src/engine/): one
// scheduled scheduler-contact per client, drained in deterministic
// virtual-time order.
//
// A util::DaryHeap under the engine's ordering contract: ties in virtual
// time break on the client index, so the pop sequence is a TOTAL order —
// independent of insertion history, which is what makes a shard's drain
// order (and therefore its day-record stream) a pure function of the
// client population. A client has at most
// one scheduled contact, so two live events can never compare equal.
#pragma once

#include <cstdint>

#include "util/dary_heap.h"

namespace resmodel::engine {

/// One scheduled contact: the virtual day it fires and the (shard-local)
/// index of the client making it.
struct Event {
  double day = 0.0;
  std::uint32_t client = 0;
};

/// Strict total order of the event protocol: earlier virtual time first,
/// lower client index on ties.
inline bool fires_before(const Event& a, const Event& b) noexcept {
  return a.day < b.day || (a.day == b.day && a.client < b.client);
}

/// fires_before as a heap comparator.
struct FiresBefore {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return fires_before(a, b);
  }
};

/// The drain queue. Its pop sequence is a total order over the contents,
/// so a heap rebuilt via build() from its items() — in any order — drains
/// identically; this is what lets a checkpoint store one membership bit
/// per client instead of the heap's internal layout.
using EventHeap = util::DaryHeap<Event, FiresBefore>;

}  // namespace resmodel::engine
