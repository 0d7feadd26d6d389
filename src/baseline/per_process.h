// Per-process state of a sim-harness baseline.
//
// The section-5 baselines keep their protocol state outside Process, one
// record per process. A record must still die with a crash, exactly as if
// it lived inside the Process instance: it is tagged with the incarnation
// that created it and starts over once the process has restarted.
#pragma once

#include <vector>

#include "src/common/ids.h"
#include "src/rt/runtime.h"

namespace adgc {

template <typename State>
class PerProcess {
 public:
  explicit PerProcess(const Runtime& rt) : rt_(rt), slots_(rt.size()) {}

  /// `pid`'s state, fresh if the process restarted since the last access.
  State& operator[](ProcessId pid) {
    Slot& slot = slots_.at(pid);
    const Incarnation inc = rt_.incarnation(pid);
    if (slot.inc != inc) slot = Slot{inc, State{}};
    return slot.state;
  }

  /// `pid`'s state, or nullptr if it died with the process.
  const State* find(ProcessId pid) const {
    const Slot& slot = slots_.at(pid);
    const bool live = rt_.alive(pid) && slot.inc == rt_.incarnation(pid);
    return live ? &slot.state : nullptr;
  }

 private:
  struct Slot {
    Incarnation inc = 0;
    State state;
  };

  const Runtime& rt_;
  std::vector<Slot> slots_;
};

}  // namespace adgc
