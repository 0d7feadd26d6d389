// Baseline complete DGC #2: synchronized global tracing ("garbage
// collecting the world", Lang/Queinnec/Piquer '92 family, simplified).
//
// A coordinator starts an epoch; every process marks from its local roots,
// propagating marks across remote references (GtMark). Termination is
// detected by counting: the coordinator polls all members and ends the
// epoch when Σsent == Σprocessed, stable across two consecutive complete
// polls (a simplified Safra-style detection — getting this fully right in
// an asynchronous faulty system is exactly the §5 critique, cf. FLP).
// On GtFinish every process deletes its unmarked scions.
//
// Deliberate limitations (it is a *baseline*, run on quiescent systems in
// benches/tests): requires every member to participate — one slow or
// partitioned process stalls the world; mutation during an epoch is handled
// conservatively (scions touched or created after the epoch start survive),
// not precisely; message loss stalls the epoch (no retries).
//
// Like the back-tracer, a sim-harness object: built on a Runtime, with its
// own messages on the simulated network, its per-process state and counters
// outside Process, and read-only access to each process except for scion
// deletion through Process::drop_scion.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_set>
#include <variant>
#include <vector>

#include "src/baseline/per_process.h"
#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/rt/runtime.h"

namespace adgc {

struct GtStartMsg {
  std::uint64_t epoch = 0;
  std::uint64_t epoch_start = 0;  // coordinator clock (SimTime)

  friend bool operator==(const GtStartMsg&, const GtStartMsg&) = default;
};

/// Mark request: "the object behind scion `ref` is globally reachable".
struct GtMarkMsg {
  std::uint64_t epoch = 0;
  RefId ref = kNoRef;

  friend bool operator==(const GtMarkMsg&, const GtMarkMsg&) = default;
};

struct GtPollMsg {
  std::uint64_t epoch = 0;
  std::uint64_t poll_seq = 0;

  friend bool operator==(const GtPollMsg&, const GtPollMsg&) = default;
};

struct GtStatusMsg {
  std::uint64_t epoch = 0;
  std::uint64_t poll_seq = 0;
  std::uint64_t marks_sent = 0;
  std::uint64_t marks_processed = 0;

  friend bool operator==(const GtStatusMsg&, const GtStatusMsg&) = default;
};

struct GtFinishMsg {
  std::uint64_t epoch = 0;

  friend bool operator==(const GtFinishMsg&, const GtFinishMsg&) = default;
};

using GlobalTraceMessage =
    std::variant<GtStartMsg, GtMarkMsg, GtPollMsg, GtStatusMsg, GtFinishMsg>;

/// Wire tags, outside the production MessageTag space (decode_message()
/// rejects them): kGtStartTag plus the message's variant index.
inline constexpr std::uint8_t kGtStartTag = 9;
inline constexpr std::uint8_t kGtFinishTag = 13;

std::vector<std::byte> encode_global_trace_message(const GlobalTraceMessage& m);
/// Throws DecodeError on malformed input or a tag outside 9-13.
GlobalTraceMessage decode_global_trace_message(std::span<const std::byte> bytes);

class GlobalTraceBaseline {
 public:
  struct Counters {
    std::uint64_t epochs_started = 0;
    std::uint64_t marks_sent = 0;
    std::uint64_t status_msgs = 0;
    std::uint64_t scions_deleted = 0;
  };

  /// Hooks into `rt`'s delivery path; must outlive every later run of `rt`.
  explicit GlobalTraceBaseline(Runtime& rt);

  /// `coordinator` starts an epoch over `members` (the coordinator always
  /// participates). Returns false if it already runs one.
  bool start_epoch(ProcessId coordinator, std::vector<ProcessId> members,
                   SimTime poll_interval_us = 20'000);

  bool coordinating(ProcessId coordinator) const;
  std::uint64_t completed_epochs(ProcessId coordinator) const;

  /// Gives up on a stalled epoch (e.g. a member is partitioned away — the
  /// scenario this baseline cannot survive).
  void abort_epoch(ProcessId coordinator) { states_[coordinator].coordinating = false; }

  const Counters& counters() const { return counters_; }

 private:
  struct State {
    // --- participant state (one epoch at a time) ---
    std::uint64_t epoch = 0;
    SimTime epoch_start_time = 0;
    bool participating = false;
    std::unordered_set<ObjectSeq> marked_objects;
    std::unordered_set<RefId> marked_stubs;   // propagated already
    std::unordered_set<RefId> marked_scions;  // proven reachable this epoch
    std::uint64_t sent = 0;
    std::uint64_t processed = 0;

    // --- coordinator state ---
    bool coordinating = false;
    std::vector<ProcessId> members;
    SimTime poll_interval_us = 20'000;
    std::uint64_t poll_seq = 0;
    std::uint64_t next_epoch = 1;
    std::map<ProcessId, GtStatusMsg> poll_replies;  // for the current poll
    std::uint64_t prev_sent_total = ~0ULL;
    std::uint64_t prev_processed_total = ~0ULL;
    std::uint64_t completed = 0;
  };

  bool deliver(const Envelope& env);
  void send(ProcessId src, ProcessId dst, const GlobalTraceMessage& m);
  void send_poll(ProcessId self);
  void local_mark(ProcessId self, ObjectSeq seed);
  // Handlers: `self` received the message from `src`.
  void on(ProcessId self, ProcessId src, const GtStartMsg& msg);
  void on(ProcessId self, ProcessId src, const GtMarkMsg& msg);
  void on(ProcessId self, ProcessId src, const GtPollMsg& msg);
  void on(ProcessId self, ProcessId src, const GtStatusMsg& msg);
  void on(ProcessId self, ProcessId src, const GtFinishMsg& msg);

  Runtime& rt_;
  PerProcess<State> states_;
  Counters counters_;
};

}  // namespace adgc
