// Baseline cycle detector: distributed back-tracing in the style of
// Maheshwari & Liskov (PODC'97), simplified.
//
// To decide whether a suspect scion protects garbage, trace *backwards*:
// the scion is reachable iff its matching stub (at the holder) is locally
// reachable there, or some scion converging on that stub (ScionsTo) is
// itself reachable — recursively. The recursion is a chain of remote
// request/reply pairs, and — exactly the drawback the paper's §5 points out —
// every intermediate process must keep per-trace state (the pending-children
// records) until the trace completes.
//
// A sim-harness object for the comparison tests and benches: built on a
// Runtime, it carries its own messages over the simulated network (tags the
// production decoder rejects) and keeps its per-process state and counters
// outside Process. It reads each process only through its const accessors
// and reuses its summarized snapshot, so the comparison with the DCDA is
// apples-to-apples; a proven-garbage scion is deleted through
// Process::drop_scion, the DCDA's own revalidating path.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <variant>
#include <vector>

#include "src/baseline/per_process.h"
#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/rt/runtime.h"

namespace adgc {

/// "Is the object behind scion `subject_ref` reachable, other than through
/// the path already visited?". Synchronous chains of these model the related
/// work's remote-procedure-call recursion.
struct BacktraceRequestMsg {
  std::uint64_t trace_id = 0;
  std::uint64_t req_id = 0;     // allocated by the requester; echoed in reply
  RefId subject_ref = kNoRef;   // stub at the receiver to examine
  std::vector<RefId> visited;   // references already on the back-trace path
  std::uint32_t depth = 0;

  friend bool operator==(const BacktraceRequestMsg&, const BacktraceRequestMsg&) = default;
};

struct BacktraceReplyMsg {
  std::uint64_t trace_id = 0;
  std::uint64_t req_id = 0;
  bool reachable = false;  // some local root reaches the subject

  friend bool operator==(const BacktraceReplyMsg&, const BacktraceReplyMsg&) = default;
};

using BacktraceMessage = std::variant<BacktraceRequestMsg, BacktraceReplyMsg>;

/// Wire tags, outside the production MessageTag space: decode_message()
/// rejects them.
inline constexpr std::uint8_t kBacktraceRequestTag = 7;
inline constexpr std::uint8_t kBacktraceReplyTag = 8;

std::vector<std::byte> encode_backtrace_message(const BacktraceMessage& m);
/// Throws DecodeError on malformed input or a tag not listed above.
BacktraceMessage decode_backtrace_message(std::span<const std::byte> bytes);

class BacktraceBaseline {
 public:
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t replies = 0;
    std::uint64_t cycles_found = 0;
    std::uint32_t max_depth = 0;  // longest request chain seen
  };

  /// Hooks into `rt`'s delivery path; must outlive every later run of `rt`.
  explicit BacktraceBaseline(Runtime& rt);

  /// Origin side: process `pid` starts a trace on a suspect scion it owns.
  void start(ProcessId pid, RefId candidate);

  /// Drops `pid`'s trace records older than `max_age` (loss tolerance).
  /// Also runs with the process's `detection_timeout_us` whenever a trace
  /// touches `pid`.
  void expire(ProcessId pid, SimTime max_age);

  std::size_t state_records(ProcessId pid) const;
  const Counters& counters() const { return counters_; }

 private:
  struct Trace {  // origin-side record
    std::uint64_t trace_id = 0;
    RefId candidate = kNoRef;
    std::uint64_t start_ic = 0;
    SimTime started_at = 0;
  };
  struct Node {  // intermediate-side record (one per forwarded fan-out)
    std::uint64_t trace_id = 0;
    std::uint64_t parent_req = 0;   // req_id to echo upstream
    ProcessId reply_to = kNoProcess;
    std::size_t pending = 0;
    std::vector<std::uint64_t> children;  // child req ids (for cleanup)
    SimTime created_at = 0;
  };
  struct State {  // one process's records
    std::uint64_t next_trace = 1;
    std::uint64_t next_req = 1;
    std::uint64_t next_node_key = 1;
    std::map<std::uint64_t, Trace> traces;                 // keyed by root req_id
    std::map<std::uint64_t, Node> nodes;                   // keyed by node key
    std::map<std::uint64_t, std::uint64_t> child_to_node;  // child req → node key
  };

  bool deliver(const Envelope& env);
  /// `pid`'s records, with those older than its detection timeout dropped.
  State& touch(ProcessId pid);
  // Handlers: `self` received the message from `src`.
  void on(ProcessId self, ProcessId src, const BacktraceRequestMsg& msg);
  void on(ProcessId self, ProcessId src, const BacktraceReplyMsg& msg);
  void reply_up(ProcessId self, const Node& node, bool reachable);
  static void drop_node(State& st, std::uint64_t key);
  void finish_trace(ProcessId self, State& st, std::uint64_t req_id, bool reachable);
  void send(ProcessId src, ProcessId dst, const BacktraceMessage& m);

  Runtime& rt_;
  PerProcess<State> states_;
  Counters counters_;
};

}  // namespace adgc
