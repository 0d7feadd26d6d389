// Per-peer coalescing of outbound DGC control messages.
//
// The control plane (CDMs, NewSetStubs, AddScion acks) is many small
// messages, each paying an Envelope, a frame header, a CRC and a write() of
// its own. The Batcher queues these per destination and serializes them
// directly into one contiguous arena-backed buffer (an encoded BatchMsg);
// a flush puts the whole batch on the wire as ONE transport message.
//
// A batch flushes when it reaches `batch_max_msgs` messages or
// `batch_max_bytes` payload bytes, when the oldest queued message has waited
// `batch_flush_us` (a deadline timer armed at batch open), when a
// higher-priority message (invocation, reply, AddScion request) is about to
// be sent to the same peer (preserving relative order on the link), at the
// end of a CDM burst (so batching never adds per-hop detection latency),
// or on drain.
//
// Interaction with the PR 2 degradation layer: shedding runs BEFORE the
// batcher in Process::send, so priorities are unchanged — a shed CDM never
// enters a batch, and batches are never shed (they may carry acks, which
// sit above the shedding line). Incarnation stamps are per-Envelope; a
// batch shares one stamp pair, and the delivery path drops stale envelopes
// whole — exactly the required "batch dropped as a unit" semantics. A
// crash discards open batches with the Process; queued control messages are
// loss-tolerant by protocol design, so nothing is retransmitted from here.
//
// Single-threaded: owned by a Process, used only from its execution context.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/common/arena.h"
#include "src/common/config.h"
#include "src/net/transport.h"

namespace adgc {

class Batcher {
 public:
  enum class FlushReason {
    kSize,      // batch_max_bytes reached
    kCount,     // batch_max_msgs reached
    kDeadline,  // batch_flush_us timer fired
    kPriority,  // unbatchable message to the same peer is about to go out
    kBurst,     // end of a CDM scan/forward burst
    kDrain,     // shutdown / explicit drain
  };

  Batcher(const ProcessConfig& cfg, Env& env) : cfg_(cfg), env_(env) {}

  /// True for message kinds that may ride in a batch. Invocations and
  /// replies are latency-critical; AddScion requests gate invocation sends
  /// (their retry path tolerates delay but gains nothing from batching —
  /// each retry is a lone message); eviction NACKs and NSS solicits are
  /// rare one-offs. (The section-5 baselines never reach the batcher: they
  /// are sim-harness protocols outside Process.)
  static bool batchable(const MessagePayload& msg);

  /// Queues `msg` toward `dst` if batching is on and the kind is batchable.
  /// Returns false when the caller must send the message itself (after a
  /// flush_peer(kPriority) — offer() does NOT flush in that case).
  bool offer(ProcessId dst, const MessagePayload& msg);

  /// Sends the open batch toward `dst`, if any.
  void flush_peer(ProcessId dst, FlushReason reason);

  /// Sends every open batch.
  void flush_all(FlushReason reason);

  /// Sends every open batch that carries at least one CDM. Called at the
  /// end of a detection burst: CDMs coalesce within the burst but never
  /// wait out the deadline, so detection latency is unaffected by batching.
  void flush_cdm_batches(FlushReason reason);

  /// Drops the open batch toward a crashed peer. Its messages were all
  /// loss-tolerant control traffic addressed to a dead incarnation; the
  /// runtimes would drop the envelope anyway (stale stamps), this merely
  /// saves the wire bytes. The buffer returns to the arena.
  void discard_peer(ProcessId dst);

  std::size_t open_batches() const { return open_.size(); }
  std::uint32_t queued(ProcessId dst) const {
    auto it = open_.find(dst);
    return it == open_.end() ? 0 : it->second.count;
  }

 private:
  struct OpenBatch {
    ByteWriter w;
    std::uint32_t count = 0;
    bool has_cdm = false;
    /// Identity of this batch for the deadline timer: the timer closure
    /// captures (dst, epoch) and fires only if the SAME batch is still
    /// open — a batch flushed for another reason and reopened later must
    /// not inherit the stale deadline.
    std::uint64_t epoch = 0;
  };

  void note_reason(FlushReason reason);

  const ProcessConfig& cfg_;
  Env& env_;
  BufferArena arena_;
  std::map<ProcessId, OpenBatch> open_;
  std::uint64_t next_epoch_ = 1;
};

}  // namespace adgc
