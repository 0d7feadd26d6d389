// Counters describing protocol activity.
//
// One Metrics instance per process plus one aggregate per runtime. Counters
// are atomics so the threaded runtime can bump them without locks; in the
// deterministic simulator they are simply uncontended.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "src/obs/histogram.h"

namespace adgc {

/// A relaxed-ordering counter. Copyable so Metrics snapshots can be taken.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : v_(other.get()) {}
  Counter& operator=(const Counter& other) {
    v_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// All protocol counters. Extend freely; report() prints non-zero entries.
struct Metrics {
  // Mutator / RMI.
  Counter invocations_sent;
  Counter invocations_received;
  Counter invocations_dropped;  // delivered for a ref with no live scion
  Counter replies_sent;
  Counter replies_received;
  Counter refs_exported;
  Counter refs_imported;

  // Acyclic DGC.
  Counter stubs_created;
  Counter stubs_deleted;
  Counter scions_created;
  Counter scions_deleted_acyclic;   // via NewSetStubs
  Counter scions_deleted_cyclic;    // via DCDA cycle-found
  Counter new_set_stubs_sent;
  Counter new_set_stubs_received;
  Counter add_scion_sent;
  Counter add_scion_retries;
  Counter add_scion_abandoned;  // handshake gave up after max retries

  // Local GC.
  Counter lgc_runs;
  Counter objects_allocated;
  Counter objects_reclaimed;

  // Snapshots.
  Counter snapshots_taken;
  Counter snapshot_bytes;             // serialized bytes of persisted snapshots only
  Counter summarizations;
  Counter snapshots_coalesced;        // request while one in flight (pipeline)
  Counter snapshot_persist_failures;  // store write/publish failed (summary still published)

  // DCDA.
  Counter detections_started;
  Counter detections_cycle_found;
  Counter detections_aborted_ic;        // invocation-counter mismatch
  Counter detections_aborted_local;     // Local.Reach stub hit
  Counter detections_dropped_no_scion;  // CDM to scion absent from snapshot
  Counter detections_dropped_dup;       // derivation added nothing
  Counter cdms_deduped;                 // identical CDM seen recently
  Counter detections_timed_out;
  Counter detections_aborted_crash;     // in-flight when a peer crashed
  Counter cdms_sent;
  Counter cdms_received;
  Counter cdm_bytes;

  // Network.
  Counter messages_sent;
  Counter messages_delivered;
  Counter messages_lost;
  Counter messages_duplicated;
  Counter bytes_sent;

  // Adaptive degradation (per-peer health, backoff, load shedding).
  Counter peer_suspect_transitions;     // healthy→suspected flips observed
  Counter cdms_shed;                    // CDM dropped at a full TCP write queue
  Counter new_set_stubs_shed;           // NewSetStubs dropped at a full TCP write queue
  Counter detections_deferred_backoff;  // candidate skipped (relaunch backoff)
  Counter candidates_deprioritized;     // candidate ranked last (suspected first hop)

  // Permanent-failure eviction.
  Counter peers_evicted;                // peers committed dead locally
  Counter eviction_scions_dropped;      // scions held by an evicted peer
  Counter eviction_stubs_retired;       // stubs toward an evicted peer
  Counter detections_aborted_eviction;  // in-flight detections torn down by eviction
  Counter eviction_nacks_sent;          // Evicted NACKs emitted at rejection
  Counter eviction_nacks_received;      // zombie side: told to restart
  Counter messages_rejected_evicted;    // traffic from a tombstoned incarnation
  Counter nss_solicits_sent;            // lease probes to silent scion holders
  Counter peer_health_slots;            // gauge: tracked peers after last LGC
  Counter peer_health_slots_pruned;     // idle slots reclaimed

  // Control-plane batching (per-peer coalescing of CDM / NSS / AddScionAck).
  Counter batches_sent;              // flushes that put a real batch (>=2) on the wire
  Counter batch_singletons;          // flushes degenerated to one plain message
  Counter batched_messages;          // control messages that entered a batch
  Counter batch_flush_size;          // flush reasons...
  Counter batch_flush_count;
  Counter batch_flush_deadline;
  Counter batch_flush_priority;      // invoke/reply/AddScion to same peer forced it
  Counter batch_flush_burst;         // end of a CDM scan/forward burst
  Counter batch_flush_drain;         // shutdown/drain flush
  Counter batch_bytes_saved;         // (n-1) * frame header per flushed batch
  Counter batches_received;
  Counter batch_messages_received;   // messages unpacked from received batches
  Counter batches_poisoned;          // batch dropped whole: some item undecodable
  Counter arena_acquires;            // batch buffers handed out by the arena
  Counter arena_reuses;              // ...of which satisfied from the free list

  // TCP transport (real-socket deployment).
  Counter tcp_connects;          // outbound connect() attempts
  Counter tcp_accepts;           // inbound connections accepted
  Counter tcp_disconnects;       // connections closed on error/EOF
  Counter tcp_reconnect_backoffs;  // reconnects deferred by the backoff series
  Counter tcp_frames_sent;
  Counter tcp_frames_received;
  Counter tcp_frames_rejected;   // framing errors (magic/version/CRC/length)
  Counter tcp_hello_sent;
  Counter tcp_hello_received;

  // Crash/restart fault model.
  Counter process_crashes;
  Counter process_restarts;
  Counter restarts_recovered;           // restart found a usable snapshot
  Counter messages_dropped_crashed;     // destination was down
  Counter messages_stale_incarnation;   // from/to a dead incarnation

  // Latency / size distributions (log-bucketed lock-free histograms; see
  // src/obs/histogram.h). Recorded at the hot spots of every runtime and
  // exported — alongside the counters — through the admin endpoint's
  // Prometheus /metrics exposition (src/obs/prom.h).
  Histogram rmi_rtt_us;               // invoke → reply round trip (Env clock)
  Histogram lgc_pause_us;             // run_lgc wall time (incl. NSS build)
  Histogram snapshot_capture_us;      // heap/table capture (always mutator-visible)
  Histogram snapshot_persist_us;      // serialize + store write (persisted snapshots only)
  Histogram snapshot_summarize_us;    // summarization wall time
  Histogram detection_lifetime_us;    // initiator-observed detection lifetime
  Histogram batch_flush_msgs;         // messages per control-plane batch flush
  Histogram tcp_writeq_depth;         // per-peer write queue depth at enqueue

  /// Adds every counter and histogram of `other` into this (aggregation
  /// across processes).
  void merge(const Metrics& other);

  /// Multi-line human-readable dump of the non-zero counters (sorted by
  /// name, deterministically) followed by the non-empty histograms.
  std::string report(const std::string& prefix = "") const;

  /// Zeroes every counter and histogram.
  void reset();

  /// Visits every counter as (name, value) in sorted name order.
  void for_each_counter(
      const std::function<void(const char*, std::uint64_t)>& fn) const;
  /// Visits every histogram as (name, histogram) in sorted name order.
  void for_each_histogram(
      const std::function<void(const char*, const Histogram&)>& fn) const;
};

}  // namespace adgc
