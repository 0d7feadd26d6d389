// Deterministic discrete-event runtime.
//
// Owns N processes, the simulated network and one global event queue.
// Everything — message deliveries, collector timers — is an event; a run is
// a pure function of (configuration, seed, mutator script), which is what
// makes the safety/liveness test suite exhaustive and reproducible.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <variant>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/net/sim_network.h"
#include "src/net/transport.h"
#include "src/rt/process.h"

namespace adgc {

class Runtime {
 public:
  explicit Runtime(std::size_t num_processes, RuntimeConfig cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  std::size_t size() const { return procs_.size(); }
  Process& proc(ProcessId pid) { return *procs_.at(pid); }
  const Process& proc(ProcessId pid) const { return *procs_.at(pid); }

  SimTime now() const { return now_; }

  // ---- crash/restart fault injection ----
  /// Kills the process: its state is lost, queued timers and in-flight
  /// messages to/from it are discarded at execution time, and every other
  /// live process gets an on_peer_crashed notification (aborting in-flight
  /// detections that may have touched it).
  void crash(ProcessId pid);
  /// Brings a crashed process back under the next incarnation. It recovers
  /// heap + DGC tables + detector summary from the persistent snapshot store
  /// (config `snapshot_dir`); with no usable snapshot it cold-starts empty.
  /// Returns true if a snapshot was recovered.
  bool restart(ProcessId pid);
  bool alive(ProcessId pid) const { return procs_.at(pid) != nullptr; }
  Incarnation incarnation(ProcessId pid) const { return incarnations_.at(pid); }

  /// Executes every event scheduled in the next `duration` microseconds.
  void run_for(SimTime duration);
  void run_until(SimTime deadline);
  /// Executes one event. Returns false when the queue is empty.
  bool step();

  std::size_t pending_events() const { return queue_.size() + list_.size(); }

  // ---- explicit scheduling (model-checking choice points) ----
  /// One schedulable event, as the model checker's Explorer sees it.
  struct PendingInfo {
    std::uint64_t id = 0;   // creation sequence number; stable handle
    SimTime when = 0;       // the time the normal scheduler would fire it
    bool is_message = false;
    ProcessId src = kNoProcess;  // kNoProcess for timers
    ProcessId dst = kNoProcess;  // timer: the owning process
    std::uint8_t tag = 0;        // MessageTag byte for messages, 0 for timers
  };
  /// Switches the runtime into explicit-schedule mode: events no longer fire
  /// in timestamp order under step()/run_until(); they accumulate in a
  /// pending list and the caller picks which to execute (or drop) by id.
  /// run_until() degrades to a pure clock advance. Any event already queued
  /// (e.g. the periodic collector timers armed by start()) migrates into the
  /// pending list. One-way switch.
  void enable_explicit_schedule();
  bool explicit_schedule() const { return explicit_; }
  /// The pending events, in creation order (deterministic).
  std::vector<PendingInfo> pending_infos() const;
  /// Executes the pending event `id` now; logical time advances to
  /// max(now, event time). Returns false if no such event is pending.
  bool execute_event(std::uint64_t id);
  /// Discards the pending event `id` without executing it (models message
  /// loss when it is an Envelope). Returns false if no such event is pending.
  bool drop_event(std::uint64_t id);
  /// Removes pending events the delivery path would ignore anyway (dead or
  /// stale-incarnation destination/owner), bumping the same drop counters
  /// execute() would. Keeps the choice space free of no-op decisions.
  std::size_t prune_stale_events();

  SimNetwork& network() { return *network_; }
  const RuntimeConfig& config() const { return cfg_; }

  // ---- sim-harness protocols (the section-5 baselines in src/baseline) ----
  /// Process `pid`'s Env: its clock, sends over the simulated network
  /// (latency, loss and partitions apply) and timers owned by its current
  /// incarnation, which die with a crash like the process's own.
  Env& env(ProcessId pid);
  /// Offered every envelope that passed the crash/incarnation checks, before
  /// Process::deliver; returns true when it consumed the envelope. Harness
  /// protocols use tag bytes production never accepts and claim exactly
  /// those. The hook must outlive every later event the runtime executes.
  using EnvelopeHook = std::function<bool(const Envelope&)>;
  void add_envelope_hook(EnvelopeHook hook) { hooks_.push_back(std::move(hook)); }

  /// Network-level counters (sends/losses/bytes).
  Metrics& net_metrics() { return net_metrics_; }
  /// Sum of all per-process counters plus the network's.
  Metrics total_metrics() const;
  /// All retained structured-trace events across processes, merged and
  /// sorted by timestamp (adgc_sim --obs-dump). Empty when tracing is off.
  std::vector<obs::Event> trace_events() const;

  // ---- convenience graph construction ----
  /// Creates a remote reference from object `from` to object `to` (their
  /// owners may be any two distinct processes). Returns the RefId.
  RefId link(ObjectId from, ObjectId to);
  /// Makes `from` hold an existing reference (shared proxy).
  void link_existing(ObjectId from, RefId ref) {
    proc(from.owner).hold_existing_ref(from.seq, ref);
  }

 private:
  struct TimerEvent {
    ProcessId owner;
    /// Incarnation of the owner when the timer was armed; `fn` captures that
    /// Process instance, so the timer is skipped if the owner has since
    /// crashed or been replaced by a newer incarnation.
    Incarnation inc;
    std::function<void()> fn;
  };
  struct Event {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break: total determinism
    std::variant<Envelope, TimerEvent> what;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  class SimEnv;  // per-process Env implementation

  void push_at(SimTime when, std::variant<Envelope, TimerEvent> what);
  void execute(Event&& ev);
  /// True when execute() would discard the event without any effect.
  bool event_stale(const Event& ev) const;

  RuntimeConfig cfg_;
  Rng rng_;
  SimTime now_ = 0;
  std::uint64_t next_event_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  bool explicit_ = false;
  std::vector<Event> list_;  // pending events in explicit-schedule mode
  Metrics net_metrics_;
  std::unique_ptr<SimNetwork> network_;
  std::vector<std::unique_ptr<SimEnv>> envs_;
  std::vector<std::unique_ptr<Process>> procs_;  // null slot = crashed
  std::vector<Incarnation> incarnations_;
  std::vector<EnvelopeHook> hooks_;
};

}  // namespace adgc
