// Fault sweeps — the acceptance harnesses of the fault-tolerance layers.
//
// Each sweep plants distributed garbage plus a ring of live sentinels
// (rooted L_p holds a remote reference to the unrooted N_{p+1}), runs one
// fault schedule and judges the run with one oracle: every planted garbage
// object is gone, every live object whose owner is alive still exists, and
// no survivor holds a stub toward, or a scion from, a dead process.
//
//   * crash — Fig. 3 on four processes; each is crashed and restarted once,
//     mid-detection.
//   * chaos — Fig. 3 and Fig. 4 on six processes under loss, duplication,
//     reordering, a rotating link partition and a crash/restart rotation.
//   * eviction — a garbage ring on six processes with invocations along the
//     sentinel ring; one process dies forever and peer-death eviction must
//     drain what the survivors hold toward it. The sentinel only the victim
//     kept alive is garbage from then on.
//
// Also the adaptive-vs-fixed backoff comparison: the same scenario under
// sustained loss, run with and without the adaptive-degradation layer.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/config.h"
#include "src/common/metrics.h"

namespace adgc::sim {

struct SweepResult {
  bool garbage_collected = false;  // every planted garbage object reclaimed
  bool live_lost = false;          // a live object with a live owner was collected
  bool stranded = false;           // a survivor still references a dead process
  std::size_t crashes = 0;
  std::size_t recovered = 0;       // restarts that found a usable snapshot
  std::string detail;              // human-readable diagnosis on failure
  Metrics totals;                  // Runtime::total_metrics() at the end

  bool ok() const { return garbage_collected && !live_lost && !stranded; }
};

/// A uniquely named snapshot-store directory under the system temp
/// directory, made by mkdtemp from `prefix` (so concurrent runs never share
/// one) and removed with its contents on destruction.
class SnapshotDir {
 public:
  explicit SnapshotDir(const std::string& prefix);
  ~SnapshotDir();
  SnapshotDir(const SnapshotDir&) = delete;
  SnapshotDir& operator=(const SnapshotDir&) = delete;

  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// Crash sweep; deterministic in `seed`. Its snapshot stores live in a
/// fresh SnapshotDir.
SweepResult run_crash_sweep(std::uint64_t seed);

struct ChaosSweepParams {
  std::uint64_t seed = 1;
  /// Fault-storm intensity.
  double loss_probability = 0.10;
  double duplicate_probability = 0.05;
  /// Control-plane batching (per-peer coalescing of CDMs / NewSetStubs /
  /// AddScion acks). Both wire shapes must pass the same oracle; the
  /// differential leg in test_chaos_sweep runs one seed each way.
  bool batching = true;
  /// Asynchronous snapshot pipeline (periodic snapshots publish their
  /// summary after `snapshot_pipeline_latency_us`, detector reads the stale
  /// one meanwhile). Both modes must pass the same oracle; the differential
  /// leg in test_chaos_sweep runs one seed each way.
  bool snapshot_pipeline = true;
  /// Permanent-failure eviction window (ProcessConfig::peer_death_timeout_us;
  /// 0 keeps eviction off). When enabled it must exceed every transient
  /// silence the storm produces — partitions, crash downtime — or a live
  /// peer gets falsely evicted and its sentinel scion dropped (live_lost).
  SimTime peer_death_timeout_us = 0;
};

/// Chaos sweep; deterministic in `params.seed`. Its snapshot stores live in
/// a fresh SnapshotDir.
SweepResult run_chaos_sweep(const ChaosSweepParams& params);

/// Eviction sweep; deterministic in `seed`.
SweepResult run_eviction_sweep(std::uint64_t seed);

/// Adaptive-vs-fixed retry traffic under sustained loss. Both runs share the
/// seed, scenario and duration; only `adaptive_faults` differs.
struct BackoffComparison {
  /// Retry/probe traffic: AddScion re-sends + CDMs launched and forwarded.
  std::uint64_t adaptive_retry_messages = 0;
  std::uint64_t fixed_retry_messages = 0;
  /// All messages put on the wire.
  std::uint64_t adaptive_total_messages = 0;
  std::uint64_t fixed_total_messages = 0;

  bool adaptive_reduced() const {
    return adaptive_retry_messages < fixed_retry_messages;
  }
};

BackoffComparison run_backoff_comparison(std::uint64_t seed, double loss = 0.30,
                                         SimTime run_us = 6'000'000);

}  // namespace adgc::sim
