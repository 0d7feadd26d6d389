// The layer suite: per-layer costs timed at public calls on fixtures shaped
// by the workload (copies of its live heaps, messages of its shapes, the
// detections its own summaries support), plus the heap-size scaling leg.
// It runs only in traced runs and fills every per-layer metric the
// workload itself did not already measure.
#pragma once

#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/net/message.h"
#include "src/rt/runtime.h"
#include "src/snapshot/snapshot.h"

namespace pb {

struct SuiteInput {
  Shape shape;
  /// capture_snapshot() copies of the workload's live heaps.
  std::vector<adgc::SnapshotData> heaps;
  /// CDMs seen while replaying the workload's own detections.
  std::vector<adgc::CdmMsg> cdms;
};

void layer_suite(const Options& o, Tracer* t, const SuiteInput& in, Report& r);

/// Detection replay: standalone Detectors built on each process's published
/// summary, CDMs routed by the bench, every on_cdm() timed.
struct ReplayResult {
  std::vector<double> on_cdm_ns;
  std::uint64_t started = 0;
  std::uint64_t found = 0;
  std::uint64_t cdms = 0;
  std::vector<adgc::CdmMsg> seen;  // bounded sample of delivered CDMs
};
ReplayResult replay_detections(
    adgc::Runtime& rt,
    const std::vector<std::pair<adgc::ProcessId, adgc::RefId>>& candidates, Tracer* t,
    std::size_t max_cdms = 200'000);

/// Per-layer figures read from the runtime's Metrics counters.
/// `proc_seconds` is processes × measured seconds (wall or simulated).
void counter_layers(Report& r, const adgc::Metrics& m, double proc_seconds,
                    const std::string& src);

/// Adds the replay's dcda.* figures.
void replay_layers(Report& r, const ReplayResult& rep, const std::string& src);

/// Emits `name` unless the report already has it.
void layer_once(Report& r, const std::string& name, double v, const std::string& unit,
                const std::string& src);

}  // namespace pb
