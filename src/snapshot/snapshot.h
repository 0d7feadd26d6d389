// Heap snapshots and their DCDA summarization.
//
// Per the paper (§2.2, §3 "Graph Summarization"): each process periodically,
// and with no coordination whatsoever, serializes its object graph; the
// snapshot is then *summarized* into just the scion/stub relations the cycle
// detector needs:
//    StubsFrom(scion)  — stubs reachable from the scion's target object
//    ScionsTo(stub)    — scions whose target reaches some holder of the stub
//    Local.Reach(stub) — some holder is reachable from the local root
// plus the invocation counters frozen at snapshot time.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/rt/heap.h"

namespace adgc {

/// Logical content of one process snapshot (pre-summarization).
struct SnapshotData {
  struct Obj {
    ObjectSeq seq = kNoObject;
    std::vector<ObjectSeq> local_fields;
    std::vector<RefId> remote_fields;
    std::vector<std::byte> payload;
  };
  struct Stub {
    RefId ref = kNoRef;
    ObjectId target;
    std::uint64_t ic = 0;
  };
  struct Scion {
    RefId ref = kNoRef;
    ProcessId holder = kNoProcess;
    ObjectSeq target = kNoObject;
    std::uint64_t ic = 0;
  };

  ProcessId pid = kNoProcess;
  SimTime taken_at = 0;
  std::vector<ObjectSeq> roots;
  std::vector<Obj> objects;
  std::vector<Stub> stubs;
  std::vector<Scion> scions;
};

/// Captures the current heap + DGC tables into `snap`, overwriting its
/// contents but reusing its vectors' capacity: capturing into the previous
/// snapshot allocates only where the heap has outgrown it.
void capture_snapshot_into(SnapshotData& snap, ProcessId pid, SimTime now, const Heap& heap,
                           const StubTable& stubs, const ScionTable& scions);

/// Captures the current heap + DGC tables into a fresh SnapshotData.
SnapshotData capture_snapshot(ProcessId pid, SimTime now, const Heap& heap,
                              const StubTable& stubs, const ScionTable& scions);

/// Rebuilds heap + DGC tables from a snapshot (crash recovery). The caller
/// provides empty tables. Restored scions come back unconfirmed with a fresh
/// grace window and `target_root_reachable = true`, and stub holder counts
/// are recomputed from the restored heap — conservative defaults that can
/// delay collection but never delete a live reference. The acyclic protocol
/// (NewSetStubs / AddScion retry) and the next LGC re-derive the exact state.
void restore_snapshot(const SnapshotData& snap, Heap& heap, StubTable& stubs,
                      ScionTable& scions, SimTime now);

/// Summarized form consumed by the DCDA.
struct ScionSummary {
  RefId ref = kNoRef;
  std::uint64_t ic = 0;
  ProcessId holder = kNoProcess;  // process holding the matching stub
  ObjectSeq target = kNoObject;
  std::vector<RefId> stubs_from;  // sorted

  friend bool operator==(const ScionSummary&, const ScionSummary&) = default;
};

struct StubSummary {
  RefId ref = kNoRef;
  std::uint64_t ic = 0;
  ObjectId target;
  bool local_reach = false;
  std::vector<RefId> scions_to;  // sorted

  friend bool operator==(const StubSummary&, const StubSummary&) = default;
};

struct SummarizedGraph {
  ProcessId pid = kNoProcess;
  SimTime taken_at = 0;
  std::uint64_t version = 0;  // monotonically increasing per process
  std::unordered_map<RefId, ScionSummary> scions;
  std::unordered_map<RefId, StubSummary> stubs;

  friend bool operator==(const SummarizedGraph&, const SummarizedGraph&) = default;

  const ScionSummary* scion(RefId ref) const {
    auto it = scions.find(ref);
    return it == scions.end() ? nullptr : &it->second;
  }
  const StubSummary* stub(RefId ref) const {
    auto it = stubs.find(ref);
    return it == stubs.end() ? nullptr : &it->second;
  }
};

}  // namespace adgc
