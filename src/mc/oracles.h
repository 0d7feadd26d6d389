// Invariant oracles shared by the model checker and the random sweeps.
//
// The safety oracle needs no shadow graph: a false collection always leaves
// a dangling edge at the frontier of the surviving live region — a rooted
// object gone, a local field pointing at nothing, a held reference with no
// stub entry, or a live-backed stub whose owner-side scion (or target
// object) has been dropped. BFS from the ground-truth roots and check every
// edge crossed; this is exact, cheap on scenario-sized heaps, and fires at
// the very step the protocol went wrong (which keeps counterexamples short).
#pragma once

#include <memory_resource>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/rt/runtime.h"

namespace adgc::mc {

/// Working memory for check_reachable_intact. The model checker runs the
/// oracle after every decision; passing the same scratch each time keeps the
/// check off the heap once the buffers have grown (the visited set's nodes
/// recycle through `pool`).
struct ReachScratch {
  std::pmr::unsynchronized_pool_resource pool;
  std::pmr::unordered_set<ObjectId> visited{&pool};
  std::vector<ObjectId> frontier;  // BFS queue, consumed front to back
};

/// SAFETY: every edge out of the root-reachable region must be intact.
/// `tainted` (optional) lists processes that crashed at some point in the
/// run: references into them may legitimately dangle (crash = state loss),
/// so cross-process checks touching a tainted endpoint are skipped.
/// Returns a diagnostic string on violation, nullopt when the invariant
/// holds. `scratch` (optional) is reused working memory.
std::optional<std::string> check_reachable_intact(
    const Runtime& rt, const std::unordered_set<ProcessId>* tainted = nullptr,
    ReachScratch* scratch = nullptr);

/// SAFETY (external oracle): every object in `must_exist` still exists.
/// The random workload's shadow graph supplies `must_exist`; the model
/// checker's scenarios rely on check_reachable_intact instead.
std::optional<std::string> check_objects_exist(
    const Runtime& rt, const std::unordered_set<ObjectId>& must_exist);

/// LIVENESS/COMPLETENESS: no garbage remains — every existing object is
/// root-reachable. Only meaningful after the system has settled (mutation
/// stopped, messages drained, collectors run to quiescence).
std::optional<std::string> check_no_garbage(const Runtime& rt);

}  // namespace adgc::mc
