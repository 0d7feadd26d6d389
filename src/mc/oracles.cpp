#include "src/mc/oracles.h"

#include <sstream>

#include "src/sim/harness.h"

namespace adgc::mc {

namespace {
bool is_tainted(const std::unordered_set<ProcessId>* tainted, ProcessId pid) {
  return tainted != nullptr && tainted->contains(pid);
}
}  // namespace

std::optional<std::string> check_reachable_intact(
    const Runtime& rt, const std::unordered_set<ProcessId>* tainted,
    ReachScratch* scratch) {
  std::optional<ReachScratch> own;
  ReachScratch& sc = scratch != nullptr ? *scratch : own.emplace();
  auto& visited = sc.visited;
  auto& frontier = sc.frontier;
  visited.clear();
  frontier.clear();

  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    for (ObjectSeq seq : rt.proc(pid).heap().roots()) {
      if (!rt.proc(pid).heap().exists(seq)) {
        std::ostringstream os;
        os << "SAFETY: rooted object " << to_string(ObjectId{pid, seq})
           << " was collected";
        return os.str();
      }
      if (visited.insert({pid, seq}).second) frontier.push_back({pid, seq});
    }
  }

  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const ObjectId cur = frontier[head];
    const Process& proc = rt.proc(cur.owner);
    const HeapObject* obj = proc.heap().find(cur.seq);
    if (!obj) continue;  // unreachable: insertion guaranteed existence
    for (ObjectSeq next : obj->local_fields) {
      if (!proc.heap().exists(next)) {
        std::ostringstream os;
        os << "SAFETY: live " << to_string(cur) << " holds local field to collected "
           << to_string(ObjectId{cur.owner, next});
        return os.str();
      }
      if (visited.insert({cur.owner, next}).second) {
        frontier.push_back({cur.owner, next});
      }
    }
    for (RefId ref : obj->remote_fields) {
      const StubEntry* stub = proc.stubs().find(ref);
      if (!stub) {
        std::ostringstream os;
        os << "SAFETY: live " << to_string(cur) << " holds remote ref "
           << ref_to_string(ref) << " with no stub entry";
        return os.str();
      }
      const ProcessId owner = stub->target.owner;
      // Crash-tainted endpoints may legitimately dangle: a crash loses the
      // owner's tables (or rolled them back to an older snapshot).
      if (owner >= rt.size() || !rt.alive(owner) || is_tainted(tainted, owner) ||
          is_tainted(tainted, cur.owner)) {
        continue;
      }
      const Process& owner_proc = rt.proc(owner);
      if (!owner_proc.scions().contains(ref)) {
        std::ostringstream os;
        os << "SAFETY: scion " << ref_to_string(ref) << " at P" << owner
           << " dropped while live " << to_string(cur) << " still holds the stub";
        return os.str();
      }
      if (!owner_proc.heap().exists(stub->target.seq)) {
        std::ostringstream os;
        os << "SAFETY: remotely referenced " << to_string(stub->target)
           << " was collected under live holder " << to_string(cur);
        return os.str();
      }
      if (visited.insert(stub->target).second) frontier.push_back(stub->target);
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_objects_exist(
    const Runtime& rt, const std::unordered_set<ObjectId>& must_exist) {
  for (const ObjectId& id : must_exist) {
    if (id.owner >= rt.size() || !rt.alive(id.owner)) continue;
    if (!rt.proc(id.owner).heap().exists(id.seq)) {
      std::ostringstream os;
      os << "SAFETY: oracle-live " << to_string(id) << " was collected";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_no_garbage(const Runtime& rt) {
  const std::unordered_set<ObjectId> live = sim::global_live_set(rt);
  std::size_t total = 0;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (rt.alive(pid)) total += rt.proc(pid).heap().size();
  }
  if (total == live.size()) return std::nullopt;
  // Name one surviving garbage object for the diagnostic.
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    for (const auto& [seq, obj] : rt.proc(pid).heap().objects()) {
      (void)obj;
      if (!live.contains({pid, seq})) {
        std::ostringstream os;
        os << "LIVENESS: " << (total - live.size()) << " garbage object(s) remain, e.g. "
           << to_string(ObjectId{pid, seq});
        return os.str();
      }
    }
  }
  return std::nullopt;  // unreachable
}

}  // namespace adgc::mc
