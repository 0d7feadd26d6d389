#include "src/lgc/mark_sweep.h"

#include <vector>

namespace adgc::lgc {

Result run(Heap& heap, StubTable& stubs, ScionTable& scions,
           const std::set<RefId>& pinned_stubs, SimTime /*now*/) {
  Result res;
  res.objects_before = heap.size();

  // Mark: roots first, so an object reachable from both a root and a scion
  // keeps the root colour; the scion pass only colours what is still
  // unmarked.
  const std::uint64_t root_mark = 2 * heap.next_epoch();
  const std::uint64_t scion_mark = root_mark + 1;
  std::vector<HeapObject*> stack;
  auto mark_from = [&](ObjectSeq seq, std::uint64_t colour) {
    HeapObject* obj = heap.find(seq);
    if (!obj || obj->mark >= root_mark) return;
    obj->mark = colour;
    stack.push_back(obj);
    while (!stack.empty()) {
      const HeapObject* cur = stack.back();
      stack.pop_back();
      for (ObjectSeq next : cur->local_fields) {
        HeapObject* n = heap.find(next);
        if (n && n->mark < root_mark) {
          n->mark = colour;
          stack.push_back(n);
        }
      }
    }
  };
  for (ObjectSeq root : heap.roots()) mark_from(root, root_mark);
  for (const auto& [ref, scion] : scions) mark_from(scion.target, scion_mark);

  // Sweep, recomputing stub holder counts and Local.Reach from the survivors
  // in the same walk.
  for (auto& [ref, stub] : stubs) {
    stub.holders = 0;
    stub.local_reach = false;
  }
  auto& objects = heap.objects();
  for (auto it = objects.begin(); it != objects.end();) {
    const HeapObject& obj = it->second;
    if (obj.mark < root_mark) {
      it = objects.erase(it);
      ++res.objects_reclaimed;
      continue;
    }
    const bool from_root = obj.mark == root_mark;
    for (RefId ref : obj.remote_fields) {
      if (StubEntry* stub = stubs.find(ref)) {
        ++stub->holders;
        stub->local_reach = stub->local_reach || from_root;
      }
    }
    ++it;
  }

  // Delete orphaned stubs (unless pinned by an in-flight export).
  std::vector<RefId> doomed;
  for (const auto& [ref, stub] : stubs) {
    if (stub.holders == 0 && !pinned_stubs.contains(ref)) doomed.push_back(ref);
  }
  for (RefId ref : doomed) stubs.erase(ref);
  res.stubs_deleted = doomed.size();

  // Refresh the candidate heuristic's view of scion targets.
  for (auto& [ref, scion] : scions) {
    const HeapObject* target = heap.find(scion.target);
    scion.target_root_reachable = target && target->mark == root_mark;
  }

  return res;
}

}  // namespace adgc::lgc
