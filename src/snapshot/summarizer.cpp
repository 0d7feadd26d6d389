#include "src/snapshot/summarizer.h"

#include <algorithm>
#include <vector>

#include "src/snapshot/summarizer_internal.h"

namespace adgc {

namespace detail {

std::vector<bool> snapshot_bfs(const SnapshotIndex& ix, const std::vector<ObjectSeq>& seeds) {
  std::vector<bool> seen(ix.snap->objects.size(), false);
  std::vector<std::size_t> stack;
  for (ObjectSeq s : seeds) {
    auto it = ix.obj_index.find(s);
    if (it != ix.obj_index.end() && !seen[it->second]) {
      seen[it->second] = true;
      stack.push_back(it->second);
    }
  }
  while (!stack.empty()) {
    const std::size_t cur = stack.back();
    stack.pop_back();
    for (ObjectSeq next : ix.snap->objects[cur].local_fields) {
      auto it = ix.obj_index.find(next);
      if (it != ix.obj_index.end() && !seen[it->second]) {
        seen[it->second] = true;
        stack.push_back(it->second);
      }
    }
  }
  return seen;
}

void init_summary_entries(const SnapshotData& snap, SummarizedGraph& out) {
  out.pid = snap.pid;
  out.taken_at = snap.taken_at;
  for (const auto& s : snap.scions) {
    ScionSummary sum;
    sum.ref = s.ref;
    sum.ic = s.ic;
    sum.holder = s.holder;
    sum.target = s.target;
    out.scions.emplace(s.ref, std::move(sum));
  }
  for (const auto& s : snap.stubs) {
    StubSummary sum;
    sum.ref = s.ref;
    sum.ic = s.ic;
    sum.target = s.target;
    out.stubs.emplace(s.ref, std::move(sum));
  }
}

}  // namespace detail

void finalize_summary(SummarizedGraph& out) {
  for (auto& [ref, scion] : out.scions) {
    auto& v = scion.stubs_from;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  // Invert StubsFrom into ScionsTo.
  for (auto& [ref, stub] : out.stubs) stub.scions_to.clear();
  for (const auto& [sref, scion] : out.scions) {
    for (RefId stub_ref : scion.stubs_from) {
      auto it = out.stubs.find(stub_ref);
      if (it != out.stubs.end()) it->second.scions_to.push_back(sref);
    }
  }
  for (auto& [ref, stub] : out.stubs) {
    auto& v = stub.scions_to;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
}

SummarizedGraph BfsSummarizer::summarize(const SnapshotData& snap) const {
  SummarizedGraph out;
  detail::init_summary_entries(snap, out);
  detail::SnapshotIndex ix(snap);

  // Local.Reach: one BFS from the roots.
  const std::vector<bool> from_root = detail::snapshot_bfs(ix, snap.roots);
  for (std::size_t i = 0; i < snap.objects.size(); ++i) {
    if (!from_root[i]) continue;
    for (RefId ref : snap.objects[i].remote_fields) {
      auto it = out.stubs.find(ref);
      if (it != out.stubs.end()) it->second.local_reach = true;
    }
  }

  // StubsFrom: one BFS per scion.
  for (const auto& s : snap.scions) {
    auto& sum = out.scions.at(s.ref);
    const std::vector<bool> reach = detail::snapshot_bfs(ix, {s.target});
    for (std::size_t i = 0; i < snap.objects.size(); ++i) {
      if (!reach[i]) continue;
      for (RefId ref : snap.objects[i].remote_fields) {
        if (out.stubs.contains(ref)) sum.stubs_from.push_back(ref);
      }
    }
  }

  finalize_summary(out);
  return out;
}

}  // namespace adgc
