// SCC-condensation summarizer.
//
// Tarjan's algorithm emits strongly connected components sinks-first
// (reverse topological order of the condensation), so a single pass over
// SCCs in emission order can union successor stub sets into each component:
// by the time component c is processed every successor has a complete set.
// Stub sets are dense bitsets; the per-scion answer is the bitset of the
// scion target's component.
#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/snapshot/summarizer.h"
#include "src/snapshot/summarizer_internal.h"

namespace adgc {

SummarizedGraph SccSummarizer::summarize(const SnapshotData& snap) const {
  SummarizedGraph out;
  detail::init_summary_entries(snap, out);
  detail::SnapshotIndex ix(snap);
  const std::size_t n = snap.objects.size();

  // Resolved adjacency as dense indices (skip dangling references).
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    adj[i].reserve(snap.objects[i].local_fields.size());
    for (ObjectSeq next : snap.objects[i].local_fields) {
      auto it = ix.obj_index.find(next);
      if (it != ix.obj_index.end()) adj[i].push_back(static_cast<std::uint32_t>(it->second));
    }
  }

  // --- Tarjan SCC, iterative ---
  constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> scc_of(n, kUnvisited);
  std::vector<std::size_t> tarjan_stack;
  std::uint32_t next_index = 0;
  std::uint32_t num_sccs = 0;

  struct Frame {
    std::size_t node;
    std::size_t edge = 0;
  };
  std::vector<Frame> call_stack;

  for (std::size_t start = 0; start < n; ++start) {
    if (index[start] != kUnvisited) continue;
    call_stack.push_back({start, 0});
    index[start] = low[start] = next_index++;
    tarjan_stack.push_back(start);
    on_stack[start] = true;
    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      if (f.edge < adj[f.node].size()) {
        const std::uint32_t next = adj[f.node][f.edge++];
        if (index[next] == kUnvisited) {
          index[next] = low[next] = next_index++;
          tarjan_stack.push_back(next);
          on_stack[next] = true;
          call_stack.push_back({next, 0});
        } else if (on_stack[next]) {
          low[f.node] = std::min(low[f.node], index[next]);
        }
      } else {
        if (low[f.node] == index[f.node]) {
          while (true) {
            const std::size_t w = tarjan_stack.back();
            tarjan_stack.pop_back();
            on_stack[w] = false;
            scc_of[w] = num_sccs;
            if (w == f.node) break;
          }
          ++num_sccs;
        }
        const std::size_t done = f.node;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          Frame& parent = call_stack.back();
          low[parent.node] = std::min(low[parent.node], low[done]);
        }
      }
    }
  }

  // --- per-SCC stub bitsets, unioned bottom-up ---
  std::vector<RefId> stub_ids;
  stub_ids.reserve(snap.stubs.size());
  for (const auto& s : snap.stubs) stub_ids.push_back(s.ref);
  std::sort(stub_ids.begin(), stub_ids.end());
  stub_ids.erase(std::unique(stub_ids.begin(), stub_ids.end()), stub_ids.end());
  std::unordered_map<RefId, std::size_t> stub_index;
  stub_index.reserve(stub_ids.size());
  for (std::size_t i = 0; i < stub_ids.size(); ++i) stub_index.emplace(stub_ids[i], i);

  const std::size_t words = (stub_ids.size() + 63) / 64;
  std::vector<std::uint64_t> sets(static_cast<std::size_t>(num_sccs) * words, 0);
  auto set_of = [&](std::uint32_t scc) {
    return sets.data() + static_cast<std::size_t>(scc) * words;
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (RefId ref : snap.objects[i].remote_fields) {
      auto it = stub_index.find(ref);
      if (it == stub_index.end()) continue;
      std::uint64_t* s = set_of(scc_of[i]);
      s[it->second / 64] |= (std::uint64_t{1} << (it->second % 64));
    }
  }

  // Cross-SCC successor edges; successors always have smaller SCC ids
  // (emitted earlier), so one pass in increasing id completes the sets.
  std::vector<std::vector<std::uint32_t>> scc_succs(num_sccs);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::uint32_t v : adj[u]) {
      if (scc_of[u] != scc_of[v]) scc_succs[scc_of[u]].push_back(scc_of[v]);
    }
  }
  for (std::uint32_t c = 0; c < num_sccs; ++c) {
    auto& succs = scc_succs[c];
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    std::uint64_t* mine = set_of(c);
    for (std::uint32_t sv : succs) {
      const std::uint64_t* theirs = set_of(sv);
      for (std::size_t w = 0; w < words; ++w) mine[w] |= theirs[w];
    }
  }

  for (const auto& s : snap.scions) {
    auto it = ix.obj_index.find(s.target);
    if (it == ix.obj_index.end()) continue;  // dangling scion: empty relation
    const std::uint64_t* bits = set_of(scc_of[it->second]);
    auto& sum = out.scions.at(s.ref);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t word = bits[w];
      while (word) {
        const int bit = __builtin_ctzll(word);
        word &= word - 1;
        sum.stubs_from.push_back(stub_ids[w * 64 + static_cast<std::size_t>(bit)]);
      }
    }
  }

  const std::vector<bool> from_root = detail::snapshot_bfs(ix, snap.roots);
  for (std::size_t i = 0; i < n; ++i) {
    if (!from_root[i]) continue;
    for (RefId ref : snap.objects[i].remote_fields) {
      auto it = out.stubs.find(ref);
      if (it != out.stubs.end()) it->second.local_reach = true;
    }
  }

  finalize_summary(out);
  return out;
}

}  // namespace adgc
