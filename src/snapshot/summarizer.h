// Graph summarization: SnapshotData → SummarizedGraph.
//
// Two stateless implementations:
//  * SccSummarizer — Tarjan condensation + one bottom-up DP over the
//    condensation DAG with bitset stub sets; O(|E| + |V|·|stubs|/64). The
//    production summarizer: every Process summarizes with it.
//  * BfsSummarizer — one forward BFS per scion; simple, O(|scions|·|E|).
//    The test oracle.
// They must produce identical summaries (enforced by property tests); the
// ablation benchmark compares their cost on large snapshots.
#pragma once

#include "src/snapshot/snapshot.h"

namespace adgc {

class BfsSummarizer {
 public:
  SummarizedGraph summarize(const SnapshotData& snap) const;
};

class SccSummarizer {
 public:
  SummarizedGraph summarize(const SnapshotData& snap) const;
};

/// Sorts set vectors and fills the inverse relation (ScionsTo from
/// StubsFrom); shared tail of both summarizers.
void finalize_summary(SummarizedGraph& out);

}  // namespace adgc
