// Tests for graph summarization: hand-built snapshots with known relations,
// BFS/SCC equivalence on random graphs, and edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/snapshot/summarizer.h"

namespace adgc {
namespace {

// Small builder for SnapshotData by hand.
struct SnapBuilder {
  SnapshotData snap;
  ObjectSeq next = 1;

  SnapBuilder() {
    snap.pid = 0;
    snap.taken_at = 0;
  }
  ObjectSeq obj() {
    SnapshotData::Obj o;
    o.seq = next++;
    snap.objects.push_back(o);
    return o.seq;
  }
  SnapshotData::Obj& find(ObjectSeq s) {
    for (auto& o : snap.objects) {
      if (o.seq == s) return o;
    }
    throw std::logic_error("no such obj");
  }
  void edge(ObjectSeq a, ObjectSeq b) { find(a).local_fields.push_back(b); }
  void root(ObjectSeq a) { snap.roots.push_back(a); }
  RefId stub(ObjectSeq holder, RefId ref, std::uint64_t ic = 0) {
    find(holder).remote_fields.push_back(ref);
    if (std::none_of(snap.stubs.begin(), snap.stubs.end(),
                     [&](const auto& s) { return s.ref == ref; })) {
      snap.stubs.push_back({ref, ObjectId{1, 1}, ic});
    }
    return ref;
  }
  RefId scion(ObjectSeq target, RefId ref, std::uint64_t ic = 0) {
    snap.scions.push_back({ref, /*holder=*/2, target, ic});
    return ref;
  }
};

// The same snapshot summarized by the oracle and the production summarizer.
std::vector<std::pair<const char*, SummarizedGraph>> both_summaries(const SnapshotData& snap) {
  return {{"bfs", BfsSummarizer{}.summarize(snap)}, {"scc", SccSummarizer{}.summarize(snap)}};
}

TEST(Summarizer, StubsFromFollowsLocalEdges) {
  SnapBuilder b;
  const ObjectSeq f = b.obj(), g = b.obj(), h = b.obj(), j = b.obj();
  b.edge(f, h);
  b.edge(f, g);
  b.edge(g, h);
  b.edge(h, j);
  const RefId stub_q = b.stub(j, make_ref_id(0, 10));
  const RefId scion_f = b.scion(f, make_ref_id(9, 1));

  for (const auto& [name, sum] : both_summaries(b.snap)) {
    const ScionSummary* sc = sum.scion(scion_f);
    ASSERT_NE(sc, nullptr) << name;
    EXPECT_EQ(sc->stubs_from, std::vector<RefId>{stub_q}) << name;
    const StubSummary* st = sum.stub(stub_q);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->scions_to, std::vector<RefId>{scion_f}) << name;
    EXPECT_FALSE(st->local_reach);
  }
}

TEST(Summarizer, LocalReachFromRoots) {
  SnapBuilder b;
  const ObjectSeq a = b.obj(), c = b.obj();
  b.root(a);
  const RefId r1 = b.stub(a, make_ref_id(0, 1));
  const RefId r2 = b.stub(c, make_ref_id(0, 2));

  BfsSummarizer s;
  const SummarizedGraph sum = s.summarize(b.snap);
  EXPECT_TRUE(sum.stub(r1)->local_reach);
  EXPECT_FALSE(sum.stub(r2)->local_reach);
}

TEST(Summarizer, ScionUnreachableStubExcluded) {
  SnapBuilder b;
  const ObjectSeq x = b.obj(), y = b.obj();
  const RefId rx = b.stub(x, make_ref_id(0, 1));
  const RefId ry = b.stub(y, make_ref_id(0, 2));
  const RefId sc = b.scion(x, make_ref_id(9, 1));

  BfsSummarizer s;
  const SummarizedGraph sum = s.summarize(b.snap);
  EXPECT_EQ(sum.scion(sc)->stubs_from, std::vector<RefId>{rx});
  EXPECT_TRUE(sum.stub(ry)->scions_to.empty());
}

TEST(Summarizer, CyclicLocalGraph) {
  // a ↔ b cycle inside the process, both reaching a stub.
  SnapBuilder b;
  const ObjectSeq a = b.obj(), c = b.obj();
  b.edge(a, c);
  b.edge(c, a);
  const RefId r = b.stub(c, make_ref_id(0, 1));
  const RefId s1 = b.scion(a, make_ref_id(9, 1));
  const RefId s2 = b.scion(c, make_ref_id(9, 2));

  SccSummarizer s;
  const SummarizedGraph sum = s.summarize(b.snap);
  EXPECT_EQ(sum.scion(s1)->stubs_from, std::vector<RefId>{r});
  EXPECT_EQ(sum.scion(s2)->stubs_from, std::vector<RefId>{r});
  const auto& deps = sum.stub(r)->scions_to;
  EXPECT_EQ(deps.size(), 2u);
}

TEST(Summarizer, SharedStubMultipleScions) {
  // Two disjoint chains, both converging on the same stub (Fig. 4's V/Y→T).
  SnapBuilder b;
  const ObjectSeq v = b.obj(), y = b.obj();
  const RefId t = make_ref_id(0, 7);
  b.stub(v, t);
  b.stub(y, t);
  const RefId sv = b.scion(v, make_ref_id(9, 1));
  const RefId sy = b.scion(y, make_ref_id(9, 2));

  for (const auto& [name, sum] : both_summaries(b.snap)) {
    auto deps = sum.stub(t)->scions_to;
    std::sort(deps.begin(), deps.end());
    std::vector<RefId> want = {sv, sy};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(deps, want) << name;
  }
}

TEST(Summarizer, DanglingScionTargetIsEmpty) {
  SnapBuilder b;
  const RefId sc = b.scion(/*target=*/999, make_ref_id(9, 1));
  BfsSummarizer bfs;
  SccSummarizer scc;
  EXPECT_TRUE(bfs.summarize(b.snap).scion(sc)->stubs_from.empty());
  EXPECT_TRUE(scc.summarize(b.snap).scion(sc)->stubs_from.empty());
}

TEST(Summarizer, IcAndHolderCopied) {
  SnapBuilder b;
  const ObjectSeq a = b.obj();
  const RefId st = b.stub(a, make_ref_id(0, 1), /*ic=*/5);
  const RefId sc = b.scion(a, make_ref_id(9, 1), /*ic=*/7);
  BfsSummarizer s;
  const SummarizedGraph sum = s.summarize(b.snap);
  EXPECT_EQ(sum.stub(st)->ic, 5u);
  EXPECT_EQ(sum.scion(sc)->ic, 7u);
  EXPECT_EQ(sum.scion(sc)->holder, 2u);
}

TEST(Summarizer, EmptySnapshot) {
  SnapshotData snap;
  BfsSummarizer bfs;
  SccSummarizer scc;
  EXPECT_TRUE(bfs.summarize(snap).scions.empty());
  EXPECT_TRUE(scc.summarize(snap).stubs.empty());
}

// ---- property sweep: BFS and SCC summaries are identical on random graphs.

struct SummarizerEquivParams {
  std::uint64_t seed;
  std::size_t objects;
  double edge_prob;
};

class SummarizerEquiv : public ::testing::TestWithParam<SummarizerEquivParams> {};

SnapshotData random_snapshot(Rng& rng, std::size_t n, double edge_prob) {
  SnapshotData snap;
  snap.pid = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    SnapshotData::Obj o;
    o.seq = i;
    snap.objects.push_back(o);
  }
  for (auto& o : snap.objects) {
    for (std::size_t j = 1; j <= n; ++j) {
      if (rng.chance(edge_prob)) o.local_fields.push_back(j);
    }
  }
  // Roots, stubs, scions over random objects.
  const std::size_t nroots = 1 + rng.below(3);
  for (std::size_t i = 0; i < nroots; ++i) snap.roots.push_back(1 + rng.below(n));
  // Stub-table churn as a live process sees it: some remote fields name a
  // reference whose stub-table entry is absent (erased, or not yet
  // installed), and some stubs are held by no object.
  const std::size_t nstubs = rng.below(n / 2 + 1);
  for (std::size_t i = 0; i < nstubs; ++i) {
    const RefId ref = make_ref_id(0, i + 1);
    if (!rng.chance(0.2)) snap.stubs.push_back({ref, ObjectId{1, i}, rng.below(5)});
    if (rng.chance(0.2)) continue;
    snap.objects[rng.below(n)].remote_fields.push_back(ref);
    if (rng.chance(0.3)) snap.objects[rng.below(n)].remote_fields.push_back(ref);
  }
  const std::size_t nscions = rng.below(n / 2 + 1);
  for (std::size_t i = 0; i < nscions; ++i) {
    snap.scions.push_back(
        {make_ref_id(9, i + 1), static_cast<ProcessId>(1 + rng.below(4)),
         1 + rng.below(n), rng.below(5)});
  }
  return snap;
}

TEST_P(SummarizerEquiv, BfsEqualsScc) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  for (int iter = 0; iter < 10; ++iter) {
    const SnapshotData snap = random_snapshot(rng, p.objects, p.edge_prob);
    EXPECT_TRUE(BfsSummarizer{}.summarize(snap) == SccSummarizer{}.summarize(snap))
        << "seed=" << p.seed << " iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, SummarizerEquiv,
    ::testing::Values(SummarizerEquivParams{1, 5, 0.3}, SummarizerEquivParams{2, 12, 0.15},
                      SummarizerEquivParams{3, 30, 0.08}, SummarizerEquivParams{4, 30, 0.02},
                      SummarizerEquivParams{5, 80, 0.03}, SummarizerEquivParams{6, 80, 0.3},
                      SummarizerEquivParams{7, 200, 0.01},
                      SummarizerEquivParams{8, 200, 0.05}));

}  // namespace
}  // namespace adgc
