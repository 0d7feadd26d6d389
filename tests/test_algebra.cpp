// Unit tests for the CDM algebra, including the exact reductions of the
// paper's §3 walkthrough (steps 1-26) and the §3.1 mutually-linked example.
#include <gtest/gtest.h>

#include <random>

#include "src/dcda/algebra.h"
#include "tests/algebra_reference.h"

namespace adgc {
namespace {

AlgebraElem e(std::uint64_t ref, std::uint64_t ic = 0) { return {ref, ic}; }

TEST(AlgebraSet, InsertMaintainsSortedUnique) {
  AlgebraSet s;
  EXPECT_EQ(s.insert(e(5)), AlgebraSet::Insert::kAdded);
  EXPECT_EQ(s.insert(e(1)), AlgebraSet::Insert::kAdded);
  EXPECT_EQ(s.insert(e(3)), AlgebraSet::Insert::kAdded);
  EXPECT_EQ(s.insert(e(3)), AlgebraSet::Insert::kPresent);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.elems()[0].ref, 1u);
  EXPECT_EQ(s.elems()[1].ref, 3u);
  EXPECT_EQ(s.elems()[2].ref, 5u);
}

TEST(AlgebraSet, InsertDetectsIcConflict) {
  AlgebraSet s;
  s.insert(e(7, 1));
  EXPECT_EQ(s.insert(e(7, 2)), AlgebraSet::Insert::kConflict);
  // The original element is untouched.
  EXPECT_EQ(s.find(7)->ic, 1u);
}

TEST(AlgebraSet, ConstructorNormalizes) {
  AlgebraSet s({e(9), e(2), e(9), e(4)});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(4));
  EXPECT_TRUE(s.contains(9));
}

TEST(AlgebraMatch, DisjointSetsDontReduce) {
  // Step 6: Matching({{F}→{Q}}) = {{F}→{Q}}, no cycle.
  Algebra a;
  a.source.insert(e(100));  // F_P2
  a.target.insert(e(200));  // Q_P4
  const test::ResidualMatch m = test::residual_match(a);
  EXPECT_FALSE(m.ic_conflict);
  EXPECT_FALSE(m.cycle_found());
  EXPECT_EQ(m.source.size(), 1u);
  EXPECT_EQ(m.target.size(), 1u);
}

TEST(AlgebraMatch, PaperWalkthroughFig3) {
  // Refs: F=1, Q=2, O=3, D=4.
  // Step 13: Matching({{F,Q}→{Q,O}}) = {{F}→{O}}.
  {
    Algebra a;
    a.source = AlgebraSet({e(1), e(2)});
    a.target = AlgebraSet({e(2), e(3)});
    const test::ResidualMatch m = test::residual_match(a);
    EXPECT_FALSE(m.cycle_found());
    ASSERT_EQ(m.source.size(), 1u);
    EXPECT_EQ(m.source.elems()[0].ref, 1u);
    ASSERT_EQ(m.target.size(), 1u);
    EXPECT_EQ(m.target.elems()[0].ref, 3u);
  }
  // Step 19: Matching({{F,Q,O}→{Q,O,D}}) = {{F}→{D}}.
  {
    Algebra a;
    a.source = AlgebraSet({e(1), e(2), e(3)});
    a.target = AlgebraSet({e(2), e(3), e(4)});
    const test::ResidualMatch m = test::residual_match(a);
    EXPECT_FALSE(m.cycle_found());
    EXPECT_EQ(m.source.elems()[0].ref, 1u);
    EXPECT_EQ(m.target.elems()[0].ref, 4u);
  }
  // Step 25: Matching({{F,Q,O,D}→{Q,O,D,F}}) = {{}→{}} — cycle found.
  {
    Algebra a;
    a.source = AlgebraSet({e(1), e(2), e(3), e(4)});
    a.target = AlgebraSet({e(2), e(3), e(4), e(1)});
    EXPECT_TRUE(match(a).cycle_found());
  }
}

TEST(AlgebraMatch, MutualCyclesLeaveDependency) {
  // §3.1 step 10: Matching(Alg_4a) = {{Y_P5}→{}} — unresolved dependency.
  // Refs: F=1, V=2, Y=3, T=4, D=5.
  Algebra a;
  a.source = AlgebraSet({e(1), e(2), e(3), e(4), e(5)});
  a.target = AlgebraSet({e(2), e(4), e(5), e(1)});
  const test::ResidualMatch m = test::residual_match(a);
  EXPECT_FALSE(m.cycle_found());
  ASSERT_EQ(m.source.size(), 1u);
  EXPECT_EQ(m.source.elems()[0].ref, 3u);  // Y_P5
  EXPECT_TRUE(m.target.empty());
}

TEST(AlgebraMatch, IcMismatchAborts) {
  // §3.2 step 7: {{F,x}} vs {{F,x+1}} → abort, no cycle.
  Algebra a;
  a.source = AlgebraSet({e(1, 5)});
  a.target = AlgebraSet({e(1, 6)});
  const MatchResult m = match(a);
  EXPECT_TRUE(m.ic_conflict);
  EXPECT_FALSE(m.cycle_found());
}

TEST(AlgebraMatch, IcEqualCancels) {
  Algebra a;
  a.source = AlgebraSet({e(1, 5)});
  a.target = AlgebraSet({e(1, 5)});
  EXPECT_TRUE(match(a).cycle_found());
}

TEST(AlgebraMatch, EmptyAlgebraIsVacuouslyCycle) {
  // Never produced by the detector (candidate always seeds source), but the
  // algebra itself is total.
  Algebra a;
  EXPECT_TRUE(match(a).cycle_found());
}

TEST(AlgebraMatch, VerdictAgreesWithResidualSets) {
  // Production match() counts cancellations instead of building the
  // residual sets; its verdict must agree with the reference on random
  // algebras. Small ref and IC ranges make overlaps, exact cancellations
  // and counter conflicts all common.
  std::mt19937_64 rng(20050404);
  int cycles = 0, conflicts = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    Algebra a;
    const int ns = static_cast<int>(rng() % 6);
    const int nt = static_cast<int>(rng() % 6);
    const std::uint64_t ics = 1 + rng() % 3;
    for (int k = 0; k < ns; ++k) a.source.insert(e(rng() % 8, rng() % ics));
    if (rng() % 4 == 0) a.target = a.source;  // bias toward full cancellation
    for (int k = 0; k < nt; ++k) a.target.insert(e(rng() % 8, rng() % ics));
    const MatchResult m = match(a);
    const test::ResidualMatch ref = test::residual_match(a);
    ASSERT_EQ(m.ic_conflict, ref.ic_conflict) << a.to_string();
    ASSERT_EQ(m.residual_empty, ref.source.empty() && ref.target.empty()) << a.to_string();
    ASSERT_EQ(m.cycle_found(), ref.cycle_found()) << a.to_string();
    cycles += m.cycle_found();
    conflicts += m.ic_conflict;
  }
  // The generator must reach both interesting verdicts.
  EXPECT_GT(cycles, 100);
  EXPECT_GT(conflicts, 100);
}

TEST(Algebra, MsgMovesSetsIntoMessage) {
  Algebra a;
  a.source = AlgebraSet({e(10, 1), e(20, 2)});
  a.target = AlgebraSet({e(30, 3)});
  CdmMsg msg;
  algebra_to_msg(std::move(a), msg);
  EXPECT_EQ(msg.source, (std::vector<AlgebraElem>{e(10, 1), e(20, 2)}));
  EXPECT_EQ(msg.target, (std::vector<AlgebraElem>{e(30, 3)}));
  EXPECT_TRUE(a.source.empty());  // NOLINT(bugprone-use-after-move): take() empties
  EXPECT_TRUE(a.target.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(Algebra, EqualityIsStructural) {
  Algebra a, b;
  a.source.insert(e(1, 2));
  a.target.insert(e(3, 4));
  b.source.insert(e(1, 2));
  b.target.insert(e(3, 4));
  EXPECT_EQ(a, b);
  b.target.insert(e(5, 6));
  EXPECT_NE(a, b);
}

TEST(Algebra, MsgRoundTrip) {
  Algebra a;
  a.source = AlgebraSet({e(10, 1), e(20, 2)});
  a.target = AlgebraSet({e(30, 3)});
  CdmMsg msg;
  algebra_to_msg(a, msg);
  const Algebra back = algebra_from_msg(msg);
  EXPECT_EQ(a, back);
}

TEST(Algebra, ToStringRendersBothSets) {
  Algebra a;
  a.source.insert(e(make_ref_id(1, 2), 7));
  const std::string s = a.to_string();
  EXPECT_NE(s.find("ref(1:2)@7"), std::string::npos);
  EXPECT_NE(s.find("->"), std::string::npos);
}

}  // namespace
}  // namespace adgc
