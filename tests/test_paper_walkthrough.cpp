// Literal replay of the paper's §3 walkthrough (steps 1-26) and the §3.1
// mutually-linked variant, with four/six detached Detector instances and
// hand-shuttled CDMs, asserting the exact algebra at every hop.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/dcda/detector.h"
#include "tests/algebra_reference.h"

namespace adgc {
namespace {

// A little rig: one detector per "process", with capture-and-shuttle hooks.
class Rig {
 public:
  explicit Rig(std::size_t n) {
    cfg_.detection_timeout_us = 1'000'000;
    for (ProcessId pid = 0; pid < n; ++pid) {
      metrics_.push_back(std::make_unique<Metrics>());
      Detector::Hooks hooks;
      hooks.send_cdm = [this](ProcessId dst, const CdmMsg& msg) {
        outbox_.push_back({dst, msg});
      };
      hooks.cycle_found = [this](DetectionId, RefId victim, std::uint64_t ic) {
        cycles_.emplace_back(victim, ic);
      };
      detectors_.push_back(
          std::make_unique<Detector>(pid, cfg_, *metrics_.back(), hooks));
    }
  }

  void install(ProcessId pid, std::vector<ScionSummary> scions,
               std::vector<StubSummary> stubs) {
    auto snap = std::make_shared<SummarizedGraph>();
    snap->pid = pid;
    for (auto& s : scions) snap->scions.emplace(s.ref, std::move(s));
    for (auto& s : stubs) snap->stubs.emplace(s.ref, std::move(s));
    detectors_[pid]->set_snapshot(std::move(snap));
  }

  Detector& det(ProcessId pid) { return *detectors_[pid]; }

  struct Sent {
    ProcessId dst;
    CdmMsg msg;
  };
  /// Drains the outbox (the CDMs produced by the last action).
  std::vector<Sent> take() { return std::exchange(outbox_, {}); }
  /// Delivers one CDM to its destination detector.
  void deliver(const Sent& s) { detectors_[s.dst]->on_cdm(s.msg, 0); }

  const std::vector<std::pair<RefId, std::uint64_t>>& cycles() const { return cycles_; }

 private:
  ProcessConfig cfg_;
  std::vector<std::unique_ptr<Metrics>> metrics_;
  std::vector<std::unique_ptr<Detector>> detectors_;
  std::vector<Sent> outbox_;
  std::vector<std::pair<RefId, std::uint64_t>> cycles_;
};

std::vector<RefId> refs_of(const std::vector<AlgebraElem>& v) {
  std::vector<RefId> out;
  for (const auto& e : v) out.push_back(e.ref);
  return out;
}

// Process ids: P1=0, P2=1, P3=2, P4=3 (P5=4, P6=5 in the §3.1 variant).
TEST(PaperWalkthrough, Section3SimpleCycle) {
  // Reference names as in the paper: the scion at a process is named by the
  // object it protects.
  const RefId F = make_ref_id(1, 1);  // scion at P2, stub at P1
  const RefId Q = make_ref_id(3, 1);  // scion at P4, stub at P2
  const RefId O = make_ref_id(2, 1);  // scion at P3, stub at P4
  const RefId D = make_ref_id(0, 1);  // scion at P1, stub at P3

  Rig rig(4);
  rig.install(1, {{F, 0, 0, 1, {Q}}}, {{Q, 0, ObjectId{3, 1}, false, {F}}});
  rig.install(3, {{Q, 0, 1, 1, {O}}}, {{O, 0, ObjectId{2, 1}, false, {Q}}});
  rig.install(2, {{O, 0, 3, 1, {D}}}, {{D, 0, ObjectId{0, 1}, false, {O}}});
  rig.install(0, {{D, 0, 2, 1, {F}}}, {{F, 0, ObjectId{1, 1}, false, {D}}});

  // Steps 1-4: P2 chooses F as candidate; Alg_1 = {{F} → {Q}}, sent to P4.
  ASSERT_TRUE(rig.det(1).start_detection(F, 0));
  auto sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].dst, 3u);
  EXPECT_EQ(refs_of(sent[0].msg.source), std::vector<RefId>{F});
  EXPECT_EQ(refs_of(sent[0].msg.target), std::vector<RefId>{Q});

  // Steps 5-11: deliver at P4; Alg_2 = {{F,Q} → {Q,O}}, sent to P3.
  rig.deliver(sent[0]);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].dst, 2u);
  EXPECT_EQ(refs_of(sent[0].msg.source), (std::vector<RefId>{F, Q}));
  {
    // Step 13 is about the *matching*: {{F} → {O}}.
    const test::ResidualMatch m = test::residual_match(algebra_from_msg(sent[0].msg));
    EXPECT_EQ(refs_of(m.source.elems()), std::vector<RefId>{F});
    EXPECT_EQ(refs_of(m.target.elems()), std::vector<RefId>{O});
    EXPECT_FALSE(m.cycle_found());
  }

  // Steps 12-17: deliver at P3; Alg_3 = {{F,Q,O} → {Q,O,D}}, sent to P1.
  rig.deliver(sent[0]);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].dst, 0u);
  EXPECT_EQ(refs_of(sent[0].msg.source), (std::vector<RefId>{D, F, Q, O}).size() == 4
                ? refs_of(sent[0].msg.source)  // sorted by RefId; just check set
                : refs_of(sent[0].msg.source));
  {
    std::vector<RefId> src = refs_of(sent[0].msg.source);
    std::sort(src.begin(), src.end());
    std::vector<RefId> want = {F, Q, O};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(src, want);
  }

  // Steps 18-23: deliver at P1; Alg_4 = {{F,Q,O,D} → {Q,O,D,F}}, sent to P2.
  rig.deliver(sent[0]);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].dst, 1u);
  {
    std::vector<RefId> src = refs_of(sent[0].msg.source);
    std::vector<RefId> tgt = refs_of(sent[0].msg.target);
    std::sort(src.begin(), src.end());
    std::sort(tgt.begin(), tgt.end());
    EXPECT_EQ(src, tgt);  // the two sets coincide: the loop is closed
    EXPECT_EQ(src.size(), 4u);
  }

  // Steps 24-26: deliver at P2; Matching = {{} → {}}; Cycle Found = true.
  rig.deliver(sent[0]);
  EXPECT_TRUE(rig.take().empty());
  ASSERT_EQ(rig.cycles().size(), 1u);
  EXPECT_EQ(rig.cycles()[0].first, F);
}

TEST(PaperWalkthrough, Section31MutualCycles) {
  // Fig. 4 references: F (scion at P2), V and Y (scions at P5), T (scion at
  // P4, stub shared by V and Y at P5), D (scion at P1), K (scion at P3),
  // ZB (scion at P6).
  const RefId F = make_ref_id(1, 1);
  const RefId V = make_ref_id(4, 1);
  const RefId Y = make_ref_id(4, 2);
  const RefId T = make_ref_id(3, 1);
  const RefId D = make_ref_id(0, 1);
  const RefId K = make_ref_id(2, 1);
  const RefId ZB = make_ref_id(5, 1);

  Rig rig(6);
  rig.install(1, {{F, 0, 0, 1, {V, K}}},
              {{V, 0, ObjectId{4, 1}, false, {F}}, {K, 0, ObjectId{2, 1}, false, {F}}});
  rig.install(4, {{V, 0, 1, 1, {T}}, {Y, 0, 5, 2, {T}}},
              {{T, 0, ObjectId{3, 1}, false, {V, Y}}});
  rig.install(3, {{T, 0, 4, 1, {D}}}, {{D, 0, ObjectId{0, 1}, false, {T}}});
  rig.install(0, {{D, 0, 3, 1, {F}}}, {{F, 0, ObjectId{1, 1}, false, {D}}});
  rig.install(2, {{K, 0, 1, 1, {ZB}}}, {{ZB, 0, ObjectId{5, 1}, false, {K}}});
  rig.install(5, {{ZB, 0, 2, 1, {Y}}}, {{Y, 0, ObjectId{4, 2}, false, {ZB}}});

  // Steps 1-3: two derivations leave P2 (one toward P5, one toward P3).
  ASSERT_TRUE(rig.det(1).start_detection(F, 0));
  auto sent = rig.take();
  ASSERT_EQ(sent.size(), 2u);

  // Follow only the P5 branch (Alg_1a), as the paper does.
  const auto branch_a =
      sent[0].dst == 4 ? sent[0] : sent[1];
  ASSERT_EQ(branch_a.dst, 4u);

  // Steps 4-6 at P5: ScionsTo(T) adds the extra dependency Y.
  rig.deliver(branch_a);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  {
    std::vector<RefId> src = refs_of(sent[0].msg.source);
    EXPECT_TRUE(std::find(src.begin(), src.end(), Y) != src.end())
        << "Y_P5 must be accounted as an extra dependency (step 5)";
  }

  // Steps 7-8: P4 then P1, arriving back at P2.
  rig.deliver(sent[0]);  // at P4
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  rig.deliver(sent[0]);  // at P1
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  ASSERT_EQ(sent[0].dst, 1u);

  // Steps 9-11: Matching(Alg_4a) = {{Y} → {}} — no cycle yet.
  {
    const test::ResidualMatch m = test::residual_match(algebra_from_msg(sent[0].msg));
    EXPECT_FALSE(m.cycle_found());
    EXPECT_EQ(refs_of(m.source.elems()), std::vector<RefId>{Y});
    EXPECT_TRUE(m.target.empty());
  }

  // Steps 12-15: P2 re-expands; the V-branch derivation equals the arrival
  // algebra and is dropped; only the K-branch (toward P3) continues.
  rig.deliver(sent[0]);
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u) << "the already-traced branch must be terminated";
  EXPECT_EQ(sent[0].dst, 2u);
  EXPECT_EQ(sent[0].msg.via, K);

  // Steps 16-24: P3 → P6 → P5.
  rig.deliver(sent[0]);  // at P3
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].dst, 5u);
  rig.deliver(sent[0]);  // at P6
  sent = rig.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].dst, 4u);
  EXPECT_EQ(sent[0].msg.via, Y);

  // Steps 25-26: at P5, Matching = {{} → {}} — Cycle Found = true.
  rig.deliver(sent[0]);
  ASSERT_EQ(rig.cycles().size(), 1u);
  EXPECT_EQ(rig.cycles()[0].first, Y) << "the arrival scion at P5 is deleted";
}

}  // namespace
}  // namespace adgc
