// Asynchronous snapshot pipeline: deferred publication in the deterministic
// simulator, single-in-flight coalescing, cancellation by the synchronous
// path and by crash, and background publication on the threaded runtime.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/rt/runtime.h"
#include "src/rt/threaded_runtime.h"
#include "src/sim/harness.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/snapshot.h"

namespace adgc {
namespace {

RuntimeConfig pipelined_config(std::uint64_t seed) {
  RuntimeConfig cfg = sim::manual_config(seed);
  cfg.proc.snapshot_pipeline = true;
  cfg.proc.snapshot_pipeline_latency_us = 1'000;
  return cfg;
}

// ---- capture into a recycled snapshot ----

TEST(SnapshotPipelineCapture, RecycledCaptureMatchesFresh) {
  Heap heap;
  StubTable stubs;
  ScionTable scions;
  std::vector<ObjectSeq> objs;
  for (std::size_t i = 0; i < 200; ++i) objs.push_back(heap.allocate(16 + i % 7));
  for (std::size_t i = 0; i + 1 < objs.size(); ++i) heap.add_local_field(objs[i], objs[i + 1]);
  heap.add_root(objs[0]);
  heap.add_root(objs[100]);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    const RefId ref = make_ref_id(0, i);
    stubs.ensure(ref, ObjectId{1, i}, 0).ic = i;
    heap.add_remote_field(objs[i * 9], ref);
    heap.add_remote_field(objs[i * 9], ref);
  }
  for (std::uint64_t i = 1; i <= 10; ++i) {
    scions.ensure(make_ref_id(2, i), 2, objs[i * 17], 0).ic = 3 * i;
  }
  const BinarySerializer ser;
  auto fresh = [&](ProcessId pid, SimTime now) {
    return ser.serialize(capture_snapshot(pid, now, heap, stubs, scions));
  };
  SnapshotData recycled;
  capture_snapshot_into(recycled, 0, 10, heap, stubs, scions);
  ASSERT_EQ(ser.serialize(recycled), fresh(0, 10));

  // Shrink the heap and rewrite what survives: fewer and different fields,
  // payloads of other sizes, stubs and scions dropped, added and re-counted.
  for (std::size_t i = 120; i < objs.size(); ++i) heap.remove(objs[i]);
  heap.remove_root(objs[100]);
  heap.add_root(objs[50]);
  for (std::size_t i = 0; i < 120; i += 3) {
    HeapObject* obj = heap.find(objs[i]);
    obj->local_fields.clear();
    obj->remote_fields.clear();
    obj->payload.assign(i % 5, std::byte{0x5a});
  }
  heap.add_local_field(objs[1], objs[119]);
  heap.add_local_field(objs[1], objs[1]);
  for (std::uint64_t i = 1; i <= 20; i += 2) stubs.erase(make_ref_id(0, i));
  stubs.ensure(make_ref_id(0, 77), ObjectId{3, 1}, 0).ic = 99;
  heap.add_remote_field(objs[2], make_ref_id(0, 77));
  for (std::uint64_t i = 1; i <= 10; i += 3) scions.erase(make_ref_id(2, i));
  scions.ensure(make_ref_id(4, 1), 4, objs[7], 0).ic = 5;
  stubs.find(make_ref_id(0, 2))->ic = 1234;

  capture_snapshot_into(recycled, 1, 20, heap, stubs, scions);
  EXPECT_EQ(recycled.objects.size(), heap.size());
  EXPECT_EQ(ser.serialize(recycled), fresh(1, 20));

  // Growing back past the recycled buffer must match too.
  for (std::size_t i = 0; i < 150; ++i) heap.add_local_field(objs[0], heap.allocate(i % 3));
  capture_snapshot_into(recycled, 1, 30, heap, stubs, scions);
  EXPECT_EQ(ser.serialize(recycled), fresh(1, 30));
}

// ---- deterministic simulator ----

TEST(SnapshotPipelineSim, PublishIsDeferredByLatency) {
  Runtime rt(2, pipelined_config(1));
  rt.proc(0).create_object();

  rt.proc(0).request_snapshot();
  EXPECT_TRUE(rt.proc(0).snapshot_in_flight());
  EXPECT_EQ(rt.proc(0).current_summary(), nullptr)
      << "the summary must not be visible before the publish event";

  rt.run_for(2'000);
  EXPECT_FALSE(rt.proc(0).snapshot_in_flight());
  const auto sum = rt.proc(0).current_summary();
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->version, 1u);
}

TEST(SnapshotPipelineSim, DetectorKeepsPreviousSummaryWhileInFlight) {
  Runtime rt(2, pipelined_config(2));
  rt.proc(0).create_object();
  rt.proc(0).take_snapshot();  // synchronous: v1 visible immediately
  const auto v1 = rt.proc(0).current_summary();
  ASSERT_NE(v1, nullptr);

  rt.proc(0).create_object();
  rt.proc(0).request_snapshot();
  EXPECT_EQ(rt.proc(0).current_summary(), v1)
      << "stale view must stay installed until the new one publishes";
  rt.run_for(2'000);
  EXPECT_EQ(rt.proc(0).current_summary()->version, 2u);

  // No snapshot_dir: neither path serializes, persists or decodes.
  const Metrics m = rt.total_metrics();
  EXPECT_EQ(m.snapshot_bytes.get(), 0u);
  EXPECT_EQ(m.snapshot_persist_us.count(), 0u);
}

TEST(SnapshotPipelineSim, BurstCoalescesToOneFollowUp) {
  Runtime rt(2, pipelined_config(3));
  rt.proc(0).create_object();

  rt.proc(0).request_snapshot();       // captures v1, in flight
  rt.proc(0).request_snapshot();       // coalesced
  rt.proc(0).request_snapshot();       // coalesced (still one pending bit)
  const Metrics mid = rt.total_metrics();
  EXPECT_EQ(mid.snapshots_taken.get(), 1u);
  EXPECT_EQ(mid.snapshots_coalesced.get(), 2u);

  // v1 publishes at +latency, the coalesced follow-up re-captures then (v2)
  // and publishes one latency later.
  rt.run_for(10'000);
  const Metrics done = rt.total_metrics();
  EXPECT_EQ(done.snapshots_taken.get(), 2u);
  EXPECT_EQ(done.summarizations.get(), 2u);
  ASSERT_NE(rt.proc(0).current_summary(), nullptr);
  EXPECT_EQ(rt.proc(0).current_summary()->version, 2u);
  EXPECT_FALSE(rt.proc(0).snapshot_in_flight());
}

TEST(SnapshotPipelineSim, SynchronousTakeCancelsInFlightPublish) {
  Runtime rt(2, pipelined_config(4));
  rt.proc(0).create_object();

  rt.proc(0).request_snapshot();  // v1 in flight
  rt.proc(0).take_snapshot();     // v2, published immediately
  ASSERT_NE(rt.proc(0).current_summary(), nullptr);
  EXPECT_EQ(rt.proc(0).current_summary()->version, 2u);

  // The stale v1 publish event must be discarded, not clobber v2.
  rt.run_for(10'000);
  EXPECT_EQ(rt.proc(0).current_summary()->version, 2u);
  EXPECT_EQ(rt.total_metrics().summarizations.get(), 1u)
      << "only the synchronous pass may publish";
  EXPECT_FALSE(rt.proc(0).snapshot_in_flight());
}

TEST(SnapshotPipelineSim, CrashDiscardsInFlightPublish) {
  Runtime rt(2, pipelined_config(5));
  rt.proc(0).create_object();
  rt.proc(0).request_snapshot();
  rt.crash(0);
  rt.run_for(10'000);  // the orphaned publish event must be a no-op
  EXPECT_FALSE(rt.restart(0)) << "no snapshot store: nothing to recover";
  EXPECT_EQ(rt.proc(0).current_summary(), nullptr)
      << "nothing was ever published for the crashed incarnation";
  rt.proc(0).request_snapshot();
  rt.run_for(2'000);
  ASSERT_NE(rt.proc(0).current_summary(), nullptr);
}

TEST(SnapshotPipelineSim, PipelineOffDegradesToSynchronous) {
  RuntimeConfig cfg = sim::manual_config(6);
  cfg.proc.snapshot_pipeline = false;
  Runtime rt(2, cfg);
  rt.proc(0).create_object();
  rt.proc(0).request_snapshot();
  EXPECT_FALSE(rt.proc(0).snapshot_in_flight());
  ASSERT_NE(rt.proc(0).current_summary(), nullptr);
  EXPECT_EQ(rt.proc(0).current_summary()->version, 1u);
}

TEST(SnapshotPipelineSim, TracesAreSeedDeterministic) {
  // With the pipeline on, the full periodic stack (including deferred
  // publishes racing detections) must stay a pure function of (config, seed).
  auto run = [] {
    RuntimeConfig cfg = sim::fast_config(77);
    cfg.proc.snapshot_pipeline = true;
    cfg.proc.snapshot_pipeline_latency_us = 2'500;
    Runtime rt(3, cfg);
    const ObjectId a{0, rt.proc(0).create_object()};
    const ObjectId b{1, rt.proc(1).create_object()};
    const ObjectId c{2, rt.proc(2).create_object()};
    rt.proc(0).add_root(a.seq);
    rt.link(a, b);
    rt.link(b, c);
    rt.link(c, a);
    rt.run_for(400'000);
    rt.proc(0).remove_root(a.seq);
    rt.run_for(2'000'000);
    return rt.trace_events();
  };
  const auto t1 = run();
  const auto t2 = run();
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
}

TEST(SnapshotPipelineSim, CollectionCompletesWithPipelineOn) {
  RuntimeConfig cfg = sim::fast_config(8);
  cfg.proc.snapshot_pipeline = true;
  cfg.proc.snapshot_pipeline_latency_us = 3'000;
  Runtime rt(3, cfg);
  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  const ObjectId c{2, rt.proc(2).create_object()};
  rt.proc(0).add_root(a.seq);
  rt.link(a, b);
  rt.link(b, c);
  rt.link(c, a);
  rt.run_for(300'000);
  EXPECT_EQ(sim::global_stats(rt).garbage_objects, 0u);
  rt.proc(0).remove_root(a.seq);
  rt.run_for(3'000'000);
  EXPECT_EQ(sim::global_stats(rt).total_objects, 0u)
      << "stale-view detection must still reclaim the cycle";
}

// ---- threaded runtime: real background worker ----

RuntimeConfig threaded_pipelined_config(std::uint64_t seed) {
  RuntimeConfig cfg;
  cfg.seed = seed;
  // Collectors driven by hand; only the pipeline worker runs concurrently.
  cfg.proc.periodic_collectors_enabled = false;
  cfg.proc.snapshot_pipeline = true;
  return cfg;
}

TEST(SnapshotPipelineThreaded, PublishesOffTheActorThread) {
  ThreadedRuntime rt(2, threaded_pipelined_config(10));
  rt.post_sync(0, [](Process& p) {
    p.create_object();
    p.request_snapshot();
  });
  // Poll through the actor until the background pass publishes.
  std::shared_ptr<const SummarizedGraph> sum;
  for (int i = 0; i < 200 && !sum; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rt.post_sync(0, [&](Process& p) { sum = p.current_summary(); });
  }
  ASSERT_NE(sum, nullptr) << "background pipeline never published";
  EXPECT_EQ(sum->version, 1u);
  bool in_flight = true;
  rt.post_sync(0, [&](Process& p) { in_flight = p.snapshot_in_flight(); });
  EXPECT_FALSE(in_flight);
  EXPECT_EQ(rt.total_metrics().summarizations.get(), 1u);
  rt.shutdown();
}

TEST(SnapshotPipelineThreaded, BurstCoalesces) {
  ThreadedRuntime rt(2, threaded_pipelined_config(11));
  rt.post_sync(0, [](Process& p) {
    p.create_object();
    for (int i = 0; i < 5; ++i) p.request_snapshot();
  });
  std::uint64_t version = 0;
  for (int i = 0; i < 200 && version < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rt.post_sync(0, [&](Process& p) {
      if (auto s = p.current_summary()) version = s->version;
    });
  }
  // One initial capture + one coalesced follow-up, not five passes.
  EXPECT_EQ(version, 2u);
  const Metrics m = rt.total_metrics();
  EXPECT_EQ(m.snapshots_taken.get(), 2u);
  EXPECT_EQ(m.snapshots_coalesced.get(), 4u);
  rt.shutdown();
}

TEST(SnapshotPipelineThreaded, CrashMidFlightIsClean) {
  ThreadedRuntime rt(2, threaded_pipelined_config(12));
  rt.post_sync(0, [](Process& p) {
    for (int i = 0; i < 50; ++i) p.create_object();
    p.request_snapshot();
  });
  // Destroying the Process joins the worker and poisons its completion; the
  // already-queued publish closure must degrade to a no-op.
  rt.crash(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(rt.restart(0)) << "no snapshot store: nothing to recover";
  std::uint64_t heap = 1;
  rt.post_sync(0, [&](Process& p) { heap = p.heap().size(); });
  EXPECT_EQ(heap, 0u) << "cold restart: no snapshot store configured";
  rt.shutdown();
}

TEST(SnapshotPipelineThreaded, SynchronousTakeSupersedesInFlight) {
  ThreadedRuntime rt(2, threaded_pipelined_config(13));
  std::uint64_t version = 0;
  rt.post_sync(0, [&](Process& p) {
    p.create_object();
    p.request_snapshot();  // background pass for v1
    p.take_snapshot();     // waits it out, publishes v2 immediately
    version = p.current_summary()->version;
  });
  EXPECT_EQ(version, 2u);
  // Give any stale completion a chance to land (it must be discarded).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rt.post_sync(0, [&](Process& p) { version = p.current_summary()->version; });
  EXPECT_EQ(version, 2u);
  rt.shutdown();
}

}  // namespace
}  // namespace adgc
