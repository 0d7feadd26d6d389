#include "perfbench/suite.h"

#include <deque>
#include <filesystem>
#include <set>
#include <thread>

#include "src/common/rng.h"
#include "src/dcda/detector.h"
#include "src/dgc/scion_table.h"
#include "src/dgc/stub_table.h"
#include "src/lgc/mark_sweep.h"
#include "src/mc/explorer.h"
#include "src/mc/strategy.h"
#include "src/net/batcher.h"
#include "src/net/frame.h"
#include "src/rt/heap.h"
#include "src/rt/threaded_runtime.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/snapshot_store.h"
#include "src/snapshot/summarizer.h"

namespace pb {

using namespace adgc;

namespace {

constexpr const char* kSuite = "suite";
/// Share of fixture objects holding a stub (the heap_churn share).
constexpr double kRemoteFrac = 0.01;

/// Calls `fn` at least `min_reps` times and until `min_ms` have elapsed;
/// returns the median wall time of one call in ns.
template <class F>
double median_ns(F&& fn, int min_reps, double min_ms) {
  std::vector<double> ns;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(ns.size()) < min_reps ||
         static_cast<double>(now_ns() - start) < min_ms * 1e6) {
    const std::uint64_t t0 = now_ns();
    fn();
    ns.push_back(static_cast<double>(now_ns() - t0));
    if (ns.size() >= 100'000) break;
  }
  return median(std::move(ns));
}

/// A heap of `n` objects in one local chain from a root, every 64th object
/// also pointing back to a random earlier one, a share kRemoteFrac holding a
/// stub and 1% of the objects protected by a scion.
SnapshotData synthetic_heap(std::size_t n, std::size_t payload, std::uint64_t seed) {
  Rng rng(seed);
  SnapshotData s;
  s.pid = 0;
  s.objects.resize(n);
  const auto remote_every = static_cast<std::size_t>(1.0 / kRemoteFrac);
  std::uint64_t ref_counter = 1;
  for (std::size_t i = 0; i < n; ++i) {
    SnapshotData::Obj& o = s.objects[i];
    o.seq = i + 1;
    o.payload.resize(payload);
    if (i + 1 < n) o.local_fields.push_back(i + 2);
    if (i > 0 && i % 64 == 0) o.local_fields.push_back(rng.below(i) + 1);
    if (i % remote_every == remote_every - 1) {
      const RefId ref = make_ref_id(0, ref_counter++);
      o.remote_fields.push_back(ref);
      s.stubs.push_back({ref, ObjectId{1, 1 + rng.below(1000)}, 0});
    }
    if (i % 100 == 50) {
      s.scions.push_back({make_ref_id(1, i + 1), 1, o.seq, 0});
    }
  }
  s.roots.push_back(1);
  return s;
}

struct Tables {
  Heap heap;
  StubTable stubs;
  ScionTable scions;
};

std::unique_ptr<Tables> restore(const SnapshotData& snap) {
  auto t = std::make_unique<Tables>();
  restore_snapshot(snap, t->heap, t->stubs, t->scions, 0);
  return t;
}

/// Per-object costs of LGC, capture and summarization on one heap.
struct HeapCosts {
  double lgc_ns = 0, capture_ns = 0, summarize_ns = 0;
};

HeapCosts heap_costs(const SnapshotData& snap, Tracer* t, int reps, double min_ms) {
  HeapCosts c;
  const double n = std::max<double>(1, static_cast<double>(snap.objects.size()));
  auto tables = restore(snap);
  const std::set<RefId> no_pins;
  c.lgc_ns = median_ns(
                 [&] {
                   Scope s(t, "lgc.run", tables->heap.size());
                   lgc::run(tables->heap, tables->stubs, tables->scions, no_pins, 0);
                 },
                 reps, min_ms) /
             n;
  c.capture_ns = median_ns(
                     [&] {
                       Scope s(t, "snapshot.capture", tables->heap.size());
                       SnapshotData copy = capture_snapshot(0, 0, tables->heap,
                                                            tables->stubs, tables->scions);
                       (void)copy;
                     },
                     reps, min_ms) /
                 n;
  SccSummarizer summarizer;
  c.summarize_ns = median_ns(
                       [&] {
                         Scope s(t, "snapshot.summarize", snap.objects.size());
                         SummarizedGraph g = summarizer.summarize(snap);
                         (void)g;
                       },
                       reps, min_ms) /
                   n;
  return c;
}

/// Env for a standalone Batcher: collects what it flushes; timers are not
/// needed because the suite flushes explicitly.
class CollectEnv final : public Env {
 public:
  explicit CollectEnv(std::uint64_t seed) : rng_(seed) {}
  SimTime now() const override { return 0; }
  void send(ProcessId, const MessagePayload& msg) override {
    out.push_back(encode_message(msg));
  }
  void send_encoded(ProcessId, std::vector<std::byte> bytes) override {
    out.push_back(std::move(bytes));
  }
  void schedule(SimTime, std::function<void()>) override {}
  Rng& rng() override { return rng_; }
  Metrics& metrics() override { return metrics_; }

  std::vector<std::vector<std::byte>> out;

 private:
  Rng rng_;
  Metrics metrics_;
};

InvokeMsg shaped_invoke(const Shape& sh, Rng& rng) {
  InvokeMsg m;
  m.ref = make_ref_id(0, 1 + rng.below(1 << 20));
  m.ic = rng.below(1000);
  m.target = {1, 1 + rng.below(100'000)};
  m.caller = {0, 1 + rng.below(100'000)};
  m.effect = InvokeEffect::kStoreArgs;
  for (std::size_t i = 0; i < sh.invoke_args; ++i) {
    m.args.push_back({make_ref_id(0, 1 + rng.below(1 << 20)),
                      {static_cast<ProcessId>(rng.below(3)), 1 + rng.below(100'000)}});
  }
  m.payload.resize(sh.invoke_payload);
  m.call_id = rng.below(1 << 30);
  return m;
}

NewSetStubsMsg shaped_nss(const Shape& sh, Rng& rng) {
  NewSetStubsMsg m;
  m.export_seq = rng.below(1 << 20);
  for (std::size_t i = 0; i < sh.nss_live; ++i) {
    const auto owner = static_cast<ProcessId>(rng.below(16));
    m.live.push_back(make_ref_id(owner, 1 + rng.below(1 << 20)));
  }
  std::sort(m.live.begin(), m.live.end());
  return m;
}

/// Encode and decode cost of `msgs` (each encoded and decoded once per rep).
std::pair<double, double> codec_ns(const std::vector<MessagePayload>& msgs, Tracer* t,
                                   const char* enc_name, const char* dec_name,
                                   int reps, double min_ms) {
  if (msgs.empty()) return {0, 0};
  std::vector<std::vector<std::byte>> encoded;
  for (const auto& m : msgs) encoded.push_back(encode_message(m));
  const double n = static_cast<double>(msgs.size());
  const double enc = median_ns(
                         [&] {
                           Scope s(t, enc_name, msgs.size());
                           for (const auto& m : msgs) {
                             std::vector<std::byte> b = encode_message(m);
                             (void)b;
                           }
                         },
                         reps, min_ms) /
                     n;
  const double dec = median_ns(
                         [&] {
                           Scope s(t, dec_name, encoded.size());
                           for (const auto& b : encoded) {
                             MessagePayload m = decode_message(b);
                             (void)m;
                           }
                         },
                         reps, min_ms) /
                     n;
  return {enc, dec};
}

/// The DCDA fixture for workloads without distributed cycles of their own:
/// the paper's Fig. 3 and Fig. 4 plus an 8-process ring, made garbage,
/// acyclic state settled, then snapshotted. Also times an acyclic chain's
/// reclamation and the simulator's per-message cost.
struct Fixture {
  ReplayResult replay;
  double acyclic_reclaim_ms = 0;
  double us_per_delivered = 0;
};

Fixture dcda_fixture(std::uint64_t seed, Tracer* t) {
  Fixture fx;
  Runtime rt(8, sim::manual_config(seed));
  const sim::Fig3 f3 = sim::build_fig3(rt);
  sim::build_fig4(rt);  // unrooted: garbage from the start
  const sim::Ring ring = sim::build_ring(rt, 8, 2, /*pin_first=*/true);
  // An acyclic chain P5 → P6 → P7 rooted at P5.
  std::vector<ObjectId> chain;
  for (ProcessId pid = 5; pid < 8; ++pid) {
    const ObjectSeq seq = rt.proc(pid).create_object();
    chain.push_back({pid, seq});
  }
  rt.proc(5).add_root(chain[0].seq);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) rt.link(chain[i], chain[i + 1]);
  rt.run_for(50'000);

  rt.proc(0).remove_root(f3.A.seq);
  rt.proc(0).remove_root(ring.anchors[0].seq);
  rt.proc(5).remove_root(chain[0].seq);
  const SimTime dropped = rt.now();
  const std::uint64_t delivered0 = rt.total_metrics().messages_delivered.get();
  double run_ns = 0;
  for (int round = 0; round < 40; ++round) {
    for (ProcessId pid = 0; pid < rt.size(); ++pid) rt.proc(pid).run_lgc();
    const std::uint64_t t0 = now_ns();
    {
      Scope s(t, "sim.run_until");
      rt.run_for(20'000);
    }
    run_ns += static_cast<double>(now_ns() - t0);
    bool gone = true;
    for (const ObjectId& id : chain) gone = gone && !rt.proc(id.owner).heap().exists(id.seq);
    if (gone && fx.acyclic_reclaim_ms == 0) {
      fx.acyclic_reclaim_ms = static_cast<double>(rt.now() - dropped) / 1000.0;
    }
    if (gone && round >= 4) break;
  }
  const std::uint64_t delivered = rt.total_metrics().messages_delivered.get() - delivered0;
  fx.us_per_delivered = frac(run_ns / 1000.0, static_cast<double>(delivered));

  std::vector<std::pair<ProcessId, RefId>> cands;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    rt.proc(pid).take_snapshot();
    for (const auto& [ref, sc] : rt.proc(pid).current_summary()->scions) {
      (void)sc;
      cands.push_back({pid, ref});
    }
  }
  fx.replay = replay_detections(rt, cands, t);
  return fx;
}

/// Small ThreadedRuntime probe for the rt.* and snapshot.publish_lag_ms
/// figures of workloads that do not post to actors or invoke.
struct RtProbe {
  double actor_wait_us = 0, invoke_us = 0, mutate_ns = 0, publish_lag_ms = 0;
};

RtProbe rt_probe(const Options& o, Tracer* t, int iters) {
  RtProbe out;
  RuntimeConfig cfg;
  cfg.seed = o.seed;
  cfg.proc.periodic_collectors_enabled = false;
  ThreadedRuntime rt(2, cfg);
  ExportedRef er;
  rt.post_sync(1, [&](Process& p) {
    const ObjectSeq s = p.create_object();
    p.add_root(s);
    er = p.export_own_object(s, 0);
  });
  ObjectSeq caller = kNoObject;
  RefId via = kNoRef;
  std::vector<ObjectSeq> objs;
  rt.post_sync(0, [&](Process& p) {
    caller = p.create_object();
    p.add_root(caller);
    via = p.install_ref(caller, er);
    for (int i = 0; i < 2000; ++i) {
      objs.push_back(p.create_object(64));
      p.add_local_ref(caller, objs.back());
    }
  });
  std::vector<double> wait, inv, mut;
  Rng rng(o.seed);
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t posted = now_ns();
    Scope hop(t, "bench.post_sync");
    const std::uint32_t parent = hop.id();
    rt.post_sync(0, [&](Process& p) {
      Scope s(t, "rt.actor_hop", 0, parent);
      wait.push_back(static_cast<double>(now_ns() - posted) / 1000.0);
      std::uint64_t t0 = now_ns();
      {
        Scope c(t, "rt.invoke");
        p.invoke(caller, via, InvokeEffect::kTouch);
      }
      inv.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
      t0 = now_ns();
      {
        Scope c(t, "rt.mutate", 64);
        for (int k = 0; k < 32; ++k) {
          const ObjectSeq a = objs[rng.below(objs.size())];
          const ObjectSeq b = objs[rng.below(objs.size())];
          p.add_local_ref(a, b);
          p.remove_local_ref(a, b);
        }
      }
      mut.push_back(static_cast<double>(now_ns() - t0) / 64.0);
    });
  }
  std::vector<double> lag;
  for (int i = 0; i < std::max(3, iters / 50); ++i) {
    std::uint64_t want = 0;
    const std::uint64_t t0 = now_ns();
    rt.post_sync(0, [&](Process& p) {
      Scope s(t, "snapshot.request");
      p.request_snapshot();
      want = p.snapshot_version();
    });
    bool visible = false;
    for (int spin = 0; spin < 20'000 && !visible; ++spin) {
      rt.post_sync(0, [&](Process& p) {
        auto sum = p.current_summary();
        visible = sum && sum->version >= want;
      });
      if (!visible) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    lag.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  rt.shutdown();
  out.actor_wait_us = median(wait);
  out.invoke_us = median(inv);
  out.mutate_ns = median(mut);
  out.publish_lag_ms = median(lag);
  return out;
}

}  // namespace

void layer_once(Report& r, const std::string& name, double v, const std::string& unit,
                const std::string& src) {
  if (!r.has_layer(name)) r.layer(name, v, unit, src);
}

ReplayResult replay_detections(adgc::Runtime& rt,
                               const std::vector<std::pair<ProcessId, RefId>>& candidates,
                               Tracer* t, std::size_t max_cdms) {
  ReplayResult res;
  const ProcessConfig cfg = rt.config().proc;
  std::vector<Metrics> metrics(rt.size());
  std::deque<std::pair<ProcessId, CdmMsg>> queue;
  std::vector<std::unique_ptr<Detector>> dets;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    Detector::Hooks hooks;
    hooks.send_cdm = [&queue](ProcessId dst, const CdmMsg& m) { queue.push_back({dst, m}); };
    hooks.cycle_found = [&res](DetectionId, RefId, std::uint64_t) { ++res.found; };
    dets.push_back(std::make_unique<Detector>(pid, cfg, metrics[pid], hooks));
    if (rt.alive(pid)) dets.back()->set_snapshot(rt.proc(pid).current_summary());
  }
  Scope phase(t, "dcda.replay");
  const SimTime now = rt.now();
  for (const auto& [pid, ref] : candidates) {
    if (pid >= dets.size()) continue;
    Scope s(t, "dcda.start_detection");
    if (dets[pid]->start_detection(ref, now)) ++res.started;
  }
  while (!queue.empty() && res.cdms < max_cdms) {
    auto [dst, msg] = std::move(queue.front());
    queue.pop_front();
    if (dst >= dets.size()) continue;
    if (res.seen.size() < 4096) res.seen.push_back(msg);
    const std::uint64_t t0 = now_ns();
    {
      Scope s(t, "dcda.on_cdm", 1);
      dets[dst]->on_cdm(msg, now);
    }
    res.on_cdm_ns.push_back(static_cast<double>(now_ns() - t0));
    ++res.cdms;
  }
  return res;
}

void counter_layers(Report& r, const Metrics& m, double proc_seconds,
                    const std::string& src) {
  const auto g = [](const Counter& c) { return static_cast<double>(c.get()); };
  if (m.lgc_runs.get() > 0) {
    r.layer("lgc.reclaimed_per_run", g(m.objects_reclaimed) / g(m.lgc_runs), "count", src);
  }
  r.layer("snapshot.coalesced_frac",
          frac(g(m.snapshots_coalesced), g(m.snapshots_taken) + g(m.snapshots_coalesced)),
          "frac", src);
  if (m.detections_started.get() > 0) {
    r.layer("dcda.cdms_per_cycle",
            frac(g(m.cdms_sent), g(m.detections_cycle_found)), "count", src);
    r.layer("dcda.found_frac", g(m.detections_cycle_found) / g(m.detections_started), "frac",
            src);
    r.layer("dcda.timeout_frac", g(m.detections_timed_out) / g(m.detections_started), "frac",
            src);
  }
  r.layer("dgc.nss_per_proc_s", frac(g(m.new_set_stubs_sent), proc_seconds), "1/s", src);
  r.layer("dgc.handshakes_per_rmi", frac(g(m.add_scion_sent), g(m.invocations_sent)), "count",
          src);
  r.layer("dgc.handshake_retry_frac", frac(g(m.add_scion_retries), g(m.add_scion_sent)),
          "frac", src);
  r.layer("net.batch_singleton_frac",
          frac(g(m.batch_singletons), g(m.batch_singletons) + g(m.batches_sent)), "frac", src);
  r.layer("net.tcp_writeq_p99", static_cast<double>(m.tcp_writeq_depth.quantile(0.99)),
          "count", src);
  r.layer("net.peer_suspects", g(m.peer_suspect_transitions), "count", src);
  r.layer("net.shed", g(m.cdms_shed) + g(m.new_set_stubs_shed), "count", src);
  r.layer("net.evictions", g(m.peers_evicted), "count", src);
}

void replay_layers(Report& r, const ReplayResult& rep, const std::string& src) {
  layer_once(r, "dcda.on_cdm_ns", median(rep.on_cdm_ns), "ns", src);
  layer_once(r, "dcda.cdms_per_cycle",
             frac(static_cast<double>(rep.cdms), static_cast<double>(rep.found)), "count", src);
  layer_once(r, "dcda.found_frac",
             frac(static_cast<double>(rep.found), static_cast<double>(rep.started)), "frac",
             src);
  layer_once(r, "dcda.timeout_frac", 0.0, "frac", src);
}

void layer_suite(const Options& o, Tracer* t, const SuiteInput& in, Report& r) {
  Scope phase(t, "phase.layer_suite");
  const int reps = o.tiny ? 1 : 5;
  const double min_ms = o.tiny ? 1 : 40;

  // Scaling leg: per-object LGC, capture and summarize cost at 1k/10k/100k.
  for (const auto& [n, suffix] : std::vector<std::pair<std::size_t, std::string>>{
           {1'000, ".1k"}, {10'000, ".10k"}, {100'000, ".100k"}}) {
    const SnapshotData snap = synthetic_heap(n, 0, o.seed);
    const HeapCosts c = heap_costs(snap, t, reps, min_ms);
    r.layer("lgc.run_ns_per_obj" + suffix, c.lgc_ns, "ns/obj", kSuite);
    r.layer("snapshot.capture_ns_per_obj" + suffix, c.capture_ns, "ns/obj", kSuite);
    r.layer("snapshot.summarize_ns_per_obj" + suffix, c.summarize_ns, "ns/obj", kSuite);
  }

  // The workload's own heaps (or, for tiny heaps, a synthetic one of its
  // shape): LGC, capture, serialize, deserialize, summarize, store write.
  const std::string heap_src = in.heaps.empty() ? kSuite : o.workload + "-heaps";
  std::vector<SnapshotData> heaps = in.heaps;
  if (heaps.empty()) {
    heaps.push_back(synthetic_heap(in.shape.heap_objects, in.shape.payload_bytes, o.seed));
  }
  std::size_t objs = 0;
  double lgc = 0, cap = 0, sum = 0, ser = 0, de = 0;
  std::vector<double> store_us;
  BinarySerializer serializer;
  const std::filesystem::path store_dir =
      std::filesystem::path(o.work_dir) / ("store-" + o.workload);
  std::filesystem::remove_all(store_dir);
  SnapshotStore store(store_dir, 2);
  std::uint64_t version = 1;
  for (const SnapshotData& h : heaps) {
    const double n = static_cast<double>(std::max<std::size_t>(1, h.objects.size()));
    objs += h.objects.size();
    const HeapCosts c = heap_costs(h, t, reps, min_ms);
    lgc += c.lgc_ns * n;
    cap += c.capture_ns * n;
    sum += c.summarize_ns * n;
    std::vector<std::byte> bytes;
    ser += median_ns(
        [&] {
          Scope s(t, "snapshot.serialize", h.objects.size());
          bytes = serializer.serialize(h);
        },
        reps, min_ms);
    de += median_ns(
        [&] {
          Scope s(t, "snapshot.deserialize", h.objects.size());
          SnapshotData back = serializer.deserialize(bytes);
          (void)back;
        },
        reps, min_ms);
    store_us.push_back(median_ns(
                           [&] {
                             Scope s(t, "snapshot.store_write", bytes.size());
                             store.write(h.pid, version++, bytes);
                           },
                           reps, min_ms) /
                       1000.0);
  }
  std::filesystem::remove_all(store_dir);
  const double nobj = static_cast<double>(std::max<std::size_t>(1, objs));
  layer_once(r, "lgc.run_ns_per_obj", lgc / nobj, "ns/obj", heap_src);
  layer_once(r, "snapshot.capture_ns_per_obj", cap / nobj, "ns/obj", heap_src);
  layer_once(r, "snapshot.summarize_ns_per_obj", sum / nobj, "ns/obj", heap_src);
  layer_once(r, "snapshot.serialize_ns_per_obj", ser / nobj, "ns/obj", heap_src);
  layer_once(r, "snapshot.deserialize_ns_per_obj", de / nobj, "ns/obj", heap_src);
  layer_once(r, "snapshot.store_write_us", median(store_us), "us", heap_src);

  // DCDA fixture: replayed detections, acyclic reclaim, sim per-message cost.
  const Fixture fx = dcda_fixture(o.seed, t);
  replay_layers(r, fx.replay, kSuite);
  layer_once(r, "dgc.acyclic_reclaim_p50_ms", fx.acyclic_reclaim_ms, "ms", kSuite);
  layer_once(r, "sim.us_per_delivered_msg", fx.us_per_delivered, "us", kSuite);

  // Codec, batcher and framing on messages shaped like the workload's.
  Rng rng(o.seed ^ 0x5eed);
  std::vector<MessagePayload> invokes, nss, cdms;
  for (int i = 0; i < 256; ++i) invokes.push_back(shaped_invoke(in.shape, rng));
  for (int i = 0; i < 256; ++i) nss.push_back(shaped_nss(in.shape, rng));
  const std::vector<CdmMsg>& cdm_src = in.cdms.empty() ? fx.replay.seen : in.cdms;
  for (std::size_t i = 0; i < cdm_src.size() && i < 1024; ++i) cdms.push_back(cdm_src[i]);
  const std::string msg_src = in.cdms.empty() ? kSuite : o.workload + "-cdms";
  auto [ie, id] = codec_ns(invokes, t, "net.encode.invoke", "net.decode.invoke", reps, min_ms);
  auto [ne, nd] = codec_ns(nss, t, "net.encode.nss", "net.decode.nss", reps, min_ms);
  auto [ce, cd] = codec_ns(cdms, t, "net.encode.cdm", "net.decode.cdm", reps, min_ms);
  layer_once(r, "net.encode_ns_per_msg.invoke", ie, "ns", kSuite);
  layer_once(r, "net.decode_ns_per_msg.invoke", id, "ns", kSuite);
  layer_once(r, "net.encode_ns_per_msg.nss", ne, "ns", kSuite);
  layer_once(r, "net.decode_ns_per_msg.nss", nd, "ns", kSuite);
  layer_once(r, "net.encode_ns_per_msg.cdm", ce, "ns", msg_src);
  layer_once(r, "net.decode_ns_per_msg.cdm", cd, "ns", msg_src);

  std::vector<MessagePayload> control = nss;
  control.insert(control.end(), cdms.begin(), cdms.end());
  ProcessConfig pcfg;
  CollectEnv env(o.seed);
  const double batch_ns =
      median_ns(
          [&] {
            env.out.clear();
            Batcher batcher(pcfg, env);
            Scope s(t, "net.batch_encode", control.size());
            for (std::size_t i = 0; i < control.size(); ++i) {
              batcher.offer(static_cast<ProcessId>(i % 4), control[i]);
            }
            batcher.flush_all(Batcher::FlushReason::kDrain);
          },
          reps, min_ms) /
      static_cast<double>(std::max<std::size_t>(1, control.size()));
  layer_once(r, "net.batch_encode_ns_per_msg", batch_ns, "ns", msg_src);

  std::vector<std::byte> stream;
  auto add_frame = [&](std::vector<std::byte> bytes) {
    Envelope e;
    e.src = 0;
    e.dst = 1;
    e.bytes = std::move(bytes);
    const std::vector<std::byte> f = encode_data_frame(e);
    stream.insert(stream.end(), f.begin(), f.end());
  };
  for (auto& b : env.out) add_frame(b);
  for (const auto& m : invokes) add_frame(encode_message(m));
  const double frame_ns =
      median_ns(
          [&] {
            Scope s(t, "net.frame_decode", stream.size());
            FrameDecoder dec;
            constexpr std::size_t kChunk = 64 * 1024;
            for (std::size_t off = 0; off < stream.size(); off += kChunk) {
              const std::size_t len = std::min(kChunk, stream.size() - off);
              dec.feed(std::span<const std::byte>(stream.data() + off, len));
              while (auto f = dec.next()) (void)f;
            }
          },
          reps, min_ms) /
      static_cast<double>(std::max<std::size_t>(1, stream.size()));
  layer_once(r, "net.frame_decode_ns_per_byte", frame_ns, "ns/B", kSuite);

  // Runtime and model-checker probes for workloads that do not drive them.
  if (!r.has_layer("rt.invoke_us") || !r.has_layer("rt.actor_wait_us") ||
      !r.has_layer("rt.mutate_ns_per_op") || !r.has_layer("snapshot.publish_lag_ms")) {
    const RtProbe p = rt_probe(o, t, o.tiny ? 50 : 2000);
    layer_once(r, "rt.invoke_us", p.invoke_us, "us", kSuite);
    layer_once(r, "rt.actor_wait_us", p.actor_wait_us, "us", kSuite);
    layer_once(r, "rt.mutate_ns_per_op", p.mutate_ns, "ns", kSuite);
    layer_once(r, "snapshot.publish_lag_ms", p.publish_lag_ms, "ms", kSuite);
  }
  if (!r.has_layer("mc.us_per_decision")) {
    mc::ExplorerOptions eo;
    eo.scenario = mc::ScenarioKind::kFig3;
    eo.seed = o.seed;
    eo.max_steps = 30;
    mc::Explorer ex(eo);
    mc::DfsStrategy dfs;
    std::uint64_t decisions = 0, schedules = 0;
    const std::uint64_t t0 = now_ns();
    while (schedules < 5 || static_cast<double>(now_ns() - t0) < (o.tiny ? 20e6 : 300e6)) {
      Scope s(t, "mc.schedule");
      const mc::ScheduleOutcome out = ex.run_one(dfs);
      decisions += out.steps;
      ++schedules;
    }
    const double us = static_cast<double>(now_ns() - t0) / 1000.0;
    layer_once(r, "mc.us_per_decision", frac(us, static_cast<double>(decisions)), "us", kSuite);
    layer_once(r, "mc.decisions_per_schedule",
               frac(static_cast<double>(decisions), static_cast<double>(schedules)), "count",
               kSuite);
  }
  // Figures only a workload with that traffic has; zero elsewhere.
  layer_once(r, "dgc.nss_useful_frac", 0.0, "frac", kSuite);
  layer_once(r, "net.bytes_per_rmi", 0.0, "B", kSuite);
  layer_once(r, "net.quiescent_msgs_per_proc_s", 0.0, "1/s", kSuite);
}

}  // namespace pb
