// cycles_sim: distributed garbage reclamation on the deterministic
// simulator with 16 processes, production collector periods and no loss.
//
// In waves, the bench plants distributed rings 2-16 processes long, the
// paper's Fig. 4 mutual cycles and acyclic cross-process chains, each held
// by one anchor root, and drops the anchors on a seeded schedule. A
// RandomWorkload churns in the background under its shadow oracle. The sim
// advances in fixed slices; after every slice the bench checks safety and
// polls heap().exists() to time each planted structure's reclamation. The
// run ends with a quiescent tail in which nothing mutates, the only place
// the control plane's idle cost shows.
#include <algorithm>
#include <map>

#include "perfbench/bench.h"
#include "perfbench/suite.h"
#include "src/common/rng.h"
#include "src/rt/runtime.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"
#include "src/sim/workload.h"

namespace pb {

using namespace adgc;

namespace {

constexpr std::size_t kProcs = 16;
/// Independent clusters per run. Each seeds its processes' timer phases
/// differently, and those phases shape reclamation delay for a whole run;
/// waves rotate over the clusters so a run averages over four phasings.
constexpr std::size_t kSims = 4;
constexpr SimTime kSlice = 10'000;            // sim µs between oracle checks
constexpr SimTime kDropWindow = 1'000'000;    // anchors drop within this of the wave start
constexpr SimTime kWaveCap = 5'000'000;       // a wave ends at most this long after its drops
constexpr SimTime kNever = ~SimTime{0};
constexpr SimTime kQuiescent = 5'000'000;     // idle window measured at the end
constexpr SimTime kSettleCap = 60'000'000;    // convergence budget before the idle window

struct Planted {
  bool cyclic = false;
  ObjectId anchor;
  std::vector<ObjectId> objects;
  std::vector<std::pair<ProcessId, RefId>> scions;  // (owner, ref): replay candidates
  SimTime drop_at = 0;
  SimTime dropped = 0;
  bool is_dropped = false;
  bool gone = false;
  std::size_t wave = 0;
};

struct Sim {
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<sim::RandomWorkload> wl;
  std::vector<Planted> planted;
  std::size_t waves = 0;
  std::vector<std::map<ProcessId, std::vector<RefId>>> last_sets;
  std::uint64_t stub_changes = 0;
  double run_wall_ns = 0;
  std::uint64_t run_delivered = 0;
  /// CPU seconds the bench thread spent inside the simulator and the
  /// mutator (run_until, workload steps), not in the bench's own oracles.
  double system_cpu_s = 0;
};

struct Phase {
  double sim_s = 0;           // simulated seconds advanced
  double loaded_sim_s = 0;    // ...of which with planted structures outstanding
  std::uint64_t ctl_loaded = 0;
  /// Reclamation delays (sim ms) keyed by the wave that planted them.
  std::map<std::size_t, std::vector<double>> cyclic_ms, acyclic_ms;
  /// System CPU ms per simulated process-second, per wave; in a traced run,
  /// the untraced waves' costs go to `untraced_cost`.
  std::vector<double> wave_cost, untraced_cost;
  std::uint64_t structures = 0;
  bool unsafe = false;
  std::string note;
};

std::uint64_t ctl_msgs(const Metrics& m) {
  return m.messages_sent.get() - m.invocations_sent.get() - m.replies_sent.get();
}

/// Quantile of reclamation times observed at slice ends. A time t means the
/// structure vanished in (t - kSlice, t], so each sample is spread evenly over
/// its slice (the grouped-data quantile) instead of snapping to slice ends.
double slice_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double width = static_cast<double>(kSlice) / 1000.0;
  const double rank = q * static_cast<double>(v.size());
  const std::size_t idx = std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const auto lo = std::lower_bound(v.begin(), v.end(), v[idx]);
  const auto hi = std::upper_bound(v.begin(), v.end(), v[idx]);
  const double before = static_cast<double>(lo - v.begin());
  return v[idx] - width + width * (rank - before) / static_cast<double>(hi - lo);
}

/// A wave's reclamation-time quantile, median over the waves. A run's waves
/// share one set of periods, so the median wave is what repeats from run to
/// run; the rare wave caught in a suspicion episode does not move it.
double wave_median(const std::map<std::size_t, std::vector<double>>& by_wave, double q) {
  std::vector<double> per_wave;
  for (const auto& [wave, v] : by_wave) per_wave.push_back(slice_quantile(v, q));
  return median(per_wave);
}

double mean_of(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::vector<double> pooled(const std::map<std::size_t, std::vector<double>>& by_wave) {
  std::vector<double> all;
  for (const auto& [wave, v] : by_wave) all.insert(all.end(), v.begin(), v.end());
  return all;
}

ObjectId make_obj(Runtime& rt, ProcessId p) { return {p, rt.proc(p).create_object()}; }

Planted plant_ring(Runtime& rt, Rng& rng) {
  const std::size_t len = 2 + rng.below(kProcs - 1);
  const sim::Ring ring = sim::build_ring(rt, len, 1 + rng.below(2), /*pin_first=*/true);
  Planted p;
  p.cyclic = true;
  p.anchor = ring.anchors[0];
  p.objects = ring.heads;
  p.objects.push_back(ring.anchors[0]);
  for (std::size_t i = 0; i < len; ++i) {
    // ring_refs[i] points into process (i + 1) % len, which holds its scion.
    p.scions.push_back({static_cast<ProcessId>((i + 1) % len), ring.ring_refs[i]});
  }
  return p;
}

Planted plant_fig4(Runtime& rt) {
  const sim::Fig4 f = sim::build_fig4(rt);
  rt.proc(f.D.owner).add_root(f.D.seq);  // the anchor the schedule drops
  Planted p;
  p.cyclic = true;
  p.anchor = f.D;
  p.objects = {f.D, f.F, f.K, f.T, f.V, f.Y, f.ZB, f.ZD};
  p.scions = {{f.V.owner, f.F_to_V}, {f.K.owner, f.F_to_K}, {f.T.owner, f.VY_to_T},
              {f.D.owner, f.T_to_D},  {f.F.owner, f.D_to_F}, {f.ZB.owner, f.K_to_ZB},
              {f.Y.owner, f.ZD_to_Y}};
  return p;
}

Planted plant_chain(Runtime& rt, Rng& rng) {
  const std::size_t len = 2 + rng.below(5);
  Planted p;
  ProcessId prev = kNoProcess;
  for (std::size_t i = 0; i < len; ++i) {
    ProcessId pid = static_cast<ProcessId>(rng.below(kProcs));
    if (pid == prev) pid = static_cast<ProcessId>((pid + 1) % kProcs);
    const ObjectId o = make_obj(rt, pid);
    if (!p.objects.empty()) rt.link(p.objects.back(), o);
    p.objects.push_back(o);
    prev = pid;
  }
  p.anchor = p.objects.front();
  rt.proc(p.anchor.owner).add_root(p.anchor.seq);
  return p;
}

/// Advances one slice, then runs the oracles: the shadow's live objects and
/// every undropped planted structure must exist; dropped structures whose
/// last object is gone record their reclamation time.
void slice(Sim& s, Tracer* t, Phase& ph, bool mutate, bool sample_stubs) {
  Runtime& rt = *s.rt;
  const double cpu0 = thread_cpu_s();
  if (mutate) {
    Scope m(t, "rt.workload_step");
    s.wl->step();
  }
  const std::uint64_t d0 = rt.net_metrics().messages_delivered.get();
  const std::uint64_t t0 = now_ns();
  {
    Scope r(t, "sim.run_until");
    rt.run_until(rt.now() + kSlice);
    r.set_work(rt.net_metrics().messages_delivered.get() - d0);
  }
  s.run_wall_ns += static_cast<double>(now_ns() - t0);
  s.system_cpu_s += thread_cpu_s() - cpu0;
  s.run_delivered += rt.net_metrics().messages_delivered.get() - d0;
  ph.sim_s += static_cast<double>(kSlice) / 1e6;

  Scope check(t, "rt.poll_oracles");
  if (auto v = s.wl->find_safety_violation()) {
    ph.unsafe = true;
    ph.note = "shadow-live object reclaimed: " + to_string(*v);
  }
  for (Planted& p : s.planted) {
    if (p.gone) continue;
    bool all_gone = true, any_gone = false;
    for (const ObjectId& id : p.objects) {
      const bool exists = rt.proc(id.owner).heap().exists(id.seq);
      all_gone = all_gone && !exists;
      any_gone = any_gone || !exists;
    }
    if (!p.is_dropped) {
      if (any_gone) {
        ph.unsafe = true;
        ph.note = "anchored structure lost an object";
      }
      continue;
    }
    if (all_gone) {
      p.gone = true;
      const double ms = static_cast<double>(rt.now() - p.dropped) / 1000.0;
      (p.cyclic ? ph.cyclic_ms : ph.acyclic_ms)[p.wave].push_back(ms);
    }
  }
  // Stub sets are sampled once per LGC period, the rate NewSetStubs go out.
  if (sample_stubs && (rt.now() / kSlice) % 2 == 0) {
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      auto sets = rt.proc(pid).stubs().live_refs_by_owner();
      for (const auto& [peer, refs] : sets) {
        if (s.last_sets[pid][peer] != refs) ++s.stub_changes;
      }
      s.last_sets[pid] = std::move(sets);
    }
  }
}

/// One wave: plant, drop on schedule, advance until everything the wave
/// dropped is gone or kWaveCap has passed. Structures still outstanding stay
/// polled through later waves and the tail; only one never reclaimed by the
/// end of the run counts as leaked. Optionally replays the wave's detections
/// once its anchors are down.
void wave(Sim& s, Rng& rng, Tracer* t, Phase& ph, bool tiny, bool sample_stubs,
          ReplayResult* replay, bool untraced) {
  Scope w(t, "phase.wave");
  Runtime& rt = *s.rt;
  std::erase_if(s.planted, [](const Planted& p) { return p.gone; });
  const std::size_t first = s.planted.size();
  const int rings = tiny ? 4 : 40, fig4s = tiny ? 1 : 5, chains = tiny ? 4 : 20;
  {
    Scope p(t, "rt.plant");
    for (int i = 0; i < rings; ++i) s.planted.push_back(plant_ring(rt, rng));
    for (int i = 0; i < fig4s; ++i) s.planted.push_back(plant_fig4(rt));
    for (int i = 0; i < chains; ++i) s.planted.push_back(plant_chain(rt, rng));
  }
  const SimTime start = rt.now();
  const std::size_t id = s.waves++;
  for (std::size_t i = first; i < s.planted.size(); ++i) {
    s.planted[i].drop_at = start + kSlice + rng.below(kDropWindow);
    s.planted[i].wave = id;
  }
  ph.structures += s.planted.size() - first;
  const Metrics m0 = rt.total_metrics();
  const double sim0 = ph.sim_s;
  const double cpu0 = s.system_cpu_s;
  bool replayed = replay == nullptr;
  for (;;) {
    bool outstanding = false;
    for (std::size_t i = first; i < s.planted.size(); ++i) {
      Planted& p = s.planted[i];
      if (!p.is_dropped && rt.now() >= p.drop_at) {
        rt.proc(p.anchor.owner).remove_root(p.anchor.seq);
        p.is_dropped = true;
        p.dropped = rt.now();
      }
      outstanding = outstanding || !p.gone;
    }
    if (!outstanding || rt.now() > start + kDropWindow + kWaveCap) break;
    if (!replayed && rt.now() > start + kDropWindow + 200'000) {
      std::vector<std::pair<ProcessId, RefId>> cands;
      for (const Planted& p : s.planted) {
        if (p.cyclic && p.is_dropped && !p.gone) {
          cands.insert(cands.end(), p.scions.begin(), p.scions.end());
        }
      }
      *replay = replay_detections(rt, cands, t);
      replayed = true;
    }
    slice(s, t, ph, /*mutate=*/true, sample_stubs);
    if (ph.unsafe) return;
  }
  const double wave_sim_s = ph.sim_s - sim0;
  (untraced ? ph.untraced_cost : ph.wave_cost)
      .push_back((s.system_cpu_s - cpu0) * 1000.0 / (static_cast<double>(kProcs) * wave_sim_s));
  ph.ctl_loaded += ctl_msgs(rt.total_metrics()) - ctl_msgs(m0);
  ph.loaded_sim_s += wave_sim_s;
}

/// True when the cluster holds exactly the shadow's live objects plus the
/// planted ones still present.
bool converged(const Sim& s) {
  if (s.wl->find_safety_violation()) return false;
  std::size_t total = 0;
  for (ProcessId pid = 0; pid < kProcs; ++pid) total += s.rt->proc(pid).heap().size();
  std::size_t live = s.wl->shadow().live().size();
  for (const Planted& p : s.planted) live += p.is_dropped ? 0 : p.objects.size();
  return total == live;
}

std::unique_ptr<Sim> build(std::uint64_t seed, std::size_t index, Tracer* t) {
  auto s = std::make_unique<Sim>();
  s->waves = index * 1'000'000;  // wave ids stay unique across the clusters
  RuntimeConfig cfg;  // production periods, loss 0
  cfg.seed = seed;
  s->rt = std::make_unique<Runtime>(kProcs, cfg);
  sim::WorkloadParams wp;
  wp.max_objects = 1500;
  s->wl = std::make_unique<sim::RandomWorkload>(*s->rt, wp, seed * 31 + 7);
  s->last_sets.resize(kProcs);
  // A service directory: every process holds rooted references into the
  // next seven processes around the ring. Each pair then carries at most a
  // one-way NewSetStubs stream (holder to owner) at its steady rate from the
  // start, in every run and for every seed; such a stream is what a healthy
  // idle owner is suspected over, so the defect shows the same way each run.
  for (ProcessId a = 0; a < kProcs; ++a) {
    for (ProcessId d = 1; d <= 7; ++d) {
      const ProcessId b = (a + d) % kProcs;
      Planted p;
      p.anchor = make_obj(*s->rt, a);
      s->rt->proc(a).add_root(p.anchor.seq);
      p.objects = {p.anchor, make_obj(*s->rt, b)};
      s->rt->link(p.objects[0], p.objects[1]);
      p.drop_at = kNever;
      s->planted.push_back(p);
    }
  }
  Phase warm;
  for (int i = 0; i < 200; ++i) slice(*s, t, warm, true, false);  // 2 s of churn
  return s;
}

using Sims = std::vector<std::unique_ptr<Sim>>;

/// Runs waves over the clusters in turn until the time is up. With a tracer,
/// every other round over the clusters runs untraced, so the tracing overhead
/// compares waves of the same clusters at the same age.
Phase measure(Sims& sims, double seconds, Rng& rng, Tracer* t, bool tiny,
              ReplayResult* replay) {
  Phase ph;
  Scope phase(t, "phase.waves");
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  std::size_t k = 0;
  do {
    const bool untraced = t && (k / sims.size()) % 2 == 0;
    wave(*sims[k % sims.size()], rng, untraced ? nullptr : t, ph, tiny, t != nullptr,
         untraced ? nullptr : replay, untraced);
    if (!untraced) replay = nullptr;
    ++k;
  } while (Clock::now() < end && !ph.unsafe);
  return ph;
}

/// Stops mutating, waits for the cluster to hold exactly the shadow's live
/// set, then measures the idle control-plane rate. Returns false if the
/// collectors did not converge.
bool quiescent_tail(Sim& s, Tracer* t, Phase& ph, double* idle_rate) {
  Scope q(t, "phase.quiescent");
  Runtime& rt = *s.rt;
  const SimTime settle_end = rt.now() + kSettleCap;
  bool done = false;
  while (!ph.unsafe && rt.now() < settle_end) {
    slice(s, t, ph, /*mutate=*/false, false);
    if (rt.now() % 100'000 < kSlice && converged(s)) {
      done = true;
      break;
    }
  }
  const std::uint64_t c0 = ctl_msgs(rt.total_metrics());
  const SimTime idle_start = rt.now();
  while (!ph.unsafe && rt.now() < idle_start + kQuiescent) slice(s, t, ph, false, false);
  *idle_rate = static_cast<double>(ctl_msgs(rt.total_metrics()) - c0) /
               (static_cast<double>(kProcs) * static_cast<double>(kQuiescent) / 1e6);
  return done && converged(s);
}

}  // namespace

Report run_cycles_sim(const Options& o, Tracer* t) {
  Report r;
  Rng rng(o.seed * 104729 + 3);
  const int setups = o.trace ? 1 : 5;
  std::vector<double> setup_s;
  Sims sims;
  for (int i = 0; i < setups; ++i) {
    sims.clear();
    const std::uint64_t t0 = now_ns();
    Scope sc(t, "phase.setup");
    for (std::size_t k = 0; k < kSims; ++k) sims.push_back(build(o.seed * kSims + k, k, t));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const auto total = [&sims] {
    Metrics m;
    for (const auto& s : sims) m.merge(s->rt->total_metrics());
    return m;
  };

  const double secs = o.tiny ? 0.2 : o.seconds;
  ReplayResult replay;
  const std::uint64_t nss0 = total().new_set_stubs_sent.get();
  Phase ph = measure(sims, secs, rng, t, o.tiny, &replay);
  if (o.trace) {
    std::uint64_t changes = 0;
    for (const auto& s : sims) changes += s->stub_changes;
    r.layer("dgc.nss_useful_frac",
            frac(static_cast<double>(changes),
                 static_cast<double>(total().new_set_stubs_sent.get() - nss0)),
            "frac", "cycles_sim");
  }
  std::vector<double> idle_rates;
  Phase tail;
  bool settled = true;
  for (auto& s : sims) {
    double idle = 0;
    settled = quiescent_tail(*s, t, tail, &idle) && settled;
    idle_rates.push_back(idle);
  }
  const double idle_rate = mean_of(idle_rates);
  // Structures reclaimed during the tail still count, at their full delay,
  // with the wave that planted them.
  for (auto [from, to] : {std::pair{&tail.cyclic_ms, &ph.cyclic_ms},
                          std::pair{&tail.acyclic_ms, &ph.acyclic_ms}}) {
    for (const auto& [wave, v] : *from) {
      auto& dst = (*to)[wave];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  std::uint64_t leaked = 0;
  for (const auto& s : sims) {
    for (const Planted& p : s->planted) leaked += p.is_dropped && !p.gone ? 1 : 0;
  }

  r.attempted = ph.structures + kSims;
  r.failed = leaked + (settled ? 0 : 1);
  if (leaked > 0) {
    r.notes.push_back("planted structures never reclaimed: " + std::to_string(leaked));
  }
  if (!settled) r.notes.push_back("a cluster did not converge to its shadow's live set");
  for (const Phase* p : {&ph, &tail}) {
    if (p->unsafe) {
      r.correct = false;
      r.notes.push_back(p->note);
    }
  }

  const double cost_ms = median(ph.wave_cost);
  const double ctl_rate = frac(static_cast<double>(ph.ctl_loaded),
                               static_cast<double>(kProcs) * ph.loaded_sim_s);
  if (!o.trace) {
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("ops_per_s", 1000.0 / cost_ms, "1/s");
    r.e2e("p50_ms", wave_median(ph.cyclic_ms, 0.5), "ms");
    r.e2e("p99_ms", wave_median(ph.cyclic_ms, 0.99), "ms");
    r.e2e("msgs_per_op", ctl_rate, "msgs");
    r.e2e("cpu_ms_per_op", cost_ms, "ms");
    const std::vector<double> cyclic = pooled(ph.cyclic_ms);
    r.figure("acyclic_reclaim_p50_ms", wave_median(ph.acyclic_ms, 0.5), "ms");
    r.figure("cyclic_reclaim_p50_ms", wave_median(ph.cyclic_ms, 0.5), "ms");
    r.figure("cyclic_reclaim_p99_ms", wave_median(ph.cyclic_ms, 0.99), "ms");
    r.figure("cyclic_reclaim_p99_pooled_ms", slice_quantile(cyclic, 0.99), "ms");
    r.figure("cyclic_samples", static_cast<double>(cyclic.size()), "count");
    r.figure("waves", static_cast<double>(ph.cyclic_ms.size()), "count");
    r.figure("ctl_msgs_per_proc_s", ctl_rate, "1/s");
    r.figure("quiescent_msgs_per_proc_s", idle_rate, "1/s");
    r.figure("cpu_ms_per_proc_s", cost_ms, "ms");
    r.figure("simulated_s", ph.sim_s, "s");
  } else {
    const std::string w = "cycles_sim";
    const double untraced_cost = median(ph.untraced_cost);
    r.layer("trace.overhead_pct", frac(cost_ms - untraced_cost, untraced_cost) * 100.0, "%", w);
    r.layer("dgc.acyclic_reclaim_p50_ms", wave_median(ph.acyclic_ms, 0.5), "ms", w);
    r.layer("net.quiescent_msgs_per_proc_s", idle_rate, "1/s", w);
    double run_ns = 0, delivered = 0, proc_s = 0;
    for (const auto& s : sims) {
      run_ns += s->run_wall_ns;
      delivered += static_cast<double>(s->run_delivered);
      proc_s += static_cast<double>(kProcs) * static_cast<double>(s->rt->now()) / 1e6;
    }
    r.layer("sim.us_per_delivered_msg", frac(run_ns / 1000.0, delivered), "us", w);
    counter_layers(r, total(), proc_s, w);
    if (replay.cdms > 0) replay_layers(r, replay, w + "-replay");

    SuiteInput in;
    std::size_t stubs = 0, contacts = 0;
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      Process& p = sims[0]->rt->proc(pid);
      for (const auto& [peer, refs] : p.stubs().live_refs_by_owner()) {
        (void)peer;
        stubs += refs.size();
        ++contacts;
      }
      if (pid < 4) {
        in.heaps.push_back(capture_snapshot(pid, p.now(), p.heap(), p.stubs(), p.scions()));
      }
    }
    in.shape.nss_live = std::max<std::size_t>(1, stubs / std::max<std::size_t>(1, contacts));
    in.cdms = replay.seen;
    sims.clear();
    layer_suite(o, t, in, r);
  }
  return r;
}

}  // namespace pb
