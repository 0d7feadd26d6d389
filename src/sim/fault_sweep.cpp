#include "src/sim/fault_sweep.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

#include "src/common/log.h"
#include "src/sim/harness.h"
#include "src/sim/scenarios.h"

namespace adgc::sim {

namespace {

/// Fault-free run before the planted garbage is released: enough snapshot
/// periods that every process has the full structure durably on disk.
constexpr SimTime kWarmupUs = 400'000;
/// How long a crashed process stays down before restarting.
constexpr SimTime kDownUs = 50'000;

/// Live sentinel ring: rooted L_p holds a remote reference to the unrooted
/// N_{p+1}, whose survival therefore rests entirely on the cross-process
/// stub/scion pair — the state faults try hardest to lose.
struct Sentinels {
  std::vector<ObjectId> rooted;  // L_p
  std::vector<ObjectId> held;    // N_p, kept alive only by L_{p-1}
  std::vector<RefId> refs;       // refs[p]: L_p → N_{p+1}

  std::vector<ObjectId> all() const {
    std::vector<ObjectId> out = rooted;
    out.insert(out.end(), held.begin(), held.end());
    return out;
  }
};

Sentinels plant_sentinels(Runtime& rt) {
  const std::size_t n = rt.size();
  Sentinels s;
  for (ProcessId pid = 0; pid < n; ++pid) {
    s.rooted.push_back(ObjectId{pid, rt.proc(pid).create_object()});
    s.held.push_back(ObjectId{pid, rt.proc(pid).create_object()});
    rt.proc(pid).add_root(s.rooted.back().seq);
  }
  for (ProcessId pid = 0; pid < n; ++pid) {
    s.refs.push_back(rt.link(s.rooted[pid], s.held[(pid + 1) % n]));
  }
  return s;
}

std::vector<ObjectId> fig3_objects(const Fig3& f) {
  return {f.A, f.B, f.C, f.D, f.F, f.G, f.H, f.J, f.O, f.M, f.K, f.Q, f.R, f.S};
}

std::vector<ObjectId> fig4_objects(const Fig4& f) {
  return {f.D, f.F, f.K, f.T, f.V, f.Y, f.ZB, f.ZD};
}

void crash_and_restart(Runtime& rt, ProcessId victim, SweepResult& res) {
  rt.crash(victim);
  ++res.crashes;
  rt.run_for(kDownUs);
  if (rt.restart(victim)) ++res.recovered;
}

/// The oracle. Completeness: every object of `garbage` whose owner is alive
/// is gone. Safety: every object of `live` whose owner is alive still
/// exists. Nothing stranded: no survivor holds a stub toward, or a scion
/// from, a dead process. Also records the run's total metrics.
void judge(const Runtime& rt, const std::vector<ObjectId>& garbage,
           const std::vector<ObjectId>& live, SweepResult& res) {
  std::ostringstream detail;
  res.garbage_collected = true;
  for (const ObjectId id : garbage) {
    if (rt.alive(id.owner) && rt.proc(id.owner).heap().exists(id.seq)) {
      res.garbage_collected = false;
      detail << "uncollected garbage " << to_string(id) << "; ";
    }
  }
  for (const ObjectId id : live) {
    if (rt.alive(id.owner) && !rt.proc(id.owner).heap().exists(id.seq)) {
      res.live_lost = true;
      detail << "live object " << to_string(id) << " lost; ";
    }
  }
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (!rt.alive(pid)) continue;
    for (const auto& [ref, stub] : rt.proc(pid).stubs()) {
      if (!rt.alive(stub.target.owner)) {
        res.stranded = true;
        detail << "P" << pid << " still holds stub " << ref_to_string(ref)
               << " toward dead P" << stub.target.owner << "; ";
      }
    }
    for (const auto& [ref, scion] : rt.proc(pid).scions()) {
      if (!rt.alive(scion.holder)) {
        res.stranded = true;
        detail << "P" << pid << " still holds scion " << ref_to_string(ref)
               << " from dead P" << scion.holder << "; ";
      }
    }
  }
  res.detail = detail.str();
  res.totals = rt.total_metrics();
}

}  // namespace

SnapshotDir::SnapshotDir(const std::string& prefix) {
  std::string path = (std::filesystem::temp_directory_path() / (prefix + "XXXXXX")).string();
  if (::mkdtemp(path.data()) == nullptr) {
    throw std::filesystem::filesystem_error("mkdtemp", path,
                                            std::error_code(errno, std::generic_category()));
  }
  path_ = std::move(path);
}

SnapshotDir::~SnapshotDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

SweepResult run_crash_sweep(std::uint64_t seed) {
  /// Run time on each side of a crash (≫ snapshot period, so the root drop
  /// and subsequent DGC progress are persisted before the next crash).
  constexpr SimTime kPhaseUs = 800'000;
  constexpr SimTime kSettleUs = 10'000'000;

  const SnapshotDir dir("adgc_crash_sweep_" + std::to_string(seed) + "_");
  RuntimeConfig cfg = fast_config(seed);
  cfg.proc.snapshot_dir = dir.str();

  SweepResult res;
  Runtime rt(4, cfg);
  const Fig3 fig = build_fig3(rt);
  const Sentinels sentinels = plant_sentinels(rt);

  rt.run_for(kWarmupUs);
  rt.proc(0).remove_root(fig.A.seq);

  // Crash and restart each process once, mid-run: half a phase in, the
  // detectors are busy probing the now-garbage cycle.
  for (ProcessId victim = 0; victim < 4; ++victim) {
    rt.run_for(kPhaseUs / 2);
    crash_and_restart(rt, victim, res);
    rt.run_for(kPhaseUs / 2);
  }
  rt.run_for(kSettleUs);

  // The whole Fig. 3 structure (cycle + its local attachments + the dropped
  // root path) must be gone.
  judge(rt, fig3_objects(fig), sentinels.all(), res);
  return res;
}

SweepResult run_chaos_sweep(const ChaosSweepParams& p) {
  constexpr std::size_t kProcs = 6;
  /// One storm slice: a bidirectional link partition rotates every slice
  /// and one process is crashed and restarted per slice. Six slices — every
  /// link blocked once, every process crashed once.
  constexpr std::size_t kSlices = 6;
  constexpr SimTime kSliceUs = 400'000;
  /// Must exceed the largest detection backoff (`detection_backoff_cap_us`)
  /// so deferred candidates re-launch.
  constexpr SimTime kSettleUs = 12'000'000;

  const SnapshotDir dir("adgc_chaos_sweep_" + std::to_string(p.seed) + "_");
  RuntimeConfig cfg = fast_config(p.seed);
  cfg.proc.batching_enabled = p.batching;
  cfg.proc.snapshot_pipeline = p.snapshot_pipeline;
  cfg.proc.peer_death_timeout_us = p.peer_death_timeout_us;
  cfg.proc.snapshot_dir = dir.str();

  SweepResult res;
  Runtime rt(kProcs, cfg);
  const Fig3 fig3 = build_fig3(rt);
  const Fig4 fig4 = build_fig4(rt);
  // Fig. 4 is garbage from the moment it is built; pin one object on its
  // cycle so it stays live through the warmup and is released together
  // with Fig. 3's root when the storm is about to start.
  rt.proc(fig4.F.owner).add_root(fig4.F.seq);
  const Sentinels sentinels = plant_sentinels(rt);

  rt.run_for(kWarmupUs);

  // Make everything planted garbage, and give the owners a few snapshot
  // periods to persist the root drops before the first crash can hit.
  rt.proc(fig3.A.owner).remove_root(fig3.A.seq);
  rt.proc(fig4.F.owner).remove_root(fig4.F.seq);
  rt.run_for(50'000);

  // The storm. Per slice: one bidirectional link partition (rotating so
  // every ring link is blocked once) on top of sustained loss, duplication
  // and reordering, and a crash+restart on the far side of the partition.
  rt.network().set_loss_probability(p.loss_probability);
  rt.network().set_duplicate_probability(p.duplicate_probability);
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    const ProcessId a = static_cast<ProcessId>(slice % kProcs);
    const ProcessId b = static_cast<ProcessId>((slice + 1) % kProcs);
    rt.network().set_link_blocked(a, b, true);
    rt.network().set_link_blocked(b, a, true);
    crash_and_restart(rt, static_cast<ProcessId>((slice + 3) % kProcs), res);
    rt.run_for(kSliceUs - kDownUs);
    rt.network().set_link_blocked(a, b, false);
    rt.network().set_link_blocked(b, a, false);
  }

  // Faults lift; the system must converge. Load shedding and backoff may
  // only ever delay collection.
  rt.network().set_loss_probability(0.0);
  rt.network().set_duplicate_probability(0.0);
  rt.run_for(kSettleUs);

  std::vector<ObjectId> garbage = fig3_objects(fig3);
  for (const ObjectId id : fig4_objects(fig4)) garbage.push_back(id);
  judge(rt, garbage, sentinels.all(), res);
  return res;
}

SweepResult run_eviction_sweep(std::uint64_t seed) {
  constexpr std::size_t kProcs = 6;
  /// Killed forever; off P0, the garbage ring anchor's owner.
  constexpr ProcessId kVictim = 2;
  /// Post-crash run: covers the death timeout plus a few LGC/NSS rounds for
  /// the reclamation cascade to drain.
  constexpr SimTime kRunUs = 5'000'000;
  /// Sentinel-ring invocation period (builds the interaction history that
  /// feeds suspicion).
  constexpr SimTime kInvokePeriodUs = 50'000;

  RuntimeConfig cfg = fast_config(seed);
  cfg.proc.peer_death_timeout_us = 1'000'000;

  SweepResult res;
  Runtime rt(kProcs, cfg);
  // The garbage-to-be: one ring segment per process, anchored at P0.
  const Ring ring = build_ring(rt, kProcs, /*objs_per_proc=*/1, /*pin_first=*/true);
  // The sentinel refs double as the invocation workload's path, so every
  // process builds request/reply history with its successor — the history
  // phi-accrual suspicion needs.
  const Sentinels sentinels = plant_sentinels(rt);

  // One round of sentinel invocations from every live process whose ref
  // still exists (eviction retires the stub toward the victim; invoking a
  // gone ref would throw).
  const auto invoke_round = [&] {
    for (ProcessId pid = 0; pid < kProcs; ++pid) {
      if (!rt.alive(pid)) continue;
      if (!rt.proc(pid).stubs().contains(sentinels.refs[pid])) continue;
      rt.proc(pid).invoke(sentinels.rooted[pid].seq, sentinels.refs[pid],
                          InvokeEffect::kTouch, {}, /*want_reply=*/true);
    }
  };
  for (SimTime t = 0; t < kWarmupUs; t += kInvokePeriodUs) {
    invoke_round();
    rt.run_for(kInvokePeriodUs);
  }

  // The ring becomes garbage; shortly after, the victim dies forever.
  rt.proc(0).remove_root(ring.anchors[0].seq);
  rt.run_for(100'000);
  rt.crash(kVictim);
  ++res.crashes;
  for (SimTime t = 0; t < kRunUs; t += kInvokePeriodUs) {
    invoke_round();
    rt.run_for(kInvokePeriodUs);
  }

  // N_{victim+1}'s only keeper was the victim: from the crash on it is
  // garbage, and reclaiming it is the point. Every other sentinel's keeper
  // is alive and rooted.
  const auto orphaned = static_cast<ProcessId>((kVictim + 1) % kProcs);
  std::vector<ObjectId> garbage = ring.heads;
  garbage.push_back(sentinels.held[orphaned]);
  std::vector<ObjectId> live = sentinels.rooted;
  for (ProcessId pid = 0; pid < kProcs; ++pid) {
    if (pid != orphaned) live.push_back(sentinels.held[pid]);
  }
  judge(rt, garbage, live, res);
  return res;
}

namespace {

/// One comparison leg: a 12-process garbage ring under sustained loss, plus
/// a periodic third-party re-export (the AddScion retry path) driven from
/// P0. The CDM hop limit is set below the ring length, so no detection can
/// ever complete: both legs sit in the *persistent*-failure regime — a
/// garbage structure beyond the hop budget, every launch timing out — which
/// is exactly where fixed-interval relaunching hammers the network and
/// exponential backoff pays off. (Eventual collection is the chaos sweep's
/// business, not this harness's; here the cycle staying uncollected keeps
/// the two legs statistically comparable for the whole run.)
/// Returns the runtime's total metrics after `run_us`.
Metrics backoff_leg(std::uint64_t seed, double loss, SimTime run_us, bool adaptive) {
  constexpr std::size_t kRingProcs = 12;
  RuntimeConfig cfg = fast_config(seed);
  cfg.proc.adaptive_faults = adaptive;
  cfg.proc.cdm_hop_limit = kRingProcs - 4;  // detections always time out
  Runtime rt(kRingProcs, cfg);
  const Ring ring = build_ring(rt, kRingProcs, 1, /*pin_first=*/true);

  // Handshake workload: X0 (rooted on P0) holds references to Xa on P10 and
  // Xb on P11; every period P0 invokes Xa passing the Xb reference as a
  // third-party argument — a scion-first AddScion handshake toward P11 that
  // must be retried under loss.
  const ObjectId X0{0, rt.proc(0).create_object()};
  const ObjectId Xa{10, rt.proc(10).create_object()};
  const ObjectId Xb{11, rt.proc(11).create_object()};
  rt.proc(0).add_root(X0.seq);
  rt.proc(10).add_root(Xa.seq);
  rt.proc(11).add_root(Xb.seq);
  const RefId via = rt.link(X0, Xa);
  const RefId held = rt.link(X0, Xb);

  rt.run_for(50'000);  // build-out settles fault-free
  rt.proc(0).remove_root(ring.anchors[0].seq);  // the ring becomes garbage
  rt.network().set_loss_probability(loss);
  const SimTime invoke_period = 20'000;
  for (SimTime t = 0; t < run_us; t += invoke_period) {
    rt.proc(0).invoke(X0.seq, via, InvokeEffect::kTouch, {ArgRef::held(held)},
                      /*want_reply=*/true);
    rt.run_for(invoke_period);
  }
  return rt.total_metrics();
}

}  // namespace

BackoffComparison run_backoff_comparison(std::uint64_t seed, double loss, SimTime run_us) {
  BackoffComparison out;
  // Hop-limit CDM drops are this scenario's working condition, not an
  // anomaly; don't let their per-message warnings flood the output.
  const LogLevel saved = Log::level();
  if (saved < LogLevel::kError) Log::set_level(LogLevel::kError);
  const Metrics adaptive = backoff_leg(seed, loss, run_us, /*adaptive=*/true);
  const Metrics fixed = backoff_leg(seed, loss, run_us, /*adaptive=*/false);
  Log::set_level(saved);
  out.adaptive_retry_messages = adaptive.add_scion_retries.get() + adaptive.cdms_sent.get();
  out.fixed_retry_messages = fixed.add_scion_retries.get() + fixed.cdms_sent.get();
  out.adaptive_total_messages = adaptive.messages_sent.get();
  out.fixed_total_messages = fixed.messages_sent.get();
  return out;
}

}  // namespace adgc::sim
