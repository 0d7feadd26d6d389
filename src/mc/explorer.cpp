#include "src/mc/explorer.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace adgc::mc {

namespace {

/// Executes every schedulable pending event (creation order) until none are
/// left inside the horizon. Bounded defensively; with the periodic timers
/// parked beyond kFarFuture the fixpoint is small.
void drain(Runtime& rt) {
  for (int guard = 0; guard < 200'000; ++guard) {
    rt.prune_stale_events();
    if (!rt.execute_first_due(kFarFuture)) return;
  }
}

std::size_t total_objects(const Runtime& rt) {
  std::size_t n = 0;
  for (ProcessId pid = 0; pid < rt.size(); ++pid) {
    if (rt.alive(pid)) n += rt.proc(pid).heap().size();
  }
  return n;
}

/// Deterministic quiescence: run the full collector pipeline on every
/// process, flushing the network in between and stepping the clock over the
/// detection timeout so stuck detections expire and relaunch. Stops early
/// once only `survivors` objects remain (the expected fixpoint).
void settle(Runtime& rt, std::uint32_t rounds, std::size_t survivors) {
  const SimTime hop = rt.config().proc.detection_timeout_us + 50'000;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    drain(rt);
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).run_lgc();
    }
    if (total_objects(rt) <= survivors) break;
    drain(rt);
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).take_snapshot();
    }
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      if (rt.alive(pid)) rt.proc(pid).run_dcda_scan();
    }
    drain(rt);
    rt.run_until(rt.now() + hop);  // pure clock advance in explicit mode
  }
  drain(rt);
}

}  // namespace

ScheduleOutcome Explorer::run_schedule(ScheduleStrategy& strategy) {
  ScheduleOutcome out;
  const std::unique_ptr<Scenario> scenario = make_scenario(opts_.scenario);
  out.trace.scenario = scenario->name();
  out.trace.seed = opts_.seed;
  out.trace.max_steps = opts_.max_steps;
  out.trace.unsafe_no_ic = opts_.unsafe_no_ic;
  out.trace.snapshot_pipeline_latency_us = opts_.snapshot_pipeline_latency_us;

  RuntimeConfig cfg = mc_config(opts_.seed);
  scenario->tune_config(cfg);
  cfg.proc.dcda_unsafe_ignore_ic = opts_.unsafe_no_ic;
  if (opts_.snapshot_pipeline_latency_us > 0) {
    cfg.proc.snapshot_pipeline = true;
    cfg.proc.snapshot_pipeline_latency_us = opts_.snapshot_pipeline_latency_us;
  }
  Runtime rt(scenario->num_procs(), cfg);
  const SimTime lat = cfg.net.min_latency_us;
  rt.network().set_fate_hook(
      [lat](const Envelope&) { return SimNetwork::Fate{false, false, lat}; });
  rt.enable_explicit_schedule();
  scenario->build(rt);

  const std::size_t n = rt.size();
  std::size_t script_next = 0;
  std::uint32_t drops_used = 0;
  std::uint32_t crashes_used = 0;
  std::uint32_t evictions_seen = 0;
  std::vector<std::uint32_t> lgc_used(n, 0), snap_used(n, 0), scan_used(n, 0);
  std::unordered_set<ProcessId> tainted;

  std::vector<Decision> choices;
  std::vector<std::uint64_t> event_ids;  // parallel to choices; 0 = none
  std::vector<Runtime::PendingInfo> pending;

  for (std::uint32_t step = 0; step < opts_.max_steps; ++step) {
    rt.prune_stale_events();
    choices.clear();
    event_ids.clear();
    rt.pending_infos(pending);

    if (script_next < scenario->script_size()) {
      // A crashed mutator's scripted actions die with it: the step may name
      // objects or references a cold restart has lost.
      const ProcessId actor = scenario->script_proc(script_next);
      if (rt.alive(actor) && !tainted.contains(actor)) {
        choices.push_back({DecisionKind::kScript,
                           static_cast<std::uint32_t>(script_next), 0, 0});
        event_ids.push_back(0);
      }
    }
    for (const Runtime::PendingInfo& pi : pending) {
      if (pi.when >= kFarFuture) continue;
      choices.push_back({DecisionKind::kDeliver,
                         pi.is_message ? pi.src : kTimerSrc, pi.dst, pi.tag});
      event_ids.push_back(pi.id);
    }
    for (ProcessId pid = 0; pid < n; ++pid) {
      if (!rt.alive(pid)) continue;
      if (lgc_used[pid] < opts_.collector_budget) {
        choices.push_back({DecisionKind::kLgc, pid, 0, 0});
        event_ids.push_back(0);
      }
      if (snap_used[pid] < opts_.collector_budget) {
        choices.push_back({DecisionKind::kSnapshot, pid, 0, 0});
        event_ids.push_back(0);
      }
      if (scan_used[pid] < opts_.collector_budget) {
        choices.push_back({DecisionKind::kScan, pid, 0, 0});
        event_ids.push_back(0);
      }
    }
    if (drops_used < opts_.loss_budget) {
      for (const Runtime::PendingInfo& pi : pending) {
        if (!pi.is_message || pi.when >= kFarFuture) continue;
        choices.push_back({DecisionKind::kDrop, pi.src, pi.dst, pi.tag});
        event_ids.push_back(pi.id);
      }
    }
    if (crashes_used < opts_.crash_budget) {
      for (ProcessId pid = 0; pid < n; ++pid) {
        choices.push_back({rt.alive(pid) ? DecisionKind::kCrash : DecisionKind::kRestart,
                           pid, 0, 0});
        event_ids.push_back(0);
      }
    }
    if (choices.size() > opts_.max_choices) {
      choices.resize(opts_.max_choices);
      event_ids.resize(opts_.max_choices);
    }
    if (choices.empty()) break;

    const std::size_t idx = strategy.pick(choices, step);
    if (idx == kStopSchedule) break;
    const Decision d = choices.at(idx);

    switch (d.kind) {
      case DecisionKind::kScript:
        scenario->apply_script(rt, script_next++);
        break;
      case DecisionKind::kDeliver:
        rt.execute_event(event_ids[idx]);
        break;
      case DecisionKind::kDrop:
        rt.drop_event(event_ids[idx]);
        ++drops_used;
        break;
      case DecisionKind::kLgc:
        rt.proc(d.a).run_lgc();
        ++lgc_used[d.a];
        break;
      case DecisionKind::kSnapshot:
        // With the pipeline on this only *requests* the snapshot; the
        // summary publish is a scheduled timer the explorer orders like any
        // other pending event. Pipeline off degrades to take_snapshot().
        rt.proc(d.a).request_snapshot();
        ++snap_used[d.a];
        break;
      case DecisionKind::kScan:
        rt.proc(d.a).run_dcda_scan();
        ++scan_used[d.a];
        break;
      case DecisionKind::kCrash:
        rt.crash(d.a);
        tainted.insert(d.a);
        ++crashes_used;
        break;
      case DecisionKind::kRestart:
        rt.restart(d.a);
        break;
    }
    out.trace.decisions.push_back(d);

    // An eviction is the protocol deliberately treating a peer as crashed:
    // its scions are dropped, so objects reachable only through it may be
    // reclaimed. Taint it exactly like a crash for the safety oracle.
    for (ProcessId pid = 0; pid < n; ++pid) {
      if (!rt.alive(pid)) continue;
      for (const auto& [peer, inc] : rt.proc(pid).peer_health().eviction_tombstones()) {
        (void)inc;
        if (tainted.insert(peer).second) ++evictions_seen;
      }
    }

    if (auto v = check_reachable_intact(rt, &tainted, &reach_scratch_)) {
      out.violation = std::move(v);
      break;
    }
  }
  out.steps = out.trace.decisions.size();

  // Liveness is only decidable on fault-free schedules: a dropped invoke
  // legitimately orphans a pending scion forever, a cold restart loses
  // roots, and an eviction severs live remote references on purpose — all
  // leave garbage the protocol is not required to reclaim in this horizon.
  if (!out.violation && opts_.check_liveness && scenario->check_liveness() &&
      drops_used == 0 && crashes_used == 0 && evictions_seen == 0) {
    while (script_next < scenario->script_size()) {
      scenario->apply_script(rt, script_next++);
    }
    settle(rt, opts_.settle_rounds, scenario->expected_survivors());
    if (auto v = check_reachable_intact(rt, &tainted, &reach_scratch_)) {
      out.violation = std::move(v);
    } else if (auto g = check_no_garbage(rt)) {
      out.violation = std::move(g);
    } else if (total_objects(rt) != scenario->expected_survivors()) {
      out.violation = "LIVENESS: expected " +
                      std::to_string(scenario->expected_survivors()) +
                      " survivors after settle, found " +
                      std::to_string(total_objects(rt));
    }
  }

  out.metrics = rt.total_metrics();
  return out;
}

ScheduleOutcome Explorer::run_one(ScheduleStrategy& strategy) {
  strategy.begin_schedule();
  ScheduleOutcome out = run_schedule(strategy);
  strategy.end_schedule(out.steps);
  return out;
}

ExploreResult Explorer::explore(ScheduleStrategy& strategy) {
  ExploreResult res;
  const auto start = std::chrono::steady_clock::now();
  while (res.schedules < opts_.max_schedules) {
    if (opts_.time_budget_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      if (static_cast<std::uint64_t>(elapsed) >= opts_.time_budget_ms) {
        res.hit_time_budget = true;
        break;
      }
    }
    if (!strategy.begin_schedule()) {
      res.exhausted = true;
      break;
    }
    ScheduleOutcome out = run_schedule(strategy);
    strategy.end_schedule(out.steps);

    ++res.schedules;
    res.total_decisions += out.steps;
    res.detections_started += out.metrics.detections_started.get();
    res.cycles_collected += out.metrics.detections_cycle_found.get();
    res.detections_aborted_ic += out.metrics.detections_aborted_ic.get();
    res.messages_delivered += out.metrics.messages_delivered.get();
    res.peers_evicted += out.metrics.peers_evicted.get();

    if (out.violation) {
      if (!res.failure) res.failure = std::move(out);
      if (opts_.stop_on_violation) break;
    }
  }
  return res;
}

ScheduleOutcome replay_trace(const Trace& trace) {
  ExplorerOptions opts;
  const std::optional<ScenarioKind> kind = parse_scenario(trace.scenario);
  if (!kind) {
    ScheduleOutcome out;
    out.violation = "replay: unknown scenario '" + trace.scenario + "'";
    return out;
  }
  opts.scenario = *kind;
  opts.seed = trace.seed;
  opts.max_steps = trace.max_steps;
  opts.unsafe_no_ic = trace.unsafe_no_ic;
  opts.snapshot_pipeline_latency_us = trace.snapshot_pipeline_latency_us;
  // Fault budgets must admit every recorded fault decision; collector
  // budgets likewise (per process and kind).
  std::uint32_t collector_max = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> per_proc_kind;
  for (const Decision& d : trace.decisions) {
    switch (d.kind) {
      case DecisionKind::kDrop: ++opts.loss_budget; break;
      case DecisionKind::kCrash: ++opts.crash_budget; break;
      case DecisionKind::kLgc:
      case DecisionKind::kSnapshot:
      case DecisionKind::kScan: {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(d.kind) << 32) | d.a;
        collector_max = std::max(collector_max, ++per_proc_kind[key]);
        break;
      }
      default: break;
    }
  }
  opts.collector_budget = std::max(opts.collector_budget, collector_max);

  Explorer explorer(opts);
  ReplayStrategy strategy(trace);
  return explorer.run_one(strategy);
}

}  // namespace adgc::mc
