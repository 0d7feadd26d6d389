// mc_explore: the model checker's stateless DFS over the fig3, fig4 and
// evict scenarios at fixed bounds, liveness oracle on.
//
// Every schedule builds a fresh Runtime, rebuilds the scenario graph and
// replays the DFS prefix, so this is the one workload where per-schedule
// set-up and replay dominate. No network transport and little heap.

#include "perfbench/bench.h"
#include "perfbench/suite.h"
#include "src/mc/explorer.h"
#include "src/mc/strategy.h"

namespace pb {

using namespace adgc;

namespace {

constexpr int kSweep = 200;  // schedules per scenario per sweep

const mc::ScenarioKind kScenarios[] = {mc::ScenarioKind::kFig3, mc::ScenarioKind::kFig4,
                                       mc::ScenarioKind::kEvict};

mc::ExplorerOptions bounds(mc::ScenarioKind kind, std::uint64_t seed) {
  mc::ExplorerOptions eo;
  eo.scenario = kind;
  eo.seed = seed;
  eo.max_steps = 40;
  eo.collector_budget = 3;
  eo.check_liveness = true;
  return eo;
}

struct Leg {
  std::unique_ptr<mc::Explorer> ex;
  std::unique_ptr<mc::DfsStrategy> dfs;
};

struct Phase {
  double seconds = 0;
  std::uint64_t schedules = 0;
  std::uint64_t decisions = 0;
  std::uint64_t delivered = 0;
  std::uint64_t violations = 0;
  std::vector<double> schedule_ms;
  Metrics totals;
  std::string note;
  /// Segments end between sweeps, so each holds whole sweeps: the same
  /// schedule mix in every segment.
  Segments seg{1.0, process_cpu_s, /*at_marks=*/true};
};

void one_schedule(Leg& leg, Tracer* t, Phase& ph) {
  if (leg.dfs->exhausted()) leg.dfs = std::make_unique<mc::DfsStrategy>();
  const std::uint64_t t0 = now_ns();
  Scope s(t, "mc.schedule");
  const mc::ScheduleOutcome out = leg.ex->run_one(*leg.dfs);
  s.set_work(out.steps);
  ph.schedule_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  ph.seg.op(ph.schedule_ms.back());
  ++ph.schedules;
  ph.decisions += out.steps;
  ph.delivered += out.metrics.messages_delivered.get();
  ph.totals.merge(out.metrics);
  if (out.violation) {
    ++ph.violations;
    ph.note = *out.violation;
  }
}

/// Sweeps repeat until the time is up. A sweep restarts the DFS of every
/// scenario and runs its first kSweep schedules, so every run times the same
/// schedule mix however fast the machine is.
Phase measure(std::vector<Leg>& legs, double seconds, Tracer* t) {
  Phase ph;
  Scope phase(t, "phase.explore");
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  do {
    for (Leg& leg : legs) {
      Scope b(t, "phase.sweep");
      leg.dfs = std::make_unique<mc::DfsStrategy>();
      for (int i = 0; i < kSweep; ++i) one_schedule(leg, t, ph);
    }
    ph.seg.mark();
  } while (Clock::now() < end);
  ph.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  ph.seg.finish();
  return ph;
}

std::vector<Leg> build(std::uint64_t seed, Tracer* t) {
  std::vector<Leg> legs;
  Phase warm;
  for (mc::ScenarioKind k : kScenarios) {
    Leg leg;
    leg.ex = std::make_unique<mc::Explorer>(bounds(k, seed));
    leg.dfs = std::make_unique<mc::DfsStrategy>();
    for (int i = 0; i < 50; ++i) one_schedule(leg, t, warm);
    legs.push_back(std::move(leg));
  }
  return legs;
}

}  // namespace

Report run_mc_explore(const Options& o, Tracer* t) {
  Report r;
  const int setups = o.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::vector<Leg> legs;
  for (int i = 0; i < setups; ++i) {
    legs.clear();
    const std::uint64_t t0 = now_ns();
    Scope s(t, "phase.setup");
    legs = build(o.seed, t);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double secs = o.tiny ? 0.2 : o.seconds;
  Phase ph, untraced;
  if (o.trace) {
    untraced = measure(legs, secs / 2, nullptr);
    ph = measure(legs, secs / 2, t);
  } else {
    ph = measure(legs, secs, nullptr);
  }
  r.attempted = ph.schedules + untraced.schedules;
  r.failed = ph.violations + untraced.violations;
  if (r.failed > 0) {
    r.correct = false;
    r.notes.push_back("model-checker violation: " +
                      (ph.note.empty() ? untraced.note : ph.note));
  }

  const double n = static_cast<double>(std::max<std::uint64_t>(1, ph.schedules));
  const double per_s = ph.seg.rate();
  if (!o.trace) {
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("ops_per_s", per_s, "1/s");
    r.e2e("p50_ms", ph.seg.p50(), "ms");
    r.e2e("p99_ms", ph.seg.p99(), "ms");
    r.e2e("msgs_per_op", static_cast<double>(ph.delivered) / n, "msgs");
    r.e2e("cpu_ms_per_op", ph.seg.cpu_ms_per_op(), "ms");
    r.figure("schedules_per_s", per_s, "1/s");
    r.figure("schedule_p50_ms", ph.seg.p50(), "ms");
    r.figure("schedule_p99_ms", ph.seg.p99(), "ms");
    r.figure("schedules", static_cast<double>(ph.schedules), "count");
  } else {
    const std::string w = "mc_explore";
    r.layer("mc.us_per_decision",
            frac(ph.seconds * 1e6, static_cast<double>(ph.decisions)), "us", w);
    r.layer("mc.decisions_per_schedule", static_cast<double>(ph.decisions) / n, "count", w);
    const double untraced_rate = untraced.seg.rate();
    r.layer("trace.overhead_pct", frac(untraced_rate - per_s, untraced_rate) * 100.0, "%", w);
    counter_layers(r, ph.totals, 0.0, w);
    SuiteInput in;
    in.shape.heap_objects = 200;
    legs.clear();
    layer_suite(o, t, in, r);
  }
  return r;
}

}  // namespace pb
