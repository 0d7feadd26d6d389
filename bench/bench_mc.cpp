// Model-checker sweep cost: the first 200 DFS schedules of fig3, fig4 and
// evict at 40 steps, collector budget 3, liveness on — the schedule set the
// repository benchmark's mc_explore workload repeats. Every schedule builds
// a fresh Runtime, replays its decision prefix, settles and runs the
// oracles, so the sweep times the whole per-schedule path, message codec and
// CDM algebra included.
//
// Writes BENCH_mc.json with one row, `mc_sweep`:
//   schedules            identity: the sweep's shape
//   messages             delivered messages in one sweep (count gate)
//   sweep_ms             wall time of one sweep, best of 7 (wall-clock gate;
//                        other load on the host only ever adds time)
//   allocs_per_schedule  operator new calls per schedule (informational),
//                        counted by the replacement operator new below,
//                        which only this executable links.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/bench_common.h"
#include "src/mc/explorer.h"
#include "src/mc/strategy.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Every unaligned form is replaced, so no allocation a replaced delete frees
// comes from another allocator (the aligned forms pair among themselves).
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace adgc {
namespace {

constexpr int kSchedulesPerScenario = 200;
constexpr int kRepetitions = 7;

struct Sweep {
  std::uint64_t schedules = 0;
  std::uint64_t messages = 0;
  std::uint64_t violations = 0;
};

Sweep run_sweep() {
  Sweep s;
  for (mc::ScenarioKind kind :
       {mc::ScenarioKind::kFig3, mc::ScenarioKind::kFig4, mc::ScenarioKind::kEvict}) {
    mc::ExplorerOptions eo;
    eo.scenario = kind;
    eo.seed = 1;
    eo.max_steps = 40;
    eo.collector_budget = 3;
    eo.check_liveness = true;
    mc::Explorer ex(eo);
    mc::DfsStrategy dfs;
    for (int i = 0; i < kSchedulesPerScenario && !dfs.exhausted(); ++i) {
      const mc::ScheduleOutcome out = ex.run_one(dfs);
      ++s.schedules;
      s.messages += out.metrics.messages_delivered.get();
      if (out.violation) ++s.violations;
    }
  }
  return s;
}

}  // namespace
}  // namespace adgc

int main() {
  using namespace adgc;
  bench::header(
      "Model-checker sweep — first 200 DFS schedules of fig3, fig4, evict\n"
      "(40 steps, collector budget 3, liveness on)");
  run_sweep();  // warm-up: code, allocator and page cache
  std::vector<double> ms;
  Sweep first;
  std::uint64_t schedules = 0;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < kRepetitions; ++r) {
    const bench::Stopwatch sw;
    const Sweep s = run_sweep();
    ms.push_back(sw.ms());
    if (r == 0) first = s;
    if (s.messages != first.messages || s.schedules != first.schedules ||
        s.violations != 0) {
      std::fprintf(stderr, "bench_mc: sweep %d differs from the first, or violated\n", r);
      return 1;
    }
    schedules += s.schedules;
  }
  const double allocs_per_schedule =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs_before) /
      static_cast<double>(schedules);
  const double sweep_ms = *std::min_element(ms.begin(), ms.end());

  std::printf("%-10s %10s %12s %14s %20s\n", "series", "schedules", "messages", "sweep (ms)",
              "allocs/schedule");
  std::printf("%-10s %10llu %12llu %14.2f %20.1f\n", "mc_sweep",
              static_cast<unsigned long long>(first.schedules),
              static_cast<unsigned long long>(first.messages), sweep_ms,
              allocs_per_schedule);
  bench::JsonReport report("mc");
  report.add("mc_sweep", {{"schedules", static_cast<double>(first.schedules)},
                          {"messages", static_cast<double>(first.messages)},
                          {"sweep_ms", sweep_ms},
                          {"allocs_per_schedule", allocs_per_schedule}});
  return 0;
}
