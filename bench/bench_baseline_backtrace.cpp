// Baseline comparison — DCDA vs distributed back-tracing (§5).
//
// The paper argues back-tracing (Maheshwari & Liskov '97) is "a direct
// acyclic chaining of recursive remote procedure calls, which is clearly
// unscalable", and that it forces every process to keep per-detection
// state. This bench quantifies both claims on identical garbage rings:
// messages exchanged, request-chain depth, and intermediate state records.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/baseline/backtrace_detector.h"
#include "src/baseline/global_trace.h"
#include "src/sim/scenarios.h"

namespace adgc {
namespace {

struct Comparison {
  std::uint64_t dcda_msgs = 0;
  std::uint64_t dcda_bytes = 0;
  std::uint64_t bt_msgs = 0;
  std::uint64_t bt_depth = 0;
  bool dcda_ok = false;
  bool bt_ok = false;
};

Comparison compare(std::size_t n_procs, std::size_t deps, std::uint64_t seed) {
  Comparison cmp;
  // --- DCDA run ---
  {
    Runtime rt(n_procs + deps, sim::manual_config(seed));
    const sim::Ring ring = sim::build_ring(rt, n_procs, 2, /*pin_first=*/false);
    // Optional extra garbage dependencies converging on the head.
    for (std::size_t d = 0; d < deps; ++d) {
      const ProcessId pid = static_cast<ProcessId>(n_procs + d);
      const ObjectSeq w = rt.proc(pid).create_object();
      const ObjectSeq w2 = rt.proc(pid).create_object();
      rt.proc(pid).add_root(w2);
      rt.proc(pid).add_local_ref(w2, w);
      rt.link(ObjectId{pid, w}, ring.heads[0]);
    }
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      rt.proc(pid).run_lgc();
      rt.proc(pid).take_snapshot();
    }
    rt.run_for(50'000);
    const Metrics before = rt.total_metrics();
    rt.proc(ring.ring_refs[0] != kNoRef ? ring.heads[1].owner : 0)
        .detector()
        .start_detection(ring.ring_refs[0], rt.now());
    rt.run_for(1'000'000);
    const Metrics after = rt.total_metrics();
    cmp.dcda_msgs = after.cdms_sent.get() - before.cdms_sent.get();
    cmp.dcda_bytes = after.cdm_bytes.get() - before.cdm_bytes.get();
    cmp.dcda_ok = deps > 0
                      ? after.detections_cycle_found.get() == 0  // deps are live
                      : after.detections_cycle_found.get() == 1;
  }
  // --- Back-tracing run ---
  {
    Runtime rt(n_procs + deps, sim::manual_config(seed + 1));
    const sim::Ring ring = sim::build_ring(rt, n_procs, 2, /*pin_first=*/false);
    for (std::size_t d = 0; d < deps; ++d) {
      const ProcessId pid = static_cast<ProcessId>(n_procs + d);
      const ObjectSeq w = rt.proc(pid).create_object();
      const ObjectSeq w2 = rt.proc(pid).create_object();
      rt.proc(pid).add_root(w2);
      rt.proc(pid).add_local_ref(w2, w);
      rt.link(ObjectId{pid, w}, ring.heads[0]);
    }
    for (ProcessId pid = 0; pid < rt.size(); ++pid) {
      rt.proc(pid).run_lgc();
      rt.proc(pid).take_snapshot();
    }
    rt.run_for(50'000);
    BacktraceBaseline bt(rt);
    bt.start(ring.heads[1].owner, ring.ring_refs[0]);
    rt.run_for(1'000'000);
    const BacktraceBaseline::Counters& c = bt.counters();
    cmp.bt_msgs = c.requests + c.replies;
    cmp.bt_depth = c.max_depth;
    cmp.bt_ok = c.cycles_found == (deps > 0 ? 0u : 1u);
  }
  return cmp;
}

void BM_DcdaVsBacktrace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compare(n, 0, seed));
    seed += 2;
  }
}
BENCHMARK(BM_DcdaVsBacktrace)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace adgc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using namespace adgc;
  bench::header(
      "§5 quantified — DCDA vs distributed back-tracing on identical rings\n"
      "(one probe each, manual snapshots; both must reach the same verdict)");
  std::printf("%-4s %-5s %12s %12s %10s %10s %10s %8s %8s\n", "N", "deps",
              "DCDA msgs", "DCDA bytes", "BT msgs", "BT depth", "BT/DCDA", "DCDA ok",
              "BT ok");
  for (std::size_t n : {2u, 4u, 8u, 12u, 16u}) {
    for (std::size_t deps : {0u, 2u}) {
      const Comparison c = compare(n, deps, 900 + n * 10 + deps);
      std::printf("%-4zu %-5zu %12llu %12llu %10llu %10llu %9.1fx %8s %8s\n", n, deps,
                  static_cast<unsigned long long>(c.dcda_msgs),
                  static_cast<unsigned long long>(c.dcda_bytes),
                  static_cast<unsigned long long>(c.bt_msgs),
                  static_cast<unsigned long long>(c.bt_depth),
                  c.dcda_msgs ? static_cast<double>(c.bt_msgs) /
                                    static_cast<double>(c.dcda_msgs)
                              : 0.0,
                  c.dcda_ok ? "yes" : "NO", c.bt_ok ? "yes" : "NO");
    }
  }
  std::printf("\nShape: the back-tracer needs ~2 messages per hop (request+reply)\n"
              "and a synchronous chain as deep as the cycle, holding state at\n"
              "every intermediate process; the DCDA needs one CDM per hop and\n"
              "keeps state only at the initiator.\n");

  bench::header(
      "Three-way — DCDA probe vs back-trace vs global-trace epoch on a ring\n"
      "(global trace counts start+marks+polls+status+finish; it must involve\n"
      " EVERY process even when the garbage touches only the ring)");
  std::printf("%-4s %-7s %12s %10s %14s\n", "N", "extra", "DCDA msgs", "BT msgs",
              "GlobalTrace");
  for (std::size_t n : {4u, 8u, 16u}) {
    for (std::size_t bystanders : {0u, 8u}) {
      // `bystanders` = processes with no part in the garbage at all.
      const Comparison c = compare(n, 0, 1300 + n);
      Runtime rt(n + bystanders, sim::manual_config(1400 + n + bystanders));
      sim::build_ring(rt, n, 2, /*pin_first=*/false);
      // Give bystanders some live local data.
      for (std::size_t b = 0; b < bystanders; ++b) {
        const auto pid = static_cast<ProcessId>(n + b);
        const ObjectSeq o = rt.proc(pid).create_object();
        rt.proc(pid).add_root(o);
      }
      rt.run_for(30'000);
      const Metrics before = rt.total_metrics();
      std::vector<ProcessId> members;
      for (ProcessId pid = 0; pid < rt.size(); ++pid) members.push_back(pid);
      GlobalTraceBaseline gt(rt);
      gt.start_epoch(0, members);
      rt.run_for(2'000'000);
      const Metrics after = rt.total_metrics();
      const std::uint64_t gt_msgs =
          after.messages_sent.get() - before.messages_sent.get();
      std::printf("%-4zu %-7zu %12llu %10llu %14llu\n", n, bystanders,
                  static_cast<unsigned long long>(c.dcda_msgs),
                  static_cast<unsigned long long>(c.bt_msgs),
                  static_cast<unsigned long long>(gt_msgs));
    }
  }
  std::printf("\nShape: DCDA and back-trace costs depend only on the garbage\n"
              "structure; the global trace pays per *process in the world*\n"
              "(polls/status), growing with bystanders that own no garbage.\n");
  return 0;
}
