// adgc_perfbench — runs one benchmark workload and prints its metrics.
//
//   adgc_perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--tiny]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs print
// the per-layer metrics, each tagged with where it was measured, plus the
// tracing overhead, and write every span to DIR/trace-W-N.csv. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
// Exit status: 0 on success, 1 on a correctness violation, 2 on bad usage,
// 3 when a metric is missing or not finite.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/bench.h"

namespace {

using pb::Metric;
using pb::Report;

/// Every end-to-end metric, in output order (BENCHMARK.json lists the same).
const char* const kEndToEnd[] = {"setup_s",     "ok_frac", "rss_mb",      "ops_per_s",
                                 "p50_ms",      "p99_ms",  "msgs_per_op", "cpu_ms_per_op"};

/// Every per-layer metric (BENCHMARK.json lists the same).
const char* const kPerLayer[] = {
    "rt.invoke_us",
    "rt.actor_wait_us",
    "rt.mutate_ns_per_op",
    "lgc.run_ns_per_obj",
    "lgc.run_ns_per_obj.1k",
    "lgc.run_ns_per_obj.10k",
    "lgc.run_ns_per_obj.100k",
    "lgc.reclaimed_per_run",
    "snapshot.capture_ns_per_obj",
    "snapshot.capture_ns_per_obj.1k",
    "snapshot.capture_ns_per_obj.10k",
    "snapshot.capture_ns_per_obj.100k",
    "snapshot.serialize_ns_per_obj",
    "snapshot.deserialize_ns_per_obj",
    "snapshot.summarize_ns_per_obj",
    "snapshot.summarize_ns_per_obj.1k",
    "snapshot.summarize_ns_per_obj.10k",
    "snapshot.summarize_ns_per_obj.100k",
    "snapshot.store_write_us",
    "snapshot.publish_lag_ms",
    "snapshot.coalesced_frac",
    "dcda.on_cdm_ns",
    "dcda.cdms_per_cycle",
    "dcda.found_frac",
    "dcda.timeout_frac",
    "dgc.nss_per_proc_s",
    "dgc.nss_useful_frac",
    "dgc.handshakes_per_rmi",
    "dgc.handshake_retry_frac",
    "dgc.acyclic_reclaim_p50_ms",
    "net.batch_singleton_frac",
    "net.bytes_per_rmi",
    "net.encode_ns_per_msg.invoke",
    "net.encode_ns_per_msg.nss",
    "net.encode_ns_per_msg.cdm",
    "net.decode_ns_per_msg.invoke",
    "net.decode_ns_per_msg.nss",
    "net.decode_ns_per_msg.cdm",
    "net.batch_encode_ns_per_msg",
    "net.frame_decode_ns_per_byte",
    "net.tcp_writeq_p99",
    "net.peer_suspects",
    "net.shed",
    "net.evictions",
    "net.quiescent_msgs_per_proc_s",
    "sim.us_per_delivered_msg",
    "mc.us_per_decision",
    "mc.decisions_per_schedule",
    "trace.overhead_pct",
    "trace.spans",
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload rmi_tcp|heap_churn|cycles_sim|mc_explore --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--tiny]\n",
               argv0);
  return 2;
}

/// Picks `names` out of `ms` in order; false if one is missing or not finite.
bool select(const std::vector<Metric>& ms, const char* const* names, std::size_t n,
            std::vector<Metric>* out) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : ms) {
      if (m.name == names[i]) found = &m;
    }
    if (!found || !std::isfinite(found->value)) {
      std::fprintf(stderr, "adgc_perfbench: metric %s %s\n", names[i],
                   found ? "is not finite" : "is missing");
      ok = false;
      continue;
    }
    out->push_back(*found);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = o.seconds > 0;
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage(argv[0]);
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--work-dir" && has_value) {
      o.work_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage(argv[0]);
  std::filesystem::create_directories(o.work_dir);

  pb::Tracer tracer;
  pb::Tracer* t = o.trace ? &tracer : nullptr;
  Report r;
  if (o.workload == "rmi_tcp") {
    r = pb::run_rmi_tcp(o, t);
  } else if (o.workload == "heap_churn") {
    r = pb::run_heap_churn(o, t);
  } else if (o.workload == "cycles_sim") {
    r = pb::run_cycles_sim(o, t);
  } else if (o.workload == "mc_explore") {
    r = pb::run_mc_explore(o, t);
  } else {
    return usage(argv[0]);
  }
  const double ok_frac =
      1.0 - pb::frac(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  r.e2e("ok_frac", ok_frac, "frac");
  r.e2e("rss_mb", pb::peak_rss_mb(), "MB");

  std::printf("workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("correct %s attempted %llu failed %llu failed_frac %.6g\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), 1.0 - ok_frac);
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());

  std::vector<Metric> out;
  bool ok = true;
  if (!o.trace) {
    for (const Metric& m : r.figures) {
      std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    ok = select(r.end_to_end, kEndToEnd, std::size(kEndToEnd), &out);
  } else {
    r.layer("trace.spans", static_cast<double>(tracer.spans().size()), "count", o.workload);
    std::printf("self time by layer (ms):\n");
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
      std::printf("  %-10s %12.3f\n", layer.c_str(), ms);
    }
    const std::string path = (std::filesystem::path(o.work_dir) /
                              ("trace-" + o.workload + "-" + std::to_string(o.seed) + ".csv"))
                                 .string();
    if (tracer.write(path)) std::printf("spans written to %s\n", path.c_str());
    if (tracer.dropped() > 0) {
      std::printf("spans dropped past the in-memory cap: %llu\n",
                  static_cast<unsigned long long>(tracer.dropped()));
    }
    ok = select(r.per_layer, kPerLayer, std::size(kPerLayer), &out);
  }
  for (const Metric& m : out) {
    std::printf("  %-36s %16.6g %-8s [%s]\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.source.empty() ? o.workload.c_str() : m.source.c_str());
  }
  if (!ok) return 3;

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
