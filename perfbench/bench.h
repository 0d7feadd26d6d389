// Shared pieces of the repository benchmark: run options, metric records,
// the in-memory span tracer and small measurement helpers.
//
// The benchmark measures the library from the outside. It times calls into
// public entry points (Process, lgc::run, capture_snapshot, Serializer,
// Summarizer, SnapshotStore, Detector, the message codec, FrameDecoder,
// Batcher, mc::Explorer) and reads the library's Metrics counters; nothing
// under src/ is instrumented for it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/metrics.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check size: every workload shrinks to a sub-second run.
  bool tiny = false;
  /// Directory for scratch files (snapshot store) and the span dump.
  std::string work_dir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Where the number came from: the workload's own run, or the layer suite
  /// (fixtures sized from the workload) when the workload does not exercise
  /// that call.
  std::string source;
};

/// Everything a workload run reports.
struct Report {
  bool correct = true;           // no safety violation
  std::uint64_t attempted = 0;   // operations whose outcome was checked
  std::uint64_t failed = 0;      // ...that missed (timeout, leak, violation)
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Each workload's own names for its end-to-end figures, plus context such
  /// as sample counts (printed, not in the JSON).
  std::vector<Metric> figures;
  std::vector<std::string> notes;

  void e2e(const std::string& n, double v, const std::string& u) {
    end_to_end.push_back({n, v, u, ""});
  }
  void layer(const std::string& n, double v, const std::string& u, const std::string& src) {
    per_layer.push_back({n, v, u, src});
  }
  void figure(const std::string& n, double v, const std::string& u) {
    figures.push_back({n, v, u, ""});
  }
  bool has_layer(const std::string& n) const;
};

// ------------------------------------------------------------------ tracing

/// One timed call: a workload phase, an actor hop, a call into a layer, or
/// one step of a replay. `work` is the unit count the call processed
/// (objects, messages, bytes) so per-unit costs derive from spans alone.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = top level
  std::uint64_t work = 0;
};

/// In-memory span recorder. Thread-safe (actor threads record the hop spans
/// of closures the bench posts to them). Spans are kept until write().
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 4'000'000;

  std::uint32_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& s);
  std::vector<Span> spans() const;
  std::uint64_t dropped() const { return dropped_; }

  /// Self time (duration minus the time covered by child spans) summed per
  /// layer, the layer being the span name's first dotted component.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Writes every span as CSV (id,parent,name,start_ns,end_ns,work).
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::atomic<std::uint32_t> next_id_{1};
};

/// RAII span. A null tracer makes it a no-op (the untraced runs). Parent is
/// the innermost open scope on this thread unless given explicitly (actor
/// hops name the posting thread's span).
class Scope {
 public:
  static constexpr std::uint32_t kInherit = ~std::uint32_t{0};

  Scope(Tracer* t, const char* name, std::uint64_t work = 0,
        std::uint32_t parent = kInherit);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_work(std::uint64_t w) { span_.work = w; }
  std::uint32_t id() const { return span_.id; }

 private:
  Tracer* t_;
  Span span_;
  std::uint32_t saved_ = 0;
};

// --------------------------------------------------------------- measuring

/// Quantile of `v` (sorted copy, linear interpolation). 0 for empty input.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// CPU seconds used by the whole process / by the calling thread.
double process_cpu_s();
double thread_cpu_s();
/// Peak resident set size of the process, in MB.
double peak_rss_mb();

/// Splits a measured phase into fixed-length wall-clock segments and reports
/// each figure from the run's quiet quartile of segments: the upper quartile
/// of the segment rates, the lower quartile of the segment latencies and
/// CPU costs. Another process on the host can only slow a segment down, so
/// these figures follow the program, not the host, unless the host is busy
/// for more than three quarters of the run.
class Segments {
 public:
  /// `cpu_s` reads the CPU seconds to charge to the measured system. With
  /// `at_marks`, a segment ends only at a mark(), so that each one holds
  /// whole rounds of a mixed workload.
  Segments(double seg_s, double (*cpu_s)(), bool at_marks = false);

  /// One completed operation and its latency sample.
  void op(double sample);
  /// Ends the segment here if it is long enough (`at_marks` segments only).
  void mark();
  /// Ends a measured stretch: closes its last segment if that is at least
  /// half full. The next op() starts a new stretch, so one Segments can pool
  /// several stretches (one per cluster) without counting the gaps.
  void finish();

  double rate() const { return quantile(rate_, 0.75); }
  double p50() const { return quantile(p50_, 0.25); }
  double p99() const { return quantile(p99_, 0.25); }
  double cpu_ms_per_op() const { return quantile(cpu_ms_, 0.25); }

 private:
  void close(double elapsed_s);

  double seg_s_;
  double (*cpu_s_)();
  bool at_marks_;
  std::uint64_t start_ns_;
  double cpu0_;
  std::vector<double> samples_;
  std::vector<double> rate_, p50_, p99_, cpu_ms_;
};

/// Fraction helper that reports 0 for an empty denominator.
inline double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A counter's increase between two Metrics snapshots.
std::uint64_t delta(const adgc::Counter& after, const adgc::Counter& before);

// ------------------------------------------------------------- workloads

/// Per-workload inputs the layer suite reuses to shape its fixtures.
struct Shape {
  std::size_t invoke_args = 0;      // references per invocation
  std::size_t invoke_payload = 0;   // by-value bytes per invocation
  std::size_t nss_live = 4;         // references per NewSetStubs
  std::size_t heap_objects = 1000;  // objects of the fixture heap
  std::size_t payload_bytes = 0;    // payload per fixture object
};

Report run_rmi_tcp(const Options& o, Tracer* t);
Report run_heap_churn(const Options& o, Tracer* t);
Report run_cycles_sim(const Options& o, Tracer* t);
Report run_mc_explore(const Options& o, Tracer* t);

}  // namespace pb
