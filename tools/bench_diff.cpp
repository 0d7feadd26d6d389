// Compares a benchmark JSON report (bench::JsonReport output) against a
// checked-in baseline and fails on regressions. Used by the CI benchmark
// gate; also handy locally:
//
//   bench_diff bench/baselines/BENCH_table1_rmi.json build/BENCH_table1_rmi.json
//
// Exit codes: 0 ok, 1 regression detected, 2 usage/parse error.
//
// The parser reads exactly the rigid format JsonReport emits (one row per
// line, numeric fields only) — not general JSON, on purpose: no dependency,
// and any format drift fails loudly.
//
// Gate classes, chosen by field name:
//   * wire counts (msgs_per_rmi, bytes_per_rmi, messages, cdms, cdm_bytes):
//     current must be <= baseline * 1.02 — ANY real increase in per-RMI
//     message cost is a regression; the 2% headroom absorbs TCP retry
//     nondeterminism only.
//   * *reduction_pct: must not drop more than 5 points below baseline
//     (the batching win must persist).
//   * p50_ratio: must stay <= max(1.05, baseline * 1.10) — batching may
//     not cost more than 5% latency over unbatched.
//   * collected: must not drop below baseline (1 → 0 means a bench ring
//     stopped collecting).
//   * obs_overhead_pct: must stay <= 5 — the observability plane (trace
//     ring + event stamping) may not cost more than 5% on the RMI series,
//     regardless of what the baseline measured (docs/OBSERVABILITY.md).
//   * snapshot_sync_speedup: must stay >= 5 — the asynchronous snapshot
//     pipeline must keep mutator-visible snapshot cost at least 5x below
//     the synchronous path, regardless of what the baseline measured
//     (docs/DESIGN.md snapshot-pipeline section).
//   * persist_failures: must stay <= baseline (0 in every baseline) — a
//     bench leg that starts failing store publishes is a broken store, not
//     noise.
//   * *_ms wall-clock latencies: current <= max(baseline * 1.20,
//     baseline + 10ms) — the 20% latency gate, with an absolute floor so
//     micro-times on shared runners don't flap (a 30ms bench jitters by
//     25% on a busy machine; a 300ms one doesn't).
//   * identity fields (calls, batching, processes, objs, pipeline,
//     snapshots, schedules): must match
//     exactly; a mismatch means the bench changed shape and the baseline
//     needs a refresh.
//   * anything else: informational (printed, never gating).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Row {
  std::string series;
  std::vector<std::pair<std::string, double>> fields;
};

struct Report {
  std::string bench;
  std::vector<Row> rows;
};

bool parse_report(const std::string& path, Report* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::size_t at = line.find("\"bench\":");
    if (at != std::string::npos) {
      const std::size_t q1 = line.find('"', at + 8);
      const std::size_t q2 = q1 == std::string::npos ? q1 : line.find('"', q1 + 1);
      if (q2 != std::string::npos) out->bench = line.substr(q1 + 1, q2 - q1 - 1);
      continue;
    }
    at = line.find("{\"series\":");
    if (at == std::string::npos) continue;
    Row row;
    std::size_t q1 = line.find('"', at + 10);
    std::size_t q2 = q1 == std::string::npos ? q1 : line.find('"', q1 + 1);
    if (q2 == std::string::npos) {
      std::fprintf(stderr, "bench_diff: malformed row in %s: %s\n", path.c_str(),
                   line.c_str());
      return false;
    }
    row.series = line.substr(q1 + 1, q2 - q1 - 1);
    std::size_t pos = q2 + 1;
    while ((q1 = line.find('"', pos)) != std::string::npos) {
      q2 = line.find('"', q1 + 1);
      if (q2 == std::string::npos) break;
      const std::string key = line.substr(q1 + 1, q2 - q1 - 1);
      const std::size_t colon = line.find(':', q2);
      if (colon == std::string::npos) break;
      char* end = nullptr;
      const double value = std::strtod(line.c_str() + colon + 1, &end);
      if (end == line.c_str() + colon + 1) {
        std::fprintf(stderr, "bench_diff: non-numeric field %s in %s\n", key.c_str(),
                     path.c_str());
        return false;
      }
      row.fields.emplace_back(key, value);
      pos = static_cast<std::size_t>(end - line.c_str());
    }
    out->rows.push_back(std::move(row));
  }
  if (out->rows.empty()) {
    std::fprintf(stderr, "bench_diff: no rows found in %s\n", path.c_str());
    return false;
  }
  return true;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

enum class Gate {
  kIdentity,
  kCount,
  kReduction,
  kP50Ratio,
  kCollected,
  kObsOverhead,
  kPipelineSpeedup,
  kWallMs,
  kInfo
};

Gate classify(const std::string& name) {
  if (name == "calls" || name == "batching" || name == "processes" || name == "objs" ||
      name == "pipeline" || name == "snapshots" || name == "schedules") {
    return Gate::kIdentity;
  }
  if (name == "msgs_per_rmi" || name == "bytes_per_rmi" || name == "messages" ||
      name == "cdms" || name == "cdm_bytes" || name == "persist_failures") {
    return Gate::kCount;
  }
  if (ends_with(name, "reduction_pct")) return Gate::kReduction;
  if (name == "p50_ratio") return Gate::kP50Ratio;
  if (name == "collected") return Gate::kCollected;
  if (name == "obs_overhead_pct") return Gate::kObsOverhead;
  if (name == "snapshot_sync_speedup") return Gate::kPipelineSpeedup;
  if (ends_with(name, "_ms")) return Gate::kWallMs;
  return Gate::kInfo;
}

struct Verdict {
  bool regression = false;
  std::string detail;  // empty when the field is within bounds
};

Verdict check(Gate gate, double base, double cur) {
  char buf[160];
  Verdict v;
  switch (gate) {
    case Gate::kIdentity:
      if (base != cur) {
        std::snprintf(buf, sizeof buf,
                      "identity field changed (%.6g -> %.6g): bench shape differs, "
                      "refresh the baseline",
                      base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kCount:
      if (cur > base * 1.02) {
        std::snprintf(buf, sizeof buf, "wire cost up %.1f%% (%.6g -> %.6g)",
                      (cur - base) / base * 100.0, base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kReduction:
      if (cur < base - 5.0) {
        std::snprintf(buf, sizeof buf, "reduction dropped %.1f points (%.6g -> %.6g)",
                      base - cur, base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kP50Ratio:
      if (cur > std::fmax(1.05, base * 1.10)) {
        std::snprintf(buf, sizeof buf, "batched p50 worse than 5%% bound (%.6g -> %.6g)",
                      base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kCollected:
      if (cur < base) {
        std::snprintf(buf, sizeof buf, "collection stopped succeeding (%.6g -> %.6g)",
                      base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kObsOverhead:
      if (cur > 5.0) {
        std::snprintf(buf, sizeof buf,
                      "observability overhead above the 5%% budget (%.6g%% -> %.6g%%)",
                      base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kPipelineSpeedup:
      if (cur < 5.0) {
        std::snprintf(buf, sizeof buf,
                      "snapshot pipeline speedup below the 5x floor (%.6gx -> %.6gx)",
                      base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kWallMs:
      if (cur > std::fmax(base * 1.20, base + 10.0)) {
        std::snprintf(buf, sizeof buf, "latency up %.1f%% (%.6g ms -> %.6g ms)",
                      (cur - base) / base * 100.0, base, cur);
        v = {true, buf};
      }
      break;
    case Gate::kInfo:
      break;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <baseline.json> <current.json>\n", argv[0]);
    return 2;
  }
  Report baseline, current;
  if (!parse_report(argv[1], &baseline) || !parse_report(argv[2], &current)) return 2;
  if (baseline.bench != current.bench) {
    std::fprintf(stderr, "bench_diff: comparing different benches (%s vs %s)\n",
                 baseline.bench.c_str(), current.bench.c_str());
    return 2;
  }

  // Rows match by (series, occurrence index): the benches emit rows in a
  // fixed order, so the pairing is stable.
  std::map<std::string, std::vector<const Row*>> base_rows, cur_rows;
  for (const Row& r : baseline.rows) base_rows[r.series].push_back(&r);
  for (const Row& r : current.rows) cur_rows[r.series].push_back(&r);

  int regressions = 0;
  std::printf("bench_diff: %s (%zu baseline rows, %zu current rows)\n",
              baseline.bench.c_str(), baseline.rows.size(), current.rows.size());
  for (const auto& [series, rows] : base_rows) {
    const auto it = cur_rows.find(series);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (it == cur_rows.end() || i >= it->second.size()) {
        std::printf("  REGRESSION %s[%zu]: row missing from current report\n",
                    series.c_str(), i);
        ++regressions;
        continue;
      }
      const Row& b = *rows[i];
      const Row& c = *it->second[i];
      for (const auto& [key, base_val] : b.fields) {
        double cur_val = 0;
        bool found = false;
        for (const auto& [ck, cv] : c.fields) {
          if (ck == key) {
            cur_val = cv;
            found = true;
            break;
          }
        }
        if (!found) {
          std::printf("  REGRESSION %s[%zu].%s: field missing from current report\n",
                      series.c_str(), i, key.c_str());
          ++regressions;
          continue;
        }
        const Gate gate = classify(key);
        const Verdict v = check(gate, base_val, cur_val);
        if (v.regression) {
          std::printf("  REGRESSION %s[%zu].%s: %s\n", series.c_str(), i, key.c_str(),
                      v.detail.c_str());
          ++regressions;
        } else if (gate != Gate::kInfo) {
          std::printf("  ok  %s[%zu].%s: %.6g -> %.6g\n", series.c_str(), i,
                      key.c_str(), base_val, cur_val);
        }
      }
    }
  }
  if (regressions > 0) {
    std::printf("bench_diff: %d regression(s). If the change is intentional, refresh\n"
                "the baseline: run the bench and copy its BENCH_*.json over\n"
                "bench/baselines/ (see .github/workflows/ci.yml bench job).\n",
                regressions);
    return 1;
  }
  std::printf("bench_diff: no regressions\n");
  return 0;
}
