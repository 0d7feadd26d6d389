// Unit tests for metrics, config rendering and the log level gate.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/log.h"
#include "src/common/metrics.h"

namespace adgc {
namespace {

TEST(Metrics, CountersStartAtZero) {
  Metrics m;
  EXPECT_EQ(m.cdms_sent.get(), 0u);
  EXPECT_EQ(m.objects_allocated.get(), 0u);
}

TEST(Metrics, AddAccumulates) {
  Metrics m;
  m.cdms_sent.add();
  m.cdms_sent.add(41);
  EXPECT_EQ(m.cdms_sent.get(), 42u);
  m.cdms_sent.reset();
  EXPECT_EQ(m.cdms_sent.get(), 0u);
}

TEST(Metrics, MergeSumsEveryField) {
  Metrics a, b;
  a.cdms_sent.add(10);
  a.messages_lost.add(1);
  b.cdms_sent.add(5);
  b.detections_started.add(7);
  a.merge(b);
  EXPECT_EQ(a.cdms_sent.get(), 15u);
  EXPECT_EQ(a.messages_lost.get(), 1u);
  EXPECT_EQ(a.detections_started.get(), 7u);
  // b untouched.
  EXPECT_EQ(b.cdms_sent.get(), 5u);
}

TEST(Metrics, MergeMatchesReferenceSumSparseAndDense) {
  // merge() skips zero counters and zero histogram buckets. Whether the
  // inputs are all zero, sparse or dense, and whether the target starts
  // empty or not, the totals must equal a plain field-by-field sum.
  std::vector<Metrics> parts(4);  // parts[0] stays all zero
  parts[1].cdms_sent.add(3);
  parts[1].rmi_rtt_us.record(17);
  const std::vector<Counter Metrics::*> counters = {
      &Metrics::invocations_sent,
      &Metrics::replies_received,
      &Metrics::stubs_created,
      &Metrics::scions_deleted_cyclic,
      &Metrics::new_set_stubs_sent,
      &Metrics::lgc_runs,
      &Metrics::snapshots_taken,
      &Metrics::detections_started,
      &Metrics::detections_dropped_dup,
      &Metrics::cdms_sent,
      &Metrics::cdm_bytes,
      &Metrics::messages_delivered,
      &Metrics::bytes_sent,
      &Metrics::peers_evicted,
      &Metrics::batches_sent,
      &Metrics::tcp_frames_sent,
      &Metrics::process_crashes,
  };
  const std::vector<Histogram Metrics::*> histograms = {
      &Metrics::rmi_rtt_us,
      &Metrics::lgc_pause_us,
      &Metrics::snapshot_capture_us,
      &Metrics::snapshot_persist_us,
      &Metrics::snapshot_summarize_us,
      &Metrics::detection_lifetime_us,
      &Metrics::batch_flush_msgs,
      &Metrics::tcp_writeq_depth,
  };
  std::uint64_t v = 1;
  for (Metrics* m : {&parts[2], &parts[3]}) {
    for (Counter Metrics::*c : counters) (m->*c).add(v++ * 1000);
    for (Histogram Metrics::*h : histograms) {
      (m->*h).record(0);
      for (int bit = 0; bit < 64; ++bit) (m->*h).record((std::uint64_t{1} << bit) + v);
    }
  }
  for (std::size_t start = 0; start < 2; ++start) {
    Metrics total = start == 0 ? Metrics{} : parts[3];
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::vector<std::uint64_t>> buckets;
    const auto add_reference = [&](const Metrics& m) {
      m.for_each_counter([&](const char* name, std::uint64_t x) { counters[name] += x; });
      m.for_each_histogram([&](const char* name, const Histogram& h) {
        auto& b = buckets[name];
        b.resize(Histogram::kBuckets + 1);
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) b[i] += h.bucket(i);
        b[Histogram::kBuckets] += h.sum();
      });
    };
    add_reference(total);
    for (const Metrics& part : parts) {
      add_reference(part);
      total.merge(part);
    }
    total.for_each_counter([&](const char* name, std::uint64_t x) {
      EXPECT_EQ(x, counters[name]) << name << " start=" << start;
    });
    total.for_each_histogram([&](const char* name, const Histogram& h) {
      const auto& b = buckets[name];
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        EXPECT_EQ(h.bucket(i), b[i]) << name << " bucket " << i << " start=" << start;
      }
      EXPECT_EQ(h.sum(), b[Histogram::kBuckets]) << name << " start=" << start;
    });
  }
}

TEST(Metrics, ReportListsOnlyNonZero) {
  Metrics m;
  m.cdms_sent.add(3);
  m.scions_created.add(2);
  const std::string rep = m.report("> ");
  EXPECT_NE(rep.find("> cdms_sent = 3"), std::string::npos);
  EXPECT_NE(rep.find("> scions_created = 2"), std::string::npos);
  EXPECT_EQ(rep.find("messages_lost"), std::string::npos);
}

TEST(Metrics, ResetZeroesEverything) {
  Metrics m;
  m.cdms_sent.add(3);
  m.messages_lost.add(9);
  m.reset();
  EXPECT_TRUE(m.report().empty());
}

TEST(Metrics, CopyTakesSnapshot) {
  Metrics m;
  m.invocations_sent.add(4);
  const Metrics copy = m;
  m.invocations_sent.add(1);
  EXPECT_EQ(copy.invocations_sent.get(), 4u);
  EXPECT_EQ(m.invocations_sent.get(), 5u);
}

TEST(Config, DescribeMentionsKeyKnobs) {
  RuntimeConfig cfg;
  cfg.seed = 99;
  cfg.net.loss_probability = 0.25;
  cfg.proc.dcda_enabled = false;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("seed=99"), std::string::npos);
  EXPECT_NE(d.find("loss=0.25"), std::string::npos);
  EXPECT_NE(d.find("dcda=off"), std::string::npos);
}

TEST(Log, LevelGateWorks) {
  const LogLevel before = Log::level();
  Log::set_level(LogLevel::kError);
  EXPECT_FALSE(Log::enabled(LogLevel::kDebug));
  EXPECT_TRUE(Log::enabled(LogLevel::kError));
  Log::set_level(LogLevel::kTrace);
  EXPECT_TRUE(Log::enabled(LogLevel::kDebug));
  Log::set_level(before);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(to_string(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(to_string(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace adgc
