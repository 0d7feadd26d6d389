// Persistent snapshot store: round trips, retention, corruption handling,
// atomic publish, and end-to-end recovery of a process's summarized view.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/rt/runtime.h"
#include "src/sim/harness.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/snapshot_store.h"
#include "src/snapshot/summarizer.h"

namespace adgc {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() {
    dir_ = fs::temp_directory_path() /
           ("adgc_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  ~StoreTest() override { fs::remove_all(dir_); }

  static std::vector<std::byte> blob(std::initializer_list<int> vals) {
    std::vector<std::byte> out;
    for (int v : vals) out.push_back(static_cast<std::byte>(v));
    return out;
  }

  fs::path dir_;
};

TEST_F(StoreTest, WriteReadRoundTrip) {
  SnapshotStore store(dir_);
  const auto payload = blob({1, 2, 3, 4, 5});
  store.write(3, 7, payload);
  const auto back = store.read_latest(3);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 7u);
  EXPECT_EQ(back->bytes, payload);
}

TEST_F(StoreTest, LatestVersionWins) {
  SnapshotStore store(dir_, /*retain=*/5);
  store.write(1, 1, blob({1}));
  store.write(1, 3, blob({3}));
  store.write(1, 2, blob({2}));
  const auto back = store.read_latest(1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 3u);
}

TEST_F(StoreTest, RetentionPrunesOldest) {
  SnapshotStore store(dir_, /*retain=*/2);
  for (std::uint64_t v = 1; v <= 5; ++v) store.write(0, v, blob({static_cast<int>(v)}));
  const auto vs = store.versions(0);
  EXPECT_EQ(vs, (std::vector<std::uint64_t>{4, 5}));
}

TEST_F(StoreTest, ProcessesAreIndependent) {
  SnapshotStore store(dir_);
  store.write(0, 1, blob({10}));
  store.write(1, 9, blob({20}));
  EXPECT_EQ(store.read_latest(0)->bytes, blob({10}));
  EXPECT_EQ(store.read_latest(1)->bytes, blob({20}));
  EXPECT_FALSE(store.read_latest(7).has_value());
}

TEST_F(StoreTest, CorruptLatestFallsBackToOlder) {
  SnapshotStore store(dir_, 5);
  store.write(2, 1, blob({1, 1}));
  const fs::path newest = store.write(2, 2, blob({2, 2}));
  // Flip a payload byte: checksum must fail, older version must be used.
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  const auto back = store.read_latest(2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 1u);
  EXPECT_GE(store.corrupt_skipped(), 1u);
}

TEST_F(StoreTest, TruncatedFileSkipped) {
  SnapshotStore store(dir_, 5);
  const fs::path p = store.write(4, 1, blob({1, 2, 3, 4, 5, 6, 7, 8}));
  fs::resize_file(p, fs::file_size(p) - 4);
  EXPECT_FALSE(store.read_latest(4).has_value());
  EXPECT_GE(store.corrupt_skipped(), 1u);
}

TEST_F(StoreTest, EmptyPayloadOk) {
  SnapshotStore store(dir_);
  store.write(0, 1, {});
  const auto back = store.read_latest(0);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->bytes.empty());
}

// ---- fault paths: failed publish, malformed names, cache semantics ----

TEST_F(StoreTest, FailedPublishThrowsAndSkipsPrune) {
  SnapshotStore store(dir_, /*retain=*/2);
  store.write(1, 1, blob({1}));
  store.write(1, 2, blob({2}));
  // Force the atomic rename-publish to fail: a *directory* squats on the
  // target path, so rename(file, dir) errors out.
  fs::create_directory(dir_ / "snapshot_p1_v00000000000000000003.bin");
  EXPECT_THROW(store.write(1, 3, blob({3})), std::runtime_error);
  // The failure must not fall through to prune(): both published versions
  // survive and remain readable.
  EXPECT_EQ(store.versions(1), (std::vector<std::uint64_t>{1, 2}));
  const auto back = store.read_latest(1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 2u);
  // The temp file was cleaned up, not leaked.
  std::size_t tmps = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() == ".tmp") ++tmps;
  }
  EXPECT_EQ(tmps, 0u);
}

TEST_F(StoreTest, MalformedNamesDoNotAliasVersionZero) {
  // Regression: strtoull("garbage") == 0, so this name used to be listed as
  // version 0 of process 1 — and read_latest would then try to open the
  // (nonexistent) canonical path for v0.
  fs::create_directories(dir_);
  { std::ofstream(dir_ / "snapshot_p1_vgarbage.bin") << "junk"; }
  { std::ofstream(dir_ / "snapshot_p1_v.bin") << "junk"; }
  { std::ofstream(dir_ / "snapshot_p1_v123456789012345678901.bin") << "junk"; }
  { std::ofstream(dir_ / "notes.txt") << "unrelated"; }
  SnapshotStore store(dir_, 5);
  EXPECT_TRUE(store.versions(1).empty());
  EXPECT_FALSE(store.read_latest(1).has_value());
  EXPECT_GE(store.malformed_skipped(), 3u);
  // Valid writes still work alongside the junk.
  store.write(1, 5, blob({5}));
  EXPECT_EQ(store.versions(1), (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(store.read_latest(1)->version, 5u);
}

TEST_F(StoreTest, UnpublishedTmpFilesAreInvisible) {
  // A crash between write and rename leaves a .tmp behind; recovery must
  // only ever observe published versions.
  fs::create_directories(dir_);
  { std::ofstream(dir_ / "snapshot_p2_v00000000000000000009.bin.tmp") << "partial"; }
  SnapshotStore store(dir_, 5);
  EXPECT_TRUE(store.versions(2).empty());
  EXPECT_FALSE(store.read_latest(2).has_value());
  EXPECT_EQ(store.malformed_skipped(), 0u) << ".tmp is expected, not malformed";
}

TEST_F(StoreTest, VersionListIsCachedAfterInitialScan) {
  SnapshotStore store(dir_, 5);
  store.write(0, 1, blob({1}));
  EXPECT_EQ(store.versions(0), (std::vector<std::uint64_t>{1}));
  // Files dropped in externally after the scan are not observed: the store
  // owns its directory and never rescans on write() (that was the per-write
  // O(dir) cost this cache removes).
  { std::ofstream(dir_ / "snapshot_p0_v00000000000000000099.bin") << "ext"; }
  store.write(0, 2, blob({2}));
  EXPECT_EQ(store.versions(0), (std::vector<std::uint64_t>{1, 2}));
}

// ---- end-to-end: processes persist snapshots and recover their view ----

TEST_F(StoreTest, ProcessPersistsAndRecovers) {
  RuntimeConfig cfg = sim::manual_config(77);
  cfg.proc.snapshot_dir = dir_.string();
  Runtime rt(2, cfg);

  const ObjectId a{0, rt.proc(0).create_object()};
  const ObjectId b{1, rt.proc(1).create_object()};
  rt.proc(0).add_root(a.seq);
  const RefId ref = rt.link(a, b);
  rt.link(b, a);
  rt.proc(1).run_lgc();
  rt.proc(1).take_snapshot();
  const auto live = rt.proc(1).current_summary();
  ASSERT_NE(live, nullptr);
  EXPECT_GT(rt.total_metrics().snapshot_bytes.get(), 0u);

  // The live summary was built from the capture, never from the stored
  // bytes; they must still decode to the snapshot it summarized.
  SnapshotStore probe(dir_);
  const auto stored = probe.read_latest(1);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->version, live->version);
  SummarizedGraph decoded =
      BfsSummarizer{}.summarize(BinarySerializer{}.deserialize(stored->bytes));
  ASSERT_FALSE(decoded.stubs.empty());
  decoded.version = live->version;
  EXPECT_TRUE(decoded == *live);

  // A "restarted" runtime over the same store directory: before taking any
  // snapshot of its own, P1 recovers its summarized view from disk.
  Runtime rt2(2, cfg);
  EXPECT_EQ(rt2.proc(1).current_summary(), nullptr);
  ASSERT_TRUE(rt2.proc(1).recover_summary_from_store());
  const auto snap = rt2.proc(1).current_summary();
  ASSERT_NE(snap, nullptr);
  EXPECT_NE(snap->scion(ref), nullptr) << "recovered summary must contain the scion";
}

TEST_F(StoreTest, RecoveryWithoutStoreFails) {
  Runtime rt(2, sim::manual_config(78));  // no snapshot_dir configured
  EXPECT_FALSE(rt.proc(0).recover_summary_from_store());
}

TEST_F(StoreTest, PeriodicSnapshotsRespectRetention) {
  RuntimeConfig cfg = sim::fast_config(79);
  cfg.proc.snapshot_dir = dir_.string();
  Runtime rt(2, cfg);
  rt.proc(0).create_object();
  rt.run_for(300'000);  // many snapshot periods
  SnapshotStore probe(dir_);
  const auto vs = probe.versions(0);
  EXPECT_LE(vs.size(), 2u);  // the store's default retention
  EXPECT_GE(vs.size(), 1u);
}

}  // namespace
}  // namespace adgc
