// Helpers shared by the test binaries.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/rt/runtime.h"

namespace adgc::test {

/// Fresh (emptied) snapshot directory under the gtest temp root for the
/// running test. The name is the test's full name, so directories stay
/// distinct across test binaries that run at once.
inline std::string snap_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("adgc_") + info->test_suite_name() + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Rooted object at `holder` holding a remote reference to an unrooted
/// object at `owner`: the target's survival depends entirely on the
/// stub/scion pair.
struct LiveRef {
  ObjectId holder_obj;  // rooted, at `holder`
  ObjectId target_obj;  // unrooted, at `owner`
  RefId ref = kNoRef;
};

inline LiveRef build_live_ref(Runtime& rt, ProcessId holder, ProcessId owner) {
  LiveRef lr;
  lr.holder_obj = ObjectId{holder, rt.proc(holder).create_object()};
  lr.target_obj = ObjectId{owner, rt.proc(owner).create_object()};
  rt.proc(holder).add_root(lr.holder_obj.seq);
  lr.ref = rt.link(lr.holder_obj, lr.target_obj);
  return lr;
}

/// Nightly CI scales long-running suites without a rebuild:
/// ADGC_SOAK_MULTIPLIER=N (default 1).
inline int soak_multiplier() {
  const char* env = std::getenv("ADGC_SOAK_MULTIPLIER");
  if (!env) return 1;
  const int m = std::atoi(env);
  return m > 0 ? m : 1;
}

}  // namespace adgc::test
