#ifndef CORROB_TESTS_TESTING_TEMP_DIR_H_
#define CORROB_TESTS_TESTING_TEMP_DIR_H_

// Per-test scratch space. gtest_discover_tests runs every TEST as its
// own process and `ctest -j` runs those processes in parallel, so a
// fixed file name under ::testing::TempDir() is shared by tests that
// run at the same time: one test's TearDown deletes another test's
// input. corrob-lint's tempdir-literal rule rejects such names; build
// every test path from these helpers instead.

#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace corrob {
namespace testutil {

namespace internal {

/// Owns the directory of the running test and removes it when the
/// test ends (after TearDown and the fixture's destructor).
class TestTempDirs : public ::testing::EmptyTestEventListener {
 public:
  std::string Get() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dir_.empty()) {
      // The pid alone is unique among concurrently running tests (one
      // test per process at a time) and keeps socket paths short.
      const std::filesystem::path dir =
          std::filesystem::path(::testing::TempDir()) /
          ("corrob_test_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir);  // a dead process's leftovers
      std::filesystem::create_directories(dir);
      dir_ = dir.string();
    }
    return dir_;
  }

  void OnTestEnd(const ::testing::TestInfo& /*info*/) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dir_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    dir_.clear();
  }

 private:
  std::mutex mutex_;
  std::string dir_;
};

}  // namespace internal

/// A directory private to the running test: created empty on first
/// use, removed when the test ends.
inline std::string TestTempDir() {
  // gtest owns the listener once appended.
  static internal::TestTempDirs* const dirs = [] {
    auto* created = new internal::TestTempDirs();
    ::testing::UnitTest::GetInstance()->listeners().Append(created);
    return created;
  }();
  return dirs->Get();
}

/// `name` inside TestTempDir().
inline std::string TestTempPath(std::string_view name) {
  return TestTempDir() + "/" + std::string(name);
}

}  // namespace testutil
}  // namespace corrob

#endif  // CORROB_TESTS_TESTING_TEMP_DIR_H_
