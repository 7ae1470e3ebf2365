// Fixture: fixed file names under the shared gtest TempDir().
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

std::string SharedCsv() {
  return ::testing::TempDir() + "/shared.csv";
}

std::string SharedSnapshot() {
  return ::testing::TempDir() +
         "/shared.snap";
}

std::string SharedViaPath() {
  return (std::filesystem::path(::testing::TempDir()) /
          "shared.log").string();
}

std::string Suppressed() {
  return ::testing::TempDir() + "/x.csv";  // lint: tempdir-ok: fixture for a reviewed exception
}

std::string Computed(const std::string& name) {
  return ::testing::TempDir() + name;  // no literal: not flagged
}
