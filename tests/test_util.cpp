#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace specdag {
namespace {

// ------------------------------------------------------------------ csv ----

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() / "specdag_csv_test.csv").string();

  void TearDown() override { std::remove(path_.c_str()); }

  std::string slurp() {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"round", "accuracy"});
    csv.row(std::vector<std::string>{"1", "0.5"});
    csv.row(std::vector<double>{2, 0.75});
  }
  EXPECT_EQ(slurp(), "round,accuracy\n1,0.5\n2,0.75\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"a"});
    csv.row(std::vector<std::string>{"va,l\"ue"});
  }
  EXPECT_EQ(slurp(), "a\n\"va,l\"\"ue\"\n");
}

TEST_F(CsvTest, RowWidthMismatchThrows) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}), std::invalid_argument);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

TEST(Csv, EscapeIdentityForPlainCells) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with space"), "with space");
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PassesIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for(10, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t i) {
        if (i == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsFuture) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  auto fut = pool.submit([&] { ran = true; });
  fut.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ZeroThreadsMeansOnePerHardwareThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<int> counter{0};
  pool.parallel_for(5, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 5);
}

// -------------------------------------------------------------- logging ----

TEST(Logging, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(before);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

TEST(Logging, BelowThresholdIsCheap) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  // Should not crash or emit; mostly exercising the disabled path.
  SPECDAG_LOG(Debug) << "invisible " << 42;
  set_log_level(before);
}

// ---------------------------------------------------------------- timer ----

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  EXPECT_GE(t.elapsed_seconds(), 0.0);
  EXPECT_GE(t.elapsed_ms(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace specdag
