// Unit tests for the common substrate: arena, RNG, CLI, table, cache probe.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/arena.hpp"
#include "common/cacheinfo.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace atalib {
namespace {

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer<double> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBufferAlignment, 0u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<float> a(16);
  float* p = a.data();
  AlignedBuffer<float> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, EmptyBufferIsValid) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(Arena, BumpAllocationIsContiguousAndOrdered) {
  Arena<double> arena(100);
  double* a = arena.allocate(10);
  double* b = arena.allocate(20);
  EXPECT_EQ(b, a + 10);
  EXPECT_EQ(arena.used(), 30u);
}

TEST(Arena, CheckpointRestoreReleasesLIFO) {
  Arena<double> arena(100);
  arena.allocate(10);
  auto cp = arena.checkpoint();
  arena.allocate(50);
  EXPECT_EQ(arena.used(), 60u);
  arena.restore(cp);
  EXPECT_EQ(arena.used(), 10u);
  // Memory after restore is reusable.
  EXPECT_NO_THROW(arena.allocate(90));
}

TEST(Arena, ScopeRestoresOnUnwind) {
  Arena<float> arena(64);
  arena.allocate(8);
  {
    Arena<float>::Scope scope(arena);
    arena.allocate(32);
    EXPECT_EQ(arena.used(), 40u);
  }
  EXPECT_EQ(arena.used(), 8u);
}

TEST(Arena, ExhaustionThrowsInsteadOfGrowing) {
  Arena<double> arena(10);
  arena.allocate(10);
  EXPECT_THROW(arena.allocate(1), std::length_error);
}

TEST(Arena, HighWaterTracksPeak) {
  Arena<double> arena(100);
  auto cp = arena.checkpoint();
  arena.allocate(70);
  arena.restore(cp);
  arena.allocate(5);
  EXPECT_EQ(arena.high_water(), 70u);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Xoshiro, Uniform01InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro, GaussianMoments) {
  Xoshiro256 rng(99);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Xoshiro, BoundedIsUnbiasedAtSmallBounds) {
  Xoshiro256 rng(5);
  int counts[5] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.bounded(5)]++;
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
}

TEST(Cli, ParsesAllValueForms) {
  CliFlags flags;
  flags.add_int("size", 100, "matrix size");
  flags.add_double("alpha", 0.5, "balance");
  flags.add_bool("verbose", false, "log more");
  flags.add_string("engine", "strassen", "leaf engine");
  const char* argv[] = {"prog", "--size", "256", "--alpha=0.25", "--verbose", "--engine=blas"};
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("size"), 256);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha"), 0.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("engine"), "blas");
}

TEST(Cli, RejectsUnknownFlag) {
  CliFlags flags;
  flags.add_int("size", 1, "");
  const char* argv[] = {"prog", "--oops", "3"};
  EXPECT_FALSE(flags.parse(3, const_cast<char**>(argv)));
}

TEST(Cli, DefaultsSurviveNoArgs) {
  CliFlags flags;
  flags.add_int("n", 42, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 42);
}

TEST(Cli, TypeMismatchThrows) {
  CliFlags flags;
  flags.add_int("n", 1, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_THROW(flags.get_double("n"), std::logic_error);
}

TEST(Table, RendersAlignedColumns) {
  Table t("Title");
  t.set_header({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("bbbb"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t("x");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(CacheInfo, ProbeReturnsSaneValues) {
  const CacheInfo info = probe_cache_info();
  EXPECT_GE(info.l1_data_bytes, 8u * 1024);
  EXPECT_GE(info.l2_bytes, info.l1_data_bytes);
  EXPECT_GT(default_base_case_elements(sizeof(double)), 0u);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 1000000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(Timer, InterleavedSamplesRotateTheStartColumn) {
  std::vector<int> order;
  const auto t = interleaved_samples(
      3, 0.0, [&] { order.push_back(0); }, [&] { order.push_back(1); },
      [&] { order.push_back(2); });
  // min_sample = 0: one call per sample, no warm-up; rep r starts at column r.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 1, 2, 0, 2, 0, 1}));
  for (const auto& col : t) {
    ASSERT_EQ(col.size(), 3u);
    EXPECT_EQ(min_of(col), *std::min_element(col.begin(), col.end()));
  }
}

TEST(Timer, InterleavedSamplesSizeSamplesToMinSample) {
  int calls = 0;
  const auto t = interleaved_samples(2, 1e-3, [&] {
    ++calls;
    Timer spin;
    while (spin.seconds() < 1e-4) {
    }
  });
  // Warm-up + sizing call, then two samples of >= ceil(1 ms / 0.1 ms) calls
  // at most (the sizing call can only run long).
  EXPECT_GE(calls, 2 + 2);
  EXPECT_LE(calls, 2 + 2 * 10);
  ASSERT_EQ(t[0].size(), 2u);
  EXPECT_GE(min_of(t[0]), 1e-4);
}

}  // namespace
}  // namespace atalib
