// Tests for the blocked syrk kernel (the MKL ?syrk substitute and AtA's
// base case).

#include <gtest/gtest.h>

#include <algorithm>

#include "blas/panel_syrk.hpp"
#include "blas/reference.hpp"
#include "blas/syrk.hpp"
#include "common/arena.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "param_names.hpp"

namespace atalib {
namespace {

struct Shape {
  index_t m, n;
};

class SyrkShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(SyrkShapes, MatchesReferenceExactlyOnIntegers) {
  const auto [m, n] = GetParam();
  auto a = random_integer<double>(m, n, 4, 1);
  auto c = Matrix<double>::zeros(n, n);
  auto c_ref = Matrix<double>::zeros(n, n);
  blas::syrk_ln(2.0, a.const_view(), c.view());
  blas::ref::syrk_ln(2.0, a.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
}

TEST_P(SyrkShapes, NeverTouchesStrictUpperTriangle) {
  const auto [m, n] = GetParam();
  auto a = random_uniform<double>(m, n, 2);
  auto c = Matrix<double>::zeros(n, n);
  const double sentinel = -123.25;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) c(i, j) = sentinel;
  blas::syrk_ln(1.0, a.const_view(), c.view());
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) ASSERT_EQ(c(i, j), sentinel);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, SyrkShapes,
                         ::testing::Values(Shape{1, 1}, Shape{3, 2}, Shape{8, 8}, Shape{5, 17},
                                           Shape{33, 31}, Shape{64, 64}, Shape{7, 129},
                                           Shape{200, 3}, Shape{128, 130}, Shape{257, 127}),
                         test::ShapeName());

TEST(Syrk, AccumulatesWithAlpha) {
  auto a = random_integer<double>(10, 6, 3, 4);
  auto c = Matrix<double>::zeros(6, 6);
  auto expected = Matrix<double>::zeros(6, 6);
  blas::ref::syrk_ln(1.5, a.const_view(), expected.view());
  blas::ref::syrk_ln(1.5, a.const_view(), expected.view());
  blas::syrk_ln(1.5, a.const_view(), c.view());
  blas::syrk_ln(1.5, a.const_view(), c.view());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), expected.const_view()), 0.0);
}

TEST(Syrk, DiagonalIsNonnegativeForRealInput) {
  auto a = random_uniform<double>(30, 20, 9);
  auto c = Matrix<double>::zeros(20, 20);
  blas::syrk_ln(1.0, a.const_view(), c.view());
  for (index_t i = 0; i < 20; ++i) EXPECT_GE(c(i, i), 0.0);
}

// ---- Panel-SYRK (the tall-skinny engine, blas/panel_syrk.hpp) ----------

class PanelSyrkShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(PanelSyrkShapes, MatchesReferenceExactlyOnIntegers) {
  // Integer inputs make the panel accumulation exact, so the row-panel
  // split must reproduce the one-shot kernel bitwise — for both scalar
  // types the serving path carries.
  const auto [m, n] = GetParam();
  {
    auto a = random_integer<double>(m, n, 4, 21);
    auto c = Matrix<double>::zeros(n, n);
    auto c_ref = Matrix<double>::zeros(n, n);
    blas::panel_syrk_ln(2.0, a.const_view(), c.view());
    blas::ref::syrk_ln(2.0, a.const_view(), c_ref.view());
    EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
  }
  {
    auto a = random_integer<float>(m, n, 4, 22);
    auto c = Matrix<float>::zeros(n, n);
    auto c_ref = Matrix<float>::zeros(n, n);
    blas::panel_syrk_ln(2.0f, a.const_view(), c.view());
    blas::ref::syrk_ln(2.0f, a.const_view(), c_ref.view());
    EXPECT_EQ(max_abs_diff_lower<float>(c.const_view(), c_ref.const_view()), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(TallShapeSweep, PanelSyrkShapes,
                         ::testing::Values(Shape{1, 1}, Shape{7, 3}, Shape{256, 8},
                                           Shape{300, 17}, Shape{513, 31}, Shape{1000, 5},
                                           Shape{1030, 64}, Shape{2048, 24}),
                         test::ShapeName());

TEST(PanelSyrk, NeverTouchesStrictUpperTriangle) {
  auto a = random_uniform<double>(700, 24, 7);
  auto c = Matrix<double>::zeros(24, 24);
  const double sentinel = -321.5;
  for (index_t i = 0; i < 24; ++i)
    for (index_t j = i + 1; j < 24; ++j) c(i, j) = sentinel;
  blas::panel_syrk_ln(1.0, a.const_view(), c.view());
  for (index_t i = 0; i < 24; ++i)
    for (index_t j = i + 1; j < 24; ++j) ASSERT_EQ(c(i, j), sentinel);
}

TEST(PanelSyrk, GemmCompanionMatchesReferenceExactlyOnIntegers) {
  const index_t m = 777, n = 13, k = 21;
  auto a = random_integer<double>(m, n, 3, 31);
  auto b = random_integer<double>(m, k, 3, 32);
  auto c = Matrix<double>::zeros(n, k);
  auto c_ref = Matrix<double>::zeros(n, k);
  blas::panel_gemm_tn(1.5, a.const_view(), b.const_view(), c.view());
  blas::ref::gemm_tn(1.5, a.const_view(), b.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);
}

TEST(PanelSyrk, PanelRowsIsDeterministicMultipleOf8FlooredAndCapped) {
  // The bitwise-reproducibility contract: panel height is a pure function
  // of (elem_bytes, m, n), a multiple of 8 when below m, never above m,
  // and never below min(256, m).
  for (std::size_t eb : {sizeof(float), sizeof(double)}) {
    for (index_t n : {index_t{1}, index_t{8}, index_t{64}, index_t{256}, index_t{4096}}) {
      for (index_t m : {index_t{1}, index_t{100}, index_t{256}, index_t{100000}}) {
        const index_t rows = blas::panel_syrk_rows(m, n, eb);
        EXPECT_EQ(rows, blas::panel_syrk_rows(m, n, eb));
        EXPECT_LE(rows, std::max<index_t>(m, 1));
        EXPECT_GE(rows, std::min<index_t>(m > 0 ? m : 1, 256));
        if (rows < m) EXPECT_EQ(rows % 8, 0) << "m=" << m << " n=" << n;
      }
    }
  }
  // Wider n => shorter panels (same byte budget).
  EXPECT_GE(blas::panel_syrk_rows(100000, 32, sizeof(double)),
            blas::panel_syrk_rows(100000, 1024, sizeof(double)));
  // f32 fits twice the rows of f64 in the same footprint (above the floor).
  EXPECT_GE(blas::panel_syrk_rows(1 << 20, 512, sizeof(float)),
            blas::panel_syrk_rows(1 << 20, 512, sizeof(double)));
}

TEST(PanelSyrk, ArenaAndThreadLocalPathsAgreeBitwise) {
  const index_t m = 1500, n = 40;
  auto a = random_integer<double>(m, n, 3, 41);
  auto c_tl = Matrix<double>::zeros(n, n);
  auto c_ar = Matrix<double>::zeros(n, n);
  blas::panel_syrk_ln(1.0, a.const_view(), c_tl.view());
  Arena<double> arena(static_cast<std::size_t>(blas::panel_syrk_workspace_bound<double>(m, n)));
  blas::panel_syrk_ln(1.0, a.const_view(), c_ar.view(), &arena);
  EXPECT_EQ(max_abs_diff_lower<double>(c_tl.const_view(), c_ar.const_view()), 0.0);
}

}  // namespace
}  // namespace atalib
