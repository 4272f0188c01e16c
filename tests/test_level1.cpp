// Unit tests for level-1 kernels, especially the virtual-padding block sums
// that implement the paper's odd-size handling (§3.1).

#include <gtest/gtest.h>

#include "blas/level1.hpp"
#include "matrix/matrix.hpp"
#include "param_names.hpp"

namespace atalib {
namespace {

TEST(Axpy, BasicAccumulate) {
  double x[4] = {1, 2, 3, 4};
  double y[4] = {10, 10, 10, 10};
  blas::axpy<double>(4, 2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[3], 18.0);
}

TEST(ViewAxpy, AccumulatesSmallerIntoLarger) {
  Matrix<double> x{{1, 2}, {3, 4}};
  Matrix<double> y = Matrix<double>::zeros(3, 3);
  fill_view(y.view(), 1.0);
  blas::view_axpy(2.0, x.const_view(), y.block(0, 0, 3, 3));
  EXPECT_DOUBLE_EQ(y(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 9.0);
  // Cells outside x's extent are untouched (virtual zero contribution).
  EXPECT_DOUBLE_EQ(y(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 1.0);
}

TEST(Dot, MatchesManualSum) {
  double x[3] = {1, 2, 3};
  double y[3] = {4, 5, 6};
  EXPECT_DOUBLE_EQ(blas::dot<double>(3, x, y), 32.0);
}

TEST(Scal, ScalesStridedView) {
  Matrix<double> a{{1, 2, 3}, {4, 5, 6}};
  blas::scal(3.0, a.block(0, 1, 2, 2));
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);  // outside the view
  EXPECT_DOUBLE_EQ(a(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 18.0);
}

// -- Virtual padding combinations -------------------------------------
// dst is m1 x n1; operands may each be short one row, one column, or both.
// The reference is padding with explicit zeros.

struct PadCase {
  index_t dst_r, dst_c;
  index_t a_r, a_c;
  index_t b_r, b_c;
};

class BlockCombineTest : public ::testing::TestWithParam<PadCase> {};

Matrix<double> ramp(index_t r, index_t c, double offset) {
  Matrix<double> m(r, c);
  for (index_t i = 0; i < r; ++i)
    for (index_t j = 0; j < c; ++j) m(i, j) = offset + static_cast<double>(i * 13 + j);
  return m;
}

TEST_P(BlockCombineTest, AddMatchesExplicitPadding) {
  const PadCase p = GetParam();
  auto a = ramp(p.a_r, p.a_c, 1.0);
  auto b = ramp(p.b_r, p.b_c, 100.0);
  Matrix<double> dst(p.dst_r, p.dst_c);
  fill_view(dst.view(), -7.0);  // must be fully overwritten
  blas::block_add(a.const_view(), b.const_view(), dst.view());
  for (index_t i = 0; i < p.dst_r; ++i) {
    for (index_t j = 0; j < p.dst_c; ++j) {
      const double av = (i < p.a_r && j < p.a_c) ? a(i, j) : 0.0;
      const double bv = (i < p.b_r && j < p.b_c) ? b(i, j) : 0.0;
      ASSERT_DOUBLE_EQ(dst(i, j), av + bv) << "at " << i << "," << j;
    }
  }
}

TEST_P(BlockCombineTest, SubMatchesExplicitPadding) {
  const PadCase p = GetParam();
  auto a = ramp(p.a_r, p.a_c, 1.0);
  auto b = ramp(p.b_r, p.b_c, 100.0);
  Matrix<double> dst(p.dst_r, p.dst_c);
  fill_view(dst.view(), -7.0);
  blas::block_sub(a.const_view(), b.const_view(), dst.view());
  for (index_t i = 0; i < p.dst_r; ++i) {
    for (index_t j = 0; j < p.dst_c; ++j) {
      const double av = (i < p.a_r && j < p.a_c) ? a(i, j) : 0.0;
      const double bv = (i < p.b_r && j < p.b_c) ? b(i, j) : 0.0;
      ASSERT_DOUBLE_EQ(dst(i, j), av - bv);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRaggedCombos, BlockCombineTest,
    ::testing::Values(
        PadCase{4, 5, 4, 5, 4, 5},   // both full
        PadCase{4, 5, 3, 5, 4, 5},   // a short a row
        PadCase{4, 5, 4, 4, 4, 5},   // a short a column
        PadCase{4, 5, 3, 4, 4, 5},   // a short both
        PadCase{4, 5, 4, 5, 3, 5},   // b short a row
        PadCase{4, 5, 4, 5, 4, 4},   // b short a column
        PadCase{4, 5, 4, 5, 3, 4},   // b short both
        PadCase{4, 5, 3, 5, 4, 4},   // mixed raggedness
        PadCase{4, 5, 3, 4, 3, 4},   // both short both
        PadCase{1, 1, 1, 1, 1, 1},   // degenerate 1x1
        PadCase{2, 2, 1, 1, 2, 2},   // tiny with padding
        PadCase{2, 2, 1, 2, 2, 1}),  // tiny crossed
    [](const ::testing::TestParamInfo<PadCase>& info) {
      const PadCase& p = info.param;
      const auto dims = [](index_t r, index_t c) {
        return std::to_string(r) + "x" + std::to_string(c);
      };
      return "dst" + dims(p.dst_r, p.dst_c) + "_a" + dims(p.a_r, p.a_c) + "_b" +
             dims(p.b_r, p.b_c);
    });

TEST(BlockCopy, ZeroFillsPadding) {
  Matrix<double> a{{1, 2}, {3, 4}};
  Matrix<double> dst(3, 3);
  fill_view(dst.view(), 5.0);
  blas::block_copy(a.const_view(), dst.view());
  EXPECT_DOUBLE_EQ(dst(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(dst(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(dst(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(dst(2, 2), 0.0);
}

TEST(BlockCombine, WorksOnStridedSubviews) {
  // The Strassen recursion always calls these on strided blocks; make sure
  // strides are honored.
  Matrix<double> big(6, 6);
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 6; ++j) big(i, j) = static_cast<double>(i * 6 + j);
  Matrix<double> dst = Matrix<double>::zeros(2, 2);
  blas::block_add(ConstMatrixView<double>(big.block(0, 0, 2, 2)),
                  ConstMatrixView<double>(big.block(3, 3, 2, 2)), dst.view());
  EXPECT_DOUBLE_EQ(dst(0, 0), 0.0 + 21.0);
  EXPECT_DOUBLE_EQ(dst(1, 1), 7.0 + 28.0);
}

}  // namespace
}  // namespace atalib
