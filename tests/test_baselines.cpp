// Tests for the distributed comparators: pdsyrk-like SUMMA, COSMA-like,
// CAPS-like.

#include <gtest/gtest.h>

#include "blas/reference.hpp"
#include "dist/caps_like.hpp"
#include "dist/cosma_like.hpp"
#include "dist/summa_syrk.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "param_names.hpp"

namespace atalib::dist {
namespace {

class BaselineP : public ::testing::TestWithParam<int> {};

TEST_P(BaselineP, SummaSyrkMatchesReference) {
  const int p = GetParam();
  auto a = random_integer<double>(100, 60, 3, 1);
  auto c_ref = Matrix<double>::zeros(60, 60);
  blas::ref::syrk_ln(2.0, a.const_view(), c_ref.view());
  const auto res = summa_syrk(2.0, a, p);
  EXPECT_EQ(max_abs_diff_lower<double>(res.c.const_view(), c_ref.const_view()), 0.0)
      << "P=" << p;
}

TEST_P(BaselineP, CosmaLikeMatchesReferenceOnAtB) {
  const int p = GetParam();
  auto a = random_integer<double>(64, 48, 3, 2);
  auto b = random_integer<double>(64, 56, 3, 3);
  auto c_ref = Matrix<double>::zeros(48, 56);
  blas::ref::gemm_tn(1.0, a.const_view(), b.const_view(), c_ref.view());
  const auto res = cosma_like_gemm(1.0, a, b, p);
  EXPECT_EQ(max_abs_diff<double>(res.c.const_view(), c_ref.const_view()), 0.0);
}

TEST_P(BaselineP, CapsLikeMatchesReferenceOnSquare) {
  const int p = GetParam();
  auto x = random_integer<double>(60, 60, 3, 4);
  auto y = random_integer<double>(60, 60, 3, 5);
  auto c_ref = Matrix<double>::zeros(60, 60);
  blas::ref::gemm_nn(1.0, x.const_view(), y.const_view(), c_ref.view());
  const auto res = caps_like_mm(x, y, p);
  EXPECT_EQ(max_abs_diff<double>(res.c.const_view(), c_ref.const_view()), 0.0) << "P=" << p;
}

INSTANTIATE_TEST_SUITE_P(PSweep, BaselineP, ::testing::Values(1, 2, 3, 4, 6, 7, 8, 13, 16, 49),
                         test::int_name("p"));

TEST(SummaSyrk, ClampsProcsToRows) {
  auto a = random_integer<double>(4, 10, 2, 6);
  auto c_ref = Matrix<double>::zeros(10, 10);
  blas::ref::syrk_ln(1.0, a.const_view(), c_ref.view());
  const auto res = summa_syrk(1.0, a, 64);  // more ranks than rows
  EXPECT_EQ(max_abs_diff_lower<double>(res.c.const_view(), c_ref.const_view()), 0.0);
}

TEST(CosmaLike, GridMinimizesModeledVolume) {
  // Tall-skinny A^T B: the model must prefer splitting the long dimension.
  const auto g1 = cosma_pick_grid(10000, 64, 64, 16);
  EXPECT_EQ(g1.pr * g1.pc, 16);
  EXPECT_EQ(g1.pr, 4);  // square C -> square grid
  const auto g2 = cosma_pick_grid(1000, 1024, 16, 16);
  EXPECT_GT(g2.pr, g2.pc);  // wide n -> more row groups
}

TEST(CosmaLike, RectangularOperands) {
  auto a = random_integer<double>(90, 30, 2, 7);
  auto b = random_integer<double>(90, 75, 2, 8);
  auto c_ref = Matrix<double>::zeros(30, 75);
  blas::ref::gemm_tn(1.0, a.const_view(), b.const_view(), c_ref.view());
  const auto res = cosma_like_gemm(1.0, a, b, 12);
  EXPECT_EQ(max_abs_diff<double>(res.c.const_view(), c_ref.const_view()), 0.0);
}

TEST(CapsLike, RejectsRectangular) {
  auto x = random_uniform<double>(10, 12, 1);
  auto y = random_uniform<double>(12, 10, 2);
  EXPECT_THROW(caps_like_mm(x, y, 7), std::invalid_argument);
}

TEST(CapsLike, OddSizeIsPaddedInternally) {
  auto x = random_integer<double>(29, 29, 2, 9);
  auto y = random_integer<double>(29, 29, 2, 10);
  auto c_ref = Matrix<double>::zeros(29, 29);
  blas::ref::gemm_nn(1.0, x.const_view(), y.const_view(), c_ref.view());
  const auto res = caps_like_mm(x, y, 14);
  EXPECT_EQ(max_abs_diff<double>(res.c.const_view(), c_ref.const_view()), 0.0);
}

TEST(CapsLike, TwoBfsLevelsWith49Procs) {
  auto x = random_integer<double>(40, 40, 2, 11);
  auto y = random_integer<double>(40, 40, 2, 12);
  auto c_ref = Matrix<double>::zeros(40, 40);
  blas::ref::gemm_nn(1.0, x.const_view(), y.const_view(), c_ref.view());
  const auto res = caps_like_mm(x, y, 49);
  EXPECT_EQ(res.levels, 2);
  EXPECT_EQ(max_abs_diff<double>(res.c.const_view(), c_ref.const_view()), 0.0);
}

TEST(Baselines, TrafficIsAccounted) {
  // Exact totals at one shape: summa sends 7 panels of 8x64 and reduces 7
  // packed 64x64 triangles; caps sends 6 operand pairs and gets 6 products
  // back, all 32x32; cosma's were recorded from the same run.
  auto a = random_uniform<double>(64, 64, 3);
  const auto r1 = summa_syrk(1.0, a, 8);
  EXPECT_EQ(r1.traffic.total_words(), 7u * 8 * 64 + 7u * 64 * 65 / 2);
  EXPECT_EQ(r1.traffic.total_messages(), 14u);
  const auto r2 = cosma_like_gemm(1.0, a, a, 8);
  EXPECT_EQ(r2.traffic.total_words(), 25088u);
  EXPECT_EQ(r2.traffic.total_messages(), 21u);
  const auto r3 = caps_like_mm(a, a, 7);
  EXPECT_EQ(r3.traffic.total_words(), 18u * 32 * 32);
  EXPECT_EQ(r3.traffic.total_messages(), 18u);
}

}  // namespace
}  // namespace atalib::dist
