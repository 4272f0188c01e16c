// Tests for RecursiveGEMM (Algorithm 2), the cache-oblivious cubic kernel
// whose recursion the parallel schedulers simulate.

#include <gtest/gtest.h>

#include "blas/reference.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "strassen/recursive_gemm.hpp"
#include "param_names.hpp"

namespace atalib {
namespace {

struct Shape {
  index_t m, n, k;
};

class RecGemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(RecGemmShapes, MatchesReferenceExactly) {
  const auto [m, n, k] = GetParam();
  RecurseOptions opts;
  opts.base_case_elements = 128;
  opts.min_dim = 2;
  auto a = random_integer<double>(m, n, 4, 1);
  auto b = random_integer<double>(m, k, 4, 2);
  auto c = Matrix<double>::zeros(n, k);
  auto c_ref = Matrix<double>::zeros(n, k);
  recursive_gemm_tn(1.5, a.const_view(), b.const_view(), c.view(), opts);
  blas::ref::gemm_tn(1.5, a.const_view(), b.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, RecGemmShapes,
                         ::testing::Values(Shape{1, 1, 1}, Shape{2, 2, 2}, Shape{3, 5, 7},
                                           Shape{16, 16, 16}, Shape{17, 33, 9},
                                           Shape{64, 64, 64}, Shape{65, 63, 62},
                                           Shape{128, 16, 64}, Shape{10, 128, 10}),
                         test::ShapeName());

TEST(RecursiveGemm, UnlikeStrassenItAllocatesNothing) {
  // RecursiveGEMM is the scheduler's model precisely because it has no
  // workspace (§4.1.3); this is a compile-time property of its signature
  // (no arena parameter), so here we only pin down that deep recursion
  // works on exactly-power-of-two and ragged sizes alike.
  RecurseOptions opts;
  opts.base_case_elements = 8;
  opts.min_dim = 1;
  auto a = random_integer<double>(37, 41, 2, 3);
  auto b = random_integer<double>(37, 43, 2, 4);
  auto c = Matrix<double>::zeros(41, 43);
  auto c_ref = Matrix<double>::zeros(41, 43);
  recursive_gemm_tn(1.0, a.const_view(), b.const_view(), c.view(), opts);
  blas::ref::gemm_tn(1.0, a.const_view(), b.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);
}

TEST(RecursiveGemm, AccumulationOrderIndependence) {
  // C += over two calls equals one call with doubled alpha (exact for
  // integer inputs).
  auto a = random_integer<double>(24, 20, 2, 5);
  auto b = random_integer<double>(24, 18, 2, 6);
  RecurseOptions opts;
  opts.base_case_elements = 64;
  auto c1 = Matrix<double>::zeros(20, 18);
  auto c2 = Matrix<double>::zeros(20, 18);
  recursive_gemm_tn(1.0, a.const_view(), b.const_view(), c1.view(), opts);
  recursive_gemm_tn(1.0, a.const_view(), b.const_view(), c1.view(), opts);
  recursive_gemm_tn(2.0, a.const_view(), b.const_view(), c2.view(), opts);
  EXPECT_EQ(max_abs_diff<double>(c1.const_view(), c2.const_view()), 0.0);
}

}  // namespace
}  // namespace atalib
