#pragma once
// Naive triple-loop reference kernels.
//
// These exist solely as oracles for the test suite: every fast kernel
// (blocked gemm, syrk, Strassen, AtA, AtA-S, AtA-D) is checked against
// them on randomized shapes. Deliberately unblocked and obvious.

#include "matrix/view.hpp"

namespace atalib::blas::ref {

/// C += alpha * A^T B (A m x n, B m x k, C n x k).
template <typename T>
void gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c);

/// C += alpha * A B (A m x k, B k x n, C m x n).
template <typename T>
void gemm_nn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c);

/// lower(C) += alpha * A^T A.
template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c);

#define ATALIB_REF_EXTERN(T)                                                            \
  extern template void gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,           \
                                  MatrixView<T>);                                      \
  extern template void gemm_nn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,           \
                                  MatrixView<T>);                                      \
  extern template void syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>)
ATALIB_REF_EXTERN(float);
ATALIB_REF_EXTERN(double);
#undef ATALIB_REF_EXTERN

}  // namespace atalib::blas::ref
