#include "blas/reference.hpp"

#include <cassert>

namespace atalib::blas::ref {

template <typename T>
void gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c) {
  assert(a.cols == c.rows && b.cols == c.cols && a.rows == b.rows);
  for (index_t i = 0; i < c.rows; ++i) {
    for (index_t j = 0; j < c.cols; ++j) {
      T acc = T(0);
      for (index_t l = 0; l < a.rows; ++l) acc += a(l, i) * b(l, j);
      c(i, j) += alpha * acc;
    }
  }
}

template <typename T>
void gemm_nn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c) {
  assert(a.rows == c.rows && b.cols == c.cols && a.cols == b.rows);
  for (index_t i = 0; i < c.rows; ++i) {
    for (index_t j = 0; j < c.cols; ++j) {
      T acc = T(0);
      for (index_t l = 0; l < a.cols; ++l) acc += a(i, l) * b(l, j);
      c(i, j) += alpha * acc;
    }
  }
}

template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c) {
  assert(c.rows == a.cols && c.cols == a.cols);
  for (index_t i = 0; i < c.rows; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      T acc = T(0);
      for (index_t l = 0; l < a.rows; ++l) acc += a(l, i) * a(l, j);
      c(i, j) += alpha * acc;
    }
  }
}

#define ATALIB_REF_INST(T)                                                              \
  template void gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>, MatrixView<T>);  \
  template void gemm_nn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>, MatrixView<T>);  \
  template void syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>)
ATALIB_REF_INST(float);
ATALIB_REF_INST(double);
#undef ATALIB_REF_INST

}  // namespace atalib::blas::ref
