#include "blas/panel_syrk.hpp"

#include <algorithm>

#include "blas/gemm.hpp"
#include "blas/syrk.hpp"

namespace atalib::blas {

index_t panel_syrk_rows(index_t m, index_t n, std::size_t elem_bytes) {
  if (m <= 0 || n <= 0) return std::max<index_t>(m, 1);
  // ~2 MiB of A per panel keeps the streamed rows L2-resident alongside C
  // without probing the cache hierarchy (a probe would make the split — and
  // therefore the floating-point accumulation order — machine-dependent).
  constexpr index_t kPanelBytes = 2 << 20;
  index_t rows = kPanelBytes / (static_cast<index_t>(elem_bytes) * n);
  rows = (rows / 8) * 8;
  rows = std::max<index_t>(rows, 256);
  return std::min(rows, m);
}

template <typename T>
void panel_syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>* arena) {
  const index_t rows = panel_syrk_rows(a.rows, a.cols, sizeof(T));
  for (index_t r0 = 0; r0 < a.rows; r0 += rows) {
    const index_t nr = std::min(rows, a.rows - r0);
    syrk_ln(alpha, a.block(r0, 0, nr, a.cols), c, arena);
  }
}

template <typename T>
void panel_gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
                   Arena<T>* arena) {
  const index_t rows = panel_syrk_rows(a.rows, a.cols, sizeof(T));
  for (index_t r0 = 0; r0 < a.rows; r0 += rows) {
    const index_t nr = std::min(rows, a.rows - r0);
    gemm_tn(alpha, a.block(r0, 0, nr, a.cols), b.block(r0, 0, nr, b.cols), c, arena);
  }
}

template <typename T>
index_t panel_syrk_workspace_bound(index_t m, index_t n) {
  // Pack extents grow monotonically with the contraction depth, so the
  // full-m bound covers every panel regardless of the split.
  return syrk_workspace_bound<T>(m, n);
}

#define ATALIB_PANEL_SYRK_INST(T)                                                   \
  template void panel_syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>, Arena<T>*);  \
  template void panel_gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,         \
                                 MatrixView<T>, Arena<T>*);                         \
  template index_t panel_syrk_workspace_bound<T>(index_t, index_t)
ATALIB_PANEL_SYRK_INST(float);
ATALIB_PANEL_SYRK_INST(double);
#undef ATALIB_PANEL_SYRK_INST

}  // namespace atalib::blas
