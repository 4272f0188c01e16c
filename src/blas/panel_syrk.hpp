#pragma once
// Blocked panel-SYRK: the tall-skinny (m >> n) Gram engine.
//
// For a tall-skinny A the Strassen recursion is the wrong tool: splitting
// the n-extent hits min_dim almost immediately, so the recursion degrades
// into block-sum bookkeeping on top of what is really one long dot-product
// sweep. This engine computes lower(C) += alpha * A^T A as a sum of
// row-panel contributions,
//
//   C += sum_p A_p^T A_p,   A_p a panel of consecutive rows,
//
// with each panel handed to the packed syrk_ln kernel (blas/syrk.hpp), so
// the whole product is one pass over A in cache-sized chunks with no
// recursion temporaries at all. The panel height is a pure function of
// (dtype, n) — never of the executor or the dispatched ISA — so results
// are bitwise-reproducible across pools, batch sizes, and forced-ISA
// toggles, which the batched-serving tests rely on.
//
// The shape-aware planner (api::shared_plan_key) selects this engine
// automatically when m/n crosses the tuner-measured tall-skinny threshold
// (strassen::Tuner::tall_skinny_ratio, DESIGN.md §8); it is also a
// first-class LeafEngine callers can force.

#include "common/arena.hpp"
#include "matrix/view.hpp"

namespace atalib::blas {

/// Rows per panel for an m x n input of element size `elem_bytes`: targets
/// a ~2 MiB panel footprint (L2-resident streaming) rounded to a multiple
/// of 8 rows, floored at 256 rows and capped at m. Deterministic per
/// (elem_bytes, m, n).
index_t panel_syrk_rows(index_t m, index_t n, std::size_t elem_bytes);

/// lower(C) += alpha * A^T A by row panels. A is m x n, C is n x n; the
/// strict upper triangle of C is never touched. Packed panels come from
/// `arena` when given (checkpoint-scoped; malloc-free once warm), from
/// thread-local buffers otherwise.
template <typename T>
void panel_syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>* arena = nullptr);

/// C += alpha * A^T B by the same row-panel split (A is m x n, B is m x k,
/// C is n x k): the off-diagonal companion the schedulers' kGemm leaves
/// need so a whole plan can run on the panel engine.
template <typename T>
void panel_gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
                   Arena<T>* arena = nullptr);

/// Arena elements one panel_syrk_ln call may draw — the per-panel pack
/// bound maximized over every dispatchable ISA (the plan layer caches it,
/// so it must stay valid across forced-ISA toggles).
template <typename T>
index_t panel_syrk_workspace_bound(index_t m, index_t n);

#define ATALIB_PANEL_SYRK_EXTERN(T)                                                        \
  extern template void panel_syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>, Arena<T>*);  \
  extern template void panel_gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,         \
                                        MatrixView<T>, Arena<T>*);                         \
  extern template index_t panel_syrk_workspace_bound<T>(index_t, index_t)
ATALIB_PANEL_SYRK_EXTERN(float);
ATALIB_PANEL_SYRK_EXTERN(double);
#undef ATALIB_PANEL_SYRK_EXTERN

}  // namespace atalib::blas
