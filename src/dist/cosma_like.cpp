#include "dist/cosma_like.hpp"

#include <algorithm>
#include <stdexcept>

#include "blas/gemm.hpp"
#include "common/timer.hpp"
#include "dist/block_io.hpp"
#include "dist/harness.hpp"

namespace atalib::dist {
namespace {

constexpr int kTagA = 1;
constexpr int kTagB = 2;
constexpr int kTagC = 3;

}  // namespace

CosmaGrid cosma_pick_grid(index_t m, index_t n, index_t k, int procs) {
  (void)m;  // volume = m * (pc*n + pr*k); m scales every candidate equally
  CosmaGrid best;
  double best_cost = -1;
  for (int pr = 1; pr <= procs; ++pr) {
    if (procs % pr != 0) continue;
    const int pc = procs / pr;
    // Replicated words per process row/column group: every process in a
    // grid column needs the same A panel (pc copies of each), every
    // process in a grid row the same B panel (pr copies).
    const double cost = static_cast<double>(pc) * static_cast<double>(n) +
                        static_cast<double>(pr) * static_cast<double>(k);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best = CosmaGrid{pr, pc};
    }
  }
  return best;
}

template <typename T>
DistResult<T> cosma_like_gemm(T alpha, const Matrix<T>& a, const Matrix<T>& b, int procs) {
  if (procs < 1) throw std::invalid_argument("cosma_like_gemm: procs must be >= 1");
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("cosma_like_gemm: A and B must share their row count");
  }
  Timer wall;
  const index_t m = a.rows(), n = a.cols(), k = b.cols();
  const CosmaGrid grid = cosma_pick_grid(m, n, k, procs);
  const int p = grid.pr * grid.pc;

  DistResult<T> res;
  res.c = Matrix<T>::zeros(n, k);
  res.rank_busy_seconds.assign(static_cast<std::size_t>(procs), 0.0);

  auto rows_of = [&](int i) {
    return std::pair<index_t, index_t>{n * i / grid.pr, n * (i + 1) / grid.pr};
  };
  auto cols_of = [&](int j) {
    return std::pair<index_t, index_t>{k * j / grid.pc, k * (j + 1) / grid.pc};
  };

  MatrixView<T> c_view = res.c.view();
  run_ranks(res, p, wall, 0, 0, [&](mpisim::RankCtx& ctx, runtime::TaskContext&) {
    const int r = ctx.rank();
    const int i = r / grid.pc, j = r % grid.pc;
    const auto [n0, n1] = rows_of(i);
    const auto [k0, k1] = cols_of(j);
    if (r == 0) {
      for (int q = 1; q < p; ++q) {
        const auto [qn0, qn1] = rows_of(q / grid.pc);
        const auto [qk0, qk1] = cols_of(q % grid.pc);
        send_block(ctx, q, kTagA, a.block(0, qn0, m, qn1 - qn0));
        send_block(ctx, q, kTagB, b.block(0, qk0, m, qk1 - qk0));
      }
      blas::gemm_tn(alpha, a.block(0, n0, m, n1 - n0), b.block(0, k0, m, k1 - k0),
                    c_view.block(n0, k0, n1 - n0, k1 - k0));
      // C tiles are disjoint, so accumulate-into-zeros is plain placement.
      for (int q = 1; q < p; ++q) {
        const auto [qn0, qn1] = rows_of(q / grid.pc);
        const auto [qk0, qk1] = cols_of(q % grid.pc);
        recv_add_block(ctx, q, kTagC, c_view.block(qn0, qk0, qn1 - qn0, qk1 - qk0));
      }
    } else {
      const auto pa = recv_block<T>(ctx, 0, kTagA, m, n1 - n0);
      const auto pb = recv_block<T>(ctx, 0, kTagB, m, k1 - k0);
      Matrix<T> local = Matrix<T>::zeros(n1 - n0, k1 - k0);
      if (n1 > n0 && k1 > k0) {
        blas::gemm_tn(alpha, ConstMatrixView<T>(pa.data(), m, n1 - n0, n1 - n0),
                      ConstMatrixView<T>(pb.data(), m, k1 - k0, k1 - k0), local.view());
      }
      send_block(ctx, 0, kTagC, local.const_view());
    }
  });
  return res;
}

template DistResult<float> cosma_like_gemm<float>(float, const Matrix<float>&,
                                                  const Matrix<float>&, int);
template DistResult<double> cosma_like_gemm<double>(double, const Matrix<double>&,
                                                    const Matrix<double>&, int);

}  // namespace atalib::dist
