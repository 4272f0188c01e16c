#include "dist/summa_syrk.hpp"

#include <algorithm>
#include <stdexcept>

#include "blas/syrk.hpp"
#include "common/timer.hpp"
#include "dist/block_io.hpp"
#include "dist/harness.hpp"

namespace atalib::dist {
namespace {

constexpr int kTagPanel = 1;
constexpr int kTagReduce = 2;

}  // namespace

template <typename T>
DistResult<T> summa_syrk(T alpha, const Matrix<T>& a, int procs) {
  if (procs < 1) throw std::invalid_argument("summa_syrk: procs must be >= 1");
  Timer wall;
  const index_t m = a.rows(), n = a.cols();
  const int p = static_cast<int>(std::clamp<index_t>(procs, 1, std::max<index_t>(m, 1)));

  DistResult<T> res;
  res.c = Matrix<T>::zeros(n, n);
  res.rank_busy_seconds.assign(static_cast<std::size_t>(procs), 0.0);

  MatrixView<T> c_view = res.c.view();
  run_ranks(res, p, wall, 0, 0, [&](mpisim::RankCtx& ctx, runtime::TaskContext&) {
    const int r = ctx.rank();
    auto panel_rows = [&](int q) {
      return std::pair<index_t, index_t>{m * q / p, m * (q + 1) / p};
    };
    if (r == 0) {
      for (int q = 1; q < p; ++q) {
        const auto [r0, r1] = panel_rows(q);
        send_block(ctx, q, kTagPanel, a.block(r0, 0, r1 - r0, n));
      }
      // Root's own contribution goes straight into C, then the reduce.
      const auto [r0, r1] = panel_rows(0);
      blas::syrk_ln(alpha, a.block(r0, 0, r1 - r0, n), c_view);
      for (int q = 1; q < p; ++q) recv_add_packed_lower(ctx, q, kTagReduce, c_view);
    } else {
      const auto [r0, r1] = panel_rows(r);
      const auto panel = recv_block<T>(ctx, 0, kTagPanel, r1 - r0, n);
      Matrix<T> local = Matrix<T>::zeros(n, n);
      blas::syrk_ln(alpha, ConstMatrixView<T>(panel.data(), r1 - r0, n, n), local.view());
      send_packed_lower(ctx, 0, kTagReduce, local.const_view());
    }
  });
  return res;
}

template DistResult<float> summa_syrk<float>(float, const Matrix<float>&, int);
template DistResult<double> summa_syrk<double>(double, const Matrix<double>&, int);

}  // namespace atalib::dist
