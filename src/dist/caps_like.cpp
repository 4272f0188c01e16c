#include "dist/caps_like.hpp"

#include <algorithm>
#include <stdexcept>

#include "blas/gemm.hpp"
#include "common/timer.hpp"
#include "dist/block_io.hpp"
#include "dist/harness.hpp"

namespace atalib::dist {
namespace {

/// Tags are level-scoped so the seven operand/result streams of nested BFS
/// steps never alias on a (source, tag) channel.
int tag_left(int level, int i) { return 100 + 16 * level + 2 * i; }
int tag_right(int level, int i) { return 100 + 16 * level + 2 * i + 1; }
int tag_product(int level, int i) { return 1000 + 8 * level + i; }

/// h x h matrix holding quadrant (ra, ca) of the n x n view `v` plus
/// sign * quadrant (rb, cb), both zero-padded to h = ceil(n/2). rb < 0
/// selects the single-quadrant case.
template <typename T>
Matrix<T> quad_combine(ConstMatrixView<T> v, index_t h, int ra, int ca, int rb, int cb,
                       T sign) {
  const index_t n = v.rows;
  Matrix<T> out = Matrix<T>::zeros(h, h);
  auto extent = [&](int q) { return std::pair<index_t, index_t>{q * h, std::min(n, (q + 1) * h)}; };
  {
    const auto [r0, r1] = extent(ra);
    const auto [c0, c1] = extent(ca);
    for (index_t i = r0; i < r1; ++i)
      for (index_t j = c0; j < c1; ++j) out(i - r0, j - c0) = v(i, j);
  }
  if (rb >= 0) {
    const auto [r0, r1] = extent(rb);
    const auto [c0, c1] = extent(cb);
    for (index_t i = r0; i < r1; ++i)
      for (index_t j = c0; j < c1; ++j) out(i - r0, j - c0) += sign * v(i, j);
  }
  return out;
}

/// Add sign * m (h x h) into quadrant (qr, qc) of the n x n view `c`,
/// cropping the padding.
template <typename T>
void add_quadrant(MatrixView<T> c, const Matrix<T>& m, index_t h, int qr, int qc, T sign) {
  const index_t n = c.rows;
  const index_t r0 = qr * h, r1 = std::min(n, (qr + 1) * h);
  const index_t c0 = qc * h, c1 = std::min(n, (qc + 1) * h);
  for (index_t i = r0; i < r1; ++i)
    for (index_t j = c0; j < c1; ++j) c(i, j) += sign * m(i - r0, j - c0);
}

/// One group's step of the BFS recursion, executed by every rank in
/// [lo, lo + size). Only the group root (rank lo) holds x/y and returns
/// the n x n product; other ranks participate in exactly one subgroup and
/// return an empty matrix.
template <typename T>
Matrix<T> caps_step(mpisim::RankCtx& ctx, int lo, int size, int level, int max_level,
                    ConstMatrixView<T> x, ConstMatrixView<T> y, index_t n) {
  const int me = ctx.rank();
  if (level == max_level || size < 7) {
    if (me != lo) return {};
    Matrix<T> c = Matrix<T>::zeros(n, n);
    blas::gemm_nn(T(1), x, y, c.view());
    return c;
  }
  const index_t h = half_up(n);
  // Subgroup i of size/7 (+1 for the first size%7) ranks computes M_{i+1}.
  int sub_lo[7], sub_size[7];
  for (int i = 0, at = lo; i < 7; ++i) {
    sub_size[i] = size / 7 + (i < size % 7 ? 1 : 0);
    sub_lo[i] = at;
    at += sub_size[i];
  }
  // The classic seven operand pairs, in the order M1..M7.
  struct Pair {
    int ra, ca, rb, cb;  // left operand quadrants (rb < 0: single)
    int sa;
    int rc, cc, rd, cd;  // right operand quadrants
    int sc;
  };
  static constexpr Pair kPairs[7] = {
      {0, 0, 1, 1, +1, 0, 0, 1, 1, +1},  // M1 = (X11+X22)(Y11+Y22)
      {1, 0, 1, 1, +1, 0, 0, -1, -1, +1},  // M2 = (X21+X22) Y11
      {0, 0, -1, -1, +1, 0, 1, 1, 1, -1},  // M3 = X11 (Y12-Y22)
      {1, 1, -1, -1, +1, 1, 0, 0, 0, -1},  // M4 = X22 (Y21-Y11)
      {0, 0, 0, 1, +1, 1, 1, -1, -1, +1},  // M5 = (X11+X12) Y22
      {1, 0, 0, 0, -1, 0, 0, 0, 1, +1},  // M6 = (X21-X11)(Y11+Y12)
      {0, 1, 1, 1, -1, 1, 0, 1, 1, +1},  // M7 = (X12-X22)(Y21+Y22)
  };

  Matrix<T> my_left, my_right;
  if (me == lo) {
    for (int i = 0; i < 7; ++i) {
      const Pair& pr = kPairs[i];
      Matrix<T> l = quad_combine(x, h, pr.ra, pr.ca, pr.rb, pr.cb, T(pr.sa));
      Matrix<T> r = quad_combine(y, h, pr.rc, pr.cc, pr.rd, pr.cd, T(pr.sc));
      if (sub_lo[i] == me) {  // subgroup 0's root is the group root itself
        my_left = std::move(l);
        my_right = std::move(r);
      } else {
        send_block(ctx, sub_lo[i], tag_left(level, i), l.const_view());
        send_block(ctx, sub_lo[i], tag_right(level, i), r.const_view());
      }
    }
  }
  int g = 0;
  while (me >= sub_lo[g] + sub_size[g]) ++g;
  if (me == sub_lo[g] && me != lo) {
    my_left = recv_matrix<T>(ctx, lo, tag_left(level, g), h, h);
    my_right = recv_matrix<T>(ctx, lo, tag_right(level, g), h, h);
  }
  Matrix<T> sub = caps_step(ctx, sub_lo[g], sub_size[g], level + 1, max_level,
                            my_left.const_view(), my_right.const_view(), h);
  if (me == sub_lo[g] && me != lo) {
    send_block(ctx, lo, tag_product(level, g), sub.const_view());
  }
  if (me != lo) return {};

  Matrix<T> c = Matrix<T>::zeros(n, n);
  Matrix<T> m[7];
  m[0] = std::move(sub);
  for (int i = 1; i < 7; ++i) {
    m[i] = recv_matrix<T>(ctx, sub_lo[i], tag_product(level, i), h, h);
  }
  // C11 = M1+M4-M5+M7, C12 = M3+M5, C21 = M2+M4, C22 = M1-M2+M3+M6.
  add_quadrant(c.view(), m[0], h, 0, 0, T(1));
  add_quadrant(c.view(), m[3], h, 0, 0, T(1));
  add_quadrant(c.view(), m[4], h, 0, 0, T(-1));
  add_quadrant(c.view(), m[6], h, 0, 0, T(1));
  add_quadrant(c.view(), m[2], h, 0, 1, T(1));
  add_quadrant(c.view(), m[4], h, 0, 1, T(1));
  add_quadrant(c.view(), m[1], h, 1, 0, T(1));
  add_quadrant(c.view(), m[3], h, 1, 0, T(1));
  add_quadrant(c.view(), m[0], h, 1, 1, T(1));
  add_quadrant(c.view(), m[1], h, 1, 1, T(-1));
  add_quadrant(c.view(), m[2], h, 1, 1, T(1));
  add_quadrant(c.view(), m[5], h, 1, 1, T(1));
  return c;
}

}  // namespace

template <typename T>
DistResult<T> caps_like_mm(const Matrix<T>& x, const Matrix<T>& y, int procs) {
  if (procs < 1) throw std::invalid_argument("caps_like_mm: procs must be >= 1");
  if (x.rows() != x.cols() || y.rows() != y.cols() || x.cols() != y.rows()) {
    throw std::invalid_argument("caps_like_mm: operands must be square and conformant");
  }
  Timer wall;
  const index_t n = x.rows();
  int max_level = 0;
  for (long long cap = 7; cap <= procs; cap *= 7) ++max_level;

  DistResult<T> res;
  res.c = Matrix<T>::zeros(n, n);
  res.levels = max_level;
  res.rank_busy_seconds.assign(static_cast<std::size_t>(procs), 0.0);

  Matrix<T>* c_out = &res.c;
  run_ranks(res, procs, wall, 0, 0, [&](mpisim::RankCtx& ctx, runtime::TaskContext&) {
    Matrix<T> out = caps_step(ctx, 0, procs, 0, max_level, x.const_view(), y.const_view(), n);
    if (ctx.rank() == 0) *c_out = std::move(out);
  });
  return res;
}

template DistResult<float> caps_like_mm<float>(const Matrix<float>&, const Matrix<float>&,
                                               int);
template DistResult<double> caps_like_mm<double>(const Matrix<double>&, const Matrix<double>&,
                                                 int);

}  // namespace atalib::dist
