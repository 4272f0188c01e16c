#pragma once
// Matrix-block transport over the mpisim mailboxes.
//
// Every matrix crossing a rank boundary goes through these helpers so the
// word accounting is uniform: a rectangular block travels as rows*cols
// words in row-major order; a symmetric (A^T A-type) partial result
// travels as its packed lower triangle, n(n+1)/2 words — the §4.3.1
// optimization that produces the n(n+2)/2 term of the Prop. 4.2 bandwidth
// bound. Senders serialize straight into the message's pooled payload, the
// one copy a message costs. Receivers ACCUMULATE (+=) because the AtA-D
// retrieval phase is a gather-and-sum; use a zeroed destination for plain
// placement.

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "matrix/matrix.hpp"
#include "matrix/packed.hpp"
#include "mpisim/communicator.hpp"
#include "sched/task.hpp"

namespace atalib::dist {

/// Send `v` as one row-major message.
template <typename T>
void send_block(mpisim::RankCtx& ctx, int dest, int tag, ConstMatrixView<T> v) {
  mpisim::Payload<T> out(static_cast<std::size_t>(v.rows) * static_cast<std::size_t>(v.cols));
  for (index_t i = 0; i < v.rows; ++i) {
    std::copy_n(v.data + i * v.stride, v.cols, out.data() + i * v.cols);
  }
  ctx.send(dest, tag, std::move(out));
}

/// Receive one rows*cols message as a flat payload (row-major, stride ==
/// cols). Size-checked against the expected block geometry.
template <typename T>
mpisim::Payload<T> recv_block(mpisim::RankCtx& ctx, int source, int tag, index_t rows,
                              index_t cols) {
  mpisim::Payload<T> data = ctx.recv<T>(source, tag);
  if (data.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
    throw std::logic_error("dist protocol error: block payload size mismatch");
  }
  return data;
}

/// Receive one rows*cols message as an owning Matrix.
template <typename T>
Matrix<T> recv_matrix(mpisim::RankCtx& ctx, int source, int tag, index_t rows, index_t cols) {
  const mpisim::Payload<T> data = recv_block<T>(ctx, source, tag, rows, cols);
  Matrix<T> out(rows, cols);
  std::copy(data.begin(), data.end(), out.data());
  return out;
}

/// Receive a rows*cols block and accumulate it into `dst`.
template <typename T>
void recv_add_block(mpisim::RankCtx& ctx, int source, int tag, MatrixView<T> dst) {
  const mpisim::Payload<T> data = recv_block<T>(ctx, source, tag, dst.rows, dst.cols);
  const T* in = data.data();
  for (index_t i = 0; i < dst.rows; ++i) {
    for (index_t j = 0; j < dst.cols; ++j) dst(i, j) += in[j];
    in += dst.cols;
  }
}

/// Send the lower triangle of square `v`, packed.
template <typename T>
void send_packed_lower(mpisim::RankCtx& ctx, int dest, int tag, ConstMatrixView<T> v) {
  const index_t n = v.rows;
  mpisim::Payload<T> out(PackedLower<T>::packed_words(n));
  std::size_t k = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) out[k++] = v(i, j);
  }
  ctx.send(dest, tag, std::move(out));
}

/// Receive a packed lower triangle and accumulate it into lower(dst).
template <typename T>
void recv_add_packed_lower(mpisim::RankCtx& ctx, int source, int tag, MatrixView<T> dst) {
  const index_t n = dst.rows;
  const mpisim::Payload<T> data = ctx.recv<T>(source, tag);
  if (data.size() != PackedLower<T>::packed_words(n)) {
    throw std::logic_error("dist protocol error: packed payload size mismatch");
  }
  std::size_t k = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) dst(i, j) += data[k++];
  }
}

/// A rank's received A blocks, keyed by their global-coordinate Block.
/// Lookups are by exact Block equality: the tree's `needs` lists guarantee
/// every block a child requires appears verbatim in its parent's store
/// (sched/dist_tree.cpp dedups but never splits). Needs lists are small
/// (a handful of blocks), so linear search beats a map.
template <typename T>
class BlockStore {
 public:
  void put(const sched::Block& b, mpisim::Payload<T> data) {
    entries_.push_back(Entry{b, std::move(data)});
  }

  ConstMatrixView<T> view(const sched::Block& b) const {
    for (const Entry& e : entries_) {
      if (e.block == b) return ConstMatrixView<T>(e.data.data(), b.rows, b.cols, b.cols);
    }
    throw std::logic_error("dist protocol error: block not in store: " +
                           sched::LeafOp{sched::LeafOp::Kind::kSyrk, b, {}, {}}.to_string());
  }

 private:
  struct Entry {
    sched::Block block;
    mpisim::Payload<T> data;
  };
  std::vector<Entry> entries_;
};

}  // namespace atalib::dist
