#pragma once
// In-process message-passing runtime (the MPI substitute; see DESIGN.md).
//
// Each rank is a std::thread; ranks share no algorithm state — every matrix
// block crosses rank boundaries as an explicit, counted message through a
// tagged mailbox. Sends are buffered (the payload moves into the destination
// mailbox, sender never blocks), like MPI_Bsend, which keeps tree-structured
// protocols trivially deadlock-free. Receives block until a message with a
// matching (source, tag) arrives and take the sender's buffer by move, so
// the sender's serialization is a message's only copy.
//
// Tags are caller-chosen; (source, tag) pairs must be unique among in-flight
// messages for a deterministic protocol, which all algorithms in dist/
// guarantee by tagging with task-tree node ids or stage numbers.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "mpisim/stats.hpp"
#include "runtime/executor.hpp"

namespace atalib::mpisim {

/// Hands message storage back to the process-wide buffer pool.
struct Recycle {
  std::size_t bytes = 0;
  void operator()(std::byte* p) const noexcept;
};
/// Message storage: uninitialized, 64-byte aligned, pooled bytes.
using Storage = std::unique_ptr<std::byte[], Recycle>;

/// Best-fit storage from the pool, or a fresh allocation on a miss. The
/// pool keeps at most the most bytes any one Communicator has sent.
Storage acquire_storage(std::size_t bytes);
/// Pool misses since process start; a repeated run adds none once warm.
std::uint64_t buffer_allocs();

/// An owned, typed message payload: a span over pooled storage. Moving it
/// moves the storage and leaves the source empty.
template <typename T>
class Payload : public std::span<T> {
  static_assert(std::is_trivially_copyable_v<T>, "payloads travel as raw element copies");

 public:
  /// Room for `count` uninitialized elements.
  explicit Payload(std::size_t count) : mem_(acquire_storage(count * sizeof(T))) {
    // Pooled storage may last have held another type: start the elements'
    // lifetimes (no code for a trivial T).
    if (count > 0) {
      std::span<T>::operator=({::new (static_cast<void*>(mem_.get())) T[count], count});
    }
  }
  Payload(Payload&& o) noexcept
      : std::span<T>(std::exchange<std::span<T>>(o, {})), mem_(std::move(o.mem_)) {}

 private:
  friend class RankCtx;
  Payload(T* elems, std::size_t count, Storage mem)
      : std::span<T>(elems, count), mem_(std::move(mem)) {}
  Storage mem_;
};

/// One in-flight message: the sender's T[count] inside its storage.
struct Message {
  int source = 0;
  int tag = 0;
  const std::type_info* type = nullptr;
  void* elems = nullptr;
  std::size_t count = 0;  ///< elements, i.e. words
  Storage mem;
};

/// Thrown out of a blocked recv when a peer rank failed and the
/// communicator aborted the run (see Communicator::run). Catch-and-ignore
/// is wrong — the original failure is rethrown to the run's caller.
struct AbortedError : std::runtime_error {
  AbortedError() : std::runtime_error("mpisim: communicator aborted after a rank failure") {}
};

/// One rank's incoming queue.
class Mailbox {
 public:
  void push(Message msg);
  /// Blocking receive of the first message matching (source, tag).
  /// Throws AbortedError once the mailbox is poisoned.
  Message pop_match(int source, int tag);
  /// Poison the mailbox: wake every blocked pop_match and make it (and
  /// all future ones) throw AbortedError.
  void poison();

 private:
  Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<Message> queue_ ATALIB_GUARDED_BY(mu_);
  bool poisoned_ ATALIB_GUARDED_BY(mu_) = false;
};

class Communicator;

/// Per-rank handle passed to the rank function: the MPI_Comm + rank pair.
class RankCtx {
 public:
  RankCtx(Communicator& comm, int rank) : comm_(comm), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;

  /// Buffered send of a filled payload; it moves into the mailbox uncopied.
  template <typename T>
  void send(int dest, int tag, Payload<T> payload);
  /// Buffered send of a copy of `count` elements.
  template <typename T>
  void send(int dest, int tag, const T* data, std::size_t count) {
    Payload<T> payload(count);
    std::copy_n(data, count, payload.data());
    send(dest, tag, std::move(payload));
  }

  /// Blocking receive of the sender's payload. Throws std::logic_error if
  /// the message holds another element type.
  template <typename T>
  Payload<T> recv(int source, int tag);

  /// Convenience for single scalars / small structs.
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send(dest, tag, &v, 1);
  }
  template <typename T>
  T recv_value(int source, int tag) {
    const Payload<T> p = recv<T>(source, tag);
    if (p.empty()) throw std::out_of_range("mpisim: recv_value on an empty message");
    return p[0];
  }

 private:
  Communicator& comm_;
  int rank_;
};

/// The world: owns mailboxes, traffic counters, and the rank threads.
class Communicator {
 public:
  explicit Communicator(int size);

  int size() const { return size_; }
  TrafficSnapshot traffic() const { return stats_.snapshot(); }

  /// Run `fn(ctx)` on every rank (one thread per rank) and join. If any
  /// rank throws, every mailbox is poisoned so peers blocked in recv wake
  /// with AbortedError instead of hanging, and the *first* failure (never
  /// the secondary AbortedErrors) is rethrown here.
  void run(const std::function<void(RankCtx&)>& fn);

  /// Run every rank as one batch on a runtime::Executor instead of
  /// spawning fresh threads: rank r executes as task r and additionally
  /// receives its slot's TaskContext (reusable Workspace arena). Rank
  /// bodies BLOCK on recv, so the executor must guarantee one concurrent
  /// slot per rank; `exec.concurrency() >= size()` is required (throws
  /// std::logic_error otherwise) and only executors that run a
  /// <= concurrency() batch fully concurrently are safe — the persistent
  /// ThreadPool qualifies (see DESIGN.md §3).
  void run_on(runtime::Executor& exec,
              const std::function<void(RankCtx&, runtime::TaskContext&)>& fn);

  // Internal transport (used by RankCtx).
  void post(int dest, Message msg);
  Message take(int self, int source, int tag, const std::type_info& type);

 private:
  /// Wrap a rank body so any failure poisons all mailboxes (unblocking
  /// peers) before propagating.
  template <typename Fn>
  void guarded_rank(Fn&& fn) {
    try {
      fn();
    } catch (...) {
      for (Mailbox& mb : mailboxes_) mb.poison();
      throw;
    }
  }

  int size_;
  std::vector<Mailbox> mailboxes_;
  TrafficStats stats_;
  std::atomic<std::size_t> sent_bytes_{0};  ///< raises the buffer pool's bound
};

template <typename T>
void RankCtx::send(int dest, int tag, Payload<T> payload) {
  comm_.post(dest, Message{rank_, tag, &typeid(T), payload.data(), payload.size(),
                           std::move(payload.mem_)});
}

template <typename T>
Payload<T> RankCtx::recv(int source, int tag) {
  Message msg = comm_.take(rank_, source, tag, typeid(T));
  return Payload<T>(static_cast<T*>(msg.elems), msg.count, std::move(msg.mem));
}

}  // namespace atalib::mpisim
