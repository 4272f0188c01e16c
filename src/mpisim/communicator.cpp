#include "mpisim/communicator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/thread_pool.hpp"

namespace atalib::mpisim {
namespace {

constexpr std::align_val_t kStorageAlign{64};

/// Process-wide recycled message storage. It holds at most `bound` bytes,
/// the most one Communicator has sent, dropping its oldest buffers first.
/// A buffer that comes back while other storage is still out is reused only
/// once all of it is back (a new `epoch`): each message of a run gets its
/// own buffer, so a repeat of the run finds an exact fit for every message
/// in any rank interleaving.
struct BufferPool {
  struct Entry { std::byte* p; std::size_t bytes; std::uint64_t epoch; };
  Mutex mu;
  std::vector<Entry> free ATALIB_GUARDED_BY(mu);  ///< oldest first
  std::size_t pooled ATALIB_GUARDED_BY(mu) = 0;
  std::size_t bound ATALIB_GUARDED_BY(mu) = 0;
  std::size_t out ATALIB_GUARDED_BY(mu) = 0;  ///< storage handed out, not yet back
  std::uint64_t epoch ATALIB_GUARDED_BY(mu) = 0;
  std::uint64_t fresh ATALIB_GUARDED_BY(mu) = 0;

  ~BufferPool() {
    MutexLock lock(mu);
    for (const Entry& e : free) ::operator delete(e.p, kStorageAlign);
  }
};

BufferPool& pool() {
  static BufferPool p;
  return p;
}

}  // namespace

Storage acquire_storage(std::size_t bytes) {
  if (bytes == 0) return Storage(nullptr, Recycle{0});
  BufferPool& bp = pool();
  MutexLock lock(bp.mu);
  // Room for every buffer out to come back, so the noexcept return path
  // never allocates.
  const std::size_t slots = bp.free.size() + bp.out + 1;
  if (bp.free.capacity() < slots) bp.free.reserve(2 * slots);
  // Best fit, never over twice the request: a small message must not take
  // a buffer a block needs.
  auto best = bp.free.end();
  for (auto it = bp.free.begin(); it != bp.free.end(); ++it) {
    if (it->epoch < bp.epoch && it->bytes >= bytes && it->bytes / 2 <= bytes &&
        (best == bp.free.end() || it->bytes < best->bytes)) {
      best = it;
    }
  }
  Storage s;
  if (best == bp.free.end()) {
    s = Storage(static_cast<std::byte*>(::operator new(bytes, kStorageAlign)), Recycle{bytes});
    ++bp.fresh;
  } else {
    s = Storage(best->p, Recycle{best->bytes});
    bp.pooled -= best->bytes;
    bp.free.erase(best);
  }
  ++bp.out;
  return s;
}

void Recycle::operator()(std::byte* p) const noexcept {
  BufferPool& bp = pool();
  MutexLock lock(bp.mu);
  if (bytes <= bp.bound) {
    while (bp.pooled + bytes > bp.bound) {  // make room, oldest first
      ::operator delete(bp.free.front().p, kStorageAlign);
      bp.pooled -= bp.free.front().bytes;
      bp.free.erase(bp.free.begin());
    }
    bp.free.push_back({p, bytes, bp.epoch});  // never reallocates: see acquire_storage
    bp.pooled += bytes;
  } else {
    ::operator delete(p, kStorageAlign);
  }
  if (--bp.out == 0) ++bp.epoch;
}

std::uint64_t buffer_allocs() {
  BufferPool& bp = pool();
  MutexLock lock(bp.mu);
  return bp.fresh;
}

void Mailbox::push(Message msg) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop_match(int source, int tag) {
  UniqueLock lock(mu_);
  for (;;) {
    if (poisoned_) throw AbortedError{};
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->source == source && it->tag == tag) {
        Message msg = std::move(*it);
        queue_.erase(it);
        return msg;
      }
    }
    cv_.wait(lock);
  }
}

void Mailbox::poison() {
  {
    MutexLock lock(mu_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

Communicator::Communicator(int size)
    : size_(size), mailboxes_(static_cast<std::size_t>(size)), stats_(size) {
  if (size <= 0) throw std::invalid_argument("Communicator size must be positive");
}

int RankCtx::size() const { return comm_.size(); }

void Communicator::post(int dest, Message msg) {
  if (dest < 0 || dest >= size_) throw std::out_of_range("send to invalid rank");
  if (dest == msg.source) throw std::logic_error("rank sent a message to itself");
  stats_.on_send(msg.source, msg.count);
  const std::size_t bytes = msg.mem.get_deleter().bytes;
  const std::size_t run = sent_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  {
    BufferPool& bp = pool();
    MutexLock lock(bp.mu);
    bp.bound = std::max(bp.bound, run);
  }
  mailboxes_[static_cast<std::size_t>(dest)].push(std::move(msg));
}

Message Communicator::take(int self, int source, int tag, const std::type_info& type) {
  Message msg = mailboxes_[static_cast<std::size_t>(self)].pop_match(source, tag);
  if (*msg.type != type) {
    throw std::logic_error(std::string("mpisim: recv type mismatch: message holds ") +
                           msg.type->name() + ", received as " + type.name());
  }
  stats_.on_recv(self, msg.count);
  return msg;
}

namespace {

/// First-failure collector that prefers a rank's real exception over the
/// secondary AbortedErrors its failure triggers in peers (the abort races
/// the original store, so preference — not order — decides).
struct FirstError {
  Mutex mu;
  std::exception_ptr error ATALIB_GUARDED_BY(mu);
  bool aborted ATALIB_GUARDED_BY(mu) = false;

  void capture() {
    try {
      throw;
    } catch (const AbortedError&) {
      MutexLock lock(mu);
      if (!error) {
        error = std::current_exception();
        aborted = true;
      }
    } catch (...) {
      MutexLock lock(mu);
      if (!error || aborted) {
        error = std::current_exception();
        aborted = false;
      }
    }
  }

  /// Called after every rank joined; the lock is uncontended and keeps the
  /// guarded read visible to the thread-safety analysis.
  void rethrow_if_set() {
    std::exception_ptr err;
    {
      MutexLock lock(mu);
      err = error;
    }
    if (err) std::rethrow_exception(err);
  }
};

}  // namespace

void Communicator::run(const std::function<void(RankCtx&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  FirstError first;
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      RankCtx ctx(*this, r);
      try {
        guarded_rank([&] { fn(ctx); });
      } catch (...) {
        first.capture();
      }
    });
  }
  for (auto& t : threads) t.join();
  first.rethrow_if_set();
}

void Communicator::run_on(runtime::Executor& exec,
                          const std::function<void(RankCtx&, runtime::TaskContext&)>& fn) {
  if (exec.concurrency() < size_) {
    throw std::logic_error(
        "Communicator::run_on: executor has fewer slots than ranks; blocking "
        "rank bodies would deadlock");
  }
  if (size_ > 1 && runtime::ThreadPool::current_thread_in_task()) {
    throw std::logic_error(
        "Communicator::run_on: called from inside an executor task; a nested "
        "submission executes inline-serial and blocking rank bodies would "
        "deadlock");
  }
  // Failures are collected here, not left to the executor: the executor
  // would keep whichever exception landed first, which can be a secondary
  // AbortedError rather than the rank failure that caused it.
  FirstError first;
  exec.run(
      size_,
      [&](int task, runtime::TaskContext& tctx) {
        RankCtx ctx(*this, task);
        try {
          guarded_rank([&] { fn(ctx, tctx); });
        } catch (...) {
          first.capture();
        }
      },
      size_);
  first.rethrow_if_set();
}

}  // namespace atalib::mpisim
