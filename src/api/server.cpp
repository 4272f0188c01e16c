#include "api/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/execute.hpp"

namespace atalib::api {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t ns_of(SteadyClock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
      .count();
}

std::uint64_t elapsed_ns(SteadyClock::time_point from, SteadyClock::time_point to) {
  return to <= from
             ? 0
             : static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                       .count());
}

/// Win a request's settle CAS; false if another path settled it first.
bool claim(detail::RequestTicket& t) {
  bool expected = false;
  return t.settled.compare_exchange_strong(expected, true, std::memory_order_acq_rel);
}

}  // namespace

Server::Server(const Options& opts)
    : cache_(opts.plan_capacity),
      max_inflight_(opts.max_inflight_requests),
      max_batches_(opts.max_queued_batches),
      policy_(opts.admission),
      faults_(fault::Plan::from_env()),
      pool_(opts.threads) {}

Server::~Server() {
  UniqueLock lk(gate_mu_);
  shutting_down_ = true;
  // Abort everything still unsettled: tasks that have not computed yet see
  // `cancelled` and skip; clients get ServerShutdown instead of a hang. A
  // request some task already started on is settled by its retiring task
  // (RequestTicket::cancel), which the wait below also covers.
  for (auto& t : ledger_) settle_early_locked(*t, detail::CancelReason::kShutdown);
  ledger_.clear();
  gate_cv_.notify_all();
  // Wait for every admitted batch to retire and every blocked admitter to
  // wake (and throw ServerShutdown) before the members destruct: after
  // this loop no pool task touches server state, and ~pool_ (declared
  // last, destructed first) joins the workers before the gate itself goes.
  while (queued_batches_ != 0 || gate_waiters_ != 0) gate_cv_.wait(lk);
}

Server::Clock::time_point Server::admit(std::size_t nreq) {
  const auto t0 = Clock::now();
  if (runtime::ThreadPool::current_thread_in_task()) {
    // Re-entrant submissions execute inline in the pool (never queued);
    // blocking the worker on its own server's gate would deadlock, so they
    // bypass the bounds and only respect shutdown.
    MutexLock lk(gate_mu_);
    if (shutting_down_) {
      throw ServerShutdown("Server::submit: server is shutting down");
    }
    inflight_requests_ += nreq;
    ++queued_batches_;
    return t0;
  }
  if (nreq > max_inflight_ || max_batches_ == 0) {
    // Can never fit, under any policy: blocking would deadlock.
    rejected_.fetch_add(nreq, std::memory_order_relaxed);
    throw OverloadError(
        "Server::submit: request batch can never satisfy the admission bounds "
        "(batch of " +
        std::to_string(nreq) + ", max_inflight_requests " +
        std::to_string(max_inflight_) + ", max_queued_batches " +
        std::to_string(max_batches_) + ")");
  }
  UniqueLock lk(gate_mu_);
  for (;;) {
    if (shutting_down_) {
      throw ServerShutdown("Server::submit: server is shutting down");
    }
    std::size_t phantom = 0;
    if constexpr (fault::kEnabled) {
      if (faults_) phantom = faults_->queue_pressure();
    }
    const bool req_ok = max_inflight_ == kUnlimited ||
                        inflight_requests_ + phantom + nreq <= max_inflight_;
    const bool batch_ok = max_batches_ == kUnlimited || queued_batches_ < max_batches_;
    if (req_ok && batch_ok) break;
    if (policy_ == AdmissionPolicy::kShedOldest && shed_expired(Clock::now()) > 0) {
      continue;  // re-evaluate with the freed capacity
    }
    if (policy_ == AdmissionPolicy::kBlock) {
      ++gate_waiters_;
      gate_cv_.wait(lk);
      --gate_waiters_;
      if (shutting_down_) gate_cv_.notify_all();  // let ~Server see the drain
      continue;
    }
    rejected_.fetch_add(nreq, std::memory_order_relaxed);
    throw OverloadError(
        "Server::submit: admission gate full (" + std::to_string(inflight_requests_) +
        " in flight of " + std::to_string(max_inflight_) + ", " +
        std::to_string(queued_batches_) + " batches of " + std::to_string(max_batches_) +
        ")");
  }
  inflight_requests_ += nreq;
  ++queued_batches_;
  return t0;
}

void Server::unadmit(std::size_t nreq) {
  MutexLock lk(gate_mu_);
  inflight_requests_ -= nreq;
  --queued_batches_;
  gate_cv_.notify_all();
}

std::size_t Server::shed_expired(Clock::time_point now) {
  std::size_t freed = 0;
  for (auto& t : ledger_) {
    // Started work still stops at its next task, but only its retiring
    // task may hand the buffers back, so it frees no capacity now.
    if (now >= t->deadline && settle_early_locked(*t, detail::CancelReason::kShed)) ++freed;
  }
  trim_ledger();
  return freed;
}

void Server::trim_ledger() {
  while (!ledger_.empty() && ledger_.front()->settled.load(std::memory_order_relaxed)) {
    ledger_.pop_front();
  }
}

bool Server::claim_and_release(Ticket& t) {
  if (!claim(t)) return false;
  MutexLock lk(gate_mu_);
  --inflight_requests_;
  trim_ledger();
  gate_cv_.notify_all();
  return true;
}

void Server::settle_early(Ticket& t, detail::CancelReason why) {
  MutexLock lk(gate_mu_);
  if (settle_early_locked(t, why)) trim_ledger();
}

bool Server::settle_early_locked(Ticket& t, detail::CancelReason why) {
  if (!t.cancel(why) || !claim(t)) return false;
  settle_cancelled(t, why);
  --inflight_requests_;
  gate_cv_.notify_all();
  return true;
}

void Server::settle_cancelled(Ticket& t, detail::CancelReason why) {
  std::exception_ptr error;
  switch (why) {
    case detail::CancelReason::kShutdown:
      error = std::make_exception_ptr(
          ServerShutdown("atalib: Server destroyed with the request in flight"));
      break;
    case detail::CancelReason::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      error = std::make_exception_ptr(DeadlineExceeded(
          "atalib: request shed under kShedOldest after its deadline expired"));
      break;
    default:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      error = std::make_exception_ptr(
          DeadlineExceeded("atalib: request deadline expired before execution"));
  }
  t.promise.set_exception(error);
}

void Server::on_batch_retired() {
  // The LAST server-state touch any task of a batch performs; ~Server
  // waits for queued_batches_ == 0, so everything a task does happens
  // before the members destruct.
  MutexLock lk(gate_mu_);
  --queued_batches_;
  gate_cv_.notify_all();
}

metrics::ServerStats Server::stats() const {
  metrics::ServerStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  {
    MutexLock lk(gate_mu_);
    s.inflight_requests = inflight_requests_;
    s.queued_batches = queued_batches_;
  }
  s.pool_queue_depth = pool_.queue_depth();
  s.admission_wait = metrics::summarize(admission_wait_);
  s.queue_wait = metrics::summarize(queue_wait_);
  s.compute = metrics::summarize(compute_);
  return s;
}

template <typename T>
std::future<void> Server::submit(T alpha, ConstMatrixView<T> a, MatrixView<T> c,
                                 SharedOptions opts) {
  // One request is a batch of one: a single machinery gives submit() the
  // same admission, deadline, settle-once, and teardown guarantees.
  const AtaRequest<T> req{alpha, a, c, opts.priority, opts.deadline};
  auto futures = submit_batch<T>(std::span<const AtaRequest<T>>(&req, 1), std::move(opts));
  return std::move(futures.front());
}

template <typename T>
std::future<void> Server::submit(T alpha, ConstMatrixView<T> a, MatrixView<T> c) {
  SharedOptions opts;
  opts.threads = pool_.concurrency();
  opts.oversub = 2;
  return submit(alpha, a, c, opts);
}

namespace {

/// Shared lifetime of one fused batch: the execution core's layout (plans,
/// request views, units, chunks) plus the per-request tickets every task
/// touches. Tasks hold it by shared_ptr so the state outlives both the
/// client (who may drop futures early) and the pool batch.
template <typename T>
struct BatchState {
  BatchState(BatchPlan plan, std::span<const AtaRequest<T>> requests, int concurrency)
      : batch(std::move(plan), requests, concurrency) {}

  FusedBatch<T> batch;
  std::vector<std::shared_ptr<detail::RequestTicket>> tickets;
  /// Chunks not yet finished; the task taking it to zero retires the
  /// batch at the server's gate.
  std::atomic<int> chunks_remaining{0};
  /// The server's fault plan, shared so injection hooks stay valid even
  /// while the server tears down.
  std::shared_ptr<const fault::Plan> faults;
};

}  // namespace

template <typename T>
std::vector<std::future<void>> Server::submit_batch(std::span<const AtaRequest<T>> requests,
                                                    SharedOptions opts) {
  opts.executor = nullptr;  // requests always execute on the server's pool
  validate(opts);
  // Reject a mismatched C before touching the gate or the cache: the check
  // needs no plan, so a malformed request gets the same error whatever the
  // server's load, and never pays a schedule build or evicts a warm plan.
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const AtaRequest<T>& q = requests[r];
    if (q.c.rows != q.a.cols || q.c.cols != q.a.cols) {
      throw std::invalid_argument("submit_batch: request " + std::to_string(r) +
                                  ": C must be n x n = " + std::to_string(q.a.cols) +
                                  "^2, got " + std::to_string(q.c.rows) + "x" +
                                  std::to_string(q.c.cols));
    }
  }
  if (requests.empty()) return {};
  const std::size_t nreq = requests.size();

  // The admission gate comes FIRST: a rejected submission throws before
  // any promise, plan lookup, or ticket exists.
  const Clock::time_point t0 = admit(nreq);

  std::shared_ptr<BatchState<T>> state;
  try {
    // Throws std::invalid_argument on any bad request, before any promise
    // exists or any task is enqueued: a rejected batch is all-or-nothing.
    state = std::make_shared<BatchState<T>>(build_batch_plan<T>(cache_, requests, opts),
                                            requests, pool_.concurrency());
  } catch (...) {
    unadmit(nreq);
    throw;
  }
  const FusedBatch<T>& batch = state->batch;
  state->faults = faults_;
  admitted_.fetch_add(nreq, std::memory_order_relaxed);

  const Clock::time_point admitted_at = Clock::now();
  const std::uint64_t adm_ns = elapsed_ns(t0, admitted_at);

  state->tickets.reserve(nreq);
  std::vector<std::future<void>> futures;
  futures.reserve(nreq);
  for (std::size_t r = 0; r < nreq; ++r) {
    auto ticket = std::make_shared<Ticket>();
    ticket->deadline = std::min(opts.deadline, requests[r].deadline);
    ticket->admitted_at = admitted_at;
    ticket->remaining.store(batch.plan.tasks_of(static_cast<int>(r)),
                            std::memory_order_relaxed);
    futures.push_back(ticket->promise.get_future());
    state->tickets.push_back(std::move(ticket));
    admission_wait_.record(adm_ns);
  }
  {
    // A deadline already expired at submit settles right here: its tasks
    // are still enqueued (keeping the batch layout uniform) but become
    // no-ops.
    MutexLock lk(gate_mu_);
    for (const auto& t : state->tickets) {
      ledger_.push_back(t);
      if (admitted_at >= t->deadline) settle_early_locked(*t, detail::CancelReason::kDeadline);
    }
    trim_ledger();
  }
  state->chunks_remaining.store(batch.nchunks(), std::memory_order_relaxed);
  batch.warm(pool_);

  // Per-request completion: the unit that takes `remaining` to zero wins
  // the ticket's settle CAS (unless a shed / deadline / shutdown settled
  // it first, in which case the work was skipped). The first failing unit
  // of a request claims the error slot (CAS), writes the exception_ptr,
  // and the acq_rel decrement chain publishes it to whichever unit settles
  // — so a failure surfaces on its own request's future and never on the
  // (discarded) pool-level batch future or on a sibling request.
  Server* const server = this;
  auto run_unit = [state, server](BatchUnit unit, runtime::TaskContext& ctx) {
    Ticket& ticket = *state->tickets[static_cast<std::size_t>(unit.req)];
    if (ticket.cancelled.load(std::memory_order_acquire)) {
      ticket.skipped.store(true, std::memory_order_relaxed);
    } else {
      const SteadyClock::time_point now = SteadyClock::now();
      if (now >= ticket.deadline) {
        // Expired before this unit computed: skip the leaf GEMMs (any
        // remaining units skip too) and settle with DeadlineExceeded —
        // here if no unit started, else when the request retires.
        ticket.skipped.store(true, std::memory_order_relaxed);
        server->settle_early(ticket, detail::CancelReason::kDeadline);
      } else {
        std::int64_t expected = -1;
        if (ticket.started_ns.compare_exchange_strong(expected, ns_of(now))) {
          server->queue_wait_.record(elapsed_ns(ticket.admitted_at, now));
        }
        // Re-checked after publishing the start (seq_cst, see
        // RequestTicket::cancel): a cancel that missed the start was
        // allowed to settle, so this unit must not touch the buffers.
        if (ticket.cancelled.load()) {
          ticket.skipped.store(true, std::memory_order_relaxed);
        } else {
          try {
            if constexpr (fault::kEnabled) {
              if (state->faults) {
                state->faults->maybe_slow_task();
                state->faults->maybe_throw_leaf();
              }
            }
            state->batch.run_unit(unit, ctx);
          } catch (...) {
            bool claimed = false;
            if (ticket.failed.compare_exchange_strong(claimed, true,
                                                      std::memory_order_relaxed)) {
              ticket.error = std::current_exception();
            }
          }
        }
      }
    }
    if (ticket.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (!server->claim_and_release(ticket)) return;
    if (ticket.skipped.load(std::memory_order_relaxed)) {
      // A cancel deferred to here: every unit is done with the buffers.
      server->settle_cancelled(ticket, ticket.reason.load(std::memory_order_relaxed));
      return;
    }
    server->completed_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t started = ticket.started_ns.load(std::memory_order_acquire);
    if (started >= 0) {
      const std::int64_t done = ns_of(SteadyClock::now());
      server->compute_.record(done > started ? static_cast<std::uint64_t>(done - started) : 0);
    }
    if (ticket.failed.load(std::memory_order_relaxed)) {
      ticket.promise.set_exception(ticket.error);
    } else {
      ticket.promise.set_value();
    }
  };
  auto body = [state, server, run_unit](int t, runtime::TaskContext& ctx) {
    for (const BatchUnit& unit : state->batch.units_of(t)) run_unit(unit, ctx);
    if (state->chunks_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      server->on_batch_retired();
    }
  };

  runtime::ThreadPool::SubmitOptions pool_opts;
  pool_opts.priority = std::max(opts.priority, batch.priority);
  pool_opts.preferred_node = batch.node_hint(pool_.numa_nodes());
  pool_.submit(batch.nchunks(), std::move(body), pool_opts);
  return futures;
}

template <typename T>
std::vector<std::future<void>> Server::submit_batch(std::span<const AtaRequest<T>> requests) {
  SharedOptions opts;
  opts.threads = 1;
  opts.oversub = 1;
  return submit_batch(requests, opts);
}

#define ATALIB_API_SERVER_INST(T)                                                      \
  template std::future<void> Server::submit<T>(T, ConstMatrixView<T>, MatrixView<T>,   \
                                               SharedOptions);                         \
  template std::future<void> Server::submit<T>(T, ConstMatrixView<T>, MatrixView<T>);  \
  template std::vector<std::future<void>> Server::submit_batch<T>(                     \
      std::span<const AtaRequest<T>>, SharedOptions);                                  \
  template std::vector<std::future<void>> Server::submit_batch<T>(                     \
      std::span<const AtaRequest<T>>)
ATALIB_API_SERVER_INST(float);
ATALIB_API_SERVER_INST(double);
#undef ATALIB_API_SERVER_INST

}  // namespace atalib::api
