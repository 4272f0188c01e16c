#pragma once
// The fused batch: the one execution core of shared-mode AtA (DESIGN.md §8).
//
// Serving thousands of small Grams per second is bound by per-request
// overhead, so requests run as ONE executor batch. BatchPlan groups them by
// plan-cache key (one lookup per *distinct shape per batch*) and flattens
// their tasks into one index space; FusedBatch orders those tasks by
// priority, chunks them, warms the executor once and hints each chunk to a
// NUMA node. Its tasks share the per-slot pack buffers and arenas, so a
// warm batch performs zero schedule builds, zero workspace slab
// allocations, and zero thread-local pack allocations however many
// requests it carries. api::execute runs a one-request FusedBatch;
// Server::submit_batch wraps each unit with admission, tickets and
// deadlines. One batch shares a scalar type (the dtype is in every plan
// key) but not a shape: mixed shapes simply form more groups.

#include <memory>
#include <span>
#include <vector>

#include "api/plan_cache.hpp"
#include "runtime/executor.hpp"

namespace atalib::api {

/// One lower(C) += alpha * A^T A request of a batch. The caller owns `a`
/// and `c`; both must stay valid until the request's future is ready, and
/// no two in-flight requests may alias an output.
template <typename T>
struct AtaRequest {
  T alpha = T(1);
  ConstMatrixView<T> a;
  MatrixView<T> c;
  /// Per-request QoS (api::Server; DESIGN.md §10). The batch's pool
  /// priority is the max over its requests and the SharedOptions priority;
  /// within the batch, higher-priority requests' tasks are ordered first.
  int priority = 0;
  /// Absolute steady-clock deadline; effective deadline is the min of this
  /// and SharedOptions::deadline. Expired requests settle with
  /// DeadlineExceeded without running their leaf GEMMs.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
};

/// The fused execution shape of one batch: the distinct plans it touches
/// and the request -> plan assignment, plus the flattened task count the
/// executor batch runs. Built by build_batch_plan; immutable afterwards.
struct BatchPlan {
  /// Distinct plans, in first-appearance order.
  std::vector<std::shared_ptr<const AtaPlan>> plans;
  /// plans[] index serving each request (parallel to the request span).
  std::vector<int> plan_of_request;
  /// Per-request offset into the flat task index space; back() is the
  /// total task count of the fused batch.
  std::vector<int> task_offset;
  /// Max workspace_bound() over plans[] — what the executor is warmed to
  /// once per batch.
  std::size_t workspace_bound = 0;

  int total_tasks() const { return task_offset.empty() ? 0 : task_offset.back(); }
  int tasks_of(int req) const {
    const auto r = static_cast<std::size_t>(req);
    return task_offset[r + 1] - task_offset[r];
  }
  const AtaPlan& plan_of(int req) const {
    return *plans[static_cast<std::size_t>(plan_of_request[static_cast<std::size_t>(req)])];
  }
};

/// Group `requests` by plan key through `cache` and validate every request
/// against its plan (std::invalid_argument on any dtype/shape mismatch —
/// thrown before anything executes, so a rejected batch is all-or-nothing).
/// `opts` must already be validated; opts.executor is ignored. Cache
/// accounting: one hit-or-miss per distinct shape in the batch.
template <typename T>
BatchPlan build_batch_plan(PlanCache& cache, std::span<const AtaRequest<T>> requests,
                           const SharedOptions& opts);

/// One unit of fused work: task `local` of request `req`'s plan.
struct BatchUnit {
  int req;
  int local;
};

/// One executor task of a fused batch: a run of consecutive units.
/// Consecutive single-task same-plan requests share one executor task, so
/// the per-task overhead (queue round-trip, wake-up) is paid once per
/// chunk, not once per tiny request; multi-task plans keep one unit per
/// task so their stripes spread over the slots.
struct BatchChunk {
  int first_unit;
  int nunits;
};

/// A BatchPlan and its requests laid out for an executor: executor task
/// `t` runs units_of(t). Units are ordered by request priority (stable, so
/// FIFO within a class); `concurrency` (the executor's slots) sizes the
/// chunks. A one-request batch has chunk t == task t.
template <typename T>
struct FusedBatch {
  FusedBatch(BatchPlan plan, std::span<const AtaRequest<T>> requests, int concurrency);
  /// node_hint() hands out `this`, so a batch stays where it was built.
  FusedBatch(const FusedBatch&) = delete;
  FusedBatch& operator=(const FusedBatch&) = delete;

  BatchPlan plan;
  std::vector<AtaRequest<T>> requests;
  std::vector<BatchUnit> units;
  std::vector<BatchChunk> chunks;
  /// Max request priority: a mixed batch competes at its most urgent class.
  int priority = 0;

  int nchunks() const { return static_cast<int>(chunks.size()); }
  std::span<const BatchUnit> units_of(int chunk) const {
    const BatchChunk ch = chunks[static_cast<std::size_t>(chunk)];
    return std::span<const BatchUnit>(units).subspan(static_cast<std::size_t>(ch.first_unit),
                                                     static_cast<std::size_t>(ch.nunits));
  }

  /// Pre-grow every executor slot to plan.workspace_bound (no-op once warm).
  void warm(runtime::Executor& exec) const;
  /// Per-chunk NUMA hint, empty (block distribution) when nnodes <= 1: a
  /// request's stripes keep its plan's stripe->node mapping, rotated by the
  /// request index. Refers to this batch; must not outlive it.
  runtime::Executor::NodeHintFn node_hint(int nnodes) const;
  void run_unit(BatchUnit unit, runtime::TaskContext& ctx) const;
};

#define ATALIB_API_BATCH_EXTERN(T)                                       \
  extern template BatchPlan build_batch_plan<T>(                         \
      PlanCache&, std::span<const AtaRequest<T>>, const SharedOptions&); \
  extern template struct FusedBatch<T>
ATALIB_API_BATCH_EXTERN(float);
ATALIB_API_BATCH_EXTERN(double);
#undef ATALIB_API_BATCH_EXTERN

}  // namespace atalib::api
