#include "api/batch.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <unordered_map>

#include "api/execute.hpp"

namespace atalib::api {

template <typename T>
BatchPlan build_batch_plan(PlanCache& cache, std::span<const AtaRequest<T>> requests,
                           const SharedOptions& opts) {
  BatchPlan batch;
  batch.plan_of_request.reserve(requests.size());
  batch.task_offset.reserve(requests.size() + 1);
  batch.task_offset.push_back(0);

  // Group by plan key: one PlanCache round-trip per distinct shape in the
  // batch, however many requests share it. The local index is keyed by
  // (m, n) only — every other key component is fixed by `opts` and T.
  std::unordered_map<std::uint64_t, int> group_of_shape;
  for (const AtaRequest<T>& req : requests) {
    const std::uint64_t shape = (static_cast<std::uint64_t>(req.a.rows) << 32) |
                                (static_cast<std::uint64_t>(req.a.cols) & 0xffffffffu);
    auto [it, fresh] = group_of_shape.try_emplace(
        shape, static_cast<int>(batch.plans.size()));
    if (fresh) {
      auto plan = cache.get_or_build(
          shared_plan_key(dtype_of<T>(), req.a.rows, req.a.cols, opts));
      batch.workspace_bound = std::max(batch.workspace_bound, plan->workspace_bound());
      batch.plans.push_back(std::move(plan));
    }
    const auto& plan = *batch.plans[static_cast<std::size_t>(it->second)];
    check_shared<T>(plan, req.a, req.c);
    batch.plan_of_request.push_back(it->second);
    batch.task_offset.push_back(batch.task_offset.back() +
                                static_cast<int>(plan.schedule().tasks.size()));
  }
  return batch;
}

template <typename T>
FusedBatch<T>::FusedBatch(BatchPlan plan_in, std::span<const AtaRequest<T>> reqs,
                          int concurrency)
    : plan(std::move(plan_in)), requests(reqs.begin(), reqs.end()) {
  std::vector<int> order(requests.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int x, int y) {
    return requests[static_cast<std::size_t>(x)].priority >
           requests[static_cast<std::size_t>(y)].priority;
  });
  if (!order.empty()) priority = requests[static_cast<std::size_t>(order.front())].priority;
  const int total = plan.total_tasks();
  units.reserve(static_cast<std::size_t>(total));
  for (int r : order) {
    for (int local = 0; local < plan.tasks_of(r); ++local) units.push_back({r, local});
  }

  // Serial (single-task) requests coalesce into runs of up to
  // `chunk_target` consecutive same-plan units; multi-task plans stay one
  // unit per executor task so their stripes spread over the slots.
  const int chunk_target = std::clamp(total / (std::max(1, concurrency) * 8), 1, 64);
  for (int u = 0; u < total;) {
    const int req = units[static_cast<std::size_t>(u)].req;
    const int plan_idx = plan.plan_of_request[static_cast<std::size_t>(req)];
    int len = 1;
    if (plan.tasks_of(req) == 1) {
      while (u + len < total && len < chunk_target) {
        const int next = units[static_cast<std::size_t>(u + len)].req;
        if (plan.plan_of_request[static_cast<std::size_t>(next)] != plan_idx ||
            plan.tasks_of(next) != 1) {
          break;
        }
        ++len;
      }
    }
    chunks.push_back({u, len});
    u += len;
  }
}

template <typename T>
void FusedBatch<T>::warm(runtime::Executor& exec) const {
  if (plan.workspace_bound == 0) return;  // the BLAS engine is allocation-free
  if constexpr (std::is_same_v<T, float>) {
    exec.warm_workspaces(plan.workspace_bound, 0);
  } else {
    exec.warm_workspaces(0, plan.workspace_bound);
  }
}

template <typename T>
runtime::Executor::NodeHintFn FusedBatch<T>::node_hint(int nnodes) const {
  if (nnodes <= 1) return {};
  return [this, nnodes](int t) {
    const BatchUnit unit = units_of(t).front();
    return (unit.req + plan.plan_of(unit.req).preferred_node(unit.local, nnodes)) % nnodes;
  };
}

template <typename T>
void FusedBatch<T>::run_unit(BatchUnit unit, runtime::TaskContext& ctx) const {
  const AtaRequest<T>& r = requests[static_cast<std::size_t>(unit.req)];
  run_plan_task(plan.plan_of(unit.req), unit.local, r.alpha, r.a, r.c, ctx);
}

#define ATALIB_API_BATCH_INST(T)                                         \
  template BatchPlan build_batch_plan<T>(                                \
      PlanCache&, std::span<const AtaRequest<T>>, const SharedOptions&); \
  template struct FusedBatch<T>
ATALIB_API_BATCH_INST(float);
ATALIB_API_BATCH_INST(double);
#undef ATALIB_API_BATCH_INST

}  // namespace atalib::api
