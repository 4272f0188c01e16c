#pragma once
// Per-layer metrics of the traced run (--mode trace). Every workload prints
// the same list; a metric that has no meaning on a workload (mpisim words
// on a shared-memory run, say) reads 0 and is listed as "n/a" in the text
// output. README.md says which end-to-end metric each should move, and on
// which workload.

#include <map>
#include <string>
#include <vector>

#include "api/plan.hpp"
#include "api/plan_cache.hpp"
#include "common.hpp"
#include "sched/task.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer values by metric name; unset names are reported as n/a.
using LayerValues = std::map<std::string, double>;

/// Print every per-layer metric, in the fixed order BENCHMARK.json lists.
void emit_layer_metrics(Report& rep, const LayerValues& v);

/// Time the first tuner calls (the measured cut-off and tall-skinny ratio
/// for one scalar type); stores strassen.tune_s. Must run before any other
/// library call of the process to see the cold cost.
void probe_tuner(LayerValues& v, bool f32_too);

/// The resolved planner decisions of `key` (strassen.base_elements,
/// strassen.ts_ratio), the leaf kernel rates (gemm/syrk at the recursion's
/// base-case shape, or the panel kernel for a panel-SYRK plan), the add/sub
/// combine bandwidth on the top half-block of `a`, the leaf replay ratio
/// over `ops` and a cold AtaPlan::build. `a` is the workload's input.
template <typename T>
void probe_kernels(LayerValues& v, const atalib::api::PlanKey& key,
                   const std::vector<atalib::sched::LeafOp>& ops,
                   atalib::ConstMatrixView<T> a);

/// The ops of the heaviest task of a shared plan, or of the heaviest leaf
/// of a dist plan.
std::vector<atalib::sched::LeafOp> heaviest_ops(const atalib::api::AtaPlan& plan);

/// Lifetime schedule + distribution-tree builds of this process; its delta
/// over a timed phase is sched.steady_builds.
std::uint64_t schedule_builds();

/// api.plan_hit_ratio: plan-cache hits over lookups between two snapshots.
void add_plan_hits(LayerValues& v, const atalib::api::PlanCacheStats& before,
                   const atalib::api::PlanCacheStats& after);

/// Span self times, uncovered wall time and span count under trace.*.
void add_trace_summary(LayerValues& v, const TraceSummary& s);

}  // namespace perfbench
