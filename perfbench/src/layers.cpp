#include "layers.hpp"

#include <algorithm>
#include <utility>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "blas/panel_syrk.hpp"
#include "blas/syrk.hpp"
#include "parallel/leaf_exec.hpp"
#include "sched/dist_tree.hpp"
#include "sched/shared_schedule.hpp"
#include "strassen/options.hpp"
#include "strassen/workspace.hpp"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in its order.
constexpr LayerMetric kLayerMetrics[] = {
    {"strassen.tune_s", "s"},
    {"strassen.base_elements", "count"},
    {"strassen.ts_ratio", "count"},
    {"strassen.leaf_vs_blas", "ratio"},
    {"blas.gemm_gflops", "GFLOP/s"},
    {"blas.syrk_gflops", "GFLOP/s"},
    {"blas.panel_gflops", "GFLOP/s"},
    {"blas.combine_gbps", "GB/s"},
    {"api.plan_build_s", "s"},
    {"api.plan_hit_ratio", "ratio"},
    {"api.admission_wait_us_p99", "us"},
    {"api.queue_wait_us_p99", "us"},
    {"api.compute_us_p50", "us"},
    {"sched.steady_builds", "count"},
    {"runtime.task_busy_s", "s"},
    {"runtime.task_wait_s", "s"},
    {"runtime.imbalance", "ratio"},
    {"runtime.steals", "count"},
    {"mpisim.words", "count"},
    {"mpisim.messages", "count"},
    {"mpisim.root_words", "count"},
    {"dist.critical_path_s", "s"},
    {"dist.wait_frac", "ratio"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.self_s.loadgen", "s"},
    {"trace.self_s.api", "s"},
    {"trace.self_s.runtime", "s"},
    {"trace.self_s.server", "s"},
    {"trace.self_s.bench", "s"},
    {"trace.uncovered_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

/// Seconds per call of fn, repeated until `budget` seconds have passed.
template <typename Fn>
double time_per_call(Fn&& fn, double budget) {
  fn();  // warm caches and thread-local pack buffers
  int calls = 0;
  const double t0 = now_s();
  double t = t0;
  do {
    fn();
    ++calls;
    t = now_s();
  } while (t - t0 < budget);
  return (t - t0) / calls;
}

}  // namespace

void emit_layer_metrics(Report& rep, const LayerValues& v) {
  std::string missing;
  for (const auto& m : kLayerMetrics) {
    const auto it = v.find(m.name);
    if (it == v.end()) missing += std::string(missing.empty() ? "" : " ") + m.name;
    rep.metric(m.name, it == v.end() ? 0.0 : it->second, m.unit);
  }
  if (!missing.empty()) rep.info("n/a (reported as 0)", missing);
}

void probe_tuner(LayerValues& v, bool f32_too) {
  const double t0 = now_s();
  atalib::tuned_base_case_elements(sizeof(double));
  atalib::tuned_tall_skinny_ratio(sizeof(double));
  if (f32_too) {
    atalib::tuned_base_case_elements(sizeof(float));
    atalib::tuned_tall_skinny_ratio(sizeof(float));
  }
  v["strassen.tune_s"] = now_s() - t0;
}

std::vector<atalib::sched::LeafOp> heaviest_ops(const atalib::api::AtaPlan& plan) {
  const auto weight = [](const std::vector<atalib::sched::LeafOp>& ops) {
    double w = 0;
    for (const auto& op : ops) w += op.flops();
    return w;
  };
  std::vector<atalib::sched::LeafOp> best;
  if (plan.key().mode == atalib::api::PlanMode::kShared) {
    for (const auto& task : plan.schedule().tasks) {
      if (weight(task.ops) > weight(best)) best = task.ops;
    }
  } else {
    for (const auto& node : plan.tree().nodes) {
      if (node.kind == atalib::sched::DistNode::Kind::kLeaf && weight(node.ops) > weight(best)) {
        best = node.ops;
      }
    }
  }
  return best;
}

template <typename T>
void probe_panel(LayerValues& v, atalib::ConstMatrixView<T> stripe) {
  auto c = atalib::Matrix<T>::zeros(stripe.cols, stripe.cols);
  atalib::Arena<T> arena(static_cast<std::size_t>(
      atalib::blas::panel_syrk_workspace_bound<T>(stripe.rows, stripe.cols)));
  const double t = time_per_call(
      [&] {
        arena.reset();
        atalib::blas::panel_syrk_ln<T>(T(1), stripe, c.view(), &arena);
      },
      0.3);
  v["blas.panel_gflops"] =
      static_cast<double>(stripe.rows) * stripe.cols * (stripe.cols + 1) / t * 1e-9;
}

template <typename T>
void probe_kernels(LayerValues& v, const atalib::api::PlanKey& key,
                   const std::vector<atalib::sched::LeafOp>& ops, atalib::ConstMatrixView<T> a) {
  using atalib::index_t;
  using atalib::sched::LeafOp;
  const atalib::RecurseOptions rec = key.recurse();
  v["strassen.base_elements"] = static_cast<double>(key.base_case_elements);
  v["strassen.ts_ratio"] = static_cast<double>(key.tall_skinny_ratio);

  // Leaf replay: the same ops through run_leaf_kernel, Strassen vs blocked.
  auto c = atalib::Matrix<T>::zeros(a.cols, a.cols);
  const auto replay = [&](atalib::LeafEngine engine) {
    index_t ws = 0;
    for (const LeafOp& op : ops) {
      ws = std::max(ws, atalib::leaf_op_workspace<T>(op, engine, rec));
    }
    atalib::Arena<T> arena(static_cast<std::size_t>(ws));
    return time_per_call(
        [&] {
          for (const LeafOp& op : ops) {
            const auto av = a.block(op.a.r0, op.a.c0, op.a.rows, op.a.cols);
            const auto bv = op.kind == LeafOp::Kind::kGemm
                                ? a.block(op.b.r0, op.b.c0, op.b.rows, op.b.cols)
                                : av;
            auto cv = c.view().block(op.c.r0, op.c.c0, op.c.rows, op.c.cols);
            arena.reset();
            atalib::run_leaf_kernel<T>(T(1), av, bv, cv, op.kind, arena, engine, rec);
          }
        },
        0.3);
  };
  if (!ops.empty()) {
    v["strassen.leaf_vs_blas"] =
        replay(atalib::LeafEngine::kStrassen) / replay(atalib::LeafEngine::kBlas);
  }

  if (key.engine == atalib::LeafEngine::kPanelSyrk) {
    // The panel engine's leaves are the row-panel kernels: time them on
    // the A stripe of the first op.
    if (!ops.empty()) {
      const auto& s = ops.front().a;
      probe_panel<T>(v, a.block(s.r0, s.c0, s.rows, s.cols));
    }
  } else {
    // Base-case shape: halve the heaviest gemm op the way the recursion does
    // until the gemm base case fires; the same for the AtA (syrk) base case.
    index_t gm = 0, gn = 0, gk = 0, sm = a.rows, sn = a.cols;
    const auto volume = [](index_t m, index_t n, index_t k) {
      return static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
    };
    for (const LeafOp& op : ops) {
      if (op.kind == LeafOp::Kind::kGemm &&
          volume(op.a.rows, op.a.cols, op.b.cols) > volume(gm, gn, gk)) {
        gm = op.a.rows;
        gn = op.a.cols;
        gk = op.b.cols;
      } else if (op.kind == LeafOp::Kind::kSyrk) {
        sm = op.a.rows;
        sn = op.a.cols;
      }
    }
    const index_t base = key.base_case_elements;
    if (gm == 0) {  // no gemm op in the plan: use the syrk block's halves
      gm = sm;
      gn = gk = atalib::half_up(sn);
    }
    while (!atalib::gemm_base_case(gm, gn, gk, base, rec.min_dim)) {
      gm = atalib::half_up(gm);
      gn = atalib::half_up(gn);
      gk = atalib::half_up(gk);
    }
    while (!atalib::ata_base_case(sm, sn, base, rec.min_dim)) {
      sm = atalib::half_up(sm);
      sn = atalib::half_up(sn);
    }
    {
      const auto av = a.block(0, 0, gm, gn);
      const auto bv = a.block(0, 0, gm, gk);
      auto cg = atalib::Matrix<T>::zeros(gn, gk);
      atalib::Arena<T> arena(
          static_cast<std::size_t>(atalib::blas::gemm_workspace_bound<T>(gn, gk, gm)));
      const double t = time_per_call(
          [&] { atalib::blas::gemm_tn<T>(T(1), av, bv, cg.view(), &arena); }, 0.2);
      v["blas.gemm_gflops"] = 2.0 * gm * gn * gk / t * 1e-9;
    }
    {
      const auto av = a.block(0, 0, sm, sn);
      auto cs = atalib::Matrix<T>::zeros(sn, sn);
      atalib::Arena<T> arena(
          static_cast<std::size_t>(atalib::blas::syrk_workspace_bound<T>(sm, sn)));
      const double t = time_per_call(
          [&] { atalib::blas::syrk_ln<T>(T(1), av, cs.view(), &arena); }, 0.2);
      v["blas.syrk_gflops"] = static_cast<double>(sm) * sn * (sn + 1) / t * 1e-9;
    }
  }

  // Combine bandwidth at the top half-block; bytes computed from the sizes
  // (two operands read, one written), not measured.
  {
    const index_t h = a.rows / 2, w = a.cols / 2;
    const auto x = a.block(0, 0, h, w);
    const auto y = a.block(h, w, h, w);
    atalib::Matrix<T> dst(h, w);
    bool add = true;
    const double t = time_per_call(
        [&] {
          if (add) {
            atalib::blas::block_add<T>(x, y, dst.view());
          } else {
            atalib::blas::block_sub<T>(x, y, dst.view());
          }
          add = !add;
        },
        0.2);
    v["blas.combine_gbps"] = 3.0 * h * w * sizeof(T) / t * 1e-9;
  }

  // Cold plan build (not through the cache, so no counter of the cached
  // path moves); median of three.
  std::vector<double> builds;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    auto plan = atalib::api::AtaPlan::build(key);
    builds.push_back(now_s() - t0);
  }
  v["api.plan_build_s"] = median(builds);
}

std::uint64_t schedule_builds() {
  return atalib::sched::shared_schedule_builds() + atalib::sched::dist_tree_builds();
}

void add_plan_hits(LayerValues& v, const atalib::api::PlanCacheStats& before,
                   const atalib::api::PlanCacheStats& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto lookups = hits + static_cast<double>(after.misses - before.misses);
  v["api.plan_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
}

void add_trace_summary(LayerValues& v, const TraceSummary& s) {
  const auto self = [&](const char* name) {
    const auto it = s.self_s.find(name);
    return it == s.self_s.end() ? 0.0 : it->second;
  };
  v["trace.self_s.loadgen"] = self("loadgen");
  v["trace.self_s.api"] = self("api");
  v["trace.self_s.runtime"] = self("runtime.task");
  v["trace.self_s.server"] = self("server");
  v["trace.self_s.bench"] = self("bench.reset") + self("bench.verify");
  v["trace.uncovered_s"] = s.uncovered_s;
  v["trace.spans"] = static_cast<double>(s.spans);
}

template void probe_kernels<float>(LayerValues&, const atalib::api::PlanKey&,
                                   const std::vector<atalib::sched::LeafOp>&,
                                   atalib::ConstMatrixView<float>);
template void probe_kernels<double>(LayerValues&, const atalib::api::PlanKey&,
                                    const std::vector<atalib::sched::LeafOp>&,
                                    atalib::ConstMatrixView<double>);
template void probe_panel<float>(LayerValues&, atalib::ConstMatrixView<float>);
template void probe_panel<double>(LayerValues&, atalib::ConstMatrixView<double>);

}  // namespace perfbench
