// gram_square and gram_tall: back-to-back ata_shared calls from one caller
// (a closed loop) on one seeded Gaussian input.

#include <algorithm>

#include "api/plan_cache.hpp"
#include "inputs.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct PoolCounters {
  std::uint64_t steals = 0;
  atalib::api::PlanCacheStats plans;
  std::uint64_t builds = 0;
};

PoolCounters read_counters() {
  return {atalib::runtime::ThreadPool::global().steals(), atalib::api::PlanCache::global().stats(),
          schedule_builds()};
}

}  // namespace

void run_gram(const Args& args, bool tall, Report& rep) {
  const index_t m = tall ? 131072 : 3072;
  const index_t n = tall ? 128 : 3072;
  atalib::SharedOptions opts;
  opts.threads = 4;
  opts.oversub = tall ? 1 : 2;

  const auto a = gaussian_matrix<double>(m, n, args.seed, tall ? 2 : 1);
  auto c = atalib::Matrix<double>::zeros(n, n);
  const auto reset = [&] { std::fill(c.data(), c.data() + c.size(), 0.0); };

  LayerValues lv;
  if (args.mode == Mode::kTrace) probe_tuner(lv, false);

  // Set-up: the first call pays tuning, the plan build, workspace growth
  // and the first compute.
  const double t0 = now_s();
  atalib::ata_shared(1.0, a.view(), c.view(), opts);
  const double setup_s = now_s() - t0;

  const PlannerPick pick = planner_pick(false, m, n, opts);
  rep.info("planner.engine", pick.engine);
  rep.info("planner.base_elements", static_cast<double>(pick.base_elements));
  rep.info("planner.ts_ratio", static_cast<double>(pick.ts_ratio));

  const auto ref = reference_gram<double>(a.view());
  double err = 0;
  if (!check_result<double>(c.view(), ref.view(), m, &err)) rep.wrong("set-up call");
  rep.info("setup.rel_error", err);

  // A traced call gets an "api" span, its tasks "runtime.task" spans
  // (through the timing executor), and the benchmark's own reset/verify
  // "bench.*" spans.
  Tracer tracer;
  TracingExecutor ex(atalib::runtime::default_executor(), tracer);
  atalib::SharedOptions traced_opts = opts;
  traced_opts.executor = &ex;
  double max_err = err;
  std::vector<double> busy_s, wait_s, imbalance;
  const LoopCall call = [&](std::uint64_t i, Tracer* tr) {
    const double r0 = now_s();
    reset();
    const double c0 = now_s();
    int span = -1;
    if (tr) {
      tr->add({"bench.reset", r0, c0, -1, i, 0});
      span = tr->add({"api", c0, c0, -1, i, 0});
      ex.set_parent(span, i);
    }
    atalib::ata_shared(1.0, a.view(), c.view(), tr ? traced_opts : opts);
    const double c1 = now_s();
    const bool ok = check_result<double>(c.view(), ref.view(), m, &err);
    max_err = std::max(max_err, err);
    rep.record(ok, !ok);
    if (tr) {
      tr->close(span, c1);
      tr->add({"bench.verify", c1, now_s(), -1, i, 0});
      const TracingExecutor::CallStats cs = ex.take();
      busy_s.push_back(cs.busy_s);
      wait_s.push_back(cs.wait_s);
      imbalance.push_back(cs.imbalance);
    }
    return c1 - c0;
  };

  if (args.mode == Mode::kRun) {
    run_closed_loop(args, rep, setup_s, m, n, call);
    rep.info("max_rel_error", max_err);
    return;
  }

  const PoolCounters before = read_counters();
  const TracedLoop t = trace_closed_loop(args, tracer, call);
  const PoolCounters after = read_counters();
  rep.info("max_rel_error", max_err);

  const auto key = atalib::api::shared_plan_key(atalib::api::Dtype::kF64, m, n, opts);
  const auto ops = heaviest_ops(*atalib::api::AtaPlan::build(key));
  probe_kernels<double>(lv, key, ops, a.view());
  add_plan_hits(lv, before.plans, after.plans);
  lv["sched.steady_builds"] = static_cast<double>(after.builds - before.builds);
  lv["runtime.task_busy_s"] = median(busy_s);
  lv["runtime.task_wait_s"] = median(wait_s);
  lv["runtime.imbalance"] = median(imbalance);
  lv["runtime.steals"] = static_cast<double>(after.steals - before.steals);
  finish_traced_loop(args, rep, lv, tracer, t);
}

}  // namespace perfbench
