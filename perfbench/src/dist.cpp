// dist_ranks: back-to-back dist::ata_dist calls on P = 4 simulated ranks.

#include <algorithm>

#include "api/plan_cache.hpp"
#include "dist/ata_dist.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

void run_dist(const Args& args, Report& rep) {
  const index_t m = 4096, n = 2048;
  atalib::dist::DistOptions opts;
  opts.procs = 4;
  opts.alpha = 0.5;

  const auto a = gaussian_matrix<double>(m, n, args.seed, 3);
  LayerValues lv;
  if (args.mode == Mode::kTrace) probe_tuner(lv, false);

  const double t0 = now_s();
  const auto first = atalib::dist::ata_dist(1.0, a, opts);
  const double setup_s = now_s() - t0;

  const auto key = atalib::api::dist_plan_key(atalib::api::Dtype::kF64, m, n, opts);
  rep.info("planner.engine", engine_name(key.engine));
  rep.info("planner.base_elements", static_cast<double>(key.base_case_elements));

  const auto ref = reference_gram<double>(a.view());
  double err = 0;
  if (!check_result<double>(first.c.view(), ref.view(), m, &err)) rep.wrong("set-up call");
  rep.info("setup.rel_error", err);

  // Traffic is a function of the shape alone: every call must repeat the
  // first call's exact counts.
  const std::uint64_t words = first.traffic.total_words();
  const std::uint64_t messages = first.traffic.total_messages();
  const std::uint64_t root_words = first.traffic.root_words();
  rep.info("mpisim.words", static_cast<double>(words));
  rep.info("mpisim.messages", static_cast<double>(messages));

  double max_err = err;
  std::vector<double> critical_s, wait_frac;  // of untraced calls
  const LoopCall call = [&](std::uint64_t i, Tracer* tr) {
    const double c0 = now_s();
    const auto r = atalib::dist::ata_dist(1.0, a, opts);
    const double c1 = now_s();
    if (!tr) {
      critical_s.push_back(r.critical_path_seconds());
      wait_frac.push_back(1.0 - r.critical_path_seconds() / r.seconds);
    }
    bool ok = check_result<double>(r.c.view(), ref.view(), m, &err);
    max_err = std::max(max_err, err);
    if (r.traffic.total_words() != words || r.traffic.total_messages() != messages) {
      rep.note("traffic differs from the first call on call " + std::to_string(i));
      ok = false;
    }
    rep.record(ok, !ok);
    if (tr) {
      tr->add({"api", c0, c1, -1, i, 0});
      tr->add({"bench.verify", c1, now_s(), -1, i, 0});
    }
    return c1 - c0;
  };

  if (args.mode == Mode::kRun) {
    run_closed_loop(args, rep, setup_s, m, n, call);
    rep.info("max_rel_error", max_err);
    return;
  }

  const std::uint64_t builds0 = schedule_builds();
  const auto plans0 = atalib::api::PlanCache::global().stats();
  Tracer tracer;
  const TracedLoop t = trace_closed_loop(args, tracer, call);
  add_plan_hits(lv, plans0, atalib::api::PlanCache::global().stats());
  lv["sched.steady_builds"] = static_cast<double>(schedule_builds() - builds0);
  rep.info("max_rel_error", max_err);

  probe_kernels<double>(lv, key, heaviest_ops(*atalib::api::AtaPlan::build(key)), a.view());
  lv["mpisim.words"] = static_cast<double>(words);
  lv["mpisim.messages"] = static_cast<double>(messages);
  lv["mpisim.root_words"] = static_cast<double>(root_words);
  lv["dist.critical_path_s"] = median(critical_s);
  lv["dist.wait_frac"] = median(wait_frac);
  finish_traced_loop(args, rep, lv, tracer, t);
}

}  // namespace perfbench
