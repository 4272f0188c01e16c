// The closed-loop driver gram_square, gram_tall and dist_ranks share:
// back-to-back calls from one caller, the untraced / traced passes and the
// metrics a loop of calls reports.

#include <cstdio>

#include "metrics/flops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::vector<double> pass(double seconds, Tracer* tr, const LoopCall& call) {
  std::vector<double> call_s;
  const double start = now_s();
  for (std::uint64_t i = 1; now_s() - start < seconds; ++i) call_s.push_back(call(i, tr));
  return call_s;
}

}  // namespace

void emit_call_metrics(Report& rep, const std::vector<double>& call_s, index_t m, index_t n) {
  const double p50 = median(call_s);
  const Tail tail = tail_of(call_s);
  double total = 0;
  for (double s : call_s) total += s;
  rep.metric("gflops", atalib::metrics::effective_gflops(1, m, n, n, p50), "GFLOP/s");
  rep.metric("call_ms_p50", p50 * 1e3, "ms");
  rep.metric("call_ms_tail", tail.value * 1e3, "ms");
  rep.metric("req_us_p50", p50 * 1e6, "us");
  rep.metric("req_us_p99", tail.value * 1e6, "us");
  rep.metric("max_rps", static_cast<double>(call_s.size()) / total, "1/s");
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.1f of %zu calls (req_us_p99 is the same sample)", tail.pct,
                tail.n);
  rep.info("call_ms_tail", buf);
}

void run_closed_loop(const Args& args, Report& rep, double setup_s, index_t m, index_t n,
                     const LoopCall& call) {
  const std::vector<double> call_s = pass(args.seconds, nullptr, call);
  rep.metric("setup_s", setup_s, "s");
  emit_call_metrics(rep, call_s, m, n);
  rep.metric("fail_ratio", rep.fail_ratio(), "ratio");
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

TracedLoop trace_closed_loop(const Args& args, Tracer& tracer, const LoopCall& call) {
  TracedLoop t;
  t.plain_s = pass(args.seconds / 4, nullptr, call);
  t.w0 = now_s();
  t.traced_s = pass(args.seconds / 2, &tracer, call);
  t.w1 = now_s();
  const std::vector<double> plain2 = pass(args.seconds / 4, nullptr, call);
  t.plain_s.insert(t.plain_s.end(), plain2.begin(), plain2.end());
  return t;
}

void finish_traced_loop(const Args& args, Report& rep, LayerValues& lv, const Tracer& tracer,
                        const TracedLoop& t) {
  add_trace_summary(lv, tracer.summarize(t.w0, t.w1));
  lv["trace.overhead_s"] = median(t.traced_s) - median(t.plain_s);
  lv["trace.overhead_frac"] = median(t.traced_s) / median(t.plain_s) - 1;
  emit_layer_metrics(rep, lv);
  if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out)) {
    rep.note("could not write " + args.trace_out);
  }
}

}  // namespace perfbench
