#pragma once
// The four workloads (README.md says why each exists). Each fills `rep`
// according to args.mode and returns normally; wrong outputs are recorded
// in the report, which makes the process exit nonzero.

#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

void run_gram(const Args& args, bool tall, Report& rep);
void run_dist(const Args& args, Report& rep);
void run_serve(const Args& args, Report& rep);

// ---- closed loops (gram_square, gram_tall, dist_ranks) ----------------------

/// Call `i` (from 1) of a closed-loop pass, traced into `tr` when it is not
/// null. It checks its own output (recording it in the report) outside the
/// time it returns: the call's wall time in seconds.
using LoopCall = std::function<double(std::uint64_t i, Tracer* tr)>;

/// Per-call wall times of the traced run's passes.
struct TracedLoop {
  std::vector<double> plain_s;   ///< both untraced quarters
  std::vector<double> traced_s;  ///< the traced half
  double w0 = 0, w1 = 0;         ///< wall interval of the traced half
};

/// --mode run: back-to-back calls for args.seconds, then the end-to-end
/// metrics: setup_s, the call metrics (emit_call_metrics), fail_ratio and
/// peak_rss_mib.
void run_closed_loop(const Args& args, Report& rep, double setup_s, index_t m, index_t n,
                     const LoopCall& call);

/// --mode trace: an untraced quarter, a traced half and an untraced quarter
/// of args.seconds, so slow drift of the host does not read as tracing
/// overhead.
TracedLoop trace_closed_loop(const Args& args, Tracer& tracer, const LoopCall& call);

/// The end of a traced closed loop: span summary, tracing overhead
/// (traced minus untraced median call), the per-layer metrics and the
/// Chrome-trace file.
void finish_traced_loop(const Args& args, Report& rep, LayerValues& lv, const Tracer& tracer,
                        const TracedLoop& t);

/// The end-to-end metrics a closed loop of calls reports, from its per-call
/// times in seconds: gflops (metrics::effective_gflops(1, m, n, n, median
/// call)), call_ms_*, req_us_* (a call is the request) and max_rps (calls
/// per second of library time).
void emit_call_metrics(Report& rep, const std::vector<double>& call_s, index_t m, index_t n);

}  // namespace perfbench
