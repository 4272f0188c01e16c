// Figure 4 — sequential FastStrassen vs ?gemm: elapsed time (a) and
// effective GFLOPs (b) over growing square size, double precision.
//
// Paper setup: Intel MKL dgemm as the cubic baseline. Here the baseline is
// the same blocked gemm kernel Strassen bottoms out in. Paper shape:
// crossover after which Strassen wins, margin growing with n. The
// pre-allocation claim of §3.3 is quantified separately in
// ablation_workspace.
//
// Two Strassen columns: the planner (a default-options call, so the
// measured tuner's cut-off unless --base-elements pins one) and a forced
// recursion at the static L2-probe cut-off, so the paper's Strassen curve
// stays visible even on hosts where the tuner never lets the recursion in.
// At every n the planner either fires the base case — one plain gemm_tn
// leaf, checked structurally — or its median paired gemm/planner ratio is
// at least kPlannerFloor; otherwise the bench exits nonzero.
//
// Besides the automatic (cpuid-best) dispatch, the forced recursion is
// also timed with every leaf pinned to the scalar microkernel tier, so the
// --json output (BENCH_strassen.json) carries the registry-vs-scalar-leaf
// speedup of the whole engine.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "common/timer.hpp"
#include "metrics/flops.hpp"
#include "strassen/strassen.hpp"
#include "strassen/workspace.hpp"

int main(int argc, char** argv) {
  using namespace atalib;

  CliFlags flags;
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const int reps = static_cast<int>(flags.get_int("reps"));
  const RecurseOptions planner = bench::recurse_from_flags(flags);
  const index_t planner_cut = planner.resolved_base_elements(sizeof(double));
  RecurseOptions forced;
  forced.base_case_elements = static_cast<index_t>(default_base_case_elements(sizeof(double)));
  bench::JsonWriter json(flags.get_string("json"));

  bench::print_banner("Sequential FastStrassen vs blocked gemm (double, C += A^T B)",
                      "Figure 4 (a) + (b)");
  std::printf("tuner crossover: %s\n",
              bench::tuner_crossover_text(tuned_base_case_elements(sizeof(double))).c_str());
  std::printf("forced recursion cut-off (L2 probe): %ld elements\n",
              static_cast<long>(forced.base_case_elements));

  const blas::kernels::Isa active = blas::kernels::active_config<double>().isa;
  const std::string dispatch = blas::kernels::isa_name(active);
  const bool have_simd = active != blas::kernels::Isa::kScalar;

  Table table("Fig. 4: time and effective GFLOPs vs matrix size (r = 2)");
  table.set_header({"n", "planner (s)", "forced (s)", "gemm (s)", "planner EG", "forced EG",
                    "gemm EG", "gemm/planner", "gemm/forced", "planner runs",
                    "vs scalar-leaf"});

  bool planner_ok = true;
  double last_speedup = 0.0;
  for (index_t base : {256, 384, 512, 768, 1024, 1280, 1536, 1792, 2048}) {
    const index_t n = bench::scaled(base, scale);
    const auto a = random_uniform<double>(n, n, 200 + n);
    const auto b = random_uniform<double>(n, n, 300 + n);

    auto c = Matrix<double>::zeros(n, n);
    // One pre-sized arena (§3.3) shared by every column: each times its
    // algorithm, not a workspace malloc per call, and all pack into the
    // same memory, so buffer placement cannot tilt the comparison.
    Arena<double> arena(static_cast<std::size_t>(
        std::max({strassen_workspace_bound(n, n, n, planner, sizeof(double)),
                  strassen_workspace_bound(n, n, n, forced, sizeof(double)),
                  blas::gemm_workspace_bound<double>(n, n, n)})));
    const auto strassen_with = [&](const RecurseOptions& opts) {
      return [&, op = &opts] {
        fill_view(c.view(), 0.0);
        strassen_tn(1.0, a.const_view(), b.const_view(), c.view(), arena, *op);
      };
    };
    const auto t = interleaved_samples(reps, bench::kMinSampleSeconds, strassen_with(planner),
                                       strassen_with(forced), [&] {
                                         fill_view(c.view(), 0.0);
                                         blas::gemm_tn(1.0, a.const_view(), b.const_view(),
                                                       c.view(), &arena);
                                       });
    const double t_plan = min_of(t[0]), t_forced = min_of(t[1]), t_gemm = min_of(t[2]);
    const double ratio = bench::median_paired_ratio(t[2], t[0]);
    // The base case IS the gemm column's call: asserted, not timed.
    const bool leaf = gemm_base_case(n, n, n, planner_cut, planner.min_dim);
    planner_ok = planner_ok && (leaf || ratio >= bench::kPlannerFloor);
    // The pre-refit engine: identical recursion, every leaf and block sum
    // pinned to the scalar tier.
    double t_scalar = t_forced;
    if (have_simd) {
      blas::kernels::set_forced_isa(blas::kernels::Isa::kScalar);
      t_scalar = min_time_of(strassen_with(forced), reps);
      blas::kernels::set_forced_isa(std::nullopt);
    }
    last_speedup = t_scalar / t_forced;

    const double eg_plan = metrics::effective_gflops(2.0, n, n, n, t_plan);
    const double eg_forced = metrics::effective_gflops(2.0, n, n, n, t_forced);
    const double eg_gemm = metrics::effective_gflops(2.0, n, n, n, t_gemm);
    table.add_row({std::to_string(n), Table::num(t_plan), Table::num(t_forced),
                   Table::num(t_gemm), Table::num(eg_plan, 2), Table::num(eg_forced, 2),
                   Table::num(eg_gemm, 2), Table::num(ratio, 3),
                   Table::num(t_gemm / t_forced, 3), leaf ? "gemm leaf" : "recursion",
                   have_simd ? Table::num(last_speedup, 2) : std::string("n/a")});

    const auto record = [&](const char* bench, double seconds, const std::string& path) {
      bench::JsonWriter::Record rec;
      rec.str("bench", bench)
          .str("dtype", "f64")
          .num("n", static_cast<std::uint64_t>(n))
          .num("seconds", seconds)
          .num("eff_gflops", metrics::effective_gflops(2.0, n, n, n, seconds))
          .str("dispatch", path);
      json.add(rec);
    };
    record("strassen_tn", t_forced, dispatch);
    record("gemm_tn", t_gemm, dispatch);
    if (have_simd) record("strassen_tn", t_scalar, "scalar");
  }
  table.print();
  std::printf("paper shape: gemm/forced crosses 1 and keeps growing with n — informational,\n"
              "host-dependent.\n");
  if (have_simd) {
    std::printf("registry-backed Strassen vs scalar-leaf Strassen at the largest size: "
                "%.2fx\n", last_speedup);
  }
  std::printf("gemm/planner is the median paired ratio; the other columns are min-of-reps.\n");
  std::printf("shape check (asserted): at every n the planner runs one gemm leaf or has\n"
              "gemm/planner >= %.2f: %s\n",
              bench::kPlannerFloor, planner_ok ? "ok" : "FAILED");
  return json.flush() && planner_ok ? 0 : 1;
}
