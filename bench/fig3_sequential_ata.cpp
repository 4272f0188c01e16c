// Figure 3 — sequential AtA vs ?syrk: elapsed time (a) and effective
// GFLOPs (b) over growing square matrix size, double precision, one core.
//
// Paper setup: n = 2.5K..25K against Intel MKL dsyrk. Here: scaled sizes
// against the self-built blocked syrk (same leaf kernel under both
// algorithms), so the curves compare *algorithms*, not BLAS vendors.
// Paper shape: AtA's advantage grows with n (lower asymptotic cost).
//
// Two AtA columns: the planner (a default-options call, so the measured
// tuner's cut-off unless --base-elements pins one) and a forced recursion
// at the static L2-probe cut-off, so the paper's Strassen curve stays
// visible even on hosts where the tuner never lets the recursion in. A
// planner choice must never lose to the kernel it could always have
// picked: at every n the planner either fires the base case — one plain
// syrk_ln leaf, checked structurally — or its median paired syrk/planner
// ratio is at least kPlannerFloor; otherwise the bench exits nonzero.

#include <algorithm>
#include <cstdio>

#include "ata/ata.hpp"
#include "bench_common.hpp"
#include "blas/syrk.hpp"
#include "common/timer.hpp"
#include "metrics/flops.hpp"
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

  bench::print_banner("Sequential AtA vs blocked syrk (double)", "Figure 3 (a) + (b)");
  std::printf("tuner crossover: %s\n",
              bench::tuner_crossover_text(tuned_base_case_elements(sizeof(double))).c_str());
  std::printf("forced recursion cut-off (L2 probe): %ld elements\n",
              static_cast<long>(forced.base_case_elements));

  Table table("Fig. 3: time and effective GFLOPs vs matrix size (r = 1)");
  table.set_header({"n", "planner (s)", "forced (s)", "syrk (s)", "planner EG", "forced EG",
                    "syrk EG", "syrk/planner", "syrk/forced", "planner runs"});

  bool planner_ok = true;
  for (index_t base : {256, 384, 512, 768, 1024, 1280, 1536, 1792, 2048}) {
    const index_t n = bench::scaled(base, scale);
    const auto a = random_uniform<double>(n, n, 100 + n);

    auto c = Matrix<double>::zeros(n, n);
    // One pre-sized arena (§3.3) shared by every column: each times its
    // algorithm, not a workspace malloc per call, and all pack into the
    // same memory, so buffer placement cannot tilt the comparison.
    Arena<double> arena(static_cast<std::size_t>(
        std::max({ata_workspace_bound(n, n, planner, sizeof(double)),
                  ata_workspace_bound(n, n, forced, sizeof(double)),
                  blas::syrk_workspace_bound<double>(n, n)})));
    const auto t = interleaved_samples(
        reps, bench::kMinSampleSeconds,
        [&] {
          fill_view(c.view(), 0.0);
          ata(1.0, a.const_view(), c.view(), arena, planner);
        },
        [&] {
          fill_view(c.view(), 0.0);
          ata(1.0, a.const_view(), c.view(), arena, forced);
        },
        [&] {
          fill_view(c.view(), 0.0);
          blas::syrk_ln(1.0, a.const_view(), c.view(), &arena);
        });
    const double t_plan = min_of(t[0]), t_forced = min_of(t[1]), t_syrk = min_of(t[2]);
    const double ratio = bench::median_paired_ratio(t[2], t[0]);
    // The base case IS the syrk column's call: asserted, not timed.
    const bool leaf = ata_base_case(n, n, planner_cut, planner.min_dim);
    planner_ok = planner_ok && (leaf || ratio >= bench::kPlannerFloor);

    table.add_row({std::to_string(n), Table::num(t_plan), Table::num(t_forced),
                   Table::num(t_syrk),
                   Table::num(metrics::effective_gflops(1.0, n, n, n, t_plan), 2),
                   Table::num(metrics::effective_gflops(1.0, n, n, n, t_forced), 2),
                   Table::num(metrics::effective_gflops(1.0, n, n, n, t_syrk), 2),
                   Table::num(ratio, 3), Table::num(t_syrk / t_forced, 3),
                   leaf ? "syrk leaf" : "recursion"});
  }
  table.print();
  std::printf("paper shape: syrk/forced grows with n (AtA pays Strassen overhead on small n,\n"
              "wins on large n) — informational, host-dependent.\n");
  std::printf("syrk/planner is the median paired ratio; the other columns are min-of-reps.\n");
  std::printf("shape check (asserted): at every n the planner runs one syrk leaf or has\n"
              "syrk/planner >= %.2f: %s\n",
              bench::kPlannerFloor, planner_ok ? "ok" : "FAILED");
  return planner_ok ? 0 : 1;
}
