#pragma once
// Shared pieces of the perfbench binary: the command line, the result
// report (every metric by name and unit, plus the pass/fail ledger), the
// statistics the metrics are defined with, the output check, and the host
// stamp that says which machine and build produced the numbers.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "matrix/matrix.hpp"
#include "parallel/ata_shared.hpp"

namespace perfbench {

using atalib::index_t;

/// Seconds on the steady clock since the first call in this process.
double now_s();

enum class Mode {
  kRun,    ///< untraced: end-to-end metrics
  kTrace,  ///< untraced and traced passes, per-layer probes
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  Mode mode = Mode::kRun;
  std::string trace_out;  ///< where the traced run writes its spans ("" = nowhere)
};

/// Parse argv; throws std::invalid_argument with a usage message.
Args parse_args(int argc, char** argv);

/// The operation count fail_ratio is taken over, whatever number a run
/// attempts (run.py uses the same figure for a whole run).
inline constexpr double kNominalAttempts = 1000;

/// Metrics and the correctness ledger of one run. print() writes a human
/// table and, as its last line, "PERFBENCH_RESULT <json>" for run.py.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// One operation attempted; `ok` false counts it as failed and marks the
  /// run incorrect when `wrong` (a wrong output, not a refusal).
  void record(bool ok, bool wrong = false);
  /// A wrong output found outside the operation count (e.g. the setup call).
  void wrong(const std::string& what);
  void note(const std::string& line);
  bool correct() const { return correct_; }
  /// (failed + 1) / (kNominalAttempts + 2): Laplace's rule of succession
  /// over a fixed nominal count rather than the operations attempted, so it
  /// is never 0 (a relative bound on it is defined), a single failure
  /// doubles it, and a slower or faster run, which attempts fewer or more
  /// operations in the same seconds, leaves it unchanged.
  double fail_ratio() const;
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Nearest-rank percentile, q in [0, 1]. `v` need not be sorted.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th smallest of n samples, but never below the median.
struct Tail {
  double value = 0;
  double pct = 0;  ///< which percentile that is
  std::size_t n = 0;
};
Tail tail_of(const std::vector<double>& v);

/// Normwise bound on relative_error(C, syrk_ln reference) for an inner
/// dimension m. Gaussian inputs make rounding visible: the bound admits the
/// O(log n) growth of Strassen's error, yet a single dropped or doubled
/// entry of C exceeds it.
template <typename T>
double error_bound(index_t m);

/// lower(A^T A) by blas::syrk_ln into a zeroed n x n matrix: the reference
/// every result is compared with.
template <typename T>
atalib::Matrix<T> reference_gram(atalib::ConstMatrixView<T> a);

/// relative_error(c, ref) <= error_bound<T>(m); `err` receives the error.
/// A NaN anywhere fails.
template <typename T>
bool check_result(atalib::ConstMatrixView<T> c, atalib::ConstMatrixView<T> ref, index_t m,
                  double* err = nullptr);

/// What the shape-aware planner resolves for an AtA-S request: engine,
/// Strassen base-case cut-off and tall-skinny ratio (api::shared_plan_key).
struct PlannerPick {
  const char* engine = "";
  index_t base_elements = 0;
  index_t ts_ratio = 0;
};
PlannerPick planner_pick(bool f32, index_t m, index_t n, const atalib::SharedOptions& opts);
const char* engine_name(atalib::LeafEngine e);

/// nproc, CPU model, dispatched kernel ISA, compiler, build type.
struct HostStamp {
  int nproc = 0;
  std::string cpu;
  std::string isa;
  std::string compiler;
  std::string build_type;
  bool comparable() const { return build_type == "Release"; }
};
HostStamp host_stamp();
void add_host_stamp(Report& r);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();

}  // namespace perfbench
