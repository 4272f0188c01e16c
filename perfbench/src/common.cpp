#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "api/plan.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/syrk.hpp"
#include "matrix/compare.hpp"

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace {

const char* kUsage =
    "usage: perfbench <gram_square|gram_tall|serve_mixed|dist_ranks> --seed N --seconds S\n"
    "                 [--mode run|trace] [--trace-out FILE]";

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument(kUsage);
  Args a;
  a.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag + "\n" + kUsage);
    const std::string val = argv[++i];
    if (flag == "--seed") {
      a.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--mode") {
      if (val == "run") {
        a.mode = Mode::kRun;
      } else if (val == "trace") {
        a.mode = Mode::kTrace;
      } else {
        throw std::invalid_argument("unknown --mode " + val + "\n" + kUsage);
      }
    } else if (flag == "--trace-out") {
      a.trace_out = val;
    } else {
      throw std::invalid_argument("unknown flag " + flag + "\n" + kUsage);
    }
  }
  return a;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::record(bool ok, bool wrong) {
  ++attempted_;
  if (!ok) ++failed_;
  if (wrong) correct_ = false;
}

void Report::wrong(const std::string& what) {
  correct_ = false;
  notes_.push_back("WRONG OUTPUT: " + what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

double Report::fail_ratio() const {
  return (static_cast<double>(failed_) + 1.0) / (kNominalAttempts + 2.0);
}

void Report::print() const {
  for (const auto& [k, v] : info_) std::printf("  %-28s %s\n", k.c_str(), v.c_str());
  for (const auto& n : notes_) std::printf("  %s\n", n.c_str());
  for (const auto& m : metrics_) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    js << (i ? ", " : "") << '"' << json_escape(metrics_[i].name) << "\": {\"value\": "
       << json_number(metrics_[i].value) << ", \"unit\": \"" << json_escape(metrics_[i].unit)
       << "\"}";
  }
  js << "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    js << (i ? ", " : "") << '"' << json_escape(info_[i].first) << "\": \""
       << json_escape(info_[i].second) << '"';
  }
  js << "}}";
  std::printf("PERFBENCH_RESULT %s\n", js.str().c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  // Never below the median: with fewer than 20 samples no percentile above
  // p50 has ten beyond it, and the median is the most the sample supports.
  const std::size_t idx =
      std::max(s.size() > 10 ? s.size() - 11 : s.size() - 1, (s.size() - 1) / 2);
  t.value = s[idx];
  t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(s.size());
  return t;
}

template <typename T>
double error_bound(index_t m) {
  // On Gaussian inputs the measured error of every engine stays below
  // 0.5 eps sqrt(m) (README.md); the bound leaves 64x headroom.
  return 32.0 * std::numeric_limits<T>::epsilon() * std::sqrt(static_cast<double>(m));
}

template <typename T>
atalib::Matrix<T> reference_gram(atalib::ConstMatrixView<T> a) {
  auto ref = atalib::Matrix<T>::zeros(a.cols, a.cols);
  atalib::blas::syrk_ln(T(1), a, ref.view());
  return ref;
}

template <typename T>
bool check_result(atalib::ConstMatrixView<T> c, atalib::ConstMatrixView<T> ref, index_t m,
                  double* err) {
  const double e = atalib::relative_error(c, ref);
  if (err) *err = e;
  return e <= error_bound<T>(m);  // false for NaN
}

template double error_bound<float>(index_t);
template double error_bound<double>(index_t);
template atalib::Matrix<float> reference_gram<float>(atalib::ConstMatrixView<float>);
template atalib::Matrix<double> reference_gram<double>(atalib::ConstMatrixView<double>);
template bool check_result<float>(atalib::ConstMatrixView<float>, atalib::ConstMatrixView<float>,
                                  index_t, double*);
template bool check_result<double>(atalib::ConstMatrixView<double>,
                                   atalib::ConstMatrixView<double>, index_t, double*);

const char* engine_name(atalib::LeafEngine e) {
  switch (e) {
    case atalib::LeafEngine::kStrassen:
      return "strassen";
    case atalib::LeafEngine::kBlas:
      return "blas";
    case atalib::LeafEngine::kPanelSyrk:
      return "panel_syrk";
  }
  return "?";
}

PlannerPick planner_pick(bool f32, index_t m, index_t n, const atalib::SharedOptions& opts) {
  const auto key = atalib::api::shared_plan_key(
      f32 ? atalib::api::Dtype::kF32 : atalib::api::Dtype::kF64, m, n, opts);
  return {engine_name(key.engine), key.base_case_elements, key.tall_skinny_ratio};
}

HostStamp host_stamp() {
  HostStamp h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu = line.substr(colon + 2);
      break;
    }
  }
  if (h.cpu.empty()) h.cpu = "unknown";
  h.isa = atalib::blas::kernels::isa_name(atalib::blas::kernels::active_config<double>().isa);
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  if (h.build_type.empty()) h.build_type = "(none)";
  return h;
}

void add_host_stamp(Report& r) {
  const HostStamp h = host_stamp();
  r.info("host.nproc", std::to_string(h.nproc));
  r.info("host.cpu", h.cpu);
  r.info("host.isa", h.isa);
  r.info("host.compiler", h.compiler);
  r.info("host.build_type", h.build_type);
  r.info("host.comparable", h.comparable() ? "yes" : "NO: not a Release build");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
