#pragma once
// Shared helpers for the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper (see
// DESIGN.md §4). Sizes are scaled down from the paper's cluster runs via
// --scale so a laptop-class machine finishes in seconds; pass --scale 4 or
// more to push toward the asymptotic regime on bigger hardware.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "matrix/generate.hpp"
#include "strassen/options.hpp"

namespace atalib::bench {

/// Standard flags shared by every bench binary.
inline void add_common_flags(CliFlags& flags) {
  flags.add_double("scale", 1.0, "size multiplier vs the built-in laptop defaults");
  flags.add_int("reps", 2, "timing repetitions (min is reported)");
  flags.add_int("base-elements", 0, "AtA/Strassen base-case threshold (0 = measured tuner)");
  flags.add_string("json", "", "also write results as a JSON array to this path (\"\" = off)");
}

/// Machine-readable bench output: a JSON array of flat objects, one per
/// measured configuration, written next to the human table so the
/// BENCH_*.json perf trajectory can diff runs across commits. Values are
/// either numbers (num; non-finite doubles become null) or strings (str,
/// escaped); keys must be plain identifiers.
class JsonWriter {
 public:
  /// Empty path disables the writer; add()/flush() become no-ops.
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  class Record {
   public:
    Record& num(const char* key, double v) {
      if (!std::isfinite(v)) return raw(key, "null");  // JSON has no nan/inf
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return raw(key, buf);
    }
    Record& num(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
    Record& num(const char* key, int v) { return raw(key, std::to_string(v)); }
    Record& str(const char* key, const std::string& v) {
      std::string quoted = "\"";
      for (char c : v) {
        if (c == '"' || c == '\\') {
          quoted += '\\';
          quoted += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          quoted += buf;
        } else {
          quoted += c;
        }
      }
      quoted += '"';
      return raw(key, quoted);
    }

   private:
    friend class JsonWriter;
    Record& raw(const char* key, const std::string& rendered) {
      if (!first_) os_ << ", ";
      first_ = false;
      os_ << "\"" << key << "\": " << rendered;
      return *this;
    }
    std::ostringstream os_;
    bool first_ = true;
  };

  /// Append one object. No-op when disabled.
  void add(const Record& r) {
    if (!enabled()) return;
    if (count_++ > 0) rows_ << ",\n";
    rows_ << "  {" << r.os_.str() << "}";
  }

  /// Write the array and report the path on stdout. Returns false (with a
  /// stderr message) if the file could not be written, so callers can
  /// propagate a nonzero exit; no-op true when disabled.
  bool flush() const {
    if (!enabled()) return true;
    std::ofstream out(path_);
    out << "[\n" << rows_.str() << "\n]\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: could not write JSON output to %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %d JSON records to %s\n", count_, path_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::ostringstream rows_;
  int count_ = 0;
};

inline RecurseOptions recurse_from_flags(const CliFlags& flags) {
  RecurseOptions opts;
  opts.base_case_elements = flags.get_int("base-elements");
  return opts;
}

/// Fig. 3 / Fig. 4 planner gate: where the planner's cut-off recurses, its
/// median paired ratio against the plain kernel it could always have picked
/// may be at most 2% under 1.
inline constexpr double kPlannerFloor = 0.98;

/// Median over reps of base[r] / cand[r]. interleaved_samples takes sample r
/// of every column back to back, so slow host drift cancels inside each
/// ratio and the median discards the reps a burst of noise hit.
inline double median_paired_ratio(const std::vector<double>& base,
                                  const std::vector<double>& cand) {
  std::vector<double> r;
  for (std::size_t i = 0; i < std::min(base.size(), cand.size()); ++i) {
    r.push_back(base[i] / cand[i]);
  }
  if (r.empty()) return 0.0;
  std::sort(r.begin(), r.end());
  const std::size_t h = r.size() / 2;
  return r.size() % 2 == 1 ? r[h] : 0.5 * (r[h - 1] + r[h]);
}

/// Minimum length of one timed sample in the Fig. 3 / Fig. 4 columns.
inline constexpr double kMinSampleSeconds = 10e-3;

/// The tuner's resolved f64 cut-off, phrased for the Fig. 3 / Fig. 4 header.
inline std::string tuner_crossover_text(index_t cut) {
  if (cut == kNeverRecurse) return "none on this host (the planner never recurses)";
  const auto n = static_cast<index_t>(std::sqrt((static_cast<double>(cut) + 1) / 2));
  return "one Strassen level wins from n ~ " + std::to_string(n) + " (cut-off " +
         std::to_string(cut) + " elements)";
}

/// Scale a base size, keeping it even-ish for prettier splits.
inline index_t scaled(index_t base, double scale) {
  auto v = static_cast<index_t>(static_cast<double>(base) * scale);
  return std::max<index_t>(v, 16);
}

/// A labeled experiment header, mirrored in EXPERIMENTS.md.
inline void print_banner(const std::string& what, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

}  // namespace atalib::bench
