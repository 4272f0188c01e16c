#pragma once
// Spans recorded by the benchmark around its calls into the library (the
// library itself carries no tracing). A span has a name, a start and end on
// the benchmark clock (now_s), the span that caused it, and the request id
// its request's spans share. Spans stay in memory and are written out as
// Chrome trace-event JSON when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/executor.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< layer the span measures; a string literal
  double start = 0;
  double end = 0;
  int parent = -1;        ///< index of the causing span, -1 for a root
  std::uint64_t request = 0;
  int lane = 0;           ///< thread lane for the trace viewer
};

/// Self time per span name (duration minus the union of its children), and
/// the part of a wall interval no root span covers.
struct TraceSummary {
  std::map<std::string, double> self_s;
  double covered_s = 0;
  double uncovered_s = 0;
  std::size_t spans = 0;
};

class Tracer {
 public:
  /// Thread-safe append; returns the span's index (usable as a parent).
  int add(const Span& s);
  /// Set the end of span `idx`, added open (end == start) so its children
  /// could name it as their parent while it ran.
  void close(int idx, double end);
  std::vector<Span> spans() const;
  TraceSummary summarize(double wall_start, double wall_end) const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto). Returns false if
  /// the file could not be written.
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// An Executor that forwards to another and records, per task, a "task"
/// span under the current call span plus the slot busy time and the wait
/// from the batch's enqueue to the task's start. Passed as
/// SharedOptions::executor in the traced gram runs.
class TracingExecutor final : public atalib::runtime::Executor {
 public:
  TracingExecutor(atalib::runtime::Executor& inner, Tracer& tracer);

  int concurrency() const override { return inner_.concurrency(); }
  int numa_nodes() const override { return inner_.numa_nodes(); }
  const char* name() const override { return "traced"; }
  void run(int ntasks, const atalib::runtime::TaskFn& fn, int width = 0) override;
  void run_placed(int ntasks, const atalib::runtime::TaskFn& fn, int width,
                  const NodeHintFn& preferred_node) override;
  void warm_workspaces(std::size_t float_elems, std::size_t double_elems) override {
    inner_.warm_workspaces(float_elems, double_elems);
  }

  /// Span the next batches' task spans hang under.
  void set_parent(int span, std::uint64_t request) {
    parent_ = span;
    request_ = request;
  }
  /// Per-call figures accumulated since the last take(): summed task busy
  /// seconds, summed enqueue-to-start seconds, max/mean busy over slots.
  struct CallStats {
    double busy_s = 0;
    double wait_s = 0;
    double imbalance = 0;
  };
  CallStats take();

 private:
  atalib::runtime::TaskFn wrap(const atalib::runtime::TaskFn& fn, double enqueued);

  atalib::runtime::Executor& inner_;
  Tracer& tracer_;
  int parent_ = -1;
  std::uint64_t request_ = 0;
  /// Indexed by slot; a slot runs one task at a time, so no slot's entry
  /// is written concurrently.
  std::vector<double> busy_;
  std::vector<double> wait_;
};

}  // namespace perfbench
