#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {

/// Length of the union of intervals, each clipped to [lo, hi].
double union_length(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace

int Tracer::add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int idx, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(idx)].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

TraceSummary Tracer::summarize(double wall_start, double wall_end) const {
  const std::vector<Span> s = spans();
  std::vector<std::vector<std::pair<double, double>>> children(s.size());
  std::vector<std::pair<double, double>> roots;
  for (const Span& sp : s) {
    if (sp.parent >= 0) {
      children[static_cast<std::size_t>(sp.parent)].emplace_back(sp.start, sp.end);
    } else {
      roots.emplace_back(sp.start, sp.end);
    }
  }
  TraceSummary out;
  out.spans = s.size();
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double covered = union_length(children[i], s[i].start, s[i].end);
    out.self_s[s[i].name] += (s[i].end - s[i].start) - covered;
  }
  out.covered_s = union_length(roots, wall_start, wall_end);
  out.uncovered_s = (wall_end - wall_start) - out.covered_s;
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> s = spans();
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < s.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, \"request\": %llu}}%s\n",
                  s[i].name, s[i].lane, s[i].start * 1e6, (s[i].end - s[i].start) * 1e6, i,
                  s[i].parent, static_cast<unsigned long long>(s[i].request),
                  i + 1 < s.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

TracingExecutor::TracingExecutor(atalib::runtime::Executor& inner, Tracer& tracer)
    : inner_(inner),
      tracer_(tracer),
      busy_(static_cast<std::size_t>(inner.concurrency()), 0.0),
      wait_(static_cast<std::size_t>(inner.concurrency()), 0.0) {}

atalib::runtime::TaskFn TracingExecutor::wrap(const atalib::runtime::TaskFn& fn,
                                              double enqueued) {
  return [this, &fn, enqueued](int task, atalib::runtime::TaskContext& ctx) {
    const double start = now_s();
    fn(task, ctx);
    const double end = now_s();
    const auto slot = static_cast<std::size_t>(ctx.worker);
    busy_[slot] += end - start;
    wait_[slot] += start - enqueued;
    tracer_.add({"runtime.task", start, end, parent_, request_, 1 + ctx.worker});
  };
}

void TracingExecutor::run(int ntasks, const atalib::runtime::TaskFn& fn, int width) {
  inner_.run(ntasks, wrap(fn, now_s()), width);
}

void TracingExecutor::run_placed(int ntasks, const atalib::runtime::TaskFn& fn, int width,
                                 const NodeHintFn& preferred_node) {
  inner_.run_placed(ntasks, wrap(fn, now_s()), width, preferred_node);
}

TracingExecutor::CallStats TracingExecutor::take() {
  CallStats cs;
  double max_busy = 0;
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    cs.busy_s += busy_[i];
    cs.wait_s += wait_[i];
    max_busy = std::max(max_busy, busy_[i]);
    busy_[i] = 0;
    wait_[i] = 0;
  }
  const double mean = cs.busy_s / static_cast<double>(busy_.size());
  cs.imbalance = mean > 0 ? max_busy / mean : 1.0;
  return cs;
}

}  // namespace perfbench
