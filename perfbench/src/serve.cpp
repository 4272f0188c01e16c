// serve_mixed: one api::Server driven as an open loop from a single
// generator thread. Arrivals follow a seeded Poisson schedule at a few fixed
// rates; each is one submit() or one submit_batch() of 1, 16 or 64 requests
// over the eight serving shapes in f64 or f32. A request's latency runs
// from its due time to the moment the generator sees its future ready, so
// a stall of the generator or the server shows in every later request.

#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <span>
#include <thread>

#include "api/server.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using atalib::Matrix;

/// Offered load of each phase in requests per second, lowest first. A 4-core
/// host serves 2000 to 3500, with the tuner's pick: the reference rate is
/// at most a quarter of that (README.md says why not more), 1000 keeps up,
/// 16000 never does.
constexpr double kRates[] = {250, 500, 1000, 16000};
constexpr int kReference = 1;
/// Share of --seconds each phase's arrivals span.
constexpr double kPhaseShare[] = {0.15, 0.5, 0.2, 0.15};
/// p99 latency limit a phase must meet to count towards max_rps: about four
/// times the service time of the heaviest arrival (64 gram n = 256 requests
/// on three workers), so it is missed by queueing, not by that batch alone.
constexpr double kLimitUs = 200000;
/// Output buffers per (dtype, shape): this many bytes' worth, at least
/// kMinOutputs (three batches of 64). They are made before any timing, so the generator never
/// faults in fresh pages while it should be on time, and they bound the
/// backlog: an arrival that finds its shape's buffers all in use stops the
/// phase's arrivals -- the server is not keeping up, and the phase fails.
/// A fixed pool also keeps peak_rss_mib independent of how far an
/// overloaded phase gets.
constexpr std::size_t kOutputBytes = 8 << 20;
constexpr std::size_t kMinOutputs = 192;
/// Verify a finished request only when the next arrival is this far off.
constexpr double kVerifySlackS = 200e-6;
/// Latency quantiles are taken per window of this many seconds of due time.
constexpr double kWindowS = 0.5;

template <typename T>
class ShapeSet {
 public:
  ShapeSet(std::uint64_t seed, std::uint64_t stream) {
    for (int s = 0; s < kServeShapes; ++s) {
      for (int v = 0; v < kServeVariants; ++v) {
        auto& sh = shapes_[static_cast<std::size_t>(s)];
        sh.a[v] = gaussian_matrix<T>(serve_m(s), serve_n(s), seed,
                                     stream + static_cast<std::uint64_t>(s * kServeVariants + v));
        sh.ref[v] = reference_gram<T>(sh.a[v].view());
      }
      const auto bytes = static_cast<std::size_t>(serve_n(s) * serve_n(s)) * sizeof(T);
      for (std::size_t i = 0; i < std::max(kMinOutputs, kOutputBytes / bytes); ++i) {
        give(s, Matrix<T>::zeros(serve_n(s), serve_n(s)));
      }
    }
  }
  const Matrix<T>& a(int s, int v) const { return shapes_[static_cast<std::size_t>(s)].a[v]; }
  const Matrix<T>& ref(int s, int v) const { return shapes_[static_cast<std::size_t>(s)].ref[v]; }
  /// Free output buffers of shape s.
  std::size_t free(int s) const { return shapes_[static_cast<std::size_t>(s)].free.size(); }
  /// A zeroed n x n output buffer for shape s; free(s) must be nonzero.
  Matrix<T> take(int s) {
    auto& free = shapes_[static_cast<std::size_t>(s)].free;
    Matrix<T> c = std::move(free.back());
    free.pop_back();
    return c;
  }
  void give(int s, Matrix<T>&& c) {
    c.fill(T(0));
    shapes_[static_cast<std::size_t>(s)].free.push_back(std::move(c));
  }

 private:
  struct Shape {
    Matrix<T> a[kServeVariants];
    Matrix<T> ref[kServeVariants];
    std::vector<Matrix<T>> free;
  };
  std::array<Shape, kServeShapes> shapes_;
};

struct Request {
  std::future<void> fut;
  double due = 0;
  double done = 0;
  std::uint64_t arrival = 0;
  bool f32 = false;
  bool error = false;
  int shape = 0;
  int variant = 0;
  Matrix<float> cf;
  Matrix<double> cd;
};

struct Phase {
  double rps = 0;
  double window_s = 0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  bool cut = false;
  double last_done = 0;
  double work = 0;  ///< effective flops (m n n) of the completed requests
  double t0 = 0;  ///< phase start; arrivals are due from here on
  std::vector<double> lat_us;  ///< per request; +inf for a failed or refused one
  std::vector<double> due_s;   ///< per request, parallel to lat_us
  std::vector<double> late_ms;
  std::vector<double> call_s;  ///< time inside submit / submit_batch
  std::vector<double> call_due_s;  ///< per arrival, parallel to call_s

  double achieved_rps() const { return static_cast<double>(completed) / duration(); }
  double duration() const { return std::max(window_s, last_done); }
  bool meets_limit() const {
    return !cut && completed == requests && latency_us(0.99) <= kLimitUs;
  }
  /// Quantile q of request latency, per window of due time (windowed()).
  double latency_us(double q) const {
    return windowed(lat_us, due_s, [q](auto& v) { return percentile(v, q); });
  }
  /// The submit-call tail (tail_of), per window of due time.
  double call_tail_s() const {
    return windowed(call_s, call_due_s, [](auto& v) { return tail_of(v).value; });
  }

  /// `stat` of the samples taken in each kWindowS of due time, reported as
  /// the median over the phase's windows: a stall of the host (a
  /// descheduled core) then moves one window's figure, not the phase's.
  template <typename Stat>
  double windowed(const std::vector<double>& v, const std::vector<double>& due, Stat stat) const {
    const auto n = static_cast<std::size_t>(std::max(1.0, std::floor(window_s / kWindowS)));
    std::vector<std::vector<double>> windows(n);
    for (std::size_t i = 0; i < v.size(); ++i) {
      const auto w = static_cast<std::size_t>(std::max(0.0, (due[i] - t0) / kWindowS));
      windows[std::min(w, n - 1)].push_back(v[i]);
    }
    std::vector<double> per_window;
    for (const auto& w : windows) {
      if (!w.empty()) per_window.push_back(stat(w));
    }
    return median(per_window);
  }
};

/// Every input of a run, generated from the seed before the server exists.
struct Inputs {
  explicit Inputs(std::uint64_t seed) : f64(seed, 100), f32(seed, 200) {}
  ShapeSet<double> f64;
  ShapeSet<float> f32;
};

class Generator {
 public:
  Generator(atalib::api::Server& server, Inputs& in, Report& rep)
      : server_(server), f64_(in.f64), f32_(in.f32), rep_(rep) {}

  /// Submit one request of every (dtype, shape), through submit() and
  /// submit_batch() both, and wait for them: the set-up that builds every
  /// plan the timed phases use. Returns when all futures are ready.
  void warm_up() {
    Phase p;
    std::vector<Arrival> all;
    for (bool f32 : {false, true}) {
      for (int s = 0; s < kServeShapes; ++s) {
        for (bool batch : {false, true}) {
          Arrival a;
          a.batch = batch;
          a.f32 = f32;
          a.shape = static_cast<std::uint8_t>(s);
          a.variant.push_back(0);
          all.push_back(a);
        }
      }
    }
    phase_ = &p;
    for (const Arrival& a : all) submit(a, now_s());
    for (Request& r : inflight_) r.fut.wait();
    phase_ = nullptr;
  }
  /// Verify and recycle everything warm_up left; false if any was wrong.
  bool finish_warm_up() {
    Phase p;
    phase_ = &p;
    while (!inflight_.empty()) poll();
    bool ok = true;
    while (!done_.empty()) ok = verify_one(false) && ok;
    phase_ = nullptr;
    return ok;
  }

  Phase run(const std::vector<Arrival>& sched, double rps, double window, Tracer* tr) {
    Phase p;
    p.rps = rps;
    p.window_s = window;
    phase_ = &p;
    tracer_ = tr;
    const double t0 = now_s() + 1e-3;
    p.t0 = t0;
    std::size_t next = 0;
    for (;;) {
      const bool arriving = next < sched.size() && !p.cut;
      if (arriving && now_s() >= t0 + sched[next].due_s) {
        submit(sched[next], t0 + sched[next].due_s);
        ++next;
        continue;
      }
      const std::size_t pending = done_.size();
      poll();
      if (!done_.empty() && (!arriving || t0 + sched[next].due_s - now_s() > kVerifySlackS)) {
        verify_one(true);
      } else if (done_.size() == pending) {
        // Nothing finished: give the core to a worker if one is waiting.
        // Sleeping instead makes every completion wait for a timer wake-up.
        std::this_thread::yield();
      }
      if (!arriving && inflight_.empty() && done_.empty()) break;
    }
    p.last_done -= t0;
    phase_ = nullptr;
    tracer_ = nullptr;
    return p;
  }

  const Matrix<double>& probe_input() const { return f64_.a(kServeShapes - 1, 0); }
  double max_error_share() const { return max_err_; }

 private:
  template <typename T>
  ShapeSet<T>& set() {
    if constexpr (std::is_same_v<T, float>) {
      return f32_;
    } else {
      return f64_;
    }
  }
  template <typename T>
  static Matrix<T>& out(Request& r) {
    if constexpr (std::is_same_v<T, float>) {
      return r.cf;
    } else {
      return r.cd;
    }
  }

  void submit(const Arrival& a, double due) {
    if (a.f32) {
      submit_as<float>(a, due);
    } else {
      submit_as<double>(a, due);
    }
  }

  template <typename T>
  void submit_as(const Arrival& a, double due) {
    ShapeSet<T>& sh = set<T>();
    const std::uint64_t id = ++arrivals_;
    const std::size_t k = a.variant.size();
    if (k > sh.free(a.shape)) {
      phase_->cut = true;  // backlog exhausted the buffers: not keeping up
      return;
    }
    std::vector<Request> reqs(k);
    for (std::size_t i = 0; i < k; ++i) {
      reqs[i].due = due;
      reqs[i].arrival = id;
      reqs[i].f32 = a.f32;
      reqs[i].shape = a.shape;
      reqs[i].variant = a.variant[i];
      out<T>(reqs[i]) = sh.take(a.shape);
    }
    const double s0 = now_s();
    try {
      if (!a.batch) {
        reqs[0].fut = server_.submit<T>(T(1), sh.a(reqs[0].shape, reqs[0].variant).view(),
                                        out<T>(reqs[0]).view());
      } else {
        std::vector<atalib::api::AtaRequest<T>> batch(k);
        for (std::size_t i = 0; i < k; ++i) {
          batch[i].a = sh.a(reqs[i].shape, reqs[i].variant).view();
          batch[i].c = out<T>(reqs[i]).view();
        }
        auto futs = server_.submit_batch<T>(std::span<const atalib::api::AtaRequest<T>>(batch));
        for (std::size_t i = 0; i < k; ++i) reqs[i].fut = std::move(futs[i]);
      }
    } catch (const std::exception& e) {
      // Refused: every request of the arrival misses the limit.
      rep_.note(std::string("refused: ") + e.what());
      for (Request& r : reqs) {
        phase_->requests++;
        phase_->lat_us.push_back(std::numeric_limits<double>::infinity());
        phase_->due_s.push_back(due);
        rep_.record(false);
        sh.give(r.shape, std::move(out<T>(r)));
      }
      return;
    }
    const double s1 = now_s();
    phase_->requests += k;
    phase_->call_s.push_back(s1 - s0);
    phase_->call_due_s.push_back(due);
    phase_->late_ms.push_back((s0 - due) * 1e3);
    if (tracer_) {
      tracer_->add({"loadgen", due, s0, -1, id, 0});
      tracer_->add({"api", s0, s1, -1, id, 0});
    }
    for (Request& r : reqs) inflight_.push_back(std::move(r));
  }

  void poll() {
    for (std::size_t i = 0; i < inflight_.size();) {
      Request& r = inflight_[i];
      if (r.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      r.done = now_s();
      try {
        r.fut.get();
      } catch (const std::exception& e) {
        r.error = true;
        rep_.note(std::string("request failed: ") + e.what());
      }
      phase_->last_done = std::max(phase_->last_done, r.done);
      done_.push_back(std::move(r));
      if (i + 1 != inflight_.size()) inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
    }
  }

  /// Check the oldest finished request against its reference, record it
  /// and recycle its buffer. `count` false: set-up requests, not counted.
  bool verify_one(bool count) {
    Request r = std::move(done_.front());
    done_.pop_front();
    const double v0 = now_s();
    const bool ok = r.f32 ? verify_as<float>(r) : verify_as<double>(r);
    if (count) {
      rep_.record(ok && !r.error, !ok);
      phase_->due_s.push_back(r.due);
      phase_->lat_us.push_back(ok && !r.error ? (r.done - r.due) * 1e6
                                              : std::numeric_limits<double>::infinity());
      if (ok && !r.error) {
        phase_->completed++;
        phase_->work += static_cast<double>(serve_m(r.shape)) * serve_n(r.shape) * serve_n(r.shape);
      }
    }
    if (tracer_) {
      tracer_->add({"server", r.due, r.done, -1, r.arrival, 1});
      tracer_->add({"bench.verify", v0, now_s(), -1, r.arrival, 0});
    }
    return ok;
  }

  template <typename T>
  bool verify_as(Request& r) {
    ShapeSet<T>& sh = set<T>();
    double err = 0;
    const bool ok = r.error || check_result<T>(out<T>(r).view(), sh.ref(r.shape, r.variant).view(),
                                               serve_m(r.shape), &err);
    max_err_ = std::max(max_err_, err / error_bound<T>(serve_m(r.shape)));
    if (!ok) rep_.note("wrong result: shape " + std::to_string(r.shape));
    sh.give(r.shape, std::move(out<T>(r)));
    return ok;
  }

  atalib::api::Server& server_;
  ShapeSet<double>& f64_;
  ShapeSet<float>& f32_;
  Report& rep_;
  Phase* phase_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::uint64_t arrivals_ = 0;
  double max_err_ = 0;  ///< largest relative error seen, as a share of its bound
  std::vector<Request> inflight_;
  std::deque<Request> done_;
};

atalib::api::Server::Options server_options() {
  atalib::api::Server::Options o;
  o.threads = 4;  // 3 workers; the generator is the fourth thread
  return o;
}

/// The plan options Server::submit() defaults to on a 4-slot pool.
atalib::SharedOptions submit_defaults() {
  atalib::SharedOptions o;
  o.threads = 4;
  o.oversub = 2;
  return o;
}

void describe(Report& rep, const Phase& p, const char* label) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s %6.0f req/s offered: %zu requests, p50 %.0f us, p99 %.0f us, %.0f req/s "
                "served, late p99 %.3f ms, submit p99 %.3f ms%s -> %s",
                label, p.rps, p.requests, p.latency_us(0.5), p.latency_us(0.99), p.achieved_rps(),
                percentile(p.late_ms, 0.99), percentile(p.call_s, 0.99) * 1e3,
                p.cut ? ", backlog cut" : "", p.meets_limit() ? "meets limit" : "misses limit");
  rep.note(buf);
}

}  // namespace

void run_serve(const Args& args, Report& rep) {
  LayerValues lv;
  if (args.mode == Mode::kTrace) probe_tuner(lv, true);

  Inputs inputs(args.seed);
  // Set-up: server start, tuning, one plan build per (dtype, shape, submit
  // style), workspace growth and the first results.
  const double t0 = now_s();
  atalib::api::Server server(server_options());
  Generator gen(server, inputs, rep);
  gen.warm_up();
  const double setup_s = now_s() - t0;
  if (!gen.finish_warm_up()) rep.wrong("set-up requests");

  const PlannerPick pick = planner_pick(false, serve_m(kServeShapes - 1), serve_n(kServeShapes - 1),
                                        submit_defaults());
  rep.info("planner.engine", pick.engine);
  rep.info("planner.base_elements", static_cast<double>(pick.base_elements));
  rep.info("planner.ts_ratio", static_cast<double>(pick.ts_ratio));

  if (args.mode == Mode::kRun) {
    std::vector<Phase> phases;
    for (std::size_t i = 0; i < std::size(kRates); ++i) {
      const double window = args.seconds * kPhaseShare[i];
      phases.push_back(gen.run(make_schedule(args.seed, static_cast<int>(i), kRates[i], window),
                               kRates[i], window, nullptr));
      describe(rep, phases.back(), i == kReference ? "reference" : "phase");
    }
    const Phase& ref = phases[kReference];
    const Phase* best = nullptr;
    for (const Phase& p : phases) {
      if (p.meets_limit()) best = &p;
    }
    const Tail call_tail = tail_of(ref.call_s);  // for the percentile it stands for
    rep.metric("setup_s", setup_s, "s");
    rep.metric("gflops", best ? best->work / best->duration() * 1e-9 : 0.0, "GFLOP/s");
    rep.metric("call_ms_p50", median(ref.call_s) * 1e3, "ms");
    rep.metric("call_ms_tail", ref.call_tail_s() * 1e3, "ms");
    rep.metric("req_us_p50", ref.latency_us(0.5), "us");
    rep.metric("req_us_p99", ref.latency_us(0.99), "us");
    rep.metric("max_rps", best ? best->achieved_rps() : 0.0, "1/s");
    rep.metric("fail_ratio", rep.fail_ratio(), "ratio");
    rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "highest percentile with 10 calls beyond it per %.1f s window (p%.2f over "
                  "the whole phase), median over windows; %zu submit calls at the reference rate",
                  kWindowS, call_tail.pct, call_tail.n);
    rep.info("call_ms_tail", buf);
    rep.info("latency_limit_us", kLimitUs);
    rep.info("max_rel_error_share_of_bound", gen.max_error_share());
    return;
  }

  // Traced run at the reference rate: untraced quarter, traced half,
  // untraced quarter, so slow drift of the host does not read as overhead.
  const auto plans0 = server.plan_stats();
  const auto rt0 = server.runtime_stats();
  const std::uint64_t builds0 = schedule_builds();
  const double rate = kRates[kReference];
  Phase plain = gen.run(make_schedule(args.seed, 0, rate, args.seconds / 4), rate,
                        args.seconds / 4, nullptr);
  Tracer tracer;
  const double w0 = now_s();
  const Phase traced =
      gen.run(make_schedule(args.seed, 1, rate, args.seconds / 2), rate, args.seconds / 2, &tracer);
  const double w1 = now_s();
  const Phase plain2 = gen.run(make_schedule(args.seed, 2, rate, args.seconds / 4), rate,
                               args.seconds / 4, nullptr);
  describe(rep, plain, "untraced");
  describe(rep, traced, "traced");
  describe(rep, plain2, "untraced");
  plain.late_ms.insert(plain.late_ms.end(), plain2.late_ms.begin(), plain2.late_ms.end());
  const auto plans1 = server.plan_stats();
  const auto rt = server.runtime_stats();
  const auto st = server.stats();

  add_plan_hits(lv, plans0, plans1);
  lv["api.admission_wait_us_p99"] = static_cast<double>(st.admission_wait.p99_ns) * 1e-3;
  lv["api.queue_wait_us_p99"] = static_cast<double>(st.queue_wait.p99_ns) * 1e-3;
  lv["api.compute_us_p50"] = static_cast<double>(st.compute.p50_ns) * 1e-3;
  lv["sched.steady_builds"] = static_cast<double>(schedule_builds() - builds0);
  lv["runtime.steals"] = static_cast<double>((rt.local_steals + rt.remote_steals) -
                                             (rt0.local_steals + rt0.remote_steals));
  lv["loadgen.late_ms_p99"] = percentile(plain.late_ms, 0.99);

  const auto key = atalib::api::shared_plan_key(atalib::api::Dtype::kF64, serve_m(kServeShapes - 1),
                                                serve_n(kServeShapes - 1), submit_defaults());
  probe_kernels<double>(lv, key, heaviest_ops(*atalib::api::AtaPlan::build(key)),
                        gen.probe_input().view());
  add_trace_summary(lv, tracer.summarize(w0, w1));
  const double plain_p50 = (plain.latency_us(0.5) + plain2.latency_us(0.5)) / 2;
  lv["trace.overhead_s"] = (traced.latency_us(0.5) - plain_p50) * 1e-6;
  lv["trace.overhead_frac"] = traced.latency_us(0.5) / plain_p50 - 1;
  emit_layer_metrics(rep, lv);
  if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out)) {
    rep.note("could not write " + args.trace_out);
  }
}

}  // namespace perfbench
