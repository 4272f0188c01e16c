// Runtime pool trajectory: the warm persistent pool on repeated AtA-S
// calls.
//
// The serving workload the ROADMAP targets is "the same Gram matrix shape,
// over and over": per-call thread creation and per-task workspace mallocs
// are pure overhead there. This bench runs one AtA-S schedule on the pool
// and reports per-call latency, the NUMA steal counters, and the pool's
// workspace-growth counters — after the warm-up call the pool must perform
// zero slab allocations (the "no malloc on the steady-state hot path"
// acceptance check prints at the bottom; a nonzero count exits 1).

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "matrix/matrix.hpp"
#include "parallel/ata_shared.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace atalib;

std::size_t pool_grows(runtime::ThreadPool& pool) {
  std::size_t total = 0;
  for (int s = 0; s < pool.concurrency(); ++s) total += pool.workspace(s).grow_count();
  return total;
}

struct Result {
  double mean_ms = 0;
  double min_ms = 0;
};

template <typename Fn>
Result time_calls(Fn&& call, int calls) {
  Result r;
  double total = 0, best = 1e300;
  for (int i = 0; i < calls; ++i) {
    Timer t;
    call();
    const double s = t.seconds();
    total += s;
    best = std::min(best, s);
  }
  r.mean_ms = total / calls * 1e3;
  r.min_ms = best * 1e3;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  bench::add_common_flags(flags);
  flags.add_int("threads", 4, "AtA-S P (task-tree width)");
  flags.add_int("oversub", 4, "task over-decomposition factor (P' = oversub * P)");
  flags.add_int("calls", 20, "repeated AtA-S calls");
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const int threads = static_cast<int>(flags.get_int("threads"));
  const int oversub = static_cast<int>(flags.get_int("oversub"));
  const int calls = std::max(1, static_cast<int>(flags.get_int("calls")));

  bench::print_banner("Persistent work-stealing pool on repeated AtA-S",
                      "runtime trajectory (post-paper engineering; not a paper figure)");

  const index_t m = bench::scaled(640, scale);
  const index_t n = bench::scaled(512, scale);
  const auto a = random_uniform<double>(m, n, 321);
  auto c = Matrix<double>::zeros(n, n);

  SharedOptions opts;
  opts.threads = threads;
  opts.oversub = oversub;
  opts.recurse = bench::recurse_from_flags(flags);

  runtime::ThreadPool pool(threads);
  opts.executor = &pool;

  auto call = [&] {
    fill_view(c.view(), 0.0);
    ata_shared(1.0, a.const_view(), c.view(), opts);
  };

  // Warm once (the first call grows the worker arenas).
  call();
  const std::size_t grows_warm = pool_grows(pool);

  const Result rp = time_calls(call, calls);
  const std::size_t grows_steady = pool_grows(pool) - grows_warm;

  const metrics::NumaPoolStats numa = pool.numa_stats();

  Table table("Repeated AtA-S, " + std::to_string(m) + "x" + std::to_string(n) + ", P=" +
              std::to_string(threads) + ", P'=" + std::to_string(threads * oversub) + ", " +
              std::to_string(calls) + " calls");
  table.set_header({"engine", "mean ms/call", "min ms/call", "steals (local/remote)",
                    "arena grows (steady)"});
  table.add_row({pool.name(), Table::num(rp.mean_ms, 3), Table::num(rp.min_ms, 3),
                 std::to_string(numa.local_steals) + "/" + std::to_string(numa.remote_steals),
                 std::to_string(grows_steady)});
  table.print();
  std::printf("pool topology: %s\n", numa.to_string().c_str());

  bench::JsonWriter json(flags.get_string("json"));
  bench::JsonWriter::Record rec;
  rec.str("engine", pool.name())
      .num("m", static_cast<std::uint64_t>(m))
      .num("n", static_cast<std::uint64_t>(n))
      .num("threads", threads)
      .num("oversub", oversub)
      .num("calls", calls)
      .num("mean_ms", rp.mean_ms)
      .num("min_ms", rp.min_ms)
      .num("calls_per_s", rp.mean_ms > 0 ? 1e3 / rp.mean_ms : 0.0)
      .num("numa_nodes", numa.nodes)
      .num("fake_topology", numa.fake_topology ? 1 : 0)
      .num("local_steals", numa.local_steals)
      .num("remote_steals", numa.remote_steals)
      .num("steal_locality", numa.steal_locality())
      .num("scheduled_imbalance", numa.scheduled_imbalance())
      .num("grows_steady", static_cast<std::uint64_t>(grows_steady));
  json.add(rec);

  std::printf("check: steady-state arena grows = %zu (want 0: no workspace malloc when warm)\n",
              grows_steady);
  if (grows_steady != 0) return 1;
  return json.flush() ? 0 : 1;
}
