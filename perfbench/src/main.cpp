// perfbench: runs one workload of the atalib benchmark (README.md) and
// prints its metrics. run.py is the entry point that builds this binary,
// repeats the set-up in fresh processes and prints the final JSON line.

#include <cstdio>
#include <exception>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Report rep;
    rep.info("workload", args.workload);
    rep.info("seed", std::to_string(args.seed));
    add_host_stamp(rep);
    if (args.workload == "gram_square") {
      run_gram(args, false, rep);
    } else if (args.workload == "gram_tall") {
      run_gram(args, true, rep);
    } else if (args.workload == "dist_ranks") {
      run_dist(args, rep);
    } else if (args.workload == "serve_mixed") {
      run_serve(args, rep);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    rep.print();
    return rep.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
