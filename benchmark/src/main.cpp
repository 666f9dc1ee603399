// ddlbench — one workload of the repository benchmark per process.
//
//   ddlbench <incache|outcache|stream_rt|svc_steady|layers>
//            [--seed N] [--seconds S] [--trace] [--smoke] [--trace-out FILE]
//
// Prints "metric <name> = <value> <unit>" lines, then one JSON line with the
// metrics, the values that must repeat exactly for a seed, and the outcome
// of every output check. benchmark/run.py builds and drives it.

#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "ddl/common/parallel.hpp"

namespace {

int usage() {
  std::cerr << "usage: ddlbench <incache|outcache|stream_rt|svc_steady|layers> [--seed N] "
               "[--seconds S] [--trace] [--smoke] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddlbench;
  if (argc < 2) return usage();
  Options opts;
  opts.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else {
      return usage();
    }
  }
  if (!(opts.seconds > 0.0)) return usage();

  // One executor thread: the benchmark makes no thread-scaling claims.
  ddl::parallel::set_threads(1);
  // Serve every buffer of 1 MiB or more from its own mapping, so freed
  // executors return their memory and peak_rss_mb tracks live data rather
  // than how glibc's adaptive threshold happened to recycle the heap. Keep
  // the rest of the heap once grown, so every set-up after the first reuses
  // its pages instead of some faulting in fresh ones.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    Report rep;
    if (opts.workload == "incache") {
      rep = run_incache(opts);
    } else if (opts.workload == "outcache") {
      rep = run_outcache(opts);
    } else if (opts.workload == "stream_rt") {
      rep = run_stream_rt(opts);
    } else if (opts.workload == "svc_steady") {
      rep = run_svc_steady(opts);
    } else if (opts.workload == "layers") {
      rep = run_layers(opts);
    } else {
      return usage();
    }
    rep.print(opts);
  } catch (const std::exception& e) {
    std::cerr << "ddlbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
