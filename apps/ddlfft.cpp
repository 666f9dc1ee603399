// ddlfft — command-line driver for the library.
//
// Subcommands:
//   plan         search for a factorization tree and print it
//   run          execute a tree (or a freshly planned one) and report timing
//   profile      traced execution: per-stage breakdown + chrome-trace JSON
//   simulate     replay a tree's address trace through the cache model
//   analyze-plan symbolic per-stage cache-miss prediction (no trace, no run)
//   compare      plan + time every strategy side by side
//   verify       statically verify a tree (ddl::verify rule catalogue)
//   explain-plan per-node strides, scratch, codelets, and parallel stages
//   stream       streaming STFT -> partitioned-convolution chain smoke:
//                block latency percentiles + direct-reference verification
//   autotune     calibrate the cost database from traced runs on this host,
//                re-plan with measured costs, champion-check vs rightmost
//
// Examples:
//   ddlfft plan --transform fft --n 2^20 --strategy ddl_dp
//   ddlfft run --tree "ctddl(ct(32,32),ct(32,32))" --reps 3
//   ddlfft profile 2^20 --reps 5 --trace ddlfft_trace.json
//   ddlfft simulate --n 2^18 --cache 512K --line 64 --assoc 1
//   ddlfft compare --transform wht --n 2^22
//   ddlfft verify --tree "ctddl(ct(32,32),1024)" --strict
//   ddlfft explain-plan --tree "ctddl(1024,ctddl(32,32))"
//
// Shared flags: --wisdom FILE / --costdb FILE persist planning artifacts.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "ddl/bench_util/bench_util.hpp"
#include "ddl/cachesim/cache.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/cli.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/common/table.hpp"
#include "ddl/codelets/codelets.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/obs/export.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/plan/obs_ingest.hpp"
#include "ddl/plan/snapshot.hpp"
#include "ddl/sim/trace.hpp"
#include "ddl/stream/stream.hpp"
#include "ddl/svc/service.hpp"
#include "ddl/svc/wire.hpp"
#include "ddl/verify/cachepred.hpp"
#include "ddl/verify/plan_verify.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht_api.hpp"

namespace {

using namespace ddl;

int usage() {
  std::cerr <<
      "usage: ddlfft <command> [flags]\n"
      "\n"
      "commands:\n"
      "  plan      --transform fft|wht --n SIZE [--strategy ddl_dp] [--max-leaf 32]\n"
      "            [--oracle]  plan for a simulated 512KB direct-mapped cache\n"
      "            [--dot]     print the tree as a Graphviz digraph\n"
      "  run       (--tree GRAMMAR | --transform fft|wht --n SIZE [--strategy S])\n"
      "            [--reps 3] [--wht]\n"
      "  profile   (SIZE | --n SIZE | --tree GRAMMAR) [--transform fft|wht]\n"
      "            [--strategy ddl_dp] [--reps 5] [--threads N]\n"
      "            [--trace ddlfft_trace.json] [--bench-json FILE] [--calibrate]\n"
      "            traced run: per-stage summary + chrome://tracing JSON;\n"
      "            --calibrate feeds stage timings into --costdb\n"
      "  simulate  (--tree GRAMMAR | --n SIZE) [--cache 512K] [--line 64]\n"
      "            [--assoc 1] [--prefetch none|next|stream] [--wht]\n"
      "            [--split-remiss]  classify re-misses as capacity vs conflict\n"
      "  analyze-plan  (--tree GRAMMAR | --n SIZE) [--wht]\n"
      "            [--cache SPEC[,SPEC]]  SPEC = SIZE[:ASSOC[:LINE]], L1 then L2\n"
      "            (default 32K:8,512K:1); symbolic per-stage miss prediction —\n"
      "            no trace generation, no execution\n"
      "  compare   --transform fft|wht --n SIZE\n"
      "  verify    (--tree GRAMMAR | --transform fft|wht --n SIZE [--strategy S])\n"
      "            [--wht] [--strict] [--stride S] [--scratch N]\n"
      "  explain-plan  (--tree GRAMMAR | --transform fft|wht --n SIZE [--strategy S])\n"
      "            [--wht] [--dot]\n"
      "  serve     (--inproc | --socket PATH) [--n 1024] [--producers 4]\n"
      "            [--requests 64] [--threads N] [--plan]\n"
      "            transform-service\n"
      "            smoke (DDL_SVC_* env knobs): --inproc drives concurrent\n"
      "            producers through the embedded ddl::svc API; --socket\n"
      "            serves the binary wire protocol on a UNIX socket at PATH\n"
      "            and drives the same workload through thin wire clients,\n"
      "            one tenant per producer (docs/SERVICE.md)\n"
      "  stream    [--block 512] [--fir 257] [--blocks 200] [--stft-fft 4*block]\n"
      "            [--fft N] [--plan] [--threads N]   streaming smoke: STFT\n"
      "            (hop = block) chained into a partitioned overlap-save\n"
      "            convolver, verified against the direct time-domain\n"
      "            reference; prints the truncated-aware FFT-size choice and\n"
      "            p50/p99 block latency (docs/STREAMING.md)\n"
      "  autotune  (--n SIZE | --sizes S1,S2,...) [--reps 3] [--threads N]\n"
      "            calibrate cost db from traced runs (per host + ISA), re-plan\n"
      "            with measured costs, champion-check DP vs rightmost, remember\n"
      "            the winner in --wisdom; store loads are fail-closed here\n"
      "  wisdom    export --out SNAP | merge --in SNAP   ship planner state:\n"
      "            export writes a byte-deterministic DDLSNAP file of the\n"
      "            --costdb/--wisdom stores; merge validates a snapshot in\n"
      "            full (fail-closed) and overlays it last-writer-wins\n"
      "\n"
      "shared:    --wisdom FILE --costdb FILE  (persist planning artifacts)\n"
      "sizes accept 1048576, 2^20, 512K, 64M notation.\n";
  return 2;
}

fft::Strategy parse_strategy(const std::string& name) {
  if (name == "rightmost") return fft::Strategy::rightmost;
  if (name == "balanced") return fft::Strategy::balanced;
  if (name == "sdl_dp") return fft::Strategy::sdl_dp;
  if (name == "ddl_dp") return fft::Strategy::ddl_dp;
  throw std::invalid_argument("unknown strategy '" + name +
                              "' (rightmost|balanced|sdl_dp|ddl_dp)");
}

/// Planning stores wired to optional --wisdom/--costdb files.
struct Stores {
  plan::CostDb cost_db;
  plan::Wisdom wisdom;
  std::string cost_file;
  std::string wisdom_file;

  explicit Stores(const cli::Args& args) {
    cost_file = args.get_or("costdb", "");
    wisdom_file = args.get_or("wisdom", "");
    // A rejected file is not fatal — planning falls back to fresh probes —
    // but silence here would hide that a calibration run is being ignored.
    // A missing file is the normal first run, so only corruption warns.
    if (!cost_file.empty() && !cost_db.load(cost_file) &&
        std::filesystem::exists(cost_file)) {
      std::cerr << "warning: ignoring cost database: " << cost_db.load_error() << "\n";
    }
    if (!wisdom_file.empty() && !wisdom.load(wisdom_file) &&
        std::filesystem::exists(wisdom_file)) {
      std::cerr << "warning: ignoring wisdom: " << wisdom.load_error() << "\n";
    }
  }
  ~Stores() {
    if (!cost_file.empty()) cost_db.save(cost_file);
    if (!wisdom_file.empty()) wisdom.save(wisdom_file);
  }
};

plan::TreePtr plan_tree(const cli::Args& args, Stores& stores, const std::string& transform,
                        index_t n, fft::Strategy strategy) {
  // --oracle: plan for a simulated 1999-style cache instead of this host.
  // Note: oracle plans are not stored into wisdom (they answer a different
  // question than host plans).
  const bool oracle = args.has("oracle");
  if (transform == "wht") {
    wht::PlannerOptions opts;
    if (oracle) {
      opts.cost_oracle = sim::simulated_cost_oracle({});
    } else {
      opts.cost_db = &stores.cost_db;
      opts.wisdom = &stores.wisdom;
    }
    opts.max_leaf = args.size_or("max-leaf", opts.max_leaf);
    wht::WhtPlanner planner(opts);
    return planner.plan(n, strategy);
  }
  fft::PlannerOptions opts;
  if (oracle) {
    opts.cost_oracle = sim::simulated_cost_oracle({});
  } else {
    opts.cost_db = &stores.cost_db;
    opts.wisdom = &stores.wisdom;
  }
  opts.max_leaf = args.size_or("max-leaf", opts.max_leaf);
  fft::FftPlanner planner(opts);
  return planner.plan(n, strategy);
}

int cmd_plan(const cli::Args& args) {
  Stores stores(args);
  const std::string transform = args.get_or("transform", "fft");
  const index_t n = args.size_or("n", 0);
  if (n < 2) {
    std::cerr << "plan: --n SIZE (>= 2) is required\n";
    return 2;
  }
  const auto strategy = parse_strategy(args.get_or("strategy", "ddl_dp"));
  const plan::TreePtr tree = plan_tree(args, stores, transform, n, strategy);
  std::cout << transform << " " << fmt_pow2(n) << " " << fft::strategy_name(strategy) << ":\n"
            << "  tree:      " << plan::to_string(*tree) << "\n"
            << "  leaves:    " << plan::leaf_count(*tree) << "\n"
            << "  height:    " << plan::height(*tree) << "\n"
            << "  ddl nodes: " << plan::ddl_node_count(*tree) << "\n";
  if (args.has("dot")) std::cout << "\n" << plan::to_dot(*tree);
  return 0;
}

int cmd_run(const cli::Args& args) {
  Stores stores(args);
  const bool is_wht = args.has("wht") || args.get_or("transform", "fft") == "wht";
  plan::TreePtr tree;
  if (const auto grammar = args.get("tree")) {
    tree = plan::parse_tree(*grammar);
  } else {
    const index_t n = args.size_or("n", 0);
    if (n < 2) {
      std::cerr << "run: need --tree or --n\n";
      return 2;
    }
    tree = plan_tree(args, stores, is_wht ? "wht" : "fft", n,
                     parse_strategy(args.get_or("strategy", "ddl_dp")));
  }

  const auto reps = static_cast<int>(args.int_or("reps", 3));
  std::cout << "tree: " << plan::to_string(*tree) << "  (n = " << tree->n << ")\n";
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double secs = is_wht ? wht::WhtPlanner::measure_tree_seconds(*tree, 0.05)
                               : fft::FftPlanner::measure_tree_seconds(*tree, 0.05);
    best = std::min(best, secs);
    std::cout << "  run " << (r + 1) << ": " << fmt_double(secs * 1e3, 3) << " ms\n";
  }
  if (is_wht) {
    std::cout << "best: " << fmt_double(best * 1e3, 3) << " ms  ("
              << fmt_double(benchutil::wht_ns_per_point(tree->n, best), 2) << " ns/point)\n";
  } else {
    std::cout << "best: " << fmt_double(best * 1e3, 3) << " ms  ("
              << fmt_double(benchutil::fft_mflops(tree->n, best), 0)
              << " normalized MFLOPS)\n";
  }
  return 0;
}

// Traced execution: plan (or parse) a tree, run it `reps` times with
// tracing enabled, and report where the time went — per-stage summary to
// stdout, chrome://tracing JSON to --trace, optionally a BENCH-schema JSON
// row (--bench-json) and a cost-database calibration pass (--calibrate).
int cmd_profile(const cli::Args& args) {
  Stores stores(args);
  const bool is_wht = args.has("wht") || args.get_or("transform", "fft") == "wht";
  plan::TreePtr tree;
  std::string strategy_name = "explicit-tree";
  if (const auto grammar = args.get("tree")) {
    tree = plan::parse_tree(*grammar);
  } else {
    index_t n = 0;
    if (const auto pos = args.positional(0)) {
      n = cli::parse_size(*pos);
    } else {
      n = args.size_or("n", 0);
    }
    if (n < 2) {
      std::cerr << "profile: need a SIZE operand, --n SIZE, or --tree GRAMMAR\n";
      return 2;
    }
    const auto strategy = parse_strategy(args.get_or("strategy", "ddl_dp"));
    strategy_name = fft::strategy_name(strategy);
    tree = plan_tree(args, stores, is_wht ? "wht" : "fft", n, strategy);
  }
  if (args.has("threads")) {
    parallel::set_threads(static_cast<int>(args.int_or("threads", 1)));
  }

  const auto reps = static_cast<int>(args.int_or("reps", 5));
  const index_t n = tree->n;
  std::cout << "tree: " << plan::to_string(*tree) << "  (n = " << n << ", "
            << (is_wht ? "wht" : "fft") << ", threads = " << parallel::max_threads()
            << ")\n\n";

  // Two warmups: one untraced (pool spin-up, twiddle tables, page faults),
  // one traced (registers every participating thread's event ring), then
  // reset and trace exactly the steady-state reps.
  double wall = 0.0;
  if (is_wht) {
    wht::WhtExecutor exec(*tree);
    AlignedBuffer<real_t> buf(n);
    for (index_t i = 0; i < n; ++i) buf.data()[i] = static_cast<real_t>(i % 7) - 3.0;
    exec.transform(buf.span());
    obs::enable(true);
    exec.transform(buf.span());
    obs::reset();
    const std::uint64_t t0 = obs::now_ns();
    for (int r = 0; r < reps; ++r) exec.transform(buf.span());
    wall = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    obs::enable(false);
  } else {
    fft::FftExecutor exec(*tree);
    AlignedBuffer<cplx> buf(n);
    for (index_t i = 0; i < n; ++i) {
      buf.data()[i] = cplx(static_cast<double>(i % 5) - 2.0, static_cast<double>(i % 3) - 1.0);
    }
    exec.forward(buf.span());
    obs::enable(true);
    exec.forward(buf.span());
    obs::reset();
    const std::uint64_t t0 = obs::now_ns();
    for (int r = 0; r < reps; ++r) exec.forward(buf.span());
    wall = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    obs::enable(false);
  }

  const obs::Snapshot snap = obs::snapshot();
  obs::write_summary(std::cout, snap);
  const double per_rep = wall / std::max(1, reps);
  std::cout << "\nwall: " << fmt_double(wall * 1e3, 3) << " ms over " << reps << " reps ("
            << fmt_double(per_rep * 1e3, 3) << " ms/rep";
  if (!is_wht) {
    std::cout << ", " << fmt_double(benchutil::fft_mflops(n, per_rep), 0)
              << " normalized MFLOPS";
  }
  std::cout << ")\n";

  const std::string trace_file = args.get_or("trace", "ddlfft_trace.json");
  if (std::ofstream os(trace_file); os) {
    obs::write_chrome_trace(os, snap);
    std::cout << "trace: " << trace_file << "  (load in chrome://tracing or ui.perfetto.dev)\n";
  } else {
    std::cerr << "profile: cannot write trace file '" << trace_file << "'\n";
  }

  if (const auto bench_file = args.get("bench-json")) {
    benchutil::BenchJsonWriter writer("ddlfft_profile");
    benchutil::BenchRecord rec;
    rec.n = n;
    rec.strategy = strategy_name;
    rec.tree = plan::to_string(*tree);
    rec.threads = parallel::max_threads();
    rec.seconds = per_rep;
    rec.mflops = is_wht ? 0.0 : benchutil::fft_mflops(n, per_rep);
    for (const obs::StageStats& s : obs::summarize(snap)) {
      rec.stage_share.emplace_back(obs::stage_name(s.stage), s.self_seconds / wall);
    }
    writer.add(rec);
    if (!writer.write(*bench_file)) {
      std::cerr << "profile: cannot write bench JSON '" << *bench_file << "'\n";
    } else {
      std::cout << "bench json: " << *bench_file << "\n";
    }
  }

  if (args.has("calibrate")) {
    const plan::IngestStats ing = plan::ingest_stage_costs(stores.cost_db, snap);
    std::cout << "calibrated " << ing.keys_written << " cost keys from " << ing.events_used
              << " stage events"
              << (stores.cost_file.empty() ? " (pass --costdb FILE to persist them)" : "")
              << "\n";
    if (ing.events_unmapped > 0) {
      std::cerr << "profile: warning: " << ing.events_unmapped
                << " traced work events had no cost-key mapping and were dropped "
                   "(calibration gap)\n";
    }
  }
  return 0;
}

int cmd_simulate(const cli::Args& args) {
  const bool is_wht = args.has("wht");
  plan::TreePtr tree;
  if (const auto grammar = args.get("tree")) {
    tree = plan::parse_tree(*grammar);
  } else {
    const index_t n = args.size_or("n", 0);
    if (n < 2) {
      std::cerr << "simulate: need --tree or --n\n";
      return 2;
    }
    tree = is_wht ? wht::balanced_wht_tree(n, 64) : fft::balanced_tree(n, 32);
  }

  cache::CacheConfig cfg;
  cfg.size_bytes = static_cast<std::size_t>(args.size_or("cache", 512 * 1024));
  cfg.line_bytes = static_cast<std::size_t>(args.size_or("line", 64));
  cfg.associativity = static_cast<int>(args.int_or("assoc", 1));
  const std::string pf = args.get_or("prefetch", "none");
  if (pf == "next") cfg.prefetch = cache::Prefetch::next_line;
  if (pf == "stream") cfg.prefetch = cache::Prefetch::stream;
  cfg.split_remiss = args.has("split-remiss");

  cache::Cache sim_cache(cfg);
  if (is_wht) {
    sim::trace_wht(*tree, sim_cache);
  } else {
    sim::trace_fft(*tree, sim_cache);
  }

  const auto& s = sim_cache.stats();
  std::cout << "tree: " << plan::to_string(*tree) << "\n"
            << "cache: " << fmt_bytes(cfg.size_bytes) << " " << cfg.associativity
            << "-way, " << cfg.line_bytes << "B lines, prefetch=" << pf << "\n"
            << "accesses:   " << s.accesses << "\n"
            << "misses:     " << s.misses << "  (" << fmt_double(s.miss_rate() * 100, 2)
            << "%)\n";
  if (cfg.split_remiss) {
    std::cout << "  compulsory " << s.compulsory_misses << ", capacity " << s.capacity_misses
              << ", conflict " << s.conflict_misses << "\n";
  } else {
    // Legacy lumped line — byte-identical to pre-split output.
    std::cout << "  compulsory " << s.compulsory_misses << ", conflict/capacity "
              << s.conflict_misses << "\n";
  }
  std::cout << "prefetch:   " << s.prefetch_fills << " fills, " << s.prefetch_hits
            << " useful\n";
  return 0;
}

/// Parse one "--cache" level spec: SIZE[:ASSOC[:LINE]], e.g. "32K:8:64".
/// ASSOC 0 means fully associative, matching CacheConfig::associativity.
cache::CacheConfig parse_cache_spec(const std::string& spec) {
  cache::CacheConfig cfg;
  cfg.associativity = 1;
  std::size_t start = 0;
  int field = 0;
  while (start <= spec.size()) {
    const std::size_t colon = spec.find(':', start);
    const std::string tok =
        spec.substr(start, colon == std::string::npos ? std::string::npos : colon - start);
    if (tok.empty()) throw std::invalid_argument("empty field in cache spec '" + spec + "'");
    switch (field++) {
      case 0: cfg.size_bytes = static_cast<std::size_t>(cli::parse_size(tok)); break;
      case 1: cfg.associativity = static_cast<int>(cli::parse_size(tok)); break;
      case 2: cfg.line_bytes = static_cast<std::size_t>(cli::parse_size(tok)); break;
      default:
        throw std::invalid_argument("cache spec '" + spec + "' has more than 3 fields");
    }
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  cfg.validate();  // line-numbered geometry errors before any analysis runs
  return cfg;
}

// analyze-plan: the symbolic cache-miss analyzer as a CLI surface. Prints a
// per-stage prediction table, the footprint-coverage cross-check, and the
// whole-plan totals. Pure static analysis — deterministic output, suitable
// for golden-file diffs (tools/run_analysis.sh does exactly that).
int cmd_analyze(const cli::Args& args) {
  const bool is_wht = args.has("wht");
  plan::TreePtr tree;
  if (const auto grammar = args.get("tree")) {
    tree = plan::parse_tree(*grammar);
  } else {
    const index_t n = args.size_or("n", 0);
    if (n < 2) {
      std::cerr << "analyze-plan: need --tree or --n\n";
      return 2;
    }
    tree = is_wht ? wht::balanced_wht_tree(n, 64) : fft::balanced_tree(n, 32);
  }

  verify::cachepred::AnalyzeOptions opts;
  opts.transform = is_wht ? verify::Transform::wht : verify::Transform::fft;
  const std::string spec = args.get_or("cache", "32K:8,512K:1");
  const std::size_t comma = spec.find(',');
  opts.l1 = parse_cache_spec(spec.substr(0, comma));
  if (comma != std::string::npos) {
    opts.l2 = parse_cache_spec(spec.substr(comma + 1));
  } else {
    opts.l2.size_bytes = 0;  // single-level analysis
  }
  opts.align_bytes = std::max(opts.l1.line_bytes,
                              opts.l2.size_bytes != 0 ? opts.l2.line_bytes : 0);
  // The table separates capacity from conflict misses at both levels.
  opts.l1.split_remiss = true;
  opts.l2.split_remiss = true;

  const verify::cachepred::CacheReport report = verify::cachepred::analyze_plan(*tree, opts);
  const bool two_level = opts.l2.size_bytes != 0;

  std::cout << "tree: " << plan::to_string(*tree) << "  (n = " << tree->n << ", "
            << (is_wht ? "wht" : "fft") << ")\n"
            << "L1: " << fmt_bytes(opts.l1.size_bytes) << " " << opts.l1.associativity
            << "-way, " << opts.l1.line_bytes << "B lines";
  if (two_level) {
    std::cout << "  L2: " << fmt_bytes(opts.l2.size_bytes) << " " << opts.l2.associativity
              << "-way, " << opts.l2.line_bytes << "B lines";
  }
  std::cout << "\n\n";

  TableWriter stages({"node", "op", "accesses", "l1_miss", "l1_comp", "l1_cap", "l1_conf",
                      "l2_miss", "bytes", "closed"});
  for (const auto& st : report.stages) {
    const auto& p = st.predict;
    stages.add_row({st.pass.node_path, st.pass.op, std::to_string(p.l1.accesses),
                    std::to_string(p.l1.misses), std::to_string(p.l1.compulsory_misses),
                    std::to_string(p.l1.capacity_misses), std::to_string(p.l1.conflict_misses),
                    two_level ? std::to_string(p.l2.misses) : "-",
                    std::to_string(p.bytes_moved), p.closed_form ? "yes" : "no"});
  }
  stages.print(std::cout, "predicted per-stage misses (each stage cold)");

  std::cout << "\n";
  TableWriter cover({"node", "op", "status", "detail"});
  for (const auto& c : report.coverage) {
    const char* status = "uncovered";
    switch (c.status) {
      case verify::cachepred::Coverage::modeled: status = "modeled"; break;
      case verify::cachepred::Coverage::expanded: status = "expanded"; break;
      case verify::cachepred::Coverage::waived: status = "waived"; break;
      case verify::cachepred::Coverage::uncovered: status = "uncovered"; break;
    }
    cover.add_row({c.node_path, c.op, status, c.detail});
  }
  cover.print(std::cout, "footprint-stage coverage cross-check");

  std::cout << "\ntotals: " << report.total_l1.accesses << " accesses, "
            << report.total_l1.misses << " L1 misses (" << report.total_l1.compulsory_misses
            << " compulsory, " << report.total_l1.capacity_misses << " capacity, "
            << report.total_l1.conflict_misses << " conflict)";
  if (two_level) std::cout << ", " << report.total_l2.misses << " L2 misses";
  std::cout << ", " << report.bytes_moved << " bytes moved\n"
            << "coverage: " << (report.covered() ? "complete" : "INCOMPLETE") << "\n";
  return report.covered() ? 0 : 1;
}

/// Tree from --tree GRAMMAR, or planned from --transform/--n/--strategy.
plan::TreePtr resolve_tree(const cli::Args& args, Stores& stores, bool is_wht) {
  if (const auto grammar = args.get("tree")) return plan::parse_tree(*grammar);
  const index_t n = args.size_or("n", 0);
  if (n < 2) throw std::invalid_argument("need --tree GRAMMAR or --n SIZE");
  return plan_tree(args, stores, is_wht ? "wht" : "fft", n,
                   parse_strategy(args.get_or("strategy", "ddl_dp")));
}

int cmd_verify(const cli::Args& args) {
  Stores stores(args);
  const bool is_wht = args.has("wht") || args.get_or("transform", "fft") == "wht";
  const auto tree = resolve_tree(args, stores, is_wht);

  verify::VerifyOptions opts;
  opts.transform = is_wht ? verify::Transform::wht : verify::Transform::fft;
  opts.root_stride = args.size_or("stride", 1);
  opts.scratch_capacity = args.size_or("scratch", -1);
  opts.require_codelets = args.has("strict");

  const auto report = verify::verify_plan(*tree, opts);
  std::cout << "tree: " << plan::to_string(*tree) << "  (n = " << tree->n << ", "
            << (is_wht ? "wht" : "fft") << ")\n"
            << "scratch demand: " << verify::scratch_requirement(*tree, opts.transform)
            << " of " << (opts.scratch_capacity >= 0 ? opts.scratch_capacity : 2 * tree->n)
            << " elements\n"
            << report.to_string() << "\n";
  return report.ok() ? 0 : 1;
}

int cmd_explain(const cli::Args& args) {
  Stores stores(args);
  const bool is_wht = args.has("wht") || args.get_or("transform", "fft") == "wht";
  const auto tree = resolve_tree(args, stores, is_wht);
  const auto kind = is_wht ? verify::Transform::wht : verify::Transform::fft;

  std::cout << "tree: " << plan::to_string(*tree) << "  (n = " << tree->n << ", "
            << (is_wht ? "wht" : "fft") << ")\n"
            << "leaves " << plan::leaf_count(*tree) << ", height " << plan::height(*tree)
            << ", ddl nodes " << plan::ddl_node_count(*tree) << ", scratch demand "
            << verify::scratch_requirement(*tree, kind) << " elements\n\n";

  // Per-node view: implied Property-1 strides, layout, and leaf codelets.
  TableWriter nodes({"node", "size", "stride", "layout", "kernel"});
  struct Walk {
    bool wht;
    TableWriter& table;
    void visit(const plan::Node& node, index_t stride, const std::string& path) {
      std::string layout = node.is_leaf() ? "-" : (node.ddl ? "ddl" : "static");
      std::string kernel = "-";
      if (node.is_leaf()) {
        const bool has = wht ? codelets::has_wht_codelet(node.n)
                             : codelets::has_dft_codelet(node.n);
        kernel = has ? "codelet" : "fallback";
      }
      table.add_row({path, std::to_string(node.n), std::to_string(stride), layout, kernel});
      if (node.is_leaf()) return;
      const index_t n2 = node.right->n;
      visit(*node.left, node.ddl ? 1 : stride * n2, path + ".L");
      visit(*node.right, stride, path + ".R");
    }
  } walk{is_wht, nodes};
  walk.visit(*tree, args.size_or("stride", 1), "root");
  nodes.print(std::cout, "nodes (strides per Property 1)");

  // Parallel stages and their write footprints (the race-analysis model).
  // "lanes" is the batched-kernel fusion width of a leaf loop (1 = scalar).
  TableWriter stages({"node", "stage", "space", "chunks", "jump", "count", "step", "lanes"});
  for (const auto& stage : verify::enumerate_stages(*tree, kind)) {
    const auto& f = stage.writes;
    stages.add_row({stage.node_path, stage.op,
                    f.space == verify::Space::scratch ? "scratch" : "data",
                    std::to_string(f.chunks), std::to_string(f.jump),
                    std::to_string(f.count), std::to_string(f.stride),
                    std::to_string(stage.lane_batch)});
  }
  std::cout << "\n";
  stages.print(std::cout, "parallel stages (per-chunk write sets, node-stride units)");

  const auto report = verify::verify_plan(*tree, {kind});
  std::cout << "\n" << report.to_string() << "\n";
  if (args.has("dot")) std::cout << "\n" << plan::to_dot(*tree);
  return report.ok() ? 0 : 1;
}

int cmd_compare(const cli::Args& args) {
  Stores stores(args);
  const std::string transform = args.get_or("transform", "fft");
  const index_t n = args.size_or("n", 0);
  if (n < 2) {
    std::cerr << "compare: --n SIZE is required\n";
    return 2;
  }
  TableWriter table({"strategy", "tree", "time_ms", "metric"});
  for (const auto strategy : {fft::Strategy::rightmost, fft::Strategy::balanced,
                              fft::Strategy::sdl_dp, fft::Strategy::ddl_dp}) {
    const auto tree = plan_tree(args, stores, transform, n, strategy);
    const double secs = transform == "wht"
                            ? wht::WhtPlanner::measure_tree_seconds(*tree, 0.05)
                            : fft::FftPlanner::measure_tree_seconds(*tree, 0.05);
    const std::string metric =
        transform == "wht"
            ? fmt_double(benchutil::wht_ns_per_point(n, secs), 2) + " ns/pt"
            : fmt_double(benchutil::fft_mflops(n, secs), 0) + " MFLOPS";
    table.add_row({fft::strategy_name(strategy), plan::to_string(*tree),
                   fmt_double(secs * 1e3, 3), metric});
  }
  table.print(std::cout, transform + " " + fmt_pow2(n).c_str());
  return 0;
}

// serve: spin up a ddl::svc::TransformService, drive it with a small mixed
// FFT/WHT workload from concurrent producers, and print the request
// accounting plus the service's degradation counters. Two explicit modes:
// --inproc submits through the embedded API; --socket PATH serves the
// binary wire protocol on a UNIX-domain socket and drives the same
// workload through wire::SocketClient connections, one tenant id per
// producer. This is the smoke entry point for the service subsystem
// (docs/SERVICE.md); tools/run_analysis.sh runs both modes headless.
// wisdom export/merge: ship planner state between hosts and processes as
// one DDLSNAP file. Export is byte-deterministic (map-ordered stores at
// round-trip precision); merge validates the entire snapshot before
// committing anything (fail-closed) and overlays entries last-writer-wins
// onto the --costdb/--wisdom stores, which the Stores destructor persists.
int cmd_wisdom(const cli::Args& args) {
  const auto action = args.positional(0);
  if (!action || (*action != "export" && *action != "merge")) {
    std::cerr << "wisdom: usage:\n"
                 "  ddlfft wisdom export --out SNAP [--costdb FILE] [--wisdom FILE]\n"
                 "  ddlfft wisdom merge  --in SNAP  [--costdb FILE] [--wisdom FILE]\n";
    return 2;
  }
  Stores stores(args);
  if (*action == "export") {
    const std::string out = args.get_or("out", "");
    if (out.empty()) {
      std::cerr << "wisdom export: --out SNAP is required\n";
      return 2;
    }
    if (!plan::save_snapshot(out, stores.cost_db, stores.wisdom)) {
      std::cerr << "wisdom export: cannot write '" << out << "'\n";
      return 1;
    }
    std::cout << "exported " << stores.cost_db.size() << " cost entries and "
              << stores.wisdom.size() << " plans to " << out << "\n";
    return 0;
  }
  const std::string in = args.get_or("in", "");
  if (in.empty()) {
    std::cerr << "wisdom merge: --in SNAP is required\n";
    return 2;
  }
  std::string error;
  if (!plan::merge_snapshot(in, stores.cost_db, stores.wisdom, &error)) {
    std::cerr << "wisdom merge: rejected (stores unchanged): " << error << "\n";
    return 1;
  }
  std::cout << "merged " << in << "; stores now hold " << stores.cost_db.size()
            << " cost entries and " << stores.wisdom.size() << " plans"
            << (stores.cost_file.empty() && stores.wisdom_file.empty()
                    ? " (pass --costdb/--wisdom FILE to persist)"
                    : "")
            << "\n";
  return 0;
}

int cmd_serve(const cli::Args& args) {
  const bool inproc = args.has("inproc");
  const bool socket_mode = args.has("socket");
  if (inproc == socket_mode) {
    std::cerr << "serve: pick exactly one mode: --inproc | --socket PATH\n";
    return 2;
  }
  std::string socket_path;
  if (socket_mode) {
    socket_path = args.get_or("socket", "");
    if (socket_path.empty()) {
      std::cerr << "serve: --socket needs a UNIX socket path\n";
      return 2;
    }
  }
  Stores stores(args);
  const index_t n = args.size_or("n", 1024);
  const int producers = static_cast<int>(args.int_or("producers", 4));
  const int per_producer = static_cast<int>(args.int_or("requests", 64));
  if (args.has("threads")) {
    parallel::set_threads(static_cast<int>(args.int_or("threads", 1)));
  }

  svc::ServiceConfig cfg = svc::ServiceConfig::from_env();
  cfg.plan_dp = args.has("plan");
  cfg.cost_db = &stores.cost_db;
  cfg.wisdom = &stores.wisdom;
  svc::TransformService service(cfg);
  std::unique_ptr<svc::wire::SocketServer> server;
  if (socket_mode) {
    try {
      server = std::make_unique<svc::wire::SocketServer>(service, socket_path);
    } catch (const std::exception& e) {
      std::cerr << "serve: " << e.what() << "\n";
      return 1;
    }
  }

  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> wrong{0};
  {
    std::vector<std::thread> workers;  // ddl-lint: allow(raw-thread)
    workers.reserve(static_cast<std::size_t>(producers));
    for (int t = 0; t < producers; ++t) {
      // Producers are the tenants of the service — the one place outside
      // the pool/batcher/wire layers allowed to own threads. In socket
      // mode each producer is a wire client on its own connection.
      workers.emplace_back([&, t] {
        const auto tenant = static_cast<std::uint32_t>(t);
        std::unique_ptr<svc::wire::SocketClient> client;
        if (socket_mode) {
          try {
            client = std::make_unique<svc::wire::SocketClient>(socket_path);
          } catch (const std::exception&) {
            wrong.fetch_add(per_producer);
            return;
          }
        }
        const auto run_fft = [&](std::span<cplx> data) {
          if (!socket_mode) {
            return service.submit_fft(data, svc::Direction::forward, 0, tenant).get().status;
          }
          svc::wire::RequestFrame rf;
          rf.tenant = tenant;
          rf.kind = svc::Kind::fft;
          rf.cdata.assign(data.begin(), data.end());
          return client->roundtrip(rf).status;
        };
        const auto run_wht = [&](std::span<real_t> data) {
          if (!socket_mode) {
            return service.submit_wht(data, svc::Direction::forward, 0, tenant).get().status;
          }
          svc::wire::RequestFrame rf;
          rf.tenant = tenant;
          rf.kind = svc::Kind::wht;
          rf.rdata.assign(data.begin(), data.end());
          return client->roundtrip(rf).status;
        };
        AlignedBuffer<cplx> signal(n);
        AlignedBuffer<real_t> wsignal(n);
        try {
          for (int i = 0; i < per_producer; ++i) {
            fill_random(signal.span(), static_cast<std::uint64_t>(t * 4096 + i));
            if (run_fft(signal.span()) == svc::Status::ok) {
              ok.fetch_add(1);
            } else {
              shed.fetch_add(1);
            }
            // Every 4th request also exercises the WHT path (power-of-two n
            // only; the service validates and we count `invalid` as wrong).
            if (i % 4 == 3 && (n & (n - 1)) == 0) {
              fill_random(wsignal.span(), static_cast<std::uint64_t>(t * 4096 + i));
              const svc::Status ws = run_wht(wsignal.span());
              if (ws == svc::Status::ok) {
                ok.fetch_add(1);
              } else if (ws == svc::Status::invalid) {
                wrong.fetch_add(1);
              } else {
                shed.fetch_add(1);
              }
            }
          }
        } catch (const std::exception&) {
          // A wire client that lost its connection (server rejected a
          // frame or shut down) counts its remaining work as wrong.
          wrong.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  if (server) server->stop();
  service.drain();

  const std::string mode_label =
      socket_mode ? "serve --socket n=" + fmt_pow2(n) : "serve --inproc n=" + fmt_pow2(n);
  const svc::TransformService::Stats stats = service.stats();
  TableWriter table({"counter", "value"});
  table.add_row({"ok", std::to_string(ok.load())});
  table.add_row({"shed", std::to_string(shed.load())});
  table.add_row({"submitted", std::to_string(stats.submitted)});
  table.add_row({"completed", std::to_string(stats.completed)});
  table.add_row({"rejected_full", std::to_string(stats.rejected_full)});
  table.add_row({"quota_rejected", std::to_string(stats.quota_rejected)});
  table.add_row({"deadline_expired", std::to_string(stats.deadline_expired)});
  table.add_row({"batches", std::to_string(stats.batches)});
  table.add_row({"batched_requests", std::to_string(stats.batched_requests)});
  table.add_row({"critical_batches", std::to_string(stats.critical_batches)});
  table.add_row({"fallback_plans", std::to_string(stats.fallback_plans)});
  table.add_row({"model_fallbacks", std::to_string(stats.model_fallbacks)});
  table.add_row({"queue_peak", std::to_string(stats.queue_peak)});
  if (server) {
    table.add_row({"wire_connections", std::to_string(server->connections_accepted())});
    table.add_row({"wire_rejected_frames", std::to_string(server->frames_rejected())});
  }
  for (const auto& [id, ts] : stats.tenants) {
    table.add_row({"tenant[" + std::to_string(id) + "] served/shed",
                   std::to_string(ts.served) + "/" + std::to_string(ts.shed)});
  }
  table.print(std::cout, mode_label);

  if (wrong.load() != 0 || stats.backlog != 0 || ok.load() == 0) {
    std::cerr << "serve: smoke failed (wrong=" << wrong.load()
              << " backlog=" << stats.backlog << " ok=" << ok.load() << ")\n";
    return 1;
  }
  std::cout << "serve: " << ok.load() << " transforms served, clean drain\n";
  return 0;
}

// stream: the streaming signal-processing smoke (docs/STREAMING.md). A
// COLA-normalized STFT pass (identity effect, hop = block) feeds a
// partitioned overlap-save convolver; every chained output block is checked
// against the direct O(total*taps) time-domain reference after the STFT's
// reconstruction transient, and per-block wall latency is reported as
// p50/p99. With --plan the half-size transforms are planned by the DP over
// the (possibly calibrated) cost stores.
int cmd_stream(const cli::Args& args) {
  Stores stores(args);
  const index_t block = args.size_or("block", 512);
  const index_t taps = args.size_or("fir", 257);
  const index_t nblocks = args.size_or("blocks", 200);
  if (args.has("threads")) {
    parallel::set_threads(static_cast<int>(args.int_or("threads", 1)));
  }

  std::unique_ptr<fft::FftPlanner> planner;
  stream::RfftOptions rfft;
  if (args.has("plan")) {
    fft::PlannerOptions popts;
    popts.cost_db = &stores.cost_db;
    popts.wisdom = &stores.wisdom;
    planner = std::make_unique<fft::FftPlanner>(std::move(popts));
    rfft.planner = planner.get();
    rfft.strategy = parse_strategy(args.get_or("strategy", "ddl_dp"));
  }

  stream::StftOptions sopts;
  sopts.hop = block;
  sopts.fft_size = args.size_or("stft-fft", 4 * block);
  sopts.rfft = rfft;
  stream::StftProcessor stft(sopts);

  AlignedBuffer<real_t> fir(taps);
  fill_random(fir.span(), 7);
  stream::ConvolverOptions copts;
  copts.block = block;
  copts.fft_size = args.size_or("fft", 0);
  copts.rfft = rfft;
  stream::PartitionedConvolver conv(fir.span(), copts);

  const index_t total = nblocks * block;
  AlignedBuffer<real_t> x(total);
  AlignedBuffer<real_t> mid(block);
  AlignedBuffer<real_t> y(total);
  fill_random(x.span(), 1);

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(nblocks));
  for (index_t t = 0; t < nblocks; ++t) {
    const std::uint64_t t0 = obs::now_ns();
    stft.process(x.span().subspan(static_cast<std::size_t>(t * block),
                                  static_cast<std::size_t>(block)),
                 mid.span());
    conv.process(mid.span(), y.span().subspan(static_cast<std::size_t>(t * block),
                                              static_cast<std::size_t>(block)));
    lat_us.push_back(static_cast<double>(obs::now_ns() - t0) * 1e-3);
  }

  // Direct reference: y[s] = sum_j h[j] x[s - delay - j], delay being the
  // STFT reconstruction latency. Skip the transient where the STFT frame
  // and the convolver history are still filling with attenuated samples.
  const index_t delay = stft.latency();
  const index_t skip = sopts.fft_size + taps + delay;
  double max_err = 0.0;
  double scale = 0.0;
  for (index_t j = 0; j < taps; ++j) scale += std::abs(fir[j]);
  for (index_t s = skip; s < total; ++s) {
    double ref = 0.0;
    for (index_t j = 0; j < taps; ++j) {
      const index_t src = s - delay - j;
      if (src >= 0) ref += fir[j] * x[src];
    }
    max_err = std::max(max_err, std::abs(y[s] - ref));
  }
  // "2 ULP at the energy scale": the reference itself carries O(taps)
  // rounding and the transforms accumulate error over O(log n) butterfly
  // stages, so the comparison is against the ULP of the output's magnitude
  // bound sum|h| * max|x| * log2(fft), not of individual samples.
  double maxx = 0.0;
  for (index_t s = 0; s < total; ++s) maxx = std::max(maxx, std::abs(x[s]));
  const double bound = scale * maxx * std::log2(static_cast<double>(conv.fft_size()));
  const double ulp = std::nextafter(bound, std::numeric_limits<double>::infinity()) - bound;
  const double tol = 2.0 * ulp;

  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&](double q) {
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(lat_us.size() - 1));
    return lat_us[idx];
  };
  index_t pow2 = 4;
  while (pow2 < block + conv.partition_len() - 1) pow2 *= 2;

  TableWriter table({"metric", "value"});
  table.add_row({"block", std::to_string(block)});
  table.add_row({"stft_fft", std::to_string(sopts.fft_size)});
  table.add_row({"fir_taps", std::to_string(taps)});
  table.add_row({"conv_fft", std::to_string(conv.fft_size())});
  table.add_row({"next_pow2 (avoided)", std::to_string(pow2)});
  table.add_row({"partitions", std::to_string(conv.partitions())});
  table.add_row({"half_plan", conv.fft_size() >= 4 ? "cached" : "-"});
  const auto sci = [](double v) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(3) << v;
    return os.str();
  };
  table.add_row({"p50_us", std::to_string(pct(0.50))});
  table.add_row({"p99_us", std::to_string(pct(0.99))});
  table.add_row({"max_err", sci(max_err)});
  table.add_row({"tolerance", sci(tol)});
  table.print(std::cout, "stream chain block=" + std::to_string(block));

  if (!(max_err <= tol)) {
    std::cerr << "stream: chain deviates from the direct reference (max_err=" << max_err
              << " tol=" << tol << ")\n";
    return 1;
  }
  std::cout << "stream: ok — " << nblocks << " blocks, p50 " << pct(0.50) << " us, p99 "
            << pct(0.99) << " us\n";
  return 0;
}

// autotune: the systematized calibrate -> re-plan -> champion-check loop
// (docs/AUTOTUNING.md). Per size: trace real executions of seed trees on
// THIS host (so every cost key the DP charges — per active ISA — gains an
// in-situ timing), ingest them into the cost database as calibrated
// entries, drop the planner's memo, re-run the DP over measured costs, and
// pit the DP winner against the rightmost baseline on the wall clock. The
// champion lands in wisdom under the ddl_dp strategy, so later plan()
// calls with the same wisdom file start from a tree that already beat the
// baseline here. Unlike every other subcommand, store loads are
// fail-closed: autotuning on top of a corrupt database would launder
// garbage into wisdom.
int cmd_autotune(const cli::Args& args) {
  const std::string cost_file = args.get_or("costdb", "");
  const std::string wisdom_file = args.get_or("wisdom", "");
  plan::CostDb cost_db;
  plan::Wisdom wisdom;
  if (!cost_file.empty() && std::filesystem::exists(cost_file) && !cost_db.load(cost_file)) {
    std::cerr << "autotune: refusing to run against a corrupt cost database: "
              << cost_db.load_error() << "\n";
    return 1;
  }
  if (!wisdom_file.empty() && std::filesystem::exists(wisdom_file) &&
      !wisdom.load(wisdom_file)) {
    std::cerr << "autotune: refusing to run against corrupt wisdom: " << wisdom.load_error()
              << "\n";
    return 1;
  }

  std::vector<index_t> sizes;
  if (const auto list = args.get("sizes")) {
    std::size_t start = 0;
    while (start <= list->size()) {
      const std::size_t comma = list->find(',', start);
      const std::string tok = list->substr(
          start, comma == std::string::npos ? std::string::npos : comma - start);
      if (!tok.empty()) sizes.push_back(cli::parse_size(tok));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  } else if (const index_t n = args.size_or("n", 0); n >= 2) {
    sizes.push_back(n);
  }
  if (sizes.empty()) {
    std::cerr << "autotune: need --n SIZE or --sizes S1,S2,...\n";
    return 2;
  }
  for (const index_t n : sizes) {
    if (n < 2) {
      std::cerr << "autotune: sizes must be >= 2\n";
      return 2;
    }
  }
  if (args.has("threads")) {
    parallel::set_threads(static_cast<int>(args.int_or("threads", 1)));
  }
  const auto reps = static_cast<int>(args.int_or("reps", 3));

  // Deliberately NO wisdom in the planner: recall would short-circuit the
  // DP, and the whole point is to re-run the search over calibrated costs.
  // Wisdom only receives the champion at the end.
  fft::PlannerOptions popts;
  popts.cost_db = &cost_db;
  popts.max_leaf = args.size_or("max-leaf", popts.max_leaf);
  fft::FftPlanner planner(popts);

  std::cout << "autotune: host ISA " << codelets::isa_name(codelets::active_isa())
            << ", threads " << parallel::max_threads() << "\n\n";

  // Predicted-vs-measured agreement: the symbolic cache model, with
  // coefficients fit from this run's calibrated entries, estimates the
  // tuned tree's seconds; "agree" is predicted/measured. A wildly-off ratio
  // flags either a model gap or a calibration artifact — both worth seeing
  // in the tuning log.
  const fft::CacheModelOptions cache_model;
  TableWriter table({"n", "keys", "measured", "dp_ms", "rm_ms", "pred_ms", "agree", "winner",
                     "tree"});
  bool all_ok = true;
  for (const index_t n : sizes) {
    // Phase 1 — calibrate: trace executions of the seed trees so every
    // primitive shape the DP will charge has an in-situ timing.
    const plan::TreePtr rightmost = fft::rightmost_tree(n, popts.max_leaf);
    const plan::TreePtr seed = planner.plan(n, fft::Strategy::ddl_dp);
    obs::enable(true);
    obs::reset();
    for (const plan::Node* t : {rightmost.get(), seed.get()}) {
      fft::FftExecutor exec(*t);
      AlignedBuffer<cplx> buf(n);
      fill_random(buf.span(), 42);
      for (int r = 0; r < reps; ++r) exec.forward(buf.span());
    }
    obs::enable(false);
    const obs::Snapshot snap = obs::snapshot();
    const plan::IngestStats ing = plan::ingest_stage_costs(cost_db, snap);
    if (ing.events_unmapped > 0) {
      std::cerr << "autotune: warning: n=" << fmt_pow2(n) << ": " << ing.events_unmapped
                << " traced work events had no cost-key mapping (calibration gap)\n";
    }
    if (ing.keys_written == 0) {
      std::cerr << "autotune: n=" << fmt_pow2(n)
                << ": calibration produced no cost keys — traced runs recorded nothing\n";
      all_ok = false;
    }

    // Phase 2 — re-plan over the measured costs. Stale memo entries were
    // computed from synthetic probes; drop them first, then demand that the
    // fresh DP actually consulted calibrated entries.
    planner.invalidate();
    planner.reset_cost_stats();
    const plan::TreePtr tuned = planner.plan(n, fft::Strategy::ddl_dp);
    const fft::CostStats cs = planner.cost_stats();
    if (cs.measured_hits == 0) {
      std::cerr << "autotune: n=" << fmt_pow2(n)
                << ": DP ran entirely on synthetic fallbacks (" << cs.synthetic_fallbacks
                << " lookups) — calibration did not reach the planner\n";
      all_ok = false;
    }

    // Phase 3 — champion check on the wall clock. The two contenders are
    // timed in alternating rounds (scheduler drift hits both equally) and
    // the tuned tree must win by a clear margin to dethrone rightmost: a
    // marginal champion flips sign under run-to-run noise, while remembering
    // rightmost at such sizes makes "planner >= rightmost" a tie by
    // construction — the DP keeps only wins it can reproduce.
    constexpr double kChampionMargin = 0.10;
    double dp_s = std::numeric_limits<double>::infinity();
    double rm_s = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 3; ++r) {
      dp_s = std::min(dp_s, fft::FftPlanner::measure_tree_seconds(*tuned, 2e-2));
      rm_s = std::min(rm_s, fft::FftPlanner::measure_tree_seconds(*rightmost, 2e-2));
    }
    const bool dp_wins = dp_s <= rm_s * (1.0 - kChampionMargin);
    const plan::Node& champion = dp_wins ? *tuned : *rightmost;
    wisdom.remember("fft", "ddl_dp", n,
                    {plan::to_string(champion), std::min(dp_s, rm_s)});

    // Phase 4 — model agreement: estimate the tuned tree's time from
    // symbolic miss predictions alone (coefficients fit from the calibrated
    // database, every primitive answered by model_cost through a fresh
    // planner) and compare against the wall clock.
    const auto coeffs = verify::cachepred::fit_coefficients(cost_db, cache_model.l1,
                                                            cache_model.l2);
    fft::PlannerOptions model_opts;
    plan::CostDb model_db;
    model_opts.cost_db = &model_db;
    model_opts.max_leaf = popts.max_leaf;
    model_opts.cost_oracle = [&coeffs, &cache_model](const plan::CostKey& k) {
      return verify::cachepred::model_cost(k, coeffs, cache_model.l1, cache_model.l2);
    };
    fft::FftPlanner model_planner(model_opts);
    const double pred_s = model_planner.estimate_tree_seconds(*tuned);
    const double agree = dp_s > 0.0 ? pred_s / dp_s : 0.0;

    table.add_row({fmt_pow2(n), std::to_string(ing.keys_written),
                   std::to_string(cs.measured_hits) + "/" +
                       std::to_string(cs.measured_hits + cs.synthetic_fallbacks),
                   fmt_double(dp_s * 1e3, 3), fmt_double(rm_s * 1e3, 3),
                   fmt_double(pred_s * 1e3, 3), fmt_double(agree, 2) + "x",
                   dp_wins ? "dp" : "rightmost", plan::to_string(champion)});
  }
  table.print(std::cout, "autotune (champion remembered as ddl_dp)");

  if (!cost_file.empty() && !cost_db.save(cost_file)) {
    std::cerr << "autotune: cannot write cost database '" << cost_file << "'\n";
    all_ok = false;
  }
  if (!wisdom_file.empty() && !wisdom.save(wisdom_file)) {
    std::cerr << "autotune: cannot write wisdom '" << wisdom_file << "'\n";
    all_ok = false;
  }
  if (cost_file.empty() && wisdom_file.empty()) {
    std::cout << "note: pass --costdb/--wisdom FILE to persist the tuning\n";
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = cli::Args::parse(argc, argv);
    int rc = 0;
    if (args.command() == "plan") {
      rc = cmd_plan(args);
    } else if (args.command() == "run") {
      rc = cmd_run(args);
    } else if (args.command() == "profile") {
      rc = cmd_profile(args);
    } else if (args.command() == "simulate") {
      rc = cmd_simulate(args);
    } else if (args.command() == "analyze-plan") {
      rc = cmd_analyze(args);
    } else if (args.command() == "compare") {
      rc = cmd_compare(args);
    } else if (args.command() == "verify" || args.has("verify")) {
      rc = cmd_verify(args);
    } else if (args.command() == "explain-plan" || args.has("explain-plan")) {
      rc = cmd_explain(args);
    } else if (args.command() == "serve") {
      rc = cmd_serve(args);
    } else if (args.command() == "stream") {
      rc = cmd_stream(args);
    } else if (args.command() == "autotune") {
      rc = cmd_autotune(args);
    } else if (args.command() == "wisdom") {
      rc = cmd_wisdom(args);
    } else {
      return usage();
    }
    for (const auto& key : args.unused_keys()) {
      std::cerr << "warning: unused flag --" << key << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "ddlfft: " << e.what() << "\n";
    return 1;
  }
}
