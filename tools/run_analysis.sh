#!/usr/bin/env bash
# run_analysis.sh — the full static/dynamic analysis gate, as run in CI.
#
#   1. tools/ddl_lint.py           project-specific lint (stride-arith,
#                                  reinterpret-cast, naked-new, require-entry,
#                                  raw-clock, raw-thread, stream-alloc,
#                                  wire-copy, stage-coverage)
#   2. clang-tidy                  .clang-tidy profile over src/ and apps/
#                                  (skipped with a note if not installed)
#   3. default preset              warning-free -Werror build + full ctest
#   4. profile smoke               `ddlfft profile` must emit valid
#                                  chrome-trace JSON (the obs exporter gate)
#   5. svc loadgen smoke           short closed+open-loop run of the ddl::svc
#                                  load generator: must resolve every future
#                                  (no hangs) and emit valid BENCH_svc.json
#   5c. serve-socket smoke         `ddlfft serve --socket` round-trips the
#                                  wire protocol over a UNIX socket (server +
#                                  thin clients in one process), and the mode
#                                  flags reject ambiguous invocations (exit 2)
#   5d. svc sustained (not --fast) full loadgen run refreshing BENCH_svc.json
#                                  at the repo root: per-tenant p50/p99/p99.9
#                                  rows, the fairness gate — light-tenant
#                                  p99 under flood within 2x its solo p99
#                                  (loadgen exit 3 = fairness regression) —
#                                  and the soak gate: 3 overload/recovery
#                                  cycles whose backlog and probe p99 must
#                                  return to baseline (exit 4 = leak)
#   5b. stream smoke               `ddlfft stream` chain verify (RFFT/STFT/
#                                  partitioned convolution vs direct
#                                  reference) + stream_latency JSON export
#   5e. benchmark smoke (not --fast) `python3 benchmark/run.py --smoke`
#                                  builds the repository benchmark in its own
#                                  tree and runs all four workloads at 1/20
#                                  length; fails if any workload's output
#                                  check fails (correct=false: a wrong
#                                  result, or an svc request shed or late)
#   6. autotune smoke              `ddlfft autotune` on tiny sizes: calibrate
#                                  from traced runs, re-plan over measured
#                                  costs (fails if the DP never consulted
#                                  them), persist costdb+wisdom, and verify
#                                  a corrupt costdb is rejected fail-closed
#   6b. goldens                    tools/golden/check.sh (also the ctest
#                                  `test_goldens`): `ddlfft analyze-plan` on
#                                  three canonical trees, the paper-figure
#                                  simulator benches, `ddlfft simulate` and
#                                  `ddlfft plan --oracle`, diffed against
#                                  checked-in goldens. All are deterministic
#                                  by construction, so any drift is a model
#                                  change that must be reviewed (and the
#                                  goldens regenerated)
#   7. asan preset (Debug)         full suite under AddressSanitizer with the
#                                  ddl::verify admission gate live
#   8. ubsan preset (Debug)        full suite under UBSanitizer, gate live
#   9. tsan preset                 concurrency-labelled tests (thread pool,
#                                  obs per-thread rings, test_svc's 8-producer
#                                  stress) under ThreadSanitizer
#  10. nosimd preset               full suite with DDL_SIMD=OFF — the scalar
#                                  fallback build every non-x86/ARM target
#                                  gets must stay green on its own
#
# Any finding or failure exits non-zero. Usage: tools/run_analysis.sh [--fast]
# (--fast skips the sanitizer and nosimd suites, the sustained svc run and
# the benchmark smoke).

set -u -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS="$(nproc 2>/dev/null || echo 4)"
FAILURES=()

note()  { printf '\n== %s ==\n' "$*"; }
check() { # check <name> <cmd...>
  local name="$1"; shift
  note "$name"
  if "$@"; then
    printf -- '-- %s: OK\n' "$name"
  else
    printf -- '-- %s: FAILED\n' "$name"
    FAILURES+=("$name")
  fi
}

# 1. project lint -------------------------------------------------------------
check "ddl_lint" python3 tools/ddl_lint.py

# 2. clang-tidy ---------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  run_tidy() {
    cmake --preset default >/dev/null &&
      cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
      git ls-files 'src/**/*.cpp' 'apps/*.cpp' |
        xargs -r clang-tidy -p build --quiet
  }
  check "clang-tidy" run_tidy
else
  note "clang-tidy"
  echo "-- clang-tidy: not installed, skipped (lint coverage via ddl_lint only)"
fi

# 3. default build + full test suite -----------------------------------------
run_preset() { # run_preset <name> [ctest extra args...]
  local preset="$1"; shift
  cmake --preset "$preset" &&
    cmake --build --preset "$preset" -j "$JOBS" &&
    ctest --preset "$preset" -j "$JOBS" "$@"
}
check "default (-Werror) build+test" run_preset default

# 4. observability smoke: the profile subcommand's trace must be valid JSON --
profile_smoke() {
  ./build/apps/ddlfft profile 2^12 --reps 2 --trace build/profile_smoke.json \
    >/dev/null &&
    python3 -c "import json; json.load(open('build/profile_smoke.json'))"
}
check "ddlfft profile smoke (chrome-trace JSON)" profile_smoke

# 5. service smoke: the load generator must resolve every future and write a
#    valid BENCH JSON row. Exit 2 (open loop too slow to shed on this host)
#    is acceptable here — the smoke gates hangs and output shape, not
#    saturation; the full saturation run is a bench-trajectory concern.
svc_smoke() {
  DDL_BENCH_JSON=build/BENCH_svc_smoke.json \
    ./build/bench/svc_loadgen --n 2^10 --requests 64 --producers 4 \
      --open-ms 150 >/dev/null
  local rc=$?
  [[ "$rc" == 0 || "$rc" == 2 ]] &&
    python3 -c "import json; json.load(open('build/BENCH_svc_smoke.json'))"
}
check "svc_loadgen smoke (BENCH_svc JSON, no hangs)" svc_smoke

# 5c. serve-socket smoke: the wire protocol end to end — `ddlfft serve
#     --socket` runs the socket server plus thin wire clients in one process
#     and fails if any round-trip mismatches the direct API. The mode flags
#     are usage-gated: no mode (or both modes) must exit 2, not hang.
serve_socket_smoke() {
  local sock="build/serve_smoke.sock"
  rm -f "$sock"
  ./build/apps/ddlfft serve --socket "$sock" --n 2^10 --producers 2 \
    --requests 16 >/dev/null || return 1
  ./build/apps/ddlfft serve --n 2^10 >/dev/null 2>&1
  local rc=$?
  [[ "$rc" == 2 ]] || { echo "serve without a mode exited $rc, want 2"; return 1; }
  return 0
}
check "ddlfft serve --socket smoke (wire round-trip + mode gating)" serve_socket_smoke

# 5b. streaming smoke: the RFFT -> STFT -> partitioned-convolver chain must
#     verify against its direct reference (exit 1 on mismatch) and the
#     latency bench must emit valid JSON for the three block sizes.
stream_smoke() {
  ./build/apps/ddlfft stream --block 256 --fir 129 --blocks 32 >/dev/null &&
    DDL_BENCH_JSON=build/BENCH_stream_smoke.json \
      ./build/bench/stream_latency --blocks 64 >/dev/null &&
    python3 -c "
import json
rows = json.load(open('build/BENCH_stream_smoke.json'))['rows']
assert len(rows) >= 3, rows
assert all('p50_us' in r['extra'] and 'p99_us' in r['extra'] for r in rows)
"
}
check "ddlfft stream smoke (chain verify + BENCH_stream JSON)" stream_smoke

# 5e. benchmark smoke: the repository benchmark (benchmark/README.md) at 1/20
#     length. run.py exits 0 whenever every workload produced a report, so
#     the step reads its last stdout line and fails unless every workload's
#     output verified. Skipped by --fast: it configures and builds its own
#     Release tree (.bench_build/).
if [[ "$FAST" == "0" ]]; then
  bench_smoke() {
    python3 benchmark/run.py --smoke --out build/bench_smoke > build/bench_smoke.txt ||
      { cat build/bench_smoke.txt; return 1; }
    tail -n 1 build/bench_smoke.txt | python3 -c "
import json, sys
line = json.load(sys.stdin)
assert line['correct'] and line['attempted'] > 0, line
"
  }
  check "benchmark smoke (run.py --smoke, every workload verified)" bench_smoke
else
  note "benchmark smoke"
  echo "-- benchmark smoke: skipped (--fast)"
fi

# 5d. sustained service run: refreshes the committed BENCH_svc.json at the
#     repo root and enforces the multi-tenant fairness figure. Exit 2 (open
#     loop failed to shed) is tolerated like the smoke; exit 3 — the light
#     tenant's p99 under flood blew past 2x its solo p99 — is the scheduling
#     regression this step exists to catch.
if [[ "$FAST" == "0" ]]; then
  svc_sustained() {
    DDL_BENCH_JSON=BENCH_svc.json \
      ./build/bench/svc_loadgen --requests 512 --open-ms 300 --soak-cycles 3 \
      >/dev/null
    local rc=$?
    [[ "$rc" == 0 || "$rc" == 2 ]] || return 1
    python3 -c "
import json
rows = json.load(open('BENCH_svc.json'))['rows']
tenant = {r['strategy']: r['extra'] for r in rows if r['strategy'].startswith('tenant_')}
assert {'tenant_light_solo', 'tenant_light_skewed', 'tenant_heavy_skewed'} <= tenant.keys(), rows
assert all('p999_us' in x for x in tenant.values()), tenant
assert tenant['tenant_light_skewed']['p99_vs_solo_ratio'] <= 2.0, tenant
cycles = [r['extra'] for r in rows if r['strategy'] == 'soak_cycle']
assert len(cycles) == 3, rows
assert all(c['recovered'] == 1.0 and c['backlog_after'] == 0.0 for c in cycles), cycles
"
  }
  check "svc sustained loadgen (BENCH_svc.json + fairness gate)" svc_sustained
else
  note "svc sustained loadgen"
  echo "-- svc sustained: skipped (--fast); committed BENCH_svc.json left as-is"
fi

# 6. autotune smoke: tiny-size calibrate + re-plan must work end to end, the
#    stores must persist, and a corrupt cost database must be rejected
#    (fail-closed) rather than silently tuned over.
autotune_smoke() {
  rm -f build/autotune_costdb.txt build/autotune_wisdom.txt
  ./build/apps/ddlfft autotune --sizes 256,1024 --reps 2 \
    --costdb build/autotune_costdb.txt --wisdom build/autotune_wisdom.txt \
    >/dev/null &&
    [[ -s build/autotune_costdb.txt && -s build/autotune_wisdom.txt ]] &&
    grep -q 'calib' build/autotune_costdb.txt || return 1
  # Fail-closed check: a garbage costdb must abort the run, not be ignored.
  printf 'not a cost database\n' > build/autotune_corrupt.txt
  if ./build/apps/ddlfft autotune --n 256 --reps 1 \
      --costdb build/autotune_corrupt.txt >/dev/null 2>&1; then
    echo "autotune accepted a corrupt cost database"
    return 1
  fi
  return 0
}
check "ddlfft autotune smoke (calibrate + re-plan, fail-closed stores)" autotune_smoke

# 6b. goldens: the static analyzer, the cache simulator and the simulated-
#     cost planner are byte-identical across hosts and thread counts, so
#     their outputs diff against checked-in goldens — the same script the
#     ctest `test_goldens` (label `analysis`) runs. Drift means a model
#     changed; review it, then regenerate via tools/golden/README.md.
check "goldens (tools/golden/check.sh)" bash tools/golden/check.sh build

# 7/8/9. sanitizer suites -----------------------------------------------------
if [[ "$FAST" == "0" ]]; then
  check "asan build+test" run_preset asan
  check "ubsan build+test" run_preset ubsan
  check "tsan build+test (concurrency label)" run_preset tsan
else
  note "sanitizers"
  echo "-- asan/ubsan/tsan: skipped (--fast)"
fi

# 10. scalar-only build: DDL_SIMD=OFF must pass the whole suite ---------------
if [[ "$FAST" == "0" ]]; then
  check "nosimd build+test (DDL_SIMD=OFF)" run_preset nosimd
else
  note "nosimd"
  echo "-- nosimd: skipped (--fast)"
fi

# ----------------------------------------------------------------------------
note "summary"
if ((${#FAILURES[@]})); then
  printf 'analysis FAILED: %s\n' "${FAILURES[*]}"
  exit 1
fi
echo "analysis clean"
