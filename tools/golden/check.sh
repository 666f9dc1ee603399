#!/usr/bin/env bash
# Diff the deterministic outputs of the cache simulator, the simulated-cost
# planner and the static cache analyzer against the goldens in this
# directory (README.md lists each file with the commands behind it).
#
#   tools/golden/check.sh BUILD_DIR
#
# Registered as the ctest `test_goldens` (label `analysis`). It runs at the
# host's default thread count on purpose: none of these outputs may depend
# on it.
set -uo pipefail

build=${1:?usage: tools/golden/check.sh BUILD_DIR}
dir=$(cd "$(dirname "$0")" && pwd)
ddlfft=$build/apps/ddlfft
status=0

# golden FILE COMMAND...: run COMMAND and diff its stdout against FILE.
golden() {
  local file=$1
  shift
  if ! "$@" | diff -u "$dir/$file" -; then
    echo "golden mismatch: $file" >&2
    status=1
  fi
}

simulate_fft() {
  "$ddlfft" simulate --tree "ctddl(ct(32,32),ct(32,32))" &&
    "$ddlfft" simulate --tree "ct(32,ct(32,ct(32,32)))" &&
    "$ddlfft" simulate --tree "ctddlf(ct(16,16),ct(32,32))" &&
    "$ddlfft" simulate --tree "ctddl(st(512),st(2048))" &&
    "$ddlfft" simulate --tree "ctddl(ct(24,40),24)" &&
    "$ddlfft" simulate --tree "ct(st(64),ct(16,32))" --split-remiss --assoc 2 --prefetch stream
}

simulate_wht() {
  "$ddlfft" simulate --wht --tree "ctddl(ct(32,32),ct(32,32))" &&
    "$ddlfft" simulate --wht --n 2^18
}

plan_oracle() {
  local spec transform n strategy
  for spec in fft:2^16 fft:2^18 wht:2^18 wht:2^20; do
    transform=${spec%%:*}
    n=${spec#*:}
    for strategy in sdl_dp ddl_dp; do
      "$ddlfft" plan --oracle --transform "$transform" --n "$n" --strategy "$strategy" || return
    done
  done
}

golden analyze_ct16_16_16.txt \
  "$ddlfft" analyze-plan --tree "ct(16,ct(16,16))" --cache 32K:8,512K:1
golden analyze_ctddlf16_16_16.txt \
  "$ddlfft" analyze-plan --tree "ctddlf(16,ct(16,16))" --cache 32K:8,512K:1
golden analyze_ct32_32_16_8K2.txt \
  "$ddlfft" analyze-plan --tree "ct(32,ct(32,16))" --cache 8K:2
for bench in fig3_stride_cases fig9_missrate fig10_linesize table2_accesses ablation_prefetch; do
  golden "$bench.txt" "$build/bench/$bench"
done
golden simulate_fft.txt simulate_fft
golden simulate_wht.txt simulate_wht
golden plan_oracle.txt plan_oracle

exit $status
