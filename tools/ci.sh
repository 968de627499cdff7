#!/usr/bin/env sh
# The one definition of CI. .github/workflows/ci.yml runs each leg below as
# one matrix job; run the same legs locally with this script.
#
# Usage: tools/ci.sh [leg ...]   (default: all)
#   release  Release + -Werror: full ctest, broker smoke, the four
#            paper-figure benches against bench/baselines/ and fig4
#            --jobs 8 == --jobs 1, bench_kernels against kernels.json,
#            bench_svc_throughput against svc.json, and a 5 s perfbench
#            smoke of each workload (correctness gates only)
#   debug    Debug + -Werror: full ctest
#   asan     RelWithDebInfo + ASan/UBSan: full ctest, then the fault,
#            svc, rebroker, loadbalance, proc and grid gates on that build
#   tsan     RelWithDebInfo + TSan: the concurrency and kernel-mode tests
#   all      every leg above, in that order
#
# Each leg configures one build tree, build-ci-<leg>, and writes its gate
# outputs under build-ci-<leg>/ci-out/, which is cleared when the leg
# starts. A failed build stops the script; a failed gate does not stop the
# gates after it: every failure is listed at the end, and the script then
# exits 1. ccache is used automatically when installed.
set -eu

LEGS="release debug asan tsan"

# Portable parallelism: GNU nproc, then POSIX getconf, then BSD sysctl.
detect_jobs() {
  nproc 2>/dev/null ||
    getconf _NPROCESSORS_ONLN 2>/dev/null ||
    sysctl -n hw.ncpu 2>/dev/null ||
    echo 4
}
JOBS="$(detect_jobs)"

LAUNCHER_FLAG=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_FLAG="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

# Gates that failed so far, as LEG:GATE words.
FAILED=""

# build_leg LEG CMAKE_ARGS...: configures and builds build-ci-LEG, then
# sets LEG, BUILD to that tree and OUT to its emptied ci-out/ directory.
build_leg() {
  echo "== ci leg: $1 =="
  LEG="$1"
  BUILD="build-ci-$1"
  OUT="$BUILD/ci-out"
  shift
  # $LAUNCHER_FLAG is intentionally unquoted: empty means "no extra flag".
  # shellcheck disable=SC2086
  cmake -B "$BUILD" -S . $LAUNCHER_FLAG "$@"
  cmake --build "$BUILD" -j "$JOBS"
  rm -rf "$OUT"
  mkdir -p "$OUT"
}

# run_gate GATE [ARGS...]: runs GATE in a subshell with errexit on, so its
# first failing command fails it, and records the failure instead of
# stopping the leg. The gate must not run on the left of || or as an if
# condition: errexit is off there, and a gate whose first command failed
# would run on and report success.
run_gate() {
  set +e
  (set -e; "$@")
  rc=$?
  set -e
  if [ "$rc" -ne 0 ]; then
    FAILED="$FAILED $LEG:$1"
  fi
}

# run_ctest [CTEST_ARGS...]: the suite (or the -R subset given) on $BUILD.
run_ctest() {
  ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" --timeout 600 "$@"
}

# bench_vs_baseline NAME BASELINE ARGS...: runs bench_NAME ARGS, table to
# $OUT/NAME.txt and JSONL to $OUT/NAME.jsonl, and holds the JSONL to
# bench/baselines/BASELINE.json.
bench_vs_baseline() {
  name="$1"
  baseline="$2"
  shift 2
  "$BUILD/bench/bench_$name" "$@" --json "$OUT/$name.jsonl" \
      > "$OUT/$name.txt"
  python3 tools/check_bench.py --baseline "bench/baselines/$baseline.json" \
      "$OUT/$name.jsonl"
}

# jobs_byte_diff NAME ARGS...: bench_NAME --jobs 8 ARGS must reproduce the
# --jobs 1 table and JSONL bench_vs_baseline wrote for it, byte for byte.
jobs_byte_diff() {
  name="$1"
  shift
  "$BUILD/bench/bench_$name" --jobs 8 "$@" \
      --json "$OUT/$name.jobs8.jsonl" > "$OUT/$name.jobs8.txt"
  diff "$OUT/$name.txt" "$OUT/$name.jobs8.txt"
  diff "$OUT/$name.jsonl" "$OUT/$name.jobs8.jsonl"
}

gate_broker_smoke() {
  "$BUILD/tools/heterolab" broker --app rd --elements 1000000 \
      --deadline-h 24 --budget-usd 50
  "$BUILD/bench/bench_broker_frontier"
}

# The paper's figures and tables hold their shape invariants (flat lagrange
# curve, 1 GbE degradation, ~4.4x spot discount, ...), and the campaign
# engine's --jobs 8 output is byte-identical to the sequential sweep.
gate_paper_benches() {
  for bench in fig4_rd_weak_scaling fig5_ns_weak_scaling fig6_rd_cost \
               table2_placement_groups; do
    bench_vs_baseline "$bench" "$bench" --jobs 1
  done
  jobs_byte_diff fig4_rd_weak_scaling
}

# Fast/reference speedups and arithmetic intensities of the hot kernels.
gate_kernels() {
  bench_vs_baseline kernels kernels
}

# Warm-restart throughput of the advisory daemon; timing needs Release.
gate_svc_throughput() {
  bench_vs_baseline svc_throughput svc
}

# perfbench builds its own tree under $BUILD/perfbench and runs each
# workload for 5 s. Its exit status carries the workloads' correctness
# gates: rd convergence and nodal error, the grid report digest and counts,
# and the svc pinned answers and failing-id set. No timing is checked.
gate_perfbench() {
  for workload in rd_p27 grid_full svc_restart; do
    CARGO_TARGET_DIR="$BUILD" python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 5 \
        > "$OUT/perfbench.$workload.txt"
  done
}

# Fault injection and recovery against its baseline; fault schedules are
# pure hashes of the seed, so --jobs 8 reproduces --jobs 1.
gate_faults() {
  bench_vs_baseline ablation_failure_recovery ablation_failure_recovery \
      --jobs 1
  jobs_byte_diff ablation_failure_recovery
}

# 10k piped requests split across a mid-stream restart: the second process
# warm-starts from the first one's memo store, and the concatenated answers
# must be byte-identical to one unbroken run.
gate_svc_soak() {
  python3 tools/gen_svc_requests.py --total 10000 --unique 100 \
      > "$OUT/svc.all.jsonl"
  python3 tools/gen_svc_requests.py --total 5000 --unique 100 \
      > "$OUT/svc.first.jsonl"
  python3 tools/gen_svc_requests.py --total 5000 --unique 100 \
      --skip 5000 --start-id 5000 > "$OUT/svc.second.jsonl"
  for part in first second; do
    "$BUILD/tools/heterolab" serve --store "$OUT/svc.memo.log" \
        --queue 16384 < "$OUT/svc.$part.jsonl" > "$OUT/svc.out.$part.jsonl"
  done
  "$BUILD/tools/heterolab" serve --store "$OUT/svc.memo-fresh.log" \
      --queue 16384 < "$OUT/svc.all.jsonl" > "$OUT/svc.out.all.jsonl"
  cat "$OUT/svc.out.first.jsonl" "$OUT/svc.out.second.jsonl" \
      | grep -v '"type":"bye"' > "$OUT/svc.split.jsonl"
  grep -v '"type":"bye"' "$OUT/svc.out.all.jsonl" > "$OUT/svc.unbroken.jsonl"
  diff "$OUT/svc.split.jsonl" "$OUT/svc.unbroken.jsonl"
  python3 tools/check_bench.py --schema svc "$OUT/svc.out.all.jsonl"
}

# At a 3% storm rate the adaptive plan must beat the static one on
# completion AND dollars, and the decision trail must parse as
# heterolab-rebroker-v1. Migration decisions are pure functions of seed and
# virtual time, so --jobs 8 and a fresh same-seed process reproduce the
# trail byte for byte.
gate_rebroker() {
  bench_vs_baseline ablation_rebroker rebroker --jobs 1 \
      --trail "$OUT/rebroker_trail.jsonl"
  python3 tools/check_bench.py --schema rebroker "$OUT/rebroker_trail.jsonl"
  jobs_byte_diff ablation_rebroker --trail "$OUT/rebroker_trail.jobs8.jsonl"
  diff "$OUT/rebroker_trail.jsonl" "$OUT/rebroker_trail.jobs8.jsonl"
  "$BUILD/bench/bench_ablation_rebroker" --jobs 8 \
      --trail "$OUT/rebroker_trail.rerun.jsonl" > /dev/null
  diff "$OUT/rebroker_trail.jsonl" "$OUT/rebroker_trail.rerun.jsonl"
}

# Balancing must win >= 1.2x of modeled time at 27 ranks under 2x skew while
# zero-skew cells stay bitwise; skew is a pure hash of (seed, platform,
# rank), so --jobs 8 reproduces --jobs 1.
gate_loadbalance() {
  bench_vs_baseline ablation_load_balance load_balance --jobs 1
  jobs_byte_diff ablation_load_balance
}

# A 500-experiment campaign on 4 workers with 5% crash, hang and exit chaos
# each completes byte-identical to a fault-free reference minus quarantined
# poison jobs (the bench exits non-zero on any violation or leaked child),
# and the worker pool reproduces the in-process pool's stdout.
gate_proc_soak() {
  "$BUILD/bench/bench_proc_chaos_soak" --experiments 500 --workers 4 \
      --json "$OUT/proc_chaos_soak.jsonl"
  "$BUILD/tools/heterolab" fig4 --workers 4 > "$OUT/fig4.w4.txt"
  "$BUILD/tools/heterolab" fig4 --workers 0 > "$OUT/fig4.w0.txt"
  diff "$OUT/fig4.w0.txt" "$OUT/fig4.w4.txt"
}

# The self-checking matrix bench; the 500-cell ci matrix on 4 workers held
# to bench/baselines/grid.json and the cross-cell invariants, and rerun
# byte-identically in 8-cell shards; a SIGTERM after 4 of 8 shards resumed
# byte-identically from the store; and under --seed 43 every stochastic
# cell moves while no calm cell does.
gate_grid() {
  "$BUILD/bench/bench_grid_matrix" --matrix ci \
      --json "$OUT/grid_matrix.jsonl"
  "$BUILD/tools/heterolab" grid --matrix ci --workers 4 \
      --store "$OUT/grid.ci.log" --out "$OUT/grid.ci.jsonl"
  python3 tools/check_bench.py --schema grid \
      --baseline bench/baselines/grid.json "$OUT/grid.ci.jsonl"
  # About 63 batches through one supervisor: per-batch state (job windows,
  # shard logs that keep growing) must not leak into the answers.
  "$BUILD/tools/heterolab" grid --matrix ci --workers 4 --shard-size 8 \
      --out "$OUT/grid.ci.shard8.jsonl"
  diff "$OUT/grid.ci.jsonl" "$OUT/grid.ci.shard8.jsonl"
  rc=0
  "$BUILD/tools/heterolab" grid --matrix ci --shard-size 64 \
      --abort-after-shards 4 --store "$OUT/grid.resume.log" \
      --out "$OUT/grid.interrupted.jsonl" || rc=$?
  if [ "$rc" -ne 143 ]; then
    echo "ci: FAIL — interrupted grid run exited $rc, want 143 (SIGTERM)" >&2
    exit 1
  fi
  "$BUILD/tools/heterolab" grid --matrix ci --shard-size 64 \
      --store "$OUT/grid.resume.log" --out "$OUT/grid.resumed.jsonl"
  diff "$OUT/grid.ci.jsonl" "$OUT/grid.resumed.jsonl"
  "$BUILD/tools/heterolab" grid --matrix ci --seed 43 \
      --out "$OUT/grid.seed43.jsonl"
  python3 tools/check_bench.py --schema grid "$OUT/grid.seed43.jsonl" \
      --against "$OUT/grid.ci.jsonl" --expect-stochastic-drift
}

leg_release() {
  build_leg release -DCMAKE_BUILD_TYPE=Release -DHETERO_WERROR=ON
  run_gate run_ctest
  run_gate gate_broker_smoke
  run_gate gate_paper_benches
  run_gate gate_kernels
  run_gate gate_svc_throughput
  run_gate gate_perfbench
}

leg_debug() {
  build_leg debug -DCMAKE_BUILD_TYPE=Debug -DHETERO_WERROR=ON
  run_gate run_ctest
}

leg_asan() {
  build_leg asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=address
  run_gate run_ctest
  run_gate gate_faults
  run_gate gate_svc_soak
  run_gate gate_rebroker
  run_gate gate_loadbalance
  run_gate gate_proc_soak
  run_gate gate_grid
}

# TSan slows tests ~10x, so it runs the tests that exercise cross-thread
# code: rank fibers over host threads, halo exchange, the sharded metric
# state, the campaign engine's pool, the kernel-mode differentials, and the
# direct-run abort path (core_test's Runner.DirectFault* and
# Runner.UnrecoveredFault*, and the faulted and rebalanced runs of the
# host-thread table in kernels_host_threads_test).
leg_tsan() {
  build_leg tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DHETERO_SANITIZE=thread
  run_gate run_ctest -R '^(simmpi_test|resil_test|la_test|la_prop_test|kernels_diff_test|kernels_host_threads_test|obs_test|core_test|campaign_engine_test|rebroker_test|lb_test|svc_test|proc_test|grid_test)$'
}

if [ "$#" -eq 0 ]; then
  set -- all
fi
for leg in "$@"; do
  case " $LEGS all " in
    *" $leg "*) ;;
    *)
      echo "ci: unknown leg '$leg' (expected $(echo $LEGS | tr ' ' '|')|all)" >&2
      exit 2
      ;;
  esac
done
for leg in "$@"; do
  if [ "$leg" = all ]; then
    for each in $LEGS; do
      "leg_$each"
    done
  else
    "leg_$leg"
  fi
done

if [ -n "$FAILED" ]; then
  for gate in $FAILED; do
    echo "ci: FAIL — gate $gate" >&2
  done
  exit 1
fi
echo "ci: all requested legs passed ($*)"
