# Regression suite for tools/check_bench.py --schema grid: hand-built
# fixture reports exercise every cross-cell invariant (stream order, cell
# ids, capability/summary tallies, frontier non-domination, the
# balanced<=unbalanced rule), the --against differential gates, the
# count/forall baseline check types, and the malformed-baseline KeyError
# path (which used to traceback in svc mode instead of failing cleanly).
# Every invocation also asserts the validator never leaks a Python
# traceback — failures are diagnoses, not crashes.
# Run via: cmake -DPYTHON=<python3> -DCHECK_BENCH=<check_bench.py>
#               -DWORK_DIR=<scratch dir> -P check_bench_test.cmake

foreach(var PYTHON CHECK_BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_pass label)
  execute_process(
    COMMAND ${PYTHON} ${CHECK_BENCH} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(err MATCHES "Traceback")
    message(FATAL_ERROR "${label}: validator crashed:\n${err}")
  endif()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${label}: expected PASS, rc=${rc}\nstdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

function(expect_fail label pattern)
  execute_process(
    COMMAND ${PYTHON} ${CHECK_BENCH} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(err MATCHES "Traceback")
    message(FATAL_ERROR "${label}: validator crashed:\n${err}")
  endif()
  if(rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected FAIL, got PASS\nstdout: ${out}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
      "${label}: stderr should diagnose '${pattern}'; got: ${err}")
  endif()
endfunction()

# --- the fixture report ------------------------------------------------------
# Four cells on two platforms: a calm anchor, a skew/skew-balanced twin
# pair (20 s vs 15 s), and a capability failure. One frontier point, tallies
# consistent. Mutations below each break exactly one invariant.

set(S "\"schema\":\"heterolab-grid-v1\"")
set(HDR "{${S},\"type\":\"header\",\"matrix\":\"custom\",\"matrix_seed\":\"0x000000000000002a\",\"iterations\":100,\"cardinality\":8,\"cells\":4,\"sampled\":true,\"axes\":{}}")
set(C0 "{${S},\"type\":\"cell\",\"cell\":0,\"label\":\"puma/8/rd-p2/c20/calm/calm/time/r0\",\"platform\":\"puma\",\"ranks\":8,\"app_pair\":\"rd/p2\",\"resolution\":20,\"fault\":\"calm\",\"skewlb\":\"calm\",\"objective\":\"time\",\"rep\":0,\"stochastic\":false,\"seed\":\"0x2a\",\"launched\":true,\"queue_wait_s\":1.0,\"total_s\":10.0,\"cost_usd\":1.0,\"skew_imbalance\":1.0,\"run_s\":1000.0,\"effective_s\":1001.0,\"score\":1000.0}")
set(C1 "{${S},\"type\":\"cell\",\"cell\":1,\"label\":\"puma/8/rd-p2/c20/calm/skew/time/r0\",\"platform\":\"puma\",\"ranks\":8,\"app_pair\":\"rd/p2\",\"resolution\":20,\"fault\":\"calm\",\"skewlb\":\"skew\",\"objective\":\"time\",\"rep\":0,\"stochastic\":true,\"seed\":\"0x91\",\"launched\":true,\"queue_wait_s\":1.0,\"total_s\":20.0,\"cost_usd\":2.0,\"skew_imbalance\":1.8,\"run_s\":2000.0,\"effective_s\":2001.0,\"score\":2000.0}")
set(C2 "{${S},\"type\":\"cell\",\"cell\":2,\"label\":\"puma/8/rd-p2/c20/calm/skew-balanced/time/r0\",\"platform\":\"puma\",\"ranks\":8,\"app_pair\":\"rd/p2\",\"resolution\":20,\"fault\":\"calm\",\"skewlb\":\"skew-balanced\",\"objective\":\"time\",\"rep\":0,\"stochastic\":true,\"seed\":\"0x91\",\"launched\":true,\"queue_wait_s\":1.0,\"total_s\":15.0,\"cost_usd\":1.5,\"skew_imbalance\":1.8,\"run_s\":1500.0,\"effective_s\":1501.0,\"score\":1500.0}")
set(C3 "{${S},\"type\":\"cell\",\"cell\":3,\"label\":\"ec2/512/rd-p2/c20/calm/calm/cost/r0\",\"platform\":\"ec2\",\"ranks\":512,\"app_pair\":\"rd/p2\",\"resolution\":20,\"fault\":\"calm\",\"skewlb\":\"calm\",\"objective\":\"cost\",\"rep\":0,\"stochastic\":false,\"seed\":\"0x2a\",\"launched\":false,\"failure_reason\":\"insufficient capacity\",\"total_s\":null,\"cost_usd\":null,\"score\":null}")
set(CAP_PUMA "{${S},\"type\":\"capability\",\"platform\":\"puma\",\"cells\":3,\"launched\":3,\"failed\":0,\"max_launched_ranks\":8,\"reasons\":[]}")
set(CAP_EC2 "{${S},\"type\":\"capability\",\"platform\":\"ec2\",\"cells\":1,\"launched\":0,\"failed\":1,\"max_launched_ranks\":0,\"reasons\":[\"insufficient capacity\"]}")
set(FR0 "{${S},\"type\":\"frontier\",\"app_pair\":\"rd/p2\",\"seq\":0,\"cell\":0,\"platform\":\"puma\",\"ranks\":8,\"time_s\":10.0,\"cost_usd\":1.0}")
set(SUM "{${S},\"type\":\"summary\",\"cells\":4,\"launched\":3,\"failed\":1,\"stochastic_cells\":2,\"calm_cells\":2,\"unique_experiments\":4,\"frontier_points\":1}")

function(write_report path)
  set(content "")
  foreach(line ${ARGN})
    string(APPEND content "${${line}}\n")
  endforeach()
  file(WRITE ${path} "${content}")
endfunction()

write_report(${WORK_DIR}/good.jsonl
  HDR C0 C1 C2 C3 CAP_PUMA CAP_EC2 FR0 SUM)
expect_pass("good report" ${WORK_DIR}/good.jsonl --schema grid)

# Missing header: the stream contract is order-anchored on it.
write_report(${WORK_DIR}/noheader.jsonl
  C0 C1 C2 C3 CAP_PUMA CAP_EC2 FR0 SUM)
expect_fail("missing header" "must start with exactly one header"
  ${WORK_DIR}/noheader.jsonl --schema grid)

# Duplicate cell id (cell 1 relabeled as 0).
string(REPLACE "\"cell\":1," "\"cell\":0," C1_DUP "${C1}")
write_report(${WORK_DIR}/dup.jsonl
  HDR C0 C1_DUP C2 C3 CAP_PUMA CAP_EC2 FR0 SUM)
expect_fail("duplicate cell id" "strictly increasing"
  ${WORK_DIR}/dup.jsonl --schema grid)

# A required cell key dropped.
string(REPLACE "\"seed\":\"0x2a\"," "" C0_NOSEED "${C0}")
write_report(${WORK_DIR}/noseed.jsonl
  HDR C0_NOSEED C1 C2 C3 CAP_PUMA CAP_EC2 FR0 SUM)
expect_fail("missing cell key" "cell record missing 'seed'"
  ${WORK_DIR}/noseed.jsonl --schema grid)

# Stochastic flag contradicting the axes (a skew cell claiming calm).
string(REPLACE "\"stochastic\":true" "\"stochastic\":false" C1_FLAG "${C1}")
write_report(${WORK_DIR}/stochflag.jsonl
  HDR C0 C1_FLAG C2 C3 CAP_PUMA CAP_EC2 FR0 SUM)
expect_fail("stochastic flag" "contradicts the axes"
  ${WORK_DIR}/stochflag.jsonl --schema grid)

# A failed cell carrying numbers instead of nulls.
string(REPLACE "\"total_s\":null" "\"total_s\":5.0" C3_NUM "${C3}")
write_report(${WORK_DIR}/failedshape.jsonl
  HDR C0 C1 C2 C3_NUM CAP_PUMA CAP_EC2 FR0 SUM)
expect_fail("failed cell shape" "must be null"
  ${WORK_DIR}/failedshape.jsonl --schema grid)

# Balanced twin modeled slower than its bulk-synchronous twin.
string(REPLACE "\"total_s\":15.0" "\"total_s\":25.0" C2_SLOW "${C2}")
write_report(${WORK_DIR}/balance.jsonl
  HDR C0 C1 C2_SLOW C3 CAP_PUMA CAP_EC2 FR0 SUM)
expect_fail("balanced slower" "exceeds its unbalanced twin"
  ${WORK_DIR}/balance.jsonl --schema grid)

# Capability tally out of step with the cell records.
string(REPLACE "\"launched\":3" "\"launched\":2" CAP_BAD "${CAP_PUMA}")
write_report(${WORK_DIR}/capbad.jsonl
  HDR C0 C1 C2 C3 CAP_BAD CAP_EC2 FR0 SUM)
expect_fail("capability tally" "cell records say 3"
  ${WORK_DIR}/capbad.jsonl --schema grid)

# Summary tally out of step.
string(REPLACE "\"launched\":3" "\"launched\":2" SUM_BAD "${SUM}")
write_report(${WORK_DIR}/sumbad.jsonl
  HDR C0 C1 C2 C3 CAP_PUMA CAP_EC2 FR0 SUM_BAD)
expect_fail("summary tally" "summary launched = 2"
  ${WORK_DIR}/sumbad.jsonl --schema grid)

# A dominated frontier point: cell 3 now launches (12 s, \$2) and joins the
# frontier, but cell 0 (10 s, \$1) dominates it.
set(C3_OK "{${S},\"type\":\"cell\",\"cell\":3,\"label\":\"ec2/512/rd-p2/c20/calm/calm/cost/r0\",\"platform\":\"ec2\",\"ranks\":512,\"app_pair\":\"rd/p2\",\"resolution\":20,\"fault\":\"calm\",\"skewlb\":\"calm\",\"objective\":\"cost\",\"rep\":0,\"stochastic\":false,\"seed\":\"0x2a\",\"launched\":true,\"queue_wait_s\":2.0,\"total_s\":12.0,\"cost_usd\":2.0,\"skew_imbalance\":1.0,\"run_s\":1200.0,\"effective_s\":1202.0,\"score\":200.0}")
set(CAP_EC2_OK "{${S},\"type\":\"capability\",\"platform\":\"ec2\",\"cells\":1,\"launched\":1,\"failed\":0,\"max_launched_ranks\":512,\"reasons\":[]}")
set(FR1 "{${S},\"type\":\"frontier\",\"app_pair\":\"rd/p2\",\"seq\":1,\"cell\":3,\"platform\":\"ec2\",\"ranks\":512,\"time_s\":12.0,\"cost_usd\":2.0}")
set(SUM_FR "{${S},\"type\":\"summary\",\"cells\":4,\"launched\":4,\"failed\":0,\"stochastic_cells\":2,\"calm_cells\":2,\"unique_experiments\":4,\"frontier_points\":2}")
write_report(${WORK_DIR}/dominated.jsonl
  HDR C0 C1 C2 C3_OK CAP_PUMA CAP_EC2_OK FR0 FR1 SUM_FR)
expect_fail("dominated frontier" "dominated"
  ${WORK_DIR}/dominated.jsonl --schema grid)

# --- the --against differential gates ----------------------------------------

# A report is always byte-identical to itself.
expect_pass("against self" ${WORK_DIR}/good.jsonl --schema grid
  --against ${WORK_DIR}/good.jsonl)

# A calm cell drifting between runs is the cardinal sin.
string(REPLACE "\"total_s\":10.0" "\"total_s\":10.5" C0_DRIFT "${C0}")
string(REPLACE "\"time_s\":10.0" "\"time_s\":10.5" FR0_DRIFT "${FR0}")
write_report(${WORK_DIR}/calmdrift.jsonl
  HDR C0_DRIFT C1 C2 C3 CAP_PUMA CAP_EC2 FR0_DRIFT SUM)
expect_fail("calm drift" "calm cell drifted"
  ${WORK_DIR}/calmdrift.jsonl --schema grid
  --against ${WORK_DIR}/good.jsonl)

# Identical stochastic cells under --expect-stochastic-drift mean the
# matrix seed never reached them.
expect_fail("no stochastic drift" "byte-identical across perturbed"
  ${WORK_DIR}/good.jsonl --schema grid
  --against ${WORK_DIR}/good.jsonl --expect-stochastic-drift)

# A genuinely re-seeded report: stochastic cells moved, calm cells did not.
string(REPLACE "\"total_s\":20.0" "\"total_s\":19.0" C1_SEEDED "${C1}")
string(REPLACE "\"total_s\":15.0" "\"total_s\":14.0" C2_SEEDED "${C2}")
write_report(${WORK_DIR}/reseeded.jsonl
  HDR C0 C1_SEEDED C2_SEEDED C3 CAP_PUMA CAP_EC2 FR0 SUM)
expect_pass("stochastic drift" ${WORK_DIR}/reseeded.jsonl --schema grid
  --against ${WORK_DIR}/good.jsonl --expect-stochastic-drift)

# The flag pair is grid-only and ordered.
expect_fail("against needs grid" "apply to --schema grid"
  ${WORK_DIR}/good.jsonl --schema svc --against ${WORK_DIR}/good.jsonl)

# --- count / forall baseline checks ------------------------------------------

file(WRITE ${WORK_DIR}/count_ok.json
  "{\"checks\":[{\"type\":\"count\",\"match\":{\"type\":\"cell\"},\"min\":4,\"max\":4}]}")
expect_pass("count ok" ${WORK_DIR}/good.jsonl --schema grid
  --baseline ${WORK_DIR}/count_ok.json)

file(WRITE ${WORK_DIR}/count_bad.json
  "{\"checks\":[{\"type\":\"count\",\"match\":{\"type\":\"cell\"},\"min\":5}]}")
expect_fail("count short" "count" ${WORK_DIR}/good.jsonl --schema grid
  --baseline ${WORK_DIR}/count_bad.json)

file(WRITE ${WORK_DIR}/forall_bad.json
  "{\"checks\":[{\"type\":\"forall\",\"match\":{\"type\":\"cell\",\"launched\":true},\"field\":\"total_s\",\"min\":12.0}]}")
expect_fail("forall floor" "total_s" ${WORK_DIR}/good.jsonl --schema grid
  --baseline ${WORK_DIR}/forall_bad.json)

# A forall matching nothing must fail, not silently hold.
file(WRITE ${WORK_DIR}/forall_vacuous.json
  "{\"checks\":[{\"type\":\"forall\",\"match\":{\"platform\":\"nowhere\"},\"field\":\"total_s\",\"min\":0.0}]}")
expect_fail("vacuous forall" "vacuous" ${WORK_DIR}/good.jsonl --schema grid
  --baseline ${WORK_DIR}/forall_vacuous.json)

# --- malformed baselines fail cleanly, in every schema mode ------------------
# (the svc path used to raise a bare KeyError traceback here)

file(WRITE ${WORK_DIR}/nofield.json
  "{\"checks\":[{\"type\":\"value\",\"match\":{\"type\":\"header\"}}]}")
expect_fail("grid baseline missing key" "baseline missing key"
  ${WORK_DIR}/good.jsonl --schema grid
  --baseline ${WORK_DIR}/nofield.json)

file(WRITE ${WORK_DIR}/svc_min.jsonl
  "{\"schema\":\"heterolab-svc-v1\",\"type\":\"pong\",\"id\":1}\n{\"schema\":\"heterolab-svc-v1\",\"type\":\"bye\",\"id\":2,\"served\":1}\n")
expect_pass("svc fixture sane" ${WORK_DIR}/svc_min.jsonl --schema svc)
file(WRITE ${WORK_DIR}/svc_nofield.json
  "{\"checks\":[{\"type\":\"value\",\"match\":{\"type\":\"pong\"}}]}")
expect_fail("svc baseline missing key" "baseline missing key"
  ${WORK_DIR}/svc_min.jsonl --schema svc
  --baseline ${WORK_DIR}/svc_nofield.json)

# --- the perf trajectory (--trajectory) --------------------------------------
# A BENCH file lists every workload and end-to-end metric of the repository's
# BENCHMARK.json; every median and quartile is 1.0 except the change's
# setup_s median. A first file within its parent's bounds passes; a second
# whose setup_s median is 30% worse than the first's (bound 25%) fails.

function(write_bench path setup)
  set(workloads "")
  foreach(workload rd_p27 grid_full svc_restart)
    set(metrics "")
    foreach(metric setup_s:s op_p50_ms:ms op_tail_ms:ms ops_per_s:1/s
                   peak_rss_mb:MB)
      string(REPLACE ":" ";" metric ${metric})
      list(GET metric 0 name)
      list(GET metric 1 unit)
      set(change 1.0)
      if(name STREQUAL "setup_s")
        set(change ${setup})
      endif()
      list(APPEND metrics "\"${name}\":{\"unit\":\"${unit}\",\"parent\":{\"median\":1.0,\"q1\":1.0,\"q3\":1.0},\"change\":{\"median\":${change},\"q1\":1.0,\"q3\":1.0}}")
    endforeach()
    string(JOIN "," metrics ${metrics})
    list(APPEND workloads "\"${workload}\":{\"metrics\":{${metrics}}}")
  endforeach()
  string(JOIN "," workloads ${workloads})
  file(WRITE ${path} "{\"workloads\":{${workloads}}}")
endfunction()

write_bench(${WORK_DIR}/BENCH_1.json 0.9)
write_bench(${WORK_DIR}/BENCH_2.json 1.17)
expect_pass("trajectory within bounds" --trajectory ${WORK_DIR}/BENCH_1.json)
expect_fail("trajectory regressed" "setup_s.*worse than 0.9"
  --trajectory ${WORK_DIR}/BENCH_1.json ${WORK_DIR}/BENCH_2.json)

message(STATUS "check_bench_test passed")
