# CLI regression for the failure paths of `heterolab run`:
#   * an impossible launch (too many ranks for the machine) exits non-zero
#     and prints the scheduler's reason to stderr, NOT stdout;
#   * an injected fault with no recovery policy exits non-zero with the
#     unrecovered-fault reason on stderr;
#   * the same fault under --recovery ckpt exits zero.
# Run via: cmake -DHETEROLAB=<binary> -P cli_failure_test.cmake

if(NOT DEFINED HETEROLAB)
  message(FATAL_ERROR "pass -DHETEROLAB=<path to heterolab>")
endif()

function(expect_run rc_kind reason_substring)
  execute_process(
    COMMAND ${HETEROLAB} run ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc_kind STREQUAL "fail")
    if(rc EQUAL 0)
      message(FATAL_ERROR "expected non-zero exit for: ${ARGN}")
    endif()
    if(NOT err MATCHES "${reason_substring}")
      message(FATAL_ERROR
        "stderr should name the failure ('${reason_substring}') for "
        "${ARGN}; got stderr: ${err}")
    endif()
    if(out MATCHES "${reason_substring}")
      message(FATAL_ERROR
        "the failure reason leaked to stdout for ${ARGN}: ${out}")
    endif()
  else()
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "expected exit 0 for: ${ARGN}; rc=${rc} stderr: ${err}")
    endif()
  endif()
endfunction()

# Impossible launch: puma has 128 cores, 512 ranks cannot start.
expect_run(fail "LAUNCH FAILED"
  --app rd --platform puma --ranks 512)

# Unrecovered injected fault (seed 4 arms a crash; policy none gives up).
expect_run(fail "unrecovered"
  --app rd --platform puma --ranks 8 --mode direct --cells 4
  --faults 0.05 --recovery none --seed 4)

# The same fault schedule recovers under checkpoint-restart.
expect_run(ok ""
  --app rd --platform puma --ranks 8 --mode direct --cells 4
  --faults 0.05 --recovery ckpt --ckpt-every 2 --seed 4)

# A checkpoint interval below 1 is rejected before launch, not mid-run.
expect_run(fail "checkpoint interval must be >= 1"
  --app rd --platform puma --ranks 8 --mode direct --cells 3
  --recovery ckpt --ckpt-every 0)

# --- skew / balance flag-interaction audit ----------------------------------

# Skew stretches virtual-clock compute charges: meaningless outside direct
# mode, so modeled runs must refuse it loudly.
expect_run(fail "--skew .* needs --mode direct"
  --app rd --platform puma --ranks 8 --skew 2)

# The skew refinement flags are riders on --skew, never free-standing.
expect_run(fail "--skew-fraction/--skew-noise refine --skew"
  --app rd --platform puma --ranks 8 --mode direct --skew-fraction 0.5)

# A slowdown factor below 1 would be a speedup; the plan rejects it.
expect_run(fail "slow_core_factor"
  --app rd --platform puma --ranks 8 --mode direct --skew 0.5)

# Balancing samples live step times: direct mode only.
expect_run(fail "--balance .* needs .*--mode direct"
  --app rd --platform puma --ranks 8 --balance)

# Tuning flags without --balance are a silent no-op waiting to happen.
expect_run(fail "--balance-threshold/--balance-mode tune --balance"
  --app rd --platform puma --ranks 8 --mode direct --balance-threshold 1.5)

# Threshold 1.0 would re-trigger forever on rounding noise.
expect_run(fail "threshold must be > 1"
  --app rd --platform puma --ranks 8 --mode direct --balance
  --balance-threshold 1.0)

# Unknown balance modes fail fast, not at the first rebalance.
expect_run(fail "repartition.*diffuse"
  --app rd --platform puma --ranks 8 --mode direct --balance
  --balance-mode magic)

# Conflicting mid-run controllers: balance vs shrink-on-crash...
expect_run(fail "--balance conflicts with --shrink"
  --app rd --platform puma --ranks 8 --mode direct --balance
  --faults 0.05 --recovery ckpt --shrink)

# ...and balance vs re-brokering.
expect_run(fail "--balance conflicts with --rebroker"
  --app rd --platform puma --ranks 8 --mode direct --balance
  --rebroker smp)

# --steps drives the simulated run; modeled projections have no steps.
expect_run(fail "--steps .* needs .*--mode direct"
  --app rd --platform puma --ranks 8 --steps 5)
expect_run(fail "at least one time step"
  --app rd --platform puma --ranks 8 --mode direct --steps 0)

# The happy path: skewed, balanced direct run exits zero.
expect_run(ok ""
  --app rd --platform puma --ranks 8 --mode direct --cells 4
  --skew 2 --balance --balance-threshold 1.1 --steps 4)

# Enum-valued flags reject typos instead of running another experiment.
expect_run(fail "unknown app 'nss' .expected rd.ns."
  --app nss --platform puma --ranks 8)
expect_run(fail "unknown --mode 'dirct' .expected modeled.direct."
  --app rd --platform puma --ranks 8 --mode dirct)

# Re-brokering riders without --rebroker are silent no-ops waiting to
# happen; the trail rider must not leave an empty trail behind either.
expect_run(fail "--rebroker-hysteresis refines --rebroker"
  --app rd --platform ec2 --ranks 8 --mode direct --rebroker-hysteresis 0.3)
file(REMOVE cli_failure_trail.jsonl)
expect_run(fail "--rebroker-trail refines --rebroker"
  --app rd --platform ec2 --ranks 8 --mode direct
  --rebroker-trail cli_failure_trail.jsonl)
if(EXISTS cli_failure_trail.jsonl)
  message(FATAL_ERROR "a rejected run wrote its --rebroker-trail file")
endif()

# Integer flags are range-checked, not narrowed: --ranks 4294967304 used to
# wrap to 8 and print the 8-rank answer.
execute_process(
  COMMAND ${HETEROLAB} run --app rd --platform puma --ranks 4294967304
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES
   "flag --ranks is out of range \\[-2147483648, 2147483647\\]: 4294967304")
  message(FATAL_ERROR
    "--ranks 4294967304 should exit 1 naming the flag and its range; "
    "rc=${rc} stdout: ${out} stderr: ${err}")
endif()

# An empty integer value is no integer; it used to read as 0.
expect_run(fail "flag --cells is not an integer: \n"
  --app rd --platform puma --ranks 8 --cells=)

# Unknown flags are rejected, not silently ignored.
execute_process(
  COMMAND ${HETEROLAB} run --no-such-flag 1
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown flag --no-such-flag was accepted")
endif()

# --- grid flag-interaction audit ---------------------------------------------
# Same contract as above, for any subcommand.

function(expect_cmd rc_kind reason_substring)
  execute_process(
    COMMAND ${HETEROLAB} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc_kind STREQUAL "fail")
    if(rc EQUAL 0)
      message(FATAL_ERROR "expected non-zero exit for: ${ARGN}")
    endif()
    if(NOT err MATCHES "${reason_substring}")
      message(FATAL_ERROR
        "stderr should name the failure ('${reason_substring}') for "
        "${ARGN}; got stderr: ${err}")
    endif()
    if(out MATCHES "${reason_substring}")
      message(FATAL_ERROR
        "the failure reason leaked to stdout for ${ARGN}: ${out}")
    endif()
  else()
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "expected exit 0 for: ${ARGN}; rc=${rc} stderr: ${err}")
    endif()
  endif()
endfunction()

# The broker prices the app it is asked about, or refuses.
expect_cmd(fail "unknown app 'navier' .expected rd.ns."
  broker --app navier --elements 1000000 --deadline-h 24 --budget-usd 50)

# --store memoizes a request file's answers; on a single job it would be a
# silent no-op that writes no store.
expect_cmd(fail "--store memoizes the answers of a request file: pass --requests"
  broker --app rd --elements 1000000 --store broker-store-without-requests.log)

# A preset is a fixed cell set; a custom sample is another. Never both.
expect_cmd(fail
  "--matrix picks a preset cell set. it conflicts with --cells N .pick one."
  grid --matrix ci --cells 10 --out -)

# Sampling riders without their principal flag are silent no-ops waiting
# to happen.
expect_cmd(fail "--sample-seed seeds the --cells sample: pass --cells N"
  grid --sample-seed 9 --out -)
expect_cmd(fail
  "--abort-after-shards interrupts a resumable run: pass --store PATH"
  grid --abort-after-shards 1 --out -)

# Degenerate values fail fast with the flag named.
expect_cmd(fail "--cells needs at least one cell"
  grid --cells 0 --out -)
expect_cmd(fail "--iterations must be positive"
  grid --matrix smoke --iterations 0 --out -)
expect_cmd(fail "--shard-size must be positive"
  grid --matrix smoke --shard-size 0 --out -)
# A value past 64 bits is out of range too, not clamped.
expect_cmd(fail
  "flag --seed is out of range .-9223372036854775808, 9223372036854775807.: 99999999999999999999"
  grid --matrix smoke --seed 99999999999999999999 --out -)

# Unknown presets are rejected before any expansion work.
expect_cmd(fail "unknown --matrix preset: nightly .expected full.ci.smoke."
  grid --matrix nightly --out -)

# The happy path: the smoke preset renders a report to stdout.
expect_cmd(ok "" grid --matrix smoke --out -)

# Unknown flags on grid are rejected like everywhere else.
execute_process(
  COMMAND ${HETEROLAB} grid --frobnicate 1 --out -
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown flag --frobnicate was accepted by grid")
endif()

message(STATUS "cli_failure_test passed")
