# The paper's largest process count, run directly: 1000 ranks as fibers on
# the host's CPUs must finish and reproduce the modeled per-iteration total
# with the exact-solution oracle holding.
# Run via: cmake -DHETEROLAB=... -P cli_direct_p1000_test.cmake

execute_process(
  COMMAND "${HETEROLAB}" run --app rd --platform ec2 --ranks 1000
          --mode direct --cells 1 --steps 2
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "direct p=1000 run exited ${rc}:\n${out}${err}")
endif()
foreach(want "total         15.534 s/iter"
             "direct run    nodal error 0.0000000000, solver converged")
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "direct p=1000 output lacks '${want}':\n${out}")
  endif()
endforeach()
