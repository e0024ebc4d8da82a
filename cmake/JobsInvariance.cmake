# Runs a command that takes --jobs (a campaign harness, a perf anchor,
# `califorms fleet`) twice — serial and parallel — and requires
# byte-identical stdout: the engine's determinism guarantee, enforced
# end to end on a real binary.
#
# Usage: cmake -DCMD=<argv joined with '|'> -DJOBS=<n> -P JobsInvariance.cmake

string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd} --jobs 1
                OUTPUT_VARIABLE serial
                ERROR_VARIABLE err1
                RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "'${CMD} --jobs 1' exited with ${rc1}\n${err1}")
endif()
execute_process(COMMAND ${cmd} --jobs ${JOBS}
                OUTPUT_VARIABLE parallel
                ERROR_VARIABLE err2
                RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "'${CMD} --jobs ${JOBS}' exited with ${rc2}\n${err2}")
endif()
if(NOT serial STREQUAL parallel)
  message(FATAL_ERROR "output differs between --jobs 1 and --jobs ${JOBS} for '${CMD}'")
endif()
