# Runs a command that must FAIL: a non-zero exit code AND a stderr
# diagnostic containing the marker. The negative twin of
# SmokeTest.cmake — it pins the error contract of the CLI (malformed
# configuration input is rejected loudly, never silently ignored or
# treated as an empty list).
#
# Usage: cmake -DCMD=<argv joined with '|'> -DMARKER=<string>
#              [-DRC=<exit code>] -P CliFails.cmake
# With RC set, the exit code must be exactly that value (1 = runtime
# error, 2 = usage error) rather than merely non-zero.

string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${CMD}' was expected to fail but exited 0\nstdout:\n${out}")
endif()
if(DEFINED RC AND NOT rc EQUAL RC)
  message(FATAL_ERROR "'${CMD}' exited ${rc}, expected ${RC}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${MARKER}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "diagnostic '${MARKER}' not found on stderr of '${CMD}':\nstderr:\n${err}\nstdout:\n${out}")
endif()
