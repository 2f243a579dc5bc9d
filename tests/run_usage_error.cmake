# Runs bbench on a configuration it cannot run meaningfully and checks
# the usage-error contract (invoked by ctest, see tests/CMakeLists.txt):
# bbench must exit exactly 2 — not 0, not a crash — and its stderr must
# name the flag at fault.
#
# Required -D vars: BBENCH, FLAG (the flag the message must name),
#                   ARGS (bbench arguments, one space-separated string).
# Optional -D vars: EDIT_FROM, EDIT_TO — replay mode: run ARGS with
#                   --blackbox first (it must succeed), replace EDIT_FROM
#                   with EDIT_TO in the dump, and expect the usage error
#                   from `bbench --replay` of the edited dump instead.

foreach(v BBENCH FLAG ARGS)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_usage_error: missing -D${v}")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
set(run_args ${args})
if(DEFINED EDIT_FROM)
  set(dump ${CMAKE_CURRENT_BINARY_DIR}/usage-error-${FLAG}.blackbox.json)
  execute_process(COMMAND ${BBENCH} ${args} --blackbox=${dump}
                  RESULT_VARIABLE record_rc OUTPUT_QUIET)
  if(NOT record_rc EQUAL 0)
    message(FATAL_ERROR "recording run failed (exit ${record_rc})")
  endif()
  file(READ ${dump} text)
  string(FIND "${text}" "${EDIT_FROM}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "dump does not contain '${EDIT_FROM}'")
  endif()
  string(REPLACE "${EDIT_FROM}" "${EDIT_TO}" text "${text}")
  file(WRITE ${dump} "${text}")
  set(run_args --replay=${dump})
endif()

execute_process(COMMAND ${BBENCH} ${run_args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected bbench to exit 2 (usage error), got '${rc}'"
                      "\nstderr: ${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "usage error does not name ${FLAG}; stderr: ${err}")
endif()
