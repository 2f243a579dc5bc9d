# Runs the black-box post-mortem loop end to end (invoked by ctest, see
# tools/CMakeLists.txt):
#   1. an audited partitioned Ethereum-model run must exit 3 AND leave a
#      flight-recorder dump next to the audit report;
#   2. bbreport must validate the dump and render the post-mortem;
#   3. bbench --replay=DUMP must reproduce the SAME safety violation
#      (exit 3 again) — the dump really is a re-runnable recording;
#   4. bbench --replay=DUMP --until=,SEQ (no time bound) must stop at the
#      message-seq breakpoint.
#
# Required -D vars: BBENCH, BBREPORT, OUT (audit report path; the dump
#                   lands at ${OUT}.blackbox.json).

foreach(v BBENCH BBREPORT OUT)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_blackbox_scenario: missing -D${v}")
  endif()
endforeach()

set(DUMP ${OUT}.blackbox.json)

execute_process(
  COMMAND ${BBENCH} --platform=ethereum --workload=ycsb --servers=4
          --clients=4 --rate=30 --duration=90 --warmup=5
          --partition=10:60 --audit=${OUT}
  RESULT_VARIABLE bbench_rc)
if(NOT bbench_rc EQUAL 3)
  message(FATAL_ERROR "expected bbench to exit 3 (safety violated), "
                      "got ${bbench_rc}")
endif()
if(NOT EXISTS ${DUMP})
  message(FATAL_ERROR "audit violation did not write ${DUMP}")
endif()

execute_process(
  COMMAND ${BBREPORT} ${DUMP}
  RESULT_VARIABLE report_rc)
if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR "bbreport rejected ${DUMP} (exit ${report_rc})")
endif()

# The replayed run re-audits (and re-dumps) under different paths so the
# two dumps can coexist; it must find the same violation.
execute_process(
  COMMAND ${BBENCH} --replay=${DUMP} --audit=${OUT}.replay
          --blackbox=${DUMP}.replay
  RESULT_VARIABLE replay_rc)
if(NOT replay_rc EQUAL 3)
  message(FATAL_ERROR "replay did not reproduce the violation "
                      "(exit ${replay_rc}, expected 3)")
endif()

execute_process(
  COMMAND ${BBENCH} --replay=${DUMP} --until=,100
  RESULT_VARIABLE until_rc
  OUTPUT_VARIABLE until_out)
if(NOT until_rc EQUAL 0 OR
   NOT until_out MATCHES "replay stopped at t=[0-9.]+ \\(message-seq breakpoint\\)")
  message(FATAL_ERROR "--until=,100 did not stop at the message-seq "
                      "breakpoint (exit ${until_rc}):\n${until_out}")
endif()
