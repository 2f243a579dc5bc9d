# Runs one audited partition scenario end to end and checks the exact
# contract (invoked by ctest, see tools/CMakeLists.txt):
#   EXPECT=violation  bbench must exit 3 (safety violated: the Fig 10
#                     double-spend window) and bbreport must confirm a
#                     double-digit forked-block share;
#   EXPECT=clean      bbench must exit 0 and bbreport must confirm zero
#                     forks plus a post-heal recovery gap.
#
# Required -D vars: BBENCH, BBREPORT, PLATFORM, OUT, EXPECT, DURATION,
#                   PARTITION.

foreach(v BBENCH BBREPORT PLATFORM OUT EXPECT DURATION PARTITION)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "run_audit_scenario: missing -D${v}")
  endif()
endforeach()

execute_process(
  COMMAND ${BBENCH} --platform=${PLATFORM} --workload=ycsb --servers=4
          --clients=4 --rate=30 --duration=${DURATION} --warmup=5
          --partition=${PARTITION} --audit=${OUT}
  RESULT_VARIABLE bbench_rc)

if(EXPECT STREQUAL "violation")
  if(NOT bbench_rc EQUAL 3)
    message(FATAL_ERROR "expected bbench to exit 3 (safety violated), "
                        "got ${bbench_rc}")
  endif()
  execute_process(
    COMMAND ${BBREPORT} --expect-violation --min-forked-pct=10 ${OUT}
    RESULT_VARIABLE report_rc)
elseif(EXPECT STREQUAL "clean")
  if(NOT bbench_rc EQUAL 0)
    message(FATAL_ERROR "expected bbench to exit 0 (ledger safe), "
                        "got ${bbench_rc}")
  endif()
  execute_process(
    COMMAND ${BBREPORT} --fail-on-violation --max-forked-pct=0
            --require-recovery ${OUT}
    RESULT_VARIABLE report_rc)
else()
  message(FATAL_ERROR "unknown EXPECT '${EXPECT}'")
endif()

if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR "bbreport rejected ${OUT} (exit ${report_rc})")
endif()
