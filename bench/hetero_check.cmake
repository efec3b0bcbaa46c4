# End-to-end checks of the heterogeneous co-execution backend, run by ctest:
#   1. --device=hetero --hetero-ratio=1 must reproduce the pure-Mali figures
#      of merit (every shared cell metric equal within 1e-6 relative),
#   2. --device=hetero --hetero-ratio=0 must reproduce the pure-A15 figures
#      of merit the same way, and
#   3. a self-tuned hetero run must stay within the regression threshold of
#      the committed results/baseline_hetero.json.
# Endpoint runs are --fp32: the hetero context keeps the Mali compiler
# configuration (fp64 erratum), so amcd/fp64 is unavailable under hetero but
# available under --device=a15 — comparing fp32 keeps the cell sets aligned.
# Aggregated counters/histograms/gauges and the sim_throughput sections are
# excluded from the endpoint equality check (huge prefix thresholds): the
# hetero run records the extra Hetero-column launches and meter windows on
# top of the shared variants, and the _host rates are wall-clock.
# Driven via -DFIG=... -DBENCH=... -DOUT_DIR=... -DBASELINE=... -P this-file.
foreach(var FIG BENCH OUT_DIR BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "hetero_check: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(neutral_aggregates
  "--threshold-spec=counter/=1e18,hist/=1e18,gauge/=1e18,sim_throughput/=1e18,sim_throughput_host/=1e18")

function(run_fig2 out_json)
  execute_process(
    COMMAND "${FIG}" fig2 --quick --threads=1 "--bench-json=${out_json}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "malisim-fig fig2 ${ARGN} failed (exit ${rc})")
  endif()
endfunction()

function(expect_match baseline candidate what)
  execute_process(
    COMMAND "${BENCH}" "--baseline=${baseline}" "--candidate=${candidate}"
      --threshold=0.000001 "${neutral_aggregates}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${what}: malisim-bench exited ${rc}, want 0 — the hetero endpoint "
      "does not reproduce the single-backend figures of merit")
  endif()
endfunction()

run_fig2("${OUT_DIR}/mali_fp32.json" --fp32)
run_fig2("${OUT_DIR}/a15_fp32.json" --fp32 --device=a15)
run_fig2("${OUT_DIR}/hetero_r1.json" --fp32 --device=hetero --hetero-ratio=1)
run_fig2("${OUT_DIR}/hetero_r0.json" --fp32 --device=hetero --hetero-ratio=0)

expect_match("${OUT_DIR}/mali_fp32.json" "${OUT_DIR}/hetero_r1.json"
  "hetero ratio=1 vs pure Mali")
expect_match("${OUT_DIR}/a15_fp32.json" "${OUT_DIR}/hetero_r0.json"
  "hetero ratio=0 vs pure A15")

# Self-tuned hetero run (both precisions) against the committed baseline,
# with the same 5% gate the default-device CI step uses.
run_fig2("${OUT_DIR}/hetero_auto.json" --device=hetero)
execute_process(
  COMMAND "${BENCH}" "--baseline=${BASELINE}"
    "--candidate=${OUT_DIR}/hetero_auto.json" --threshold=0.05
  RESULT_VARIABLE rc_base OUTPUT_QUIET)
if(NOT rc_base EQUAL 0)
  message(FATAL_ERROR
    "self-tuned hetero run regressed against results/baseline_hetero.json "
    "(malisim-bench exit ${rc_base})")
endif()

message(STATUS
  "hetero_check: ratio endpoints match single backends, baseline gate OK")
