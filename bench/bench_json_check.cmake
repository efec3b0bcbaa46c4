# End-to-end check of the BENCH record contract, run by ctest:
#   1. malisim-fig fig2 --quick --bench-json at --threads=1 and --threads=4
#      must emit byte-identical records (host parallelism is excluded from
#      the record by design),
#   2. malisim-bench comparing the record against itself must exit 0, and
#   3. an explicit --device=mali run must be byte-identical to the default
#      run — the backend refactor must not perturb the default record.
# Driven via -DFIG=... -DBENCH=... -DOUT_DIR=... -P this-file.
#
# The measured-host throughput fields (sim_throughput_host: host_sec and
# the rates derived from it) are wall-clock and explicitly EXCLUDED from
# the byte-identity contract (obs/bench_report.h): they are zeroed here
# before every compare. Everything else — including the deterministic
# sim_throughput totals — must match byte for byte.
foreach(var FIG BENCH OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_json_check: -D${var}=... is required")
  endif()
endforeach()

function(mask_host_fields in out)
  file(READ "${in}" contents)
  foreach(field host_sec work_items_per_host_sec opcodes_per_host_sec
          host_sec_per_modelled_sec)
    string(REGEX REPLACE "\"${field}\":[^,}]*" "\"${field}\":0" contents
      "${contents}")
  endforeach()
  file(WRITE "${out}" "${contents}")
endfunction()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(json_t1 "${OUT_DIR}/bench_t1.json")
set(json_t4 "${OUT_DIR}/bench_t4.json")

execute_process(
  COMMAND "${FIG}" fig2 --quick --threads=1 "--bench-json=${json_t1}"
  RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "malisim-fig fig2 --threads=1 failed (exit ${rc1})")
endif()

execute_process(
  COMMAND "${FIG}" fig2 --quick --threads=4 "--bench-json=${json_t4}"
  RESULT_VARIABLE rc4 OUTPUT_QUIET)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "malisim-fig fig2 --threads=4 failed (exit ${rc4})")
endif()

mask_host_fields("${json_t1}" "${json_t1}.masked")
mask_host_fields("${json_t4}" "${json_t4}.masked")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${json_t1}.masked" "${json_t4}.masked"
  RESULT_VARIABLE identical)
if(NOT identical EQUAL 0)
  message(FATAL_ERROR
    "BENCH records differ across --threads=1/4: ${json_t1} vs ${json_t4} — "
    "the byte-identity contract (obs/bench_report.h) is broken")
endif()

execute_process(
  COMMAND "${BENCH}" "--baseline=${json_t1}.masked"
    "--candidate=${json_t4}.masked"
  RESULT_VARIABLE self_compare OUTPUT_QUIET)
if(NOT self_compare EQUAL 0)
  message(FATAL_ERROR
    "malisim-bench self-compare exited ${self_compare}, want 0")
endif()

set(json_mali "${OUT_DIR}/bench_mali.json")
execute_process(
  COMMAND "${FIG}" fig2 --quick --threads=1 --device=mali
    "--bench-json=${json_mali}"
  RESULT_VARIABLE rc_mali OUTPUT_QUIET)
if(NOT rc_mali EQUAL 0)
  message(FATAL_ERROR "malisim-fig fig2 --device=mali failed (exit ${rc_mali})")
endif()
mask_host_fields("${json_mali}" "${json_mali}.masked")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${json_t1}.masked" "${json_mali}.masked"
  RESULT_VARIABLE mali_identical)
if(NOT mali_identical EQUAL 0)
  message(FATAL_ERROR
    "BENCH record with explicit --device=mali differs from the default run: "
    "${json_t1} vs ${json_mali} — the default-device byte-identity contract "
    "is broken")
endif()

message(STATUS "bench_json_check: records byte-identical, self-compare OK")
