# Runs BIN with the space-separated ARGS and compares its stdout byte for
# byte with the checked-in GOLDEN file (zero tolerance: modelled numbers
# are deterministic). With MALISIM_UPDATE_GOLDEN=1 in the environment it
# rewrites GOLDEN instead, as tests/golden_file.h does; re-run without the
# variable to confirm, then commit the file with the change that moved it.
#
# Driven via -DBIN=... -DARGS=... -DGOLDEN=... -DOUT=... -P this-file.
foreach(var BIN ARGS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "experiment_golden_check.cmake: -D${var}= is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_FILE "${OUT}"
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status '${rc}'\nstderr: ${err}")
endif()

if(DEFINED ENV{MALISIM_UPDATE_GOLDEN})
  file(COPY_FILE "${OUT}" "${GOLDEN}")
  message(STATUS "golden regenerated at ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden ${GOLDEN} — run with "
                      "MALISIM_UPDATE_GOLDEN=1 to create it")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS}: stdout (${OUT}) drifted from golden "
                      "${GOLDEN}; if the change is intentional, regenerate "
                      "with MALISIM_UPDATE_GOLDEN=1")
endif()
