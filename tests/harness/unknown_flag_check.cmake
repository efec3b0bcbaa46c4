# Runs BIN with the single argument FLAG and requires exit status 2 plus an
# "unknown flag" message naming it on stderr.
#
# Driven via -DBIN=... -DFLAG=... -P this-file.
foreach(var BIN FLAG)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "unknown_flag_check.cmake: -D${var}= is required")
  endif()
endforeach()

execute_process(
  COMMAND "${BIN}" "${FLAG}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${FLAG}: expected exit status 2, got '${rc}'\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "unknown flag '${FLAG}'" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${BIN} ${FLAG}: stderr lacks the unknown-flag "
                      "message: ${err}")
endif()
