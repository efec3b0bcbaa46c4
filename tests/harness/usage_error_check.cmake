# Runs BIN with the space-separated ARGS and requires exit status 2 plus
# the message EXPECT on stderr: a bad command line never quietly runs the
# defaults.
#
# Driven via -DBIN=... -DARGS=... -DEXPECT=... -P this-file.
foreach(var BIN ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage_error_check.cmake: -D${var}= is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS}: expected exit status 2, got '${rc}'\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr lacks '${EXPECT}': ${err}")
endif()
