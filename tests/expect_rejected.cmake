# Runs TOOL with ARGS (one string, split like a shell command line) and
# passes when the tool exits with 1 and its standard error contains
# MESSAGE: an unsupported flag combination is rejected up front with a
# named reason.
#
#   cmake -DTOOL=<binary> "-DARGS=<args>" "-DMESSAGE=<text>"
#         -P expect_rejected.cmake
foreach(var TOOL ARGS MESSAGE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got ${rc}; stderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${MESSAGE}\":\n${err}")
endif()
