# Runs TOOL --help and passes when it exits 0 and its synopsis lists every
# flag that SOURCE declares (each `.Add("name"` / `.AddMillis("name"`
# call): the synopsis is generated from the tool's flag table, so a
# declared flag cannot go missing from it.
#
#   cmake -DTOOL=<binary> -DSOURCE=<tool .cpp> -P expect_help.cmake
foreach(var TOOL SOURCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

execute_process(COMMAND "${TOOL}" --help
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "expected exit 0, got ${rc}; stderr:\n${err}")
endif()
file(READ "${SOURCE}" source)
string(REGEX MATCHALL "\\.Add(Millis)?\\(\"[a-z0-9-]+\"" calls "${source}")
if(NOT calls)
  message(FATAL_ERROR "${SOURCE} declares no flags")
endif()
foreach(call IN LISTS calls)
  string(REGEX REPLACE "^.*\\(\"([a-z0-9-]+)\"$" "\\1" flag "${call}")
  if(NOT out MATCHES "\n  --${flag}[ \n]")
    message(FATAL_ERROR "--help lacks --${flag}:\n${out}")
  endif()
endforeach()
