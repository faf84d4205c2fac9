# Runs the tiny social frontier sweep (seed 42) that CI's capacity-smoke job
# runs for one simulated SUT and byte-compares its artifact with the
# checked-in golden copy, so every toolchain that builds the tree checks it.
#
#   cmake -DCAMPAIGN=<gt_campaign> -DSUT=<chronolite|weaverlite>
#         -DGOLDEN=<golden json> -DOUT=<artifact> -P check_frontier_golden.cmake
#
# Both SUTs' outputs depend on neither the run nor the standard library's
# hash; a mismatch means a change moved their numbers (or a toolchain's
# floating-point results differ). Regenerate a golden file only on purpose,
# and record old -> new in the change log.
foreach(var CAMPAIGN SUT GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE "${OUT}")
execute_process(
  COMMAND "${CAMPAIGN}" --frontier --sut ${SUT} --workload social
          --size tiny --slo-p99-ms 30 --start-rate 1000 --max-rate 200000
          --repetitions 2 --seed 42 --max-duration-s 120 --frontier-out "${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gt_campaign exited with ${rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
