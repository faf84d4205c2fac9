# Generates a stream, runs gt_replay's live capacity search on it to
# /dev/null and validates the gt-frontier-v1 artifact it writes: its
# schema, and that the search concluded.
#
#   cmake -DGENERATE=<gt_generate> -DREPLAY=<gt_replay>
#         -DVALIDATE=<gt_validate> -DWORKDIR=<dir>
#         -P capacity_live_smoke.cmake
foreach(var GENERATE REPLAY VALIDATE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(stream "${WORKDIR}/live.gts")
set(artifact "${WORKDIR}/live.json")
file(REMOVE "${artifact}")

function(run_step name)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_FILE /dev/null
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited ${rc}:\n${err}")
  endif()
  message(STATUS "${name}:\n${err}")
endfunction()

run_step(gt_generate "${GENERATE}" --model social --rounds 60000 --seed 7
  --out "${stream}")
run_step(gt_replay "${REPLAY}" --in "${stream}" --rate 1000 --find-capacity
  --slo-p99-ms 50 --capacity-max-rate 50000 --capacity-warmup-ms 50
  --capacity-window-ms 100 --capacity-windows 2 --capacity-confirm 1
  --frontier-out "${artifact}")
run_step(gt_validate "${VALIDATE}" --in "${artifact}" --frontier)

# The search must have concluded (and ended the replay) before the stream
# ran out; a cut-short search still writes a schema-valid artifact.
file(READ "${artifact}" json)
string(FIND "${json}" "\"complete\":true" at)
if(at EQUAL -1)
  message(FATAL_ERROR "capacity search did not conclude:\n${json}")
endif()
