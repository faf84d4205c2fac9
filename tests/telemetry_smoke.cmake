# Generates a stream and replays it with the telemetry snapshotter and the
# run watchdog armed, then checks the JSONL sidecar with
# gt_validate --telemetry. The replay is paced to last ~0.4 s, so the
# sidecar must hold periodic snapshots besides the final one.
#
#   cmake -DGENERATE=<gt_generate> -DREPLAY=<gt_replay>
#         -DVALIDATE=<gt_validate> -DWORKDIR=<dir>
#         -P telemetry_smoke.cmake
foreach(var GENERATE REPLAY VALIDATE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(stream "${WORKDIR}/telemetry.gts")
set(sidecar "${WORKDIR}/telemetry.jsonl")
file(REMOVE "${sidecar}")

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

run_step(gt_generate "${GENERATE}" --model social --rounds 8000 --seed 7
  --out "${stream}")
run_step(gt_replay "${REPLAY}" --in "${stream}" --rate 20000 --shards 2
  --telemetry-out "${sidecar}" --telemetry-period-ms 50 --watchdog-ms 5000)
run_step(gt_validate "${VALIDATE}" --in "${sidecar}" --telemetry)

file(STRINGS "${sidecar}" snapshots)
list(LENGTH snapshots count)
if(count LESS 2)
  message(FATAL_ERROR "expected periodic snapshots, got ${count} line(s)")
endif()
