# Capture smoke for the harnesses the goldens do not pin: run each with
# every capture flag and require every requested file to exist and be
# non-empty; then require a watchdog rule that holds in every window to
# fail fig08 under --watchdog-fail.
#
#   cmake -DBENCH_DIR=<build/bench> -DWORK=<scratch dir>
#         -P capture_smoke.cmake

foreach(var BENCH_DIR WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "capture_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(kinds metrics timeseries trace state bench-json)
foreach(run "fig03_launch_loaded;--fast" "fig08_chunk_slots"
            "fig_recovery;--fast" "fig_terascale;--fast")
  list(GET run 0 bench)
  set(args ${run})
  list(REMOVE_AT args 0)
  foreach(kind IN LISTS kinds)
    list(APPEND args --${kind} ${bench}.${kind}.json)
  endforeach()
  execute_process(
    COMMAND ${BENCH_DIR}/${bench} ${args}
    WORKING_DIRECTORY ${WORK}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} ${args} exited with ${rc}:\n${err}")
  endif()
  foreach(kind IN LISTS kinds)
    set(out ${WORK}/${bench}.${kind}.json)
    if(NOT EXISTS ${out})
      message(FATAL_ERROR "${bench}: --${kind} wrote no file")
    endif()
    file(SIZE ${out} size)
    if(size EQUAL 0)
      message(FATAL_ERROR "${bench}: --${kind} wrote an empty file")
    endif()
  endforeach()
endforeach()

# The occupancy gauge is set in every window, so this rule breaches.
execute_process(
  COMMAND ${BENCH_DIR}/fig08_chunk_slots
          --watchdog "mm.matrix.occupancy value >= 0" --watchdog-fail
  WORKING_DIRECTORY ${WORK}
  OUTPUT_VARIABLE out
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "fig08 --watchdog-fail exited 0 despite a breach")
endif()
if(NOT out MATCHES "watchdog: BREACH")
  message(FATAL_ERROR "fig08 printed no watchdog breach:\n${out}")
endif()

message(STATUS "capture smoke: every requested artifact written")
