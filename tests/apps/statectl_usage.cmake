# Runs statectl with a malformed command line and requires exit status
# 2 (a usage error; 1 means an unreadable or bad snapshot) plus the
# usage text on stderr.
#
#   cmake -DSTATECTL=<statectl> "-DARGS=spans --jbo 3 --state s.json"
#         -P statectl_usage.cmake

foreach(var STATECTL ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "statectl_usage.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${STATECTL} ${argv}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "statectl ${ARGS} exited with ${rc}, not 2:\n${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "statectl ${ARGS} printed no usage text:\n${err}")
endif()
