# Runs a command and fails unless it exits with status 2 and writes a line
# starting with "error:" to stderr: the CLI's contract for bad input (a
# crash, an abort, a silent default or a run that hangs past the 60 s
# timeout fails this check).
#
#   cmake -P expect_cli_error.cmake -- <program> [args...]

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "usage: cmake -P expect_cli_error.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${command}
                TIMEOUT 60
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "(^|\n)error:")
  message(FATAL_ERROR "expected a stderr line starting with 'error:'; got:\n${stderr}")
endif()
