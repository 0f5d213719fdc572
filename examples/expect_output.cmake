# Runs a command and fails unless it exits with status 0 within 60 s and
# its stdout equals the file EXPECTED byte for byte: the numbers an example
# prints are part of what it checks.
#
#   cmake -DEXPECTED=<file> -P expect_output.cmake -- <program> [args...]

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
if(NOT command OR NOT EXPECTED)
  message(FATAL_ERROR
          "usage: cmake -DEXPECTED=<file> -P expect_output.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${command}
                TIMEOUT 60
                RESULT_VARIABLE status
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'; stderr:\n${stderr}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT stdout STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${EXPECTED}; got:\n${stdout}")
endif()
