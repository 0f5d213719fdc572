# Runs a command and fails unless it exits 0 and leaves FILE behind: a bench
# given an explicit --json PATH must write it, whatever other flags say.
# FILE is removed first, so a file left by an earlier run cannot pass.
#
#   cmake -DFILE=<path> -P expect_file_written.cmake -- <program> [args...]

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
if(NOT command OR NOT FILE)
  message(FATAL_ERROR
          "usage: cmake -DFILE=<path> -P expect_file_written.cmake -- <program> [args...]")
endif()

file(REMOVE "${FILE}")
execute_process(COMMAND ${command}
                TIMEOUT 300
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'; stderr:\n${stderr}")
endif()
if(NOT EXISTS "${FILE}")
  message(FATAL_ERROR "the command exited 0 but did not write ${FILE}")
endif()
