# Runs one command and passes only if it exits with status EXPECT_EXIT and,
# when ABSENT is given, leaves no file of that name in the working directory
# (the file is removed first, so a stale copy cannot mask a write):
#
#   cmake -DEXPECT_EXIT=2 [-DABSENT=tasks.txt] -P expect_exit.cmake <command> [args...]
#
# ctest runs it for the command-line checks that must fail in a set way, such
# as a tool given an unknown flag.
math(EXPR last "${CMAKE_ARGC} - 1")
set(command)
set(script_seen FALSE)
set(past_script FALSE)
foreach(i RANGE ${last})
  if(past_script)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(script_seen)
    set(past_script TRUE)
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    set(script_seen TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "usage: cmake -DEXPECT_EXIT=N [-DABSENT=file] -P expect_exit.cmake cmd...")
endif()

if(DEFINED ABSENT)
  file(REMOVE "${ABSENT}")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE result)
if(NOT result STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "'${command}' exited with '${result}', expected ${EXPECT_EXIT}")
endif()
if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "'${command}' wrote ${ABSENT}")
endif()
