# Run a command and pass only if it exits with status EXPECT (and,
# when STDERR or STDOUT is given, that stream matches the regular
# expression):
#
#   cmake -DEXPECT=2 [-DSTDERR=regex] [-DSTDOUT=regex] -P expect_exit.cmake <command> [args...]
#
# CTest's WILL_FAIL accepts any nonzero exit; this pins the exact
# code, so a usage error (2) is told apart from a crash or a fatal().
set(cmd)
set(script_at -1)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach (i RANGE ${last})
    if (script_at GREATER_EQUAL 0 AND i GREATER script_at)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif ("${CMAKE_ARGV${i}}" STREQUAL "-P")
        math(EXPR script_at "${i} + 1")
    endif ()
endforeach ()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if (NOT "${status}" STREQUAL "${EXPECT}")
    message(FATAL_ERROR "expected exit status ${EXPECT}, got "
                        "'${status}': ${cmd}\n${err}")
endif ()
if (DEFINED STDERR AND NOT "${err}" MATCHES "${STDERR}")
    message(FATAL_ERROR "stderr does not match '${STDERR}': ${cmd}\n"
                        "${err}")
endif ()
if (DEFINED STDOUT AND NOT "${out}" MATCHES "${STDOUT}")
    message(FATAL_ERROR "stdout does not match '${STDOUT}': ${cmd}\n"
                        "${out}")
endif ()
