# Runs a tool with one argument appended and checks that it fails with the
# expected exit code and names the argument on stderr. Invoked by ctest:
#
#   cmake -DCOMMAND=<tool>|<arg>|... -DVALUE=<last arg> -DEXIT=<code>
#         -DMESSAGE=<text stderr must contain> -P expect_exit.cmake
#
# COMMAND is '|'-separated; VALUE is passed separately so that it may be
# the empty string.
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} "${VALUE}"
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result STREQUAL "${EXIT}")
  message(FATAL_ERROR
          "expected exit ${EXIT}, got '${result}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not mention '${MESSAGE}':\n${err}")
endif()
