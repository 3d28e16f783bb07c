# Runs a tool at SWIM_THREADS=1 and at SWIM_THREADS=8 and checks that both
# runs exit 0 with byte-identical stdout. Invoked by ctest:
#
#   cmake -DSETUP=<tool>|<arg>|... -DCOMMAND=<tool>|<arg>|...
#         -P expect_deterministic.cmake
#
# SETUP runs once before the two runs (e.g. to generate the input trace).
# Both are '|'-separated.
string(REPLACE "|" ";" setup "${SETUP}")
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${setup}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result STREQUAL "0")
  message(FATAL_ERROR "setup exited '${result}'\nstderr:\n${err}")
endif()
foreach(threads 1 8)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env SWIM_THREADS=${threads}
                          ${command}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out_${threads}
                  ERROR_VARIABLE err)
  if(NOT result STREQUAL "0")
    message(FATAL_ERROR
            "SWIM_THREADS=${threads}: exit '${result}'\nstderr:\n${err}")
  endif()
endforeach()
if(out_1 STREQUAL "")
  message(FATAL_ERROR "no output at SWIM_THREADS=1")
endif()
if(NOT out_1 STREQUAL out_8)
  message(FATAL_ERROR
          "stdout differs\nSWIM_THREADS=1:\n${out_1}\nSWIM_THREADS=8:\n${out_8}")
endif()
