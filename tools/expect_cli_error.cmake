# Runs a program (the fae CLI or a bench binary) and expects it to refuse
# the invocation: exit code EXPECT_CODE and stderr matching the regex
# EXPECT_STDERR.
#
#   cmake -DPROGRAM=path/to/fae -DARGS="train|--bogus=1" -DEXPECT_CODE=2
#         -DEXPECT_STDERR="unknown flag --bogus" -P expect_cli_error.cmake
#
# ARGS separates the CLI arguments with '|' (a ';' would be split by
# add_test before it reaches the script).
string(REPLACE "|" ";" cli_args "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${cli_args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "${PROGRAM} ${cli_args}: exit code '${code}', expected "
                      "${EXPECT_CODE}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${PROGRAM} ${cli_args}: stderr does not match "
                      "'${EXPECT_STDERR}'\nstderr: ${err}")
endif()
