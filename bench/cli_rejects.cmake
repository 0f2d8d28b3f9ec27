# Runs BIN once per case in CASES and fails unless every run exits
# with a nonzero status (a crash does not count): the bench CLIs must
# reject malformed input loudly instead of running with a default.
#
#   cmake -DBIN=<exe> "-DCASES=--threads abc|--theta x" -P cli_rejects.cmake
#
# Cases are separated by '|' and split into arguments on spaces.
string(REPLACE "|" ";" cases "${CASES}")
foreach(c IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${c}")
    execute_process(COMMAND "${BIN}" ${args}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if (NOT rc MATCHES "^[1-9][0-9]*$")
        message(FATAL_ERROR
                "${BIN} ${c}: want a nonzero exit, got '${rc}'\n${out}${err}")
    endif()
    message(STATUS "${c} -> exit ${rc}: ${err}")
endforeach()
