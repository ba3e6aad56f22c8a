# Runs amnesiac-run over a table of malformed or out-of-range flag
# values and requires exit status 2 (usage) for every one: a run that
# accepts the value (exit 0) or aborts on it later (a signal) fails.
#
#   cmake -DRUN=<path to amnesiac-run> -P cli_args_test.cmake
#
# Entries are "flag|value" pairs; "--flag=" tests an empty value and a
# lone flag tests a missing one.

if(NOT RUN)
    message(FATAL_ERROR "pass -DRUN=<path to amnesiac-run>")
endif()

set(bad_args
    "--jobs|abc"
    "--jobs|-1"
    "--jobs|1.5"
    "--jobs|4x"
    "--jobs| 4"
    "--jobs|257"
    "--jobs|99999999999999999999"
    "--jobs=abc"
    "--jobs="
    "--seed|xyz"
    "--seed|-3"
    "--seed|12abc"
    "--seed|18446744073709551616"
    "--scale|-3"
    "--scale|0"
    "--scale|abc"
    "--scale|2x"
    "--scale|nan"
    "--scale|inf"
    "--scale|1e999"
    "--max-records|abc"
    "--max-records|-1"
    "--hist|0"
    "--hist|abc"
    "--hist|1048577"
    "--hist|4294967296"
    "--sfile|0"
    "--sfile|xyz"
    "--sfile|-192"
)

set(failures "")
foreach(entry IN LISTS bad_args)
    string(REPLACE "|" ";" flag_args "${entry}")
    execute_process(
        COMMAND "${RUN}" ${flag_args} --policy FLC bfs
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL "2")
        list(APPEND failures "'${entry}' -> ${rc}")
    endif()
endforeach()

# A value flag with nothing after it.
execute_process(
    COMMAND "${RUN}" --policy FLC bfs --seed
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "2")
    list(APPEND failures "'--seed' (missing value) -> ${rc}")
endif()

# Control: well-formed values parse; --list exits 0 before any run.
execute_process(
    COMMAND "${RUN}" --jobs 1 --seed 18446744073709551615 --scale 2.5e-1
            --max-records 0 --hist 1 --sfile 1048576 --list
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
    list(APPEND failures "valid flags -> ${rc}")
endif()

if(failures)
    list(JOIN failures "\n  " report)
    message(FATAL_ERROR "expected exit status 2, got:\n  ${report}")
endif()
