# Runs every strict-parsing front end over a table of malformed or
# out-of-range flag values and requires exit status 2 (usage) for each
# one: a run that accepts the value (exit 0) or aborts on it later (a
# signal) fails.
#
#   cmake -DRUN=<amnesiac-run> -DLINT=<amnesiac-lint>
#         -DFUZZ=<amnesiac-fuzz> -DPERF_INTERP=<perf_interp>
#         -DPERF_TIMING=<perf_timing> -DOUT=<scratch dir>
#         -P cli_args_test.cmake
#
# Entries are "flag|value" pairs; "--flag=" tests an empty value and a
# lone flag an unknown one. Each table's fixed tail is what a run would
# do with an accepted value.

foreach(var RUN LINT FUZZ PERF_INTERP PERF_TIMING OUT)
    if(NOT ${var})
        message(FATAL_ERROR "pass -D${var}=<path>")
    endif()
endforeach()

set(failures "")

# expect_exit(<status> <label> <command...>)
macro(expect_exit status label)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL "${status}")
        list(APPEND failures "${label} -> ${rc} (want ${status})")
    endif()
endmacro()

# check_bad(<tool> <tail list var> <table list var>)
macro(check_bad tool tail table)
    get_filename_component(tool_name "${tool}" NAME)
    foreach(entry IN LISTS ${table})
        string(REPLACE "|" ";" flag_args "${entry}")
        expect_exit(2 "${tool_name} '${entry}'"
                    "${tool}" ${flag_args} ${${tail}})
    endforeach()
endmacro()

set(run_tail --policy FLC bfs)
set(run_bad
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
check_bad("${RUN}" run_tail run_bad)

set(lint_tail --workload bfs)
set(lint_bad
    "--hist|abc"
    "--hist|0"
    "--hist|-1"
    "--hist|1048577"
    "--hist=4294967296"
    "--sfile|xyz"
    "--sfile|0"
    "--sfile|-192"
    "--seed|abc"
    "--seed|-3"
    "--seed|18446744073709551616"
    "--bogus"
)
check_bad("${LINT}" lint_tail lint_bad)

set(fuzz_tail --runs 1 --quiet --out "${OUT}/fuzz-out")
set(fuzz_bad
    "--runs|abc"
    "--runs|-1"
    "--runs|1.5"
    "--runs|18446744073709551616"
    "--runs="
    "--start|abc"
    "--start|-2"
    "--start|18446744073709551615"
    "--seed|xyz"
    "--seed|-1"
    "--fault-rate|abc"
    "--fault-rate|-0.1"
    "--fault-rate|1.5"
    "--fault-rate|nan"
    "--fault-rate|inf"
    "--bogus"
)
check_bad("${FUZZ}" fuzz_tail fuzz_bad)

set(perf_interp_tail --quick --out "${OUT}/BENCH_interp.json")
set(perf_interp_bad
    "--repeats|abc"
    "--repeats|0"
    "--repeats|-1"
    "--repeats|2x"
    "--repeats|1001"
    "--policy|bogus"
    "--bogus"
)
check_bad("${PERF_INTERP}" perf_interp_tail perf_interp_bad)

set(perf_timing_tail --quick --out "${OUT}/BENCH_timing.json")
set(perf_timing_bad
    "--repeats|abc"
    "--repeats|0"
    "--repeats|-1"
    "--repeats|1001"
    "--predictor|bogus"
    "--bogus"
)
check_bad("${PERF_TIMING}" perf_timing_tail perf_timing_bad)

# A value flag with nothing after it.
expect_exit(2 "amnesiac-run '--seed' (missing value)"
            "${RUN}" --policy FLC bfs --seed)
expect_exit(2 "amnesiac-lint '--hist' (missing value)"
            "${LINT}" --workload bfs --hist)
expect_exit(2 "amnesiac-fuzz '--runs' (missing value)" "${FUZZ}" --runs)
expect_exit(2 "perf_interp '--repeats' (missing value)"
            "${PERF_INTERP}" --quick --repeats)
expect_exit(2 "perf_timing '--repeats' (missing value)"
            "${PERF_TIMING}" --quick --repeats)

# A valueless flag given an inline value: the value must not be dropped
# silently, whether the reader moves on to another flag or finishes.
expect_exit(2 "amnesiac-run '--csv=no'" "${RUN}" --csv=no --list)
expect_exit(2 "amnesiac-run '--no-cache=1'" "${RUN}" --no-cache=1 --list)
expect_exit(2 "amnesiac-run '--prof=0'" "${RUN}" --prof=0 --list)
expect_exit(2 "amnesiac-lint '--quiet=0'"
            "${LINT}" --quiet=0 --list-passes)
expect_exit(2 "amnesiac-lint '--Werror=no'"
            "${LINT}" --Werror=no --list-passes)
expect_exit(2 "amnesiac-fuzz '--quiet=1' (last flag)"
            "${FUZZ}" --runs 0 --out "${OUT}/fuzz-out" --quiet=1)

# Controls: well-formed values parse and the run stops before any
# simulation (--list, --list-passes, zero fuzz runs). The perf harnesses
# have no such early exit; CI's perf-smoke job runs them with valid
# flags.
expect_exit(0 "amnesiac-run valid flags"
            "${RUN}" --jobs 1 --seed 18446744073709551615 --scale 2.5e-1
            --max-records 0 --hist 1 --sfile 1048576 --list)
expect_exit(0 "amnesiac-lint valid flags"
            "${LINT}" --seed 18446744073709551615 --hist 1
            --sfile=1048576 --list-passes)
expect_exit(0 "amnesiac-fuzz valid flags"
            "${FUZZ}" --seed 18446744073709551615 --runs 0
            --start 18446744073709551615 --fault-rate 1 --quiet
            --out "${OUT}/fuzz-out")
expect_exit(0 "amnesiac-fuzz valid flags"
            "${FUZZ}" --runs=0 --fault-rate=0 --quiet
            --out "${OUT}/fuzz-out")

if(failures)
    list(JOIN failures "\n  " report)
    message(FATAL_ERROR "unexpected exit status:\n  ${report}")
endif()
