# End-to-end workflow test for the checkpoint-store CLI surface, run as a
# CMake script (ctest passes -DRLTHERM_CLI=<binary> -DWORK_DIR=<scratch>):
#   train --out  ->  inspect  ->  inspect --json  ->  eval --policy  ->
#   run --resume, plus the strict-flag and corruption exit codes.
cmake_minimum_required(VERSION 3.22)

if(NOT DEFINED RLTHERM_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRLTHERM_CLI=<bin> -DWORK_DIR=<dir> -P store_cli_test.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A configuration small enough to train in seconds. The [manager] keys keep
# the decision epoch tight so the checkpoint carries real learned state.
file(WRITE "${WORK_DIR}/tiny.ini" "
[runner]
max_sim_time = 400
analysis_warmup = 10
analysis_cooldown = 5

[manager]
sampling_interval = 0.5
decision_epoch = 2.0
")

set(CKPT "${WORK_DIR}/policy.ckpt")

# expect_pass(<label> <args...>): run the CLI, demand exit code 0, and leave
# the captured stdout in OUT for content checks.
function(expect_pass label)
  execute_process(
    COMMAND "${RLTHERM_CLI}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${label}: expected success, got exit ${code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(OUT "${stdout}" PARENT_SCOPE)
endfunction()

# expect_fail(<label> <args...>): demand a NONZERO exit (strict flag
# validation / corruption diagnostics), and leave stderr in ERR.
function(expect_fail label)
  execute_process(
    COMMAND "${RLTHERM_CLI}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(code EQUAL 0)
    message(FATAL_ERROR "${label}: expected a nonzero exit, got success\nstdout:\n${stdout}")
  endif()
  set(ERR "${stderr}" PARENT_SCOPE)
endfunction()

function(expect_contains label haystack needle)
  string(FIND "${haystack}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label}: expected to find '${needle}' in:\n${haystack}")
  endif()
endfunction()

# --- the workflow -----------------------------------------------------------

expect_pass("train" train --config "${WORK_DIR}/tiny.ini" --out "${CKPT}")
expect_contains("train output" "${OUT}" "fingerprint 0x")
if(NOT EXISTS "${CKPT}")
  message(FATAL_ERROR "train --out did not create ${CKPT}")
endif()
if(EXISTS "${CKPT}.tmp")
  message(FATAL_ERROR "train left the atomic-write temp file behind")
endif()

expect_pass("inspect" inspect "${CKPT}")
expect_contains("inspect output" "${OUT}" "fingerprint")
expect_contains("inspect output" "${OUT}" "epochlog")  # the section table

# NOTE the FILE-before-flag ordering: `--json` is a boolean flag and the
# parser treats a following bare token as its value.
expect_pass("inspect --json" inspect "${CKPT}" --json)
expect_contains("inspect --json" "${OUT}" "\"format_version\"")
expect_contains("inspect --json" "${OUT}" "\"fingerprint\"")
expect_contains("inspect --json" "${OUT}" "\"sections\"")
# The whole output must parse as JSON, with a non-empty "sections" array.
string(JSON sections_type ERROR_VARIABLE json_error TYPE "${OUT}" sections)
if(json_error OR NOT sections_type STREQUAL "ARRAY")
  message(FATAL_ERROR "inspect --json: not JSON with a \"sections\" array (${json_error}):\n${OUT}")
endif()
string(JSON section_count LENGTH "${OUT}" sections)
if(section_count EQUAL 0)
  message(FATAL_ERROR "inspect --json: the \"sections\" array is empty:\n${OUT}")
endif()

expect_pass("eval" eval --config "${WORK_DIR}/tiny.ini" --policy "${CKPT}")
expect_pass("run --resume" run --config "${WORK_DIR}/tiny.ini" --policy proposed --resume "${CKPT}")

# --- strict flag validation -------------------------------------------------

expect_fail("train unknown flag" train --config "${WORK_DIR}/tiny.ini" --bogus 1)
expect_contains("train unknown flag" "${ERR}" "unknown flag")
expect_fail("eval unknown flag" eval --policy "${CKPT}" --bogus 1)
expect_contains("eval unknown flag" "${ERR}" "unknown flag")
expect_fail("eval missing --policy" eval --config "${WORK_DIR}/tiny.ini")
expect_fail("inspect unknown flag" inspect "${CKPT}" --verbose)
expect_fail("inspect stray positional" inspect "${CKPT}" extra)
expect_fail("inspect no file" inspect)

# --- corruption diagnostics -------------------------------------------------

expect_fail("missing checkpoint" inspect "${WORK_DIR}/nope.ckpt")

# A file that stops dead after a valid magic: the reader must diagnose the
# truncation (offset past end) rather than crash or read garbage.
file(WRITE "${WORK_DIR}/trunc.ckpt" "RLTHCKPT")
expect_fail("truncated checkpoint" inspect "${WORK_DIR}/trunc.ckpt")
expect_contains("truncated checkpoint" "${ERR}" "trunc.ckpt")

# Wrong magic entirely.
file(WRITE "${WORK_DIR}/notckpt.ckpt" "definitely not a checkpoint file")
expect_fail("bad magic" inspect "${WORK_DIR}/notckpt.ckpt")
expect_contains("bad magic" "${ERR}" "offset 0")

expect_fail("eval on truncated checkpoint" eval --config "${WORK_DIR}/tiny.ini" --policy "${WORK_DIR}/trunc.ckpt")
expect_fail("resume from truncated checkpoint" run --config "${WORK_DIR}/tiny.ini" --policy proposed --resume "${WORK_DIR}/trunc.ckpt")

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "store CLI workflow: all checks passed")
