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
warmup = 10
cooldown = 5

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

# Numeric flags are read as JSON numbers: no silent truncation, no wrap of a
# negative seed to 2^64-1, and a diagnostic that names the flag.
expect_fail("non-numeric dataset" run --app tachyon --dataset abc)
expect_contains("non-numeric dataset" "${ERR}" "error: --dataset: 'abc' is not a non-negative integer")
expect_fail("negative seed" sweep --apps tachyon --policies linux-ondemand --seed -1)
expect_contains("negative seed" "${ERR}" "error: --seed: '-1' is not a non-negative integer")

# --- strict config keys ----------------------------------------------------

# A misspelt key must fail with file:line, not run the default 40000 s.
file(WRITE "${WORK_DIR}/typo.ini" "[runner]\nmax_sim_tme = 40\n")
expect_fail("config typo" run --config "${WORK_DIR}/typo.ini" --app tachyon)
expect_contains("config typo" "${ERR}" "typo.ini:2: unknown key 'max_sim_tme' in [runner]")

# --- policies follow the configured machine -------------------------------

# The proposed manager's action space is built for [machine] cores, so a
# two-core machine runs instead of failing on a four-core affinity mask.
file(WRITE "${WORK_DIR}/two_cores.ini" "[machine]\ncores = 2\n\n[runner]\nmax_sim_time = 60\n")
expect_pass("two-core proposed" run --config "${WORK_DIR}/two_cores.ini" --app tachyon --policy proposed --train 1)
expect_contains("two-core proposed" "${OUT}" "learning:")

expect_fail("bad userspace frequency" run --app tachyon --policy userspace-abc)
expect_contains("bad userspace frequency" "${ERR}" "policy 'userspace-abc': 'abc' is not a frequency in GHz")

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
