# ctest driver for the farm's headline contract: a multi-worker farm's
# merged.jsonl equals a single-process sweep's checkpoint (after canonical
# key sort), and the artifact cache changes wall time only — never lines:
#   1. omxsim --checkpoint          -> reference lines (run order)
#   2. omxfarm run, 3 workers       -> merged.jsonl (key order) — same set
#   3. omxfarm merge (offline)      -> re-merge is byte-stable
#   4. warm cache, fresh farm dir   -> identical lines again
#   5. corrupt a cache entry        -> detected as a miss, rebuilt,
#                                      identical lines again
#   6. status after the daemon exit -> no published endpoint: exit 2
#   7. precondition grid            -> `run` and `serve` + `work` both
#                                      exit 1 (the verdicts of the lines
#                                      accepted in the run decide)
# (Worker/daemon SIGKILL chaos needs process control and lives in
# tests/farm_test.cpp and the CI farm-chaos job.)
# Invoked as: cmake -DOMXSIM=... -DOMXFARM=... -DWORK_DIR=... -P this_file
foreach(var OMXSIM OMXFARM WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_or_die)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

# Lines sorted lexicographically = sorted by config-hash key (every line
# starts {"key":"<16 hex>"), i.e. exactly merged.jsonl's canonical order.
function(read_sorted path out_var)
  file(STRINGS "${path}" lines)
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

function(expect_same_lines ref_path got_path what)
  read_sorted("${ref_path}" ref)
  read_sorted("${got_path}" got)
  if(NOT ref STREQUAL got)
    message(FATAL_ERROR "${what}: ${got_path} differs from ${ref_path}")
  endif()
endfunction()

# --deadline-ms is part of the grid on purpose: Sweep::run folds the trial
# deadline into the config before hashing, so the farm must key its items
# the same way or merged.jsonl diverges from the omxsim reference.
set(grid --algo optimal --attack rand-omit --n 48 --seeds 6 --seed 3
    --deadline-ms 20000)

# 1. Single-process reference sweep.
run_or_die(${OMXSIM} ${grid} --csv --checkpoint "${WORK_DIR}/ref.jsonl")

# 2. The same grid under a 3-worker farm.
run_or_die(${OMXFARM} run --dir "${WORK_DIR}/farm" --workers 3 ${grid})
expect_same_lines("${WORK_DIR}/ref.jsonl" "${WORK_DIR}/farm/merged.jsonl"
                  "farm vs single-process")

# 3. Offline re-merge of the same shards is byte-stable.
run_or_die(${OMXFARM} merge --dir "${WORK_DIR}/farm")
expect_same_lines("${WORK_DIR}/ref.jsonl" "${WORK_DIR}/farm/merged.jsonl"
                  "offline re-merge")

# 4. Warm cache, cold farm state: identical decisions and metrics.
run_or_die(${CMAKE_COMMAND} -E env
           "OMX_ARTIFACT_CACHE=${WORK_DIR}/farm/cache"
           ${OMXFARM} run --dir "${WORK_DIR}/farm2" --workers 3 ${grid})
expect_same_lines("${WORK_DIR}/ref.jsonl" "${WORK_DIR}/farm2/merged.jsonl"
                  "warm artifact cache")

# 5. Corrupt every cached artifact: each read must detect the bad checksum,
#    treat it as a miss and rebuild — lines still identical.
file(GLOB entries "${WORK_DIR}/farm/cache/*.art")
if(entries STREQUAL "")
  message(FATAL_ERROR "artifact cache is empty — nothing was cached")
endif()
foreach(entry ${entries})
  file(WRITE "${entry}" "garbage, definitely not a checksummed artifact")
endforeach()
run_or_die(${CMAKE_COMMAND} -E env
           "OMX_ARTIFACT_CACHE=${WORK_DIR}/farm/cache"
           ${OMXFARM} run --dir "${WORK_DIR}/farm3" --workers 3 ${grid})
expect_same_lines("${WORK_DIR}/ref.jsonl" "${WORK_DIR}/farm3/merged.jsonl"
                  "corrupt cache entries")

# 6. A finished daemon withdraws its endpoint: status has nobody to ask.
execute_process(COMMAND ${OMXFARM} status --dir "${WORK_DIR}/farm"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "status without a daemon: want exit 2, got ${rc}")
endif()

# 7. A grid whose only trial records a precondition verdict exits 1 under
#    local workers and under a dialed worker alike. The two COMMANDs run
#    concurrently (as a pipeline whose stdin the worker ignores).
set(pre_grid --algo param --n 8 --x 16 --seeds 1)
execute_process(COMMAND ${OMXFARM} run --dir "${WORK_DIR}/pre-run"
                        --workers 1 ${pre_grid}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "precondition grid under run: want exit 1, got ${rc}")
endif()
set(pre_endpoint "unix:${WORK_DIR}/pre-serve.sock")
execute_process(COMMAND ${OMXFARM} serve --dir "${WORK_DIR}/pre-serve"
                        --listen "${pre_endpoint}" --linger-ms 1000
                        ${pre_grid}
                COMMAND ${OMXFARM} work --connect "${pre_endpoint}"
                        --dir "${WORK_DIR}/pre-worker" --backoff-ms 20
                        --reconnect-ms 20000
                RESULTS_VARIABLE rcs OUTPUT_QUIET ERROR_QUIET)
if(NOT rcs STREQUAL "1;0")
  message(FATAL_ERROR "precondition grid under serve + work: want exits "
                      "1;0 (daemon;worker), got ${rcs}")
endif()
foreach(dir pre-run pre-serve)
  file(READ "${WORK_DIR}/${dir}/merged.jsonl" merged)
  if(NOT merged MATCHES "\"verdict\":\"precondition\"")
    message(FATAL_ERROR "${dir}/merged.jsonl lacks the precondition row")
  endif()
endforeach()

message(STATUS "farm pipeline OK")
