# Golden digests: the absolute byte-identity pin.  Other suites prove
# relative invariance (threads 1 == threads N, spill == in-memory); this
# script compares the real wlgen_cli's output with bytes recorded by a
# known-good build and committed in tests/golden/:
#
#   scenarios/<stem>.stats  the `[output] stats` digest of every committed
#                           scenarios/*.scn, at --threads 1 and 4;
#   run_<form>.sha256       the SHA-256 of the usage log `wlgen run ... --log`
#                           writes: classic, --shards 4 at --threads 1 and 4,
#                           and --shards 4 --spill (at --threads 1 and 4).
#
# ctest runs it as `golden_test`.  By hand, from the source root:
#
#   cmake -DWLGEN_CLI=build/wlgen_cli -DSOURCE_DIR=. -DWORK_DIR=build/golden \
#         -P tests/golden_test.cmake
#
# Goldens change only on purpose: add -DRECORD=ON to rewrite them from the
# given binary, then review the diff.  Without it a mismatch fails the test.

foreach(var IN ITEMS WLGEN_CLI SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_test: -D${var}=... is required")
  endif()
endforeach()
set(GOLDEN_DIR ${SOURCE_DIR}/tests/golden)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(failures "")

# Runs wlgen_cli in WORK_DIR (so relative artifacts such as default spool
# directories land there); any non-zero exit fails the test.
function(wlgen)
  execute_process(COMMAND ${WLGEN_CLI} ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "golden_test: `wlgen ${ARGN}` exited ${status}:\n${err}")
  endif()
endfunction()

# Compares `actual` with a golden file, or rewrites the file in record mode.
function(check golden actual)
  if(RECORD)
    file(WRITE ${golden} "${actual}")
    return()
  endif()
  set(expected "<missing>")
  if(EXISTS ${golden})
    file(READ ${golden} expected)
  endif()
  if(NOT expected STREQUAL actual)
    set(failures "${failures}  ${golden}: ${CHECK_LABEL}\n" PARENT_SCOPE)
  endif()
endfunction()

file(GLOB scenarios ${SOURCE_DIR}/scenarios/*.scn)
foreach(scn IN LISTS scenarios)
  get_filename_component(stem ${scn} NAME_WE)
  file(READ ${scn} text)
  foreach(threads 1 4)
    set(CHECK_LABEL "scenario ${stem} --threads ${threads}")
    set(stats ${WORK_DIR}/${stem}_t${threads}.stats)
    file(WRITE ${WORK_DIR}/${stem}.scn "${text}\n[output]\nstats = ${stats}\n")
    wlgen(scenario run ${WORK_DIR}/${stem}.scn --threads ${threads})
    file(READ ${stats} digest)
    check(${GOLDEN_DIR}/scenarios/${stem}.stats "${digest}")
  endforeach()
endforeach()

# One `run --log` form: `golden` names the sha256 file, ARGN the flags.
function(check_run_log golden)
  string(REPLACE ";" " " CHECK_LABEL "run ${ARGN}")
  string(MD5 tag "${ARGN}")
  wlgen(run ${ARGN} --log ${WORK_DIR}/${tag}.log)
  file(SHA256 ${WORK_DIR}/${tag}.log sha)
  check(${GOLDEN_DIR}/${golden}.sha256 "${sha}\n")
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

set(sharded --users 12 --sessions 3 --shards 4 --heavy 0.5 --pattern zipf)
check_run_log(run_classic --users 4 --sessions 5)
check_run_log(run_shards4_t1 ${sharded} --threads 1)
check_run_log(run_shards4_t4 ${sharded} --threads 4)
foreach(threads 1 4)
  check_run_log(run_shards4_spill ${sharded} --threads ${threads}
                --spill --spool-dir ${WORK_DIR}/spool_t${threads})
endforeach()

if(RECORD)
  message(STATUS "golden_test: goldens recorded under ${GOLDEN_DIR}")
elseif(failures)
  message(FATAL_ERROR "golden_test: output differs from the committed goldens:\n${failures}"
                      "Refresh them only on purpose (see tests/golden_test.cmake).")
else()
  message(STATUS "golden_test: every digest matches tests/golden/")
endif()
