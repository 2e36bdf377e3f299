# Golden digests: the absolute byte-identity pin.  Other suites prove
# relative invariance (threads 1 == threads N, spill == in-memory); this
# script compares the real wlgen_cli's output with bytes recorded by a
# known-good build and committed in tests/golden/:
#
#   scenarios/<stem>.stats  the `[output] stats` digest of every committed
#                           scenarios/*.scn and of the fixtures
#                           tests/golden/*.scn, at --threads 1 and 4;
#   metrics/<stem>.json     each group's `metrics` object from the same runs'
#                           `--metrics` report (`timing` holds wall-clock and
#                           pool counters, so it is left out);
#   scenarios/<stem>.log.sha256
#                           the SHA-256 of the `[output] log` the same runs
#                           write, for flash_crowd (sharded, in memory, with
#                           traffic) and trace_vs_synthetic (the replayed log);
#   run_<form>.sha256       the SHA-256 of the usage log `wlgen run ... --log`
#                           writes: classic, --shards 4 at --threads 1 and 4,
#                           and --shards 4 --spill (at --threads 1 and 4);
#   run_users40_shards4.sha256
#                           the same for a 133,528-record --shards 4 log, in
#                           memory, with --spill and with --checkpoint then
#                           --resume, at --threads 1 and 4: a log the
#                           writer cuts into many slices;
#   run_shards4_stdout.txt  the stdout of those --shards 4 runs and of the
#                           same run without --log (at --threads 1 and 4),
#                           less the `wall:` and `... written to` lines: all
#                           six forms print this one text;
#   run_classic_stdout.txt  the same for the classic run, with and without
#                           --log;
#   run_classic_windows2_stdout.txt
#                           the same for a classic run whose users keep two
#                           sessions open at once (--windows 2);
#   replay_<form>.sha256    the SHA-256 of `wlgen replay`'s stdout over the
#                           classic and --shards 4 logs: open loop on local
#                           (a completion-order log, so out-of-order issue
#                           times), on nfs at --scale 0.3, and closed loop;
#   analyze_<form>.txt      `wlgen analyze`'s stdout over the classic and
#                           --shards 4 --threads 1 logs;
#   {analyze,replay}_empty.txt
#                           `wlgen analyze` and `wlgen replay --model local`
#                           stdout over a log that holds only its header;
#   {analyze,replay}_noncanonical.txt
#                           the same two commands over noncanonical.log, a
#                           log whose fields take every non-canonical form
#                           the reader accepts;
#   gds_all_families.txt    `wlgen gds` stdout over all_families.gds, a spec
#                           with one distribution of every family (and, with
#                           no golden file, that a bad --points, --plot or
#                           --cdf fails with nothing on stdout);
#   experiments/<id>.json   every experiment's JSON at --scale 0.25, at
#                           --threads 1 and 4.
#
# ctest runs it as `golden_test`.  By hand, from the source root:
#
#   cmake -DWLGEN_CLI=build/wlgen_cli -DSOURCE_DIR=. -DWORK_DIR=build/golden \
#         -P tests/golden_test.cmake
#
# Goldens change only on purpose: add -DRECORD=ON to rewrite them from the
# given binary, then review the diff.  Without it a mismatch fails the test.

cmake_minimum_required(VERSION 3.20)  # script mode sets no policies (IN_LIST)

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

# Like wlgen(), but keeps stdout in the caller's variable `out`.
function(wlgen_stdout out)
  execute_process(COMMAND ${WLGEN_CLI} ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE status OUTPUT_VARIABLE text ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "golden_test: `wlgen ${ARGN}` exited ${status}:\n${err}")
  endif()
  set(${out} "${text}" PARENT_SCOPE)
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

# Reads a `--metrics` report and keeps its `groups` array without each
# group's `timing` object, re-serialized by CMake (keys sorted, trailing
# blanks dropped).
function(metrics_groups out report)
  file(READ ${report} json)
  string(JSON count LENGTH "${json}" groups)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON json REMOVE "${json}" groups ${i} timing)
  endforeach()
  string(JSON groups GET "${json}" groups)
  string(REGEX REPLACE " +\n" "\n" groups "${groups}")
  set(${out} "${groups}" PARENT_SCOPE)
endfunction()

set(logged_scenarios flash_crowd trace_vs_synthetic)
file(GLOB scenarios ${SOURCE_DIR}/scenarios/*.scn ${GOLDEN_DIR}/*.scn)
foreach(scn IN LISTS scenarios)
  get_filename_component(stem ${scn} NAME_WE)
  file(READ ${scn} text)
  foreach(threads 1 4)
    set(CHECK_LABEL "scenario ${stem} --threads ${threads}")
    set(stats ${WORK_DIR}/${stem}_t${threads}.stats)
    set(log ${WORK_DIR}/${stem}_t${threads}.log)
    set(output "[output]\nstats = ${stats}\n")
    if(stem IN_LIST logged_scenarios)
      string(APPEND output "log = ${log}\n")
    endif()
    file(WRITE ${WORK_DIR}/${stem}.scn "${text}\n${output}")
    set(metrics ${WORK_DIR}/${stem}_t${threads}.metrics.json)
    wlgen(scenario run ${WORK_DIR}/${stem}.scn --threads ${threads} --metrics ${metrics})
    file(READ ${stats} digest)
    check(${GOLDEN_DIR}/scenarios/${stem}.stats "${digest}")
    metrics_groups(groups ${metrics})
    check(${GOLDEN_DIR}/metrics/${stem}.json "${groups}\n")
    if(stem IN_LIST logged_scenarios)
      file(SHA256 ${log} sha)
      check(${GOLDEN_DIR}/scenarios/${stem}.log.sha256 "${sha}\n")
    endif()
  endforeach()
endforeach()

# The stdout of a `run` form (`report`) against the one golden text
# (`golden`, a file name) every form of that run prints, once the lines
# that name wall time or a written file are dropped.
function(check_run_stdout golden report)
  string(REGEX REPLACE "\nwall: [^\n]*" "" report "${report}")
  string(REGEX REPLACE "\n[^\n]* written to [^\n]*" "" report "${report}")
  check(${GOLDEN_DIR}/${golden} "${report}")
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

# One `run --log` form: `golden` names the sha256 file, ARGN the flags.
# The log stays at WORK_DIR/<golden>.log for the replay checks below.
function(check_run_log golden)
  string(REPLACE ";" " " CHECK_LABEL "run ${ARGN}")
  wlgen_stdout(report run ${ARGN} --log ${WORK_DIR}/${golden}.log)
  file(SHA256 ${WORK_DIR}/${golden}.log sha)
  check(${GOLDEN_DIR}/${golden}.sha256 "${sha}\n")
  if(golden MATCHES "^run_shards4")
    check_run_stdout(run_shards4_stdout.txt "${report}")
  elseif(golden STREQUAL "run_classic")
    check_run_stdout(run_classic_stdout.txt "${report}")
  endif()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

set(sharded --users 12 --sessions 3 --shards 4 --heavy 0.5 --pattern zipf)
check_run_log(run_classic --users 4 --sessions 5)
set(CHECK_LABEL "run --users 4 --sessions 5 (no --log)")
wlgen_stdout(report run --users 4 --sessions 5)
check_run_stdout(run_classic_stdout.txt "${report}")
set(CHECK_LABEL "run --users 3 --sessions 4 --windows 2 --heavy 0.5")
wlgen_stdout(report run --users 3 --sessions 4 --windows 2 --heavy 0.5)
check_run_stdout(run_classic_windows2_stdout.txt "${report}")
check_run_log(run_shards4_t1 ${sharded} --threads 1)
check_run_log(run_shards4_t4 ${sharded} --threads 4)
foreach(threads 1 4)
  check_run_log(run_shards4_spill ${sharded} --threads ${threads}
                --spill --spool-dir ${WORK_DIR}/spool_t${threads})
  set(CHECK_LABEL "run ${sharded} --threads ${threads} (no --log)")
  wlgen_stdout(report run ${sharded} --threads ${threads})
  check_run_stdout(run_shards4_stdout.txt "${report}")
endforeach()

# A log large enough that the writer cuts it into many key-range slices,
# from memory runs and from run files.
set(large --users 40 --sessions 5 --shards 4)
foreach(threads 1 4)
  check_run_log(run_users40_shards4 ${large} --threads ${threads})
  check_run_log(run_users40_shards4 ${large} --threads ${threads}
                --spill --spool-dir ${WORK_DIR}/spool_users40_t${threads})
  # Checkpointed, then resumed from those checkpoints: the second run
  # simulates nothing and writes the log from the run files it re-read.
  check_run_log(run_users40_shards4 ${large} --threads ${threads}
                --checkpoint --spool-dir ${WORK_DIR}/ckpt_users40_t${threads})
  check_run_log(run_users40_shards4 ${large} --threads ${threads}
                --resume --spool-dir ${WORK_DIR}/ckpt_users40_t${threads})
endforeach()

# One `wlgen replay` form: `golden` names the sha256 file, `log` the
# check_run_log golden whose log is replayed, ARGN the replay flags.
function(check_replay golden log)
  string(REPLACE ";" " " CHECK_LABEL "replay ${log}.log ${ARGN}")
  wlgen_stdout(report replay ${WORK_DIR}/${log}.log ${ARGN})
  string(SHA256 sha "${report}")
  check(${GOLDEN_DIR}/${golden}.sha256 "${sha}\n")
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

check_replay(replay_classic_local run_classic --model local)
check_replay(replay_classic_nfs_scaled run_classic --model nfs --scale 0.3)
check_replay(replay_shards4_nfs run_shards4_t1 --model nfs)
check_replay(replay_shards4_local_closed run_shards4_t1 --model local --closed-loop)

# `wlgen analyze` stdout, verbatim: `golden` names the text file, `log` the
# check_run_log golden whose log is analyzed.
function(check_analyze golden log)
  set(CHECK_LABEL "analyze ${log}.log")
  wlgen_stdout(report analyze ${WORK_DIR}/${log}.log)
  check(${GOLDEN_DIR}/${golden}.txt "${report}")
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

check_analyze(analyze_classic run_classic)
check_analyze(analyze_shards4_t1 run_shards4_t1)

# A log with no records is valid input: both commands exit 0 and print "-"
# for every summary without observations.
file(WRITE ${WORK_DIR}/empty.log "# issue_us\tresponse_us\tuser\tsession\top\treq_bytes\t"
                                 "act_bytes\tfile_id\tfile_size\tftype\towner\tuse\n")
check_analyze(analyze_empty empty)
set(CHECK_LABEL "replay empty.log --model local")
wlgen_stdout(report replay ${WORK_DIR}/empty.log --model local)
check(${GOLDEN_DIR}/replay_empty.txt "${report}")

# Every field form the reader accepts besides the one the writer prints:
# CRLF and LF endings, comment and blank lines, padded fields, '+', leading
# zeros, exponent, hex and leading-dot doubles, -0, and -1 in a u64 field
# (read as UINT64_MAX).
file(COPY ${GOLDEN_DIR}/noncanonical.log DESTINATION ${WORK_DIR})
check_analyze(analyze_noncanonical noncanonical)
set(CHECK_LABEL "replay noncanonical.log --model local")
wlgen_stdout(report replay ${WORK_DIR}/noncanonical.log --model local)
check(${GOLDEN_DIR}/replay_noncanonical.txt "${report}")

# `wlgen gds` lists and serializes every family the spec grammar accepts.
set(CHECK_LABEL "gds all_families.gds")
wlgen_stdout(report gds ${GOLDEN_DIR}/all_families.gds)
check(${GOLDEN_DIR}/gds_all_families.txt "${report}")

# ... and checks its flags before it prints: a bad one exits non-zero with
# stdout empty.
foreach(flags IN ITEMS "--cdf;mix;--points;1" "--plot;nosuch" "--cdf;nosuch")
  execute_process(COMMAND ${WLGEN_CLI} gds ${GOLDEN_DIR}/all_families.gds ${flags}
                  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE status OUTPUT_VARIABLE text
                  ERROR_QUIET)
  if(status EQUAL 0 OR NOT text STREQUAL "")
    string(REPLACE ";" " " shown "${flags}")
    string(APPEND failures "  gds all_families.gds ${shown}: exited ${status}, "
                           "stdout '${text}' (want a non-zero exit and no stdout)\n")
  endif()
endforeach()

# Experiment JSON, byte for byte.  The golden set must match the produced
# set exactly, so a dropped or a new experiment fails too.
file(GLOB golden_jsons RELATIVE ${GOLDEN_DIR}/experiments ${GOLDEN_DIR}/experiments/*.json)
foreach(threads 1 4)
  set(out ${WORK_DIR}/experiments_t${threads})
  wlgen(experiments --scale 0.25 --threads ${threads} --out ${out})
  file(GLOB jsons RELATIVE ${out} ${out}/*.json)
  foreach(json IN LISTS jsons)
    set(golden ${GOLDEN_DIR}/experiments/${json})
    if(RECORD)
      file(COPY ${out}/${json} DESTINATION ${GOLDEN_DIR}/experiments)
      continue()
    endif()
    set(expected "<missing>")
    if(EXISTS ${golden})
      file(SHA256 ${golden} expected)
    endif()
    file(SHA256 ${out}/${json} actual)
    if(NOT expected STREQUAL actual)
      set(failures "${failures}  ${golden}: experiments --threads ${threads}\n")
    endif()
  endforeach()
  if(NOT RECORD AND NOT jsons STREQUAL golden_jsons)
    set(failures "${failures}  ${GOLDEN_DIR}/experiments: produced {${jsons}} at "
                 "--threads ${threads}, pinned {${golden_jsons}}\n")
  endif()
endforeach()

if(RECORD)
  message(STATUS "golden_test: goldens recorded under ${GOLDEN_DIR}")
elseif(failures)
  message(FATAL_ERROR "golden_test: output differs from the committed goldens:\n${failures}"
                      "Refresh them only on purpose (see tests/golden_test.cmake).")
else()
  message(STATUS "golden_test: every digest matches tests/golden/")
endif()
