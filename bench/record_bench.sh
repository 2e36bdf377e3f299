#!/usr/bin/env bash
# Records the micro-benchmark scoreboard to BENCH_micro.json (the repo's
# perf trajectory; see DESIGN.md).  Also runnable via the CMake target:
#
#   cmake --build build -t record_bench
#
# Usage: bench/record_bench.sh [micro_bench] [output.json] [micro_runner] [micro_spill] [micro_usim]
#
# When the micro_runner binary exists (third argument, defaulting to the
# sibling of micro_bench), its runner-scaling entries — BM_ShardedRunner
# shard scaling, BM_ContendedRunner contended-replication scaling, the
# log-text codec, and BM_ScenarioMultiBackend scenario-parallelism
# scaling — are merged into the same scoreboard file.  The runner entries
# carry a "pool_busy_pct" counter (worker busy / (busy + idle), via
# obs.pool) so a flat curve on the scoreboard is self-diagnosing.
#
# When the micro_spill binary exists (fourth argument, same default rule),
# its population-scaling entries — BM_SpillPopulation wall time and peak-RSS
# counters with the streaming spill path on vs off — are merged too.
#
# When the micro_usim binary exists (fifth argument, same default rule), its
# end-to-end USIM entries — BM_UsimSessions syscalls/s and sessions/s at 1
# and 4 users — are merged too.
#
# Debug-build guard: numbers from an unoptimised binary are meaningless on a
# perf scoreboard, so recording refuses unless each binary's own
# "wlgen_build_type" context entry (bench/bench_main.h, keyed on NDEBUG)
# says "release".  The stock "library_build_type" field is NOT consulted: it
# describes how the distro built the google-benchmark *library*, which can
# read "debug" under a fully optimised wlgen build.
set -euo pipefail

BIN="${1:-build/micro_bench}"
OUT="${2:-BENCH_micro.json}"
RUNNER_BIN="${3:-$(dirname "$BIN")/micro_runner}"
SPILL_BIN="${4:-$(dirname "$BIN")/micro_spill}"
USIM_BIN="${5:-$(dirname "$BIN")/micro_usim}"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found or not executable (build with: cmake --build build -t micro_bench)" >&2
  exit 1
fi

TMP_MAIN="$(mktemp)"
TMP_EXTRA="$(mktemp)"
trap 'rm -f "$TMP_MAIN" "$TMP_EXTRA"' EXIT

# Appends the second file's "benchmarks" array onto the first file's.
merge_benchmarks() {
  python3 - "$1" "$2" <<'PY'
import json, sys
main_path, extra_path = sys.argv[1], sys.argv[2]
with open(main_path) as f:
    main = json.load(f)
with open(extra_path) as f:
    extra = json.load(f)
main["benchmarks"].extend(extra.get("benchmarks", []))
with open(main_path, "w") as f:
    json.dump(main, f, indent=2)
    f.write("\n")
PY
}

# Fails (exit 1) when the recorded context is not a release build of wlgen.
require_release() {
  python3 - "$1" "$2" <<'PY'
import json, sys
path, label = sys.argv[1], sys.argv[2]
with open(path) as f:
    context = json.load(f).get("context", {})
build = context.get("wlgen_build_type", "unknown")
if build != "release":
    sys.stderr.write(
        f"error: {label} reports wlgen_build_type={build!r} — refusing to record "
        "a scoreboard from an unoptimised binary.\n"
        "Rebuild with -DCMAKE_BUILD_TYPE=Release (or RelWithDebInfo) and re-run.\n")
    sys.exit(1)
PY
}

"$BIN" --benchmark_format=json --benchmark_min_time=0.2 --benchmark_repetitions=1 > "$TMP_MAIN"
require_release "$TMP_MAIN" "$BIN"

# Runs an optional bench binary (arguments: binary, min time, what its
# entries are) and merges its entries, or notes that it is missing.
merge_optional() {
  if [[ ! -x "$1" ]]; then
    echo "note: $1 not found — scoreboard recorded without $3 entries" >&2
    return
  fi
  "$1" --benchmark_format=json --benchmark_min_time="$2" --benchmark_repetitions=1 > "$TMP_EXTRA"
  require_release "$TMP_EXTRA" "$1"
  merge_benchmarks "$TMP_MAIN" "$TMP_EXTRA"
}

merge_optional "$RUNNER_BIN" 0.5 "runner-scaling"
merge_optional "$SPILL_BIN" 0.2 "spill population-scaling"
merge_optional "$USIM_BIN" 0.2 "end-to-end USIM"

# Stamp build provenance into the context so a scoreboard entry can always
# be traced back to the exact tree that produced it.
GIT_SHA="$(git -C "$(dirname "$0")/.." rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY=false
if [[ "$GIT_SHA" != unknown ]] && \
   [[ -n "$(git -C "$(dirname "$0")/.." status --porcelain 2>/dev/null)" ]]; then
  GIT_DIRTY=true
fi
python3 - "$TMP_MAIN" "$GIT_SHA" "$GIT_DIRTY" <<'PY'
import json, sys
path, sha, dirty = sys.argv[1], sys.argv[2], sys.argv[3] == "true"
with open(path) as f:
    doc = json.load(f)
doc.setdefault("context", {})["git_sha"] = sha
doc["context"]["git_dirty"] = dirty
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY

mv "$TMP_MAIN" "$OUT"
chmod 644 "$OUT"
echo "wrote $OUT"
