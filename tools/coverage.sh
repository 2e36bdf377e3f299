#!/usr/bin/env bash
# Coverage audit: how much of src/ the product runs.  Builds wlgen_cli with
# `--coverage -O0` in a scratch directory, drives it with every golden_test
# command (tests/golden_test.cmake) plus the CLI paths golden_test does not
# take, and prints src/'s executed line share and every src/ function that
# never ran.  A report, not a gate: a function that never runs is library
# surface only the tests reach, or an error path no front end exercises.
#
# Usage: tools/coverage.sh [BUILD_DIR]
#
# Needs gcc's gcov and python3.  Without BUILD_DIR the build goes into a new
# `mktemp -d` directory under ${TMPDIR:-/tmp}.  A BUILD_DIR is wiped first,
# and only if it is missing, empty or holds the .wlgen-coverage marker an
# earlier run of this script left there.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MARKER=.wlgen-coverage
if [ $# -gt 0 ]; then
  BUILD="$1"
  if [ -e "$BUILD" ] && [ -n "$(ls -A "$BUILD")" ] && [ ! -e "$BUILD/$MARKER" ]; then
    echo "coverage: $BUILD is not empty and was not made by this script; not wiping it" >&2
    exit 2
  fi
  rm -rf "$BUILD"
  mkdir -p "$BUILD"
else
  BUILD="$(mktemp -d "${TMPDIR:-/tmp}/wlgen-coverage.XXXXXX")"
fi
BUILD="$(cd "$BUILD" && pwd)"
touch "$BUILD/$MARKER"
echo "coverage: building in $BUILD" >&2
cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="--coverage -O0" \
      -DWLGEN_BUILD_TESTS=OFF -DWLGEN_BUILD_BENCHES=OFF > "$BUILD/configure.log"
cmake --build "$BUILD" -j "$(nproc)" --target wlgen_cli > "$BUILD/build.log"

CLI="$BUILD/wlgen_cli"
WORK="$BUILD/drive"
mkdir -p "$WORK"
cd "$WORK"

# Every golden_test command.  A golden mismatch is reported, not fatal: the
# audit measures what runs, and golden_test is where bytes are checked.
cmake -DWLGEN_CLI="$CLI" -DSOURCE_DIR="$ROOT" -DWORK_DIR="$WORK/golden" \
      -P "$ROOT/tests/golden_test.cmake" > golden.log 2>&1 ||
  echo "coverage: golden_test.cmake failed at -O0 (see $WORK/golden.log)" >&2

# The paths golden_test does not take.
"$CLI" run --contended --users-sweep 1:4:1 --replications 2 --sessions 3 --threads 4 > /dev/null
"$CLI" run --users 12 --sessions 3 --shards 4 --threads 2 --verify-merge > /dev/null
"$CLI" run --users 8 --sessions 3 --shards 2 --metrics metrics.json --trace trace.json \
       --progress > /dev/null 2>&1
"$CLI" run --users 4 --sessions 3 --checkpoint --shards 2 --spool-dir ckpt > /dev/null
"$CLI" run --users 4 --sessions 3 --resume --shards 2 --spool-dir ckpt --log resumed.log > /dev/null
"$CLI" gds "$ROOT/tests/golden/all_families.gds" --plot mix --cdf stages --points 16 > /dev/null
"$CLI" gds "$ROOT/tests/golden/all_families.gds" --plot density --cdf cumulative > /dev/null
"$CLI" experiments --check --scale 0.25 --out experiments > /dev/null
"$CLI" scenario run --list --dir "$ROOT/scenarios" > /dev/null
"$CLI" lint --root "$ROOT/src" > /dev/null
"$CLI" version > /dev/null

# gcov every object of the library, the experiments and the CLI (a source
# the linker dropped has no .gcda and counts as never run), then fold the
# per-object reports: a header line or an inline function is counted once.
GCOV_OUT="$BUILD/gcov"
mkdir -p "$GCOV_OUT"
cd "$GCOV_OUT"
find "$BUILD/CMakeFiles" -name '*.gcno' -print0 |
  xargs -0 gcov --json-format --demangled-names > /dev/null 2>&1

python3 - "$ROOT" "$GCOV_OUT" <<'EOF'
import gzip, json, os, sys
from collections import defaultdict

root, out = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
lines = defaultdict(int)  # (file, line) -> count
funcs = {}                # (file, start, name) -> [count, lines]
for entry in sorted(os.listdir(out)):
    if not entry.endswith(".gcov.json.gz"):
        continue
    with gzip.open(os.path.join(out, entry), "rt") as f:
        report = json.load(f)
    cwd = report.get("current_working_directory", "")
    for unit in report["files"]:
        path = os.path.normpath(os.path.join(cwd, unit["file"]))
        if not path.startswith(src):
            continue
        rel = os.path.relpath(path, root)
        for line in unit["lines"]:
            lines[(rel, line["line_number"])] += line["count"]
        for fn in unit["functions"]:
            key = (rel, fn["start_line"], fn["demangled_name"])
            slot = funcs.setdefault(key, [0, fn["end_line"] - fn["start_line"] + 1])
            slot[0] += fn["execution_count"]

executed = sum(1 for count in lines.values() if count > 0)
total = len(lines)
never = sorted(key for key, (count, _) in funcs.items() if count == 0)
never_lines = sum(funcs[key][1] for key in never)
print(f"src/ lines executed: {executed} of {total} ({100.0 * executed / max(total, 1):.1f}%)")
print(f"src/ functions never called: {len(never)} of {len(funcs)} ({never_lines} lines)")
for rel, start, name in never:
    print(f"  {rel}:{start}  {name}")
EOF
