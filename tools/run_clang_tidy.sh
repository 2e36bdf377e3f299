#!/usr/bin/env bash
# Runs clang-tidy (config: .clang-tidy at the repo root) over every
# translation unit in compile_commands.json.  Part of the `lint` CMake
# target and CI's lint job; tolerant of clang-tidy being absent because the
# local container image may ship gcc only — CI always installs it, so a
# skip here can never hide a violation from the gate.
#
# Usage: tools/run_clang_tidy.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

TIDY="$(command -v clang-tidy || true)"
if [ -z "$TIDY" ]; then
  echo "run_clang_tidy: clang-tidy not installed — skipping (CI runs it; install" \
       "clang-tidy to reproduce the lint job locally)"
  exit 0
fi

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "run_clang_tidy: $BUILD_DIR/compile_commands.json missing —" \
       "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
  exit 1
fi

# run-clang-tidy parallelises when available; otherwise loop serially over
# the repo's own sources (dependencies fetched into the build tree are not
# ours to lint).
RUNNER="$(command -v run-clang-tidy || true)"
if [ -n "$RUNNER" ]; then
  "$RUNNER" -p "$BUILD_DIR" -quiet "^$ROOT/(src|tests|bench)/.*"
else
  status=0
  while IFS= read -r file; do
    "$TIDY" -p "$BUILD_DIR" --quiet "$file" || status=1
  done < <(python3 -c "
import json, sys
for entry in json.load(open('$BUILD_DIR/compile_commands.json')):
    f = entry['file']
    if f.startswith('$ROOT/src/') or f.startswith('$ROOT/tests/') \
       or f.startswith('$ROOT/bench/'):
        print(f)
")
  exit $status
fi
