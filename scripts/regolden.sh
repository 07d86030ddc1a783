#!/usr/bin/env bash
# Rewrite the golden determinism corpus (tests/golden/determinism.txt) from
# fresh runs of every config in tests/determinism_test.cpp.
#
# Run this only after a change that is meant to move a fingerprint, then
# review `git diff tests/golden/` and name every changed line (and why it
# moved) in the change description.
#
# Usage: scripts/regolden.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"
cmake -B "$build" -S . >/dev/null
cmake --build "$build" --target determinism_test -j"$(nproc)"
MNM_REGOLDEN=1 "./$build/determinism_test" \
  --gtest_filter='Determinism.GoldenCorpusMatchesFreshRuns'
git --no-pager diff --stat -- tests/golden/ || true
