#!/usr/bin/env bash
# Fuzz smoke for the verification subsystem: runs the deterministic
# differential fuzz harness (tools/mth_fuzz) for a bounded number of seeded
# iterations — each iteration synthesizes a micro testcase, solves the RAP
# four ways (1 vs 8 threads, dense-cold vs sparse-warm), cross-checks the
# variants, certifies every result against the LP-dual bound and grades both
# legalizers with the placement oracle. Any finding exits nonzero and leaves
# a minimized DEF + JSON repro under the scratch dir (printed on failure).
#
# A second (skippable) leg compiles the verify, rap, lp, ilp, route and
# cluster test suites under AddressSanitizer in a side build directory and
# runs them, so memory bugs in the oracle/certifier/solver paths and the
# index-heavy kernels (sparse LU, the router's indexed heap, the sorted 1-D
# k-means search) cannot hide behind green asserts.
#
# Usage: tools/fuzz_smoke.sh [build-dir]
# Env:   MTH_FUZZ_ITERS  fuzz iterations          (default 50)
#        MTH_FUZZ_ASAN   0 skips the ASan leg     (default 1)
set -euo pipefail

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/tools/mth_fuzz"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (run: cmake --build $BUILD_DIR)" >&2
  exit 2
fi
BIN="$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")"
SRC_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

: "${MTH_FUZZ_ITERS:=50}"
: "${MTH_FUZZ_ASAN:=1}"

TMP="$(mktemp -d)"
REPRO_DIR="$TMP/fuzz_repro"
cleanup() {
  # Keep repro artifacts on failure; they are the whole point of the run.
  if [[ -d "$REPRO_DIR" ]] && [[ -n "$(ls -A "$REPRO_DIR" 2>/dev/null)" ]]; then
    echo "[fuzz-smoke] repro artifacts kept in $REPRO_DIR" >&2
  else
    rm -rf "$TMP"
  fi
}
trap cleanup EXIT

echo "[fuzz-smoke] $BIN --iters $MTH_FUZZ_ITERS"
if ! "$BIN" --iters "$MTH_FUZZ_ITERS" --out "$REPRO_DIR"; then
  echo "[fuzz-smoke] FAILED: differential findings above" >&2
  exit 1
fi

# LEF-parser leg: mutation iterations are cheap (no placement behind them),
# so run an order of magnitude more of them.
echo "[fuzz-smoke] $BIN --lef-fuzz --iters $((MTH_FUZZ_ITERS * 10))"
if ! "$BIN" --lef-fuzz --iters "$((MTH_FUZZ_ITERS * 10))"; then
  echo "[fuzz-smoke] FAILED: LEF parser findings above" >&2
  exit 1
fi

if [[ "$MTH_FUZZ_ASAN" != "0" ]]; then
  ASAN_DIR="$SRC_DIR/build-asan"
  ASAN_TESTS=(verify_test rap_test lp_test ilp_test route_test cluster_test)
  echo "[fuzz-smoke] ASan build of ${ASAN_TESTS[*]} in $ASAN_DIR"
  cmake -B "$ASAN_DIR" -S "$SRC_DIR" -DMTH_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$TMP/asan-cmake.log" 2>&1 \
    || { cat "$TMP/asan-cmake.log" >&2; exit 1; }
  cmake --build "$ASAN_DIR" --target "${ASAN_TESTS[@]}" \
    -j "$(nproc)" > "$TMP/asan-build.log" 2>&1 \
    || { tail -50 "$TMP/asan-build.log" >&2; exit 1; }
  for t in "${ASAN_TESTS[@]}"; do
    echo "[fuzz-smoke] ASan: $t"
    "$ASAN_DIR/tests/$t" > "$TMP/asan-$t.log" 2>&1 \
      || { tail -50 "$TMP/asan-$t.log" >&2; exit 1; }
  done
else
  echo "[fuzz-smoke] ASan leg skipped (MTH_FUZZ_ASAN=0)"
fi

echo "[fuzz-smoke] OK"
