#!/usr/bin/env bash
# Static-analysis gate: runs mth_lint over the repository with the checked-in
# span registry and module-layering DAG, and writes the JSON + SARIF
# diagnostics artifacts (uploaded by CI — the SARIF feeds GitHub code
# scanning for inline PR annotations). Fails on any finding, stale registry
# entry, layering violation or include cycle, and schema-checks the v2 JSON
# artifact when python3 is available.
#
# Usage: tools/lint_smoke.sh [build-dir] [json-out] [sarif-out]
set -euo pipefail

BUILD_DIR="${1:-build}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/.." && pwd)"
OUT="${2:-$BUILD_DIR/lint_findings.json}"
SARIF="${3:-$BUILD_DIR/lint_findings.sarif}"

BIN="$BUILD_DIR/tools/mth_lint"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (run: cmake --build $BUILD_DIR)" >&2
  exit 2
fi

echo "[lint-smoke] $BIN --root $ROOT"
if "$BIN" --root "$ROOT" \
    --registry "$ROOT/tools/trace_spans.json" \
    --layers "$ROOT/tools/lint_layers.json" \
    --json "$OUT" \
    --sarif "$SARIF"; then
  echo "[lint-smoke] OK (artifacts: $OUT, $SARIF)"
else
  echo "[lint-smoke] FAILED: findings (see $OUT); either fix them or" >&2
  echo "[lint-smoke] justify with an inline 'mth-lint: allow(...)' comment" >&2
  exit 1
fi

# Schema check of the v2 JSON artifact: version tag, counts/total/findings
# consistency, required per-finding fields. Keeps the artifact contract that
# downstream tooling (trend dashboards, the SARIF diff) relies on.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT" "$SARIF" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["version"] == 2, f"want schema v2, got {doc.get('version')}"
assert doc["total"] == len(doc["findings"]), "total != len(findings)"
assert sum(doc["counts"].values()) == doc["total"], "counts do not sum"
for finding in doc["findings"]:
    for key in ("rule", "file", "line", "module", "message", "snippet"):
        assert key in finding, f"finding missing '{key}'"
with open(sys.argv[2]) as f:
    sarif = json.load(f)
assert sarif["version"] == "2.1.0", "bad SARIF version"
run = sarif["runs"][0]
assert run["tool"]["driver"]["name"] == "mth_lint", "bad SARIF driver"
assert len(run["results"]) == doc["total"], "SARIF/JSON finding count skew"
print(f"[lint-smoke] schema OK (v2, {doc['total']} findings, "
      f"{len(run['tool']['driver']['rules'])} rules)")
PY
else
  echo "[lint-smoke] python3 not found; skipping JSON schema check"
fi
