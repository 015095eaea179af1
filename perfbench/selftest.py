#!/usr/bin/env python3
"""Self-test of the repository benchmark at a tiny design scale.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py untraced and traced at 5 % of the workload's design scale
and checks that the run passes its output checks, that the result line
carries every declared metric with its declared unit, that the human-readable
lines name every end-to-end quantity, and that the traced run wrote its
spans with consistent self times. Exits nonzero on the first problem.
"""

import json
import os
import subprocess
import sys

# Printed by every untraced run, applicable or not ("n/a" otherwise).
TEXT_METRICS = ["setup_s", "flow_s", "hpwl_um", "disp_um", "rap_obj",
                "ilp_gap", "routed_wl_um", "overflow_edges", "peak_rss_mb",
                "fail_rate"]
SPAN_KEYS = {"id", "name", "start_s", "end_s", "self_s", "parent",
             "workload", "rep"}


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
           "--scale-factor", "0.05"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                             f"{p.stdout}\n{p.stderr}")
    return lines[:-1], json.loads(lines[-1])


def check_result(result, declared, where):
    assert result["correct"] is True, f"{where}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, \
        f"{where}: metric names {sorted(metrics)}"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)), where


def check_spans(path, workload):
    with open(path) as f:
        doc = json.load(f)
    spans = doc["spans"]
    assert doc["workload"] == workload and spans, path
    for s in spans:
        assert SPAN_KEYS <= set(s), f"{path}: span keys {sorted(s)}"
        assert s["start_s"] <= s["end_s"], path
    for root in (s for s in spans if s["name"] == "flow"):
        kids = [s for s in spans if s["parent"] == root["id"]]
        covered = sum(k["end_s"] - k["start_s"] for k in kids)
        dur = root["end_s"] - root["start_s"]
        assert kids and abs(dur - covered - root["self_s"]) < 1e-6, path


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    for w in bench["workloads"]:
        name = w["name"]
        text, result = run(name, 0)
        check_result(result, bench["end_to_end"], f"{name} --trace 0")
        for metric in TEXT_METRICS:
            assert any(l.startswith(metric + " = ") for l in text), \
                f"{name}: no '{metric} = ' line"
        text, result = run(name, 1)
        check_result(result, bench["per_layer"], f"{name} --trace 1")
        check_spans(os.path.join(build_dir, "spans", f"{name}-seed7.json"), name)
        print(f"ok {name}")
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
