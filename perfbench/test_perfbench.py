"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
traced tests replay a short prefix of pass 0 of every workload twice and
take about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
COUNT_UNITS = {"count", "ratio"}
PREFIX = 8


def test_flat_and_multichain_oracles():
    for label, count in oracles.KNOWN_FLAT_COUNTS.items():
        assert len(workloads.roots(label[0], int(label[1:])).flats()) == count
    # A1 has the flats {} and {0, 1}; the README lists its 4 strata for p = 3.
    assert workloads.roots("A", 1).multichains(3) == 4


def test_passes_depend_only_on_seed_and_pass():
    first = workloads.build_pass("small-requests", 7, 0)
    again = workloads.build_pass("small-requests", 7, 0)
    other = workloads.build_pass("small-requests", 8, 0)
    assert [(r.argv, r.stdin) for r in first] == [(r.argv, r.stdin) for r in again]
    assert [(r.argv, r.stdin) for r in first] != [(r.argv, r.stdin) for r in other]


def test_manifest_maps_every_per_layer_metric():
    manifest = json.loads((ROOT / "perfbench" / "manifest.json").read_text())
    assert sorted(m["metric"] for m in manifest["layer_map"]) == sorted(PER_LAYER)
    assert sorted(manifest["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_reject_wrong_answers(workload):
    for request in workloads.build_pass(workload, 1, 0)[:5]:
        for code, stdout in ((0, b'{"unexpected": true}'), (0, b"not json"), (1, b"{}")):
            outcome = run.Outcome(request, 0.1, code, stdout, request.stdin, None)
            assert run.judge(outcome) is not None, (request.kind, stdout)


@pytest.fixture(scope="module")
def traced_twice():
    """Per-layer results of two traced replays of the same prefix."""
    results = {}
    build = workloads.build_pass
    try:
        workloads.build_pass = lambda w, s, i: build(w, s, i)[:PREFIX]
        for workload in workloads.WORKLOADS:
            results[workload] = [run.traced(workload, 3) for _ in range(2)]
    finally:
        workloads.build_pass = build
    return results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(traced_twice, workload):
    for result in traced_twice[workload]:
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(traced_twice, workload):
    first, second = (r["metrics"] for r in traced_twice[workload])
    counts = [name for name, m in first.items() if m["unit"] in COUNT_UNITS]
    assert "scalars.GaussianRational.created" in counts
    assert "rootsystems.enumerate_levi.flats" in counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "small-requests",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout
