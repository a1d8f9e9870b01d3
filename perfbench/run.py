"""End-to-end benchmark of the irrtypes CLI: one process per request.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One closed-loop client sends one request at a time, each as
its own ``python -m irrtypes.cli`` process with the document on stdin,
and every response is checked by the benchmark's own oracles.

With ``--trace 0`` the run times whole passes of the workload until
``--seconds`` would be exceeded and reports the end-to-end metrics.
With ``--trace 1`` it replays pass 0 once untraced and once through
``trace_launcher.py`` and reports the per-layer metrics.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
LAUNCHER = HERE / "trace_launcher.py"

SETUP_REPEATS = 25
DETERMINISM_SAMPLE = 4
TIMEOUT_S = 20.0
TRACED_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one process returned; ``error`` is set when it could not answer."""

    request: workloads.Request
    wall: float
    code: int | None
    stdout: bytes
    stdin: bytes
    error: str | None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


ENV = child_env()
CLI = [sys.executable, "-m", "irrtypes.cli"]


def invoke(command, stdin: bytes, timeout: float):
    """Run one process; returns (wall seconds, code, stdout, error or None)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, input=stdin, capture_output=True, env=ENV, cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, b"", f"timeout after {timeout} s"
    wall = time.perf_counter() - start
    error = "traceback on stderr" if b"Traceback" in proc.stderr else None
    return wall, proc.returncode, proc.stdout, error


def send(request, previous, command_prefix=CLI, timeout=TIMEOUT_S) -> Outcome:
    stdin = request.stdin
    if request.chained:
        if previous is None or previous.code != 0:
            return Outcome(request, 0.0, None, b"", b"", "chained input failed")
        stdin = previous.stdout
    wall, code, stdout, error = invoke(command_prefix + request.argv, stdin, timeout)
    return Outcome(request, wall, code, stdout, stdin, error)


def judge(outcome: Outcome) -> str | None:
    """The failure reason of a response, or None when the oracle accepts it."""
    if outcome.error:
        return outcome.error
    try:
        outcome.request.check(outcome.code, outcome.stdout, outcome.stdin)
    except oracles.Mismatch as err:
        return str(err)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as err:
        return f"malformed response: {type(err).__name__}: {err}"
    return None


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def measure_setup() -> tuple[float, dict]:
    """Median wall time of `irrtypes version`, after one untimed warm-up."""
    outcomes = run_stream([workloads.version_request()] * (SETUP_REPEATS + 1))
    failures = {}
    for i, outcome in enumerate(outcomes):
        reason = judge(outcome)
        if reason:
            failures[-1 - i] = f"set-up version: {reason}"
    return statistics.median(o.wall for o in outcomes[1:]), failures


def run_stream(requests, command_prefix=CLI, timeout=TIMEOUT_S):
    outcomes, previous = [], None
    for request in requests:
        previous = send(request, previous, command_prefix, timeout)
        outcomes.append(previous)
    return outcomes


def check_all(outcomes, seed: int) -> dict:
    """Failure reason by request index: oracle verdicts, then a seeded
    sample sent again, which must return byte-identical stdout."""
    failures = {}
    for i, outcome in enumerate(outcomes):
        reason = judge(outcome)
        if reason:
            failures[i] = f"{outcome.request.kind} {outcome.request.argv}: {reason}"
    rng = random.Random(f"determinism:{seed}")
    for i in sorted(rng.sample(range(len(outcomes)), min(DETERMINISM_SAMPLE, len(outcomes)))):
        first = outcomes[i]
        if i in failures:
            continue
        _, code, stdout, error = invoke(CLI + first.request.argv, first.stdin, TIMEOUT_S)
        if error or code != first.code or stdout != first.stdout:
            failures[i] = f"{first.request.kind}: repeated request gave other bytes"
    return failures


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s, setup_failures = measure_setup()
    outcomes, stream_wall, passes = [], 0.0, 0
    while True:
        requests = workloads.build_pass(workload, seed, passes)
        start = time.perf_counter()
        outcomes += run_stream(requests)
        elapsed = time.perf_counter() - start
        stream_wall += elapsed
        passes += 1
        if stream_wall + elapsed > seconds:
            break
    failures = {**setup_failures, **check_all(outcomes, seed)}
    walls = [o.wall for o in outcomes]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    mix = Counter(o.request.kind for o in outcomes)
    print(f"workload {workload}: {passes} pass(es), {len(outcomes)} requests, 1 closed-loop client")
    print("mix: " + ", ".join(f"{k} x{n}" for k, n in sorted(mix.items())))
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (percentile(walls, 0.5), "s"),
        "latency_p90_s": (percentile(walls, 0.9), "s"),
        "requests_per_s": (len(outcomes) / stream_wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return report(metrics, SETUP_REPEATS + 1 + len(outcomes), failures, samples=len(walls))


def report(metrics: dict, attempted: int, failures: dict, samples: int) -> dict:
    for i, reason in sorted(failures.items())[:20]:
        print(f"FAILED #{i} {reason}")
    failed = len(failures)
    print(f"samples = {samples}")
    print(f"failed_ratio = {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ------------------------------------------------------------ traced run

SELF_TIMES = (
    "cli.run", "cli.build_parser", "cli._read_document", "cli._emit",
    "serialization.from_json", "serialization.to_json",
    "rootsystems.enumerate_levi", "rootsystems.span_closure", "rootsystems.LeviFiltration",
    "rootsystems.kernel_lattice_basis",
    "linalg.rref", "linalg.in_row_span", "linalg.mat_mul", "linalg.mat_inverse", "linalg.char_poly",
    "strata.enumerate_strata", "strata.stratum_witness", "strata.stratum_dimension", "strata.is_relevant",
    "irregular.root_order_vector", "irregular.levi_filtration_of", "irregular.is_admissible",
    "connections.gauge_transform", "connections.extract_irregular_type",
    "connections._qi_eigenvalues", "connections.leading_regular_diagonalize",
    "symmetry.g1_stabilizer_order", "symmetry.g2_stabilizer_order",
    "symmetry.weighted_orbit_equivalent", "symmetry.dm_check", "symmetry.exchange_map",
    "symmetry.sl2z_act",
)
CALLS = (
    "serialization.from_json", "serialization.to_json",
    "rootsystems.enumerate_levi", "rootsystems.span_closure", "rootsystems.LeviFiltration",
    "linalg.rref", "linalg.in_row_span", "linalg.mat_mul", "linalg.mat_inverse",
    "strata.stratum_witness", "strata.is_relevant", "irregular.root_order_vector",
    "connections.gauge_transform", "connections._qi_eigenvalues",
)


class LayerTotals:
    """Per-layer sums over the spans of every traced request."""

    def __init__(self) -> None:
        self.calls = Counter()
        self.self_ns = Counter()
        self.flats = 0
        self.levi_closures = 0
        self.strata_out = 0
        self.strata_filtrations = 0
        self.created = 0
        self.sympy_loaded = 0
        self.import_ns = 0
        self.overhead_ns = 0
        self.requests = 0

    def add(self, header: dict, spans: array, wall: float) -> None:
        """Fold in one request: spans hold five integers each (name id,
        start ns, end ns, parent offset or -1, result size or -1), parents
        before their children, as trace_launcher.py writes them."""
        names = header["names"]
        count = len(spans) // 5
        child_ns = [0] * count
        under_levi = [False] * count
        under_strata = [False] * count
        run_ns = 0
        for s in range(count):
            base = 5 * s
            name = names[spans[base]]
            duration = spans[base + 2] - spans[base + 1]
            parent = spans[base + 3] // 5 if spans[base + 3] >= 0 else -1
            if parent >= 0:
                child_ns[parent] += duration
                pname = names[spans[5 * parent]]
                under_levi[s] = under_levi[parent] or pname == "rootsystems.enumerate_levi"
                under_strata[s] = under_strata[parent] or pname == "strata.enumerate_strata"
            elif name == "cli.run":
                run_ns += duration
            if name == "rootsystems.span_closure" and under_levi[s]:
                self.levi_closures += 1
            if name == "rootsystems.LeviFiltration" and under_strata[s]:
                self.strata_filtrations += 1
            size = max(spans[base + 4], 0)  # -1 when the call raised
            if name == "rootsystems.enumerate_levi":
                self.flats += size
            if name == "strata.enumerate_strata":
                self.strata_out += size
        for s in range(count):
            base = 5 * s
            name = names[spans[base]]
            self.calls[name] += 1
            self.self_ns[name] += spans[base + 2] - spans[base + 1] - child_ns[s]
        self.created += header["created"]
        self.sympy_loaded += bool(header["sympy_loaded"])
        self.import_ns += header["import_ns"]
        self.overhead_ns += int(wall * 1e9) - run_ns - header["instrument_ns"]
        self.requests += 1

    def metrics(self, codes: Counter, overhead_s: float) -> dict:
        out = {
            "cli.process_overhead_s": (self.overhead_ns / 1e9, "s"),
            "cli.import_s": (self.import_ns / 1e9, "s"),
        }
        for code in (1, 2, 3):
            out[f"cli.error_responses.exit{code}"] = (codes[code], "count")
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls[name], "count")
        out["rootsystems.enumerate_levi.flats"] = (self.flats, "count")
        out["rootsystems.closure_yield"] = (self.flats / max(self.levi_closures, 1), "ratio")
        out["strata.strata_out"] = (self.strata_out, "count")
        out["strata.filtrations_per_stratum"] = (
            self.strata_filtrations / max(self.strata_out, 1), "ratio"
        )
        out["connections.sympy_loaded"] = (self.sympy_loaded / self.requests, "ratio")
        out["scalars.GaussianRational.created"] = (self.created / self.requests, "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


def read_spans(path: Path):
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        spans = array("q")
        spans.frombytes(handle.read())
    return header, spans


def traced(workload: str, seed: int) -> dict:
    """Pass 0 untraced, then again through the launcher; per-layer totals."""
    requests = workloads.build_pass(workload, seed, 0)
    plain = run_stream(requests)
    failures = check_all(plain, seed)
    totals, traced_walls = LayerTotals(), []
    WORK.mkdir(exist_ok=True)
    try:
        previous = None
        for i, (request, base) in enumerate(zip(requests, plain)):
            spans_file = WORK / f"spans-{i}.bin"
            prefix = [sys.executable, str(LAUNCHER), str(spans_file), str(i), "--"]
            previous = send(request, previous, prefix, TRACED_TIMEOUT_S)
            traced_walls.append(previous.wall)
            if previous.error or previous.code != base.code or previous.stdout != base.stdout:
                failures.setdefault(i, f"{request.kind}: traced response differs from untraced")
                continue
            header, spans = read_spans(spans_file)
            spans_file.unlink()
            totals.add(header, spans, previous.wall)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    codes = Counter(o.code for o in plain)
    overhead_s = sum(traced_walls) - sum(o.wall for o in plain)
    print(f"workload {workload}: traced pass 0, {len(requests)} requests")
    return report(totals.metrics(codes, overhead_s), len(requests), failures, samples=len(requests))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "irrtypes" / "cli.py").is_file():
        print(f"perfbench: no irrtypes sources under {SRC}", file=sys.stderr)
        return 2
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "absent"
    print(f"environment: python {sys.version.split()[0]}, sympy {sympy}, nproc {os.cpu_count()}")
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
