"""Golden replay: the benchmark's requests keep their exact responses.

``golden.json`` holds, for pass 0 of seed 1 of every benchmark workload,
one SHA-256 digest per request (its argv and stdin; argv alone when the
request is chained to the previous response) and one per response (exit
code and stdout).  The test rebuilds the requests with
``perfbench/workloads.build_pass``, replays them in-process through
``irrtypes.cli.run`` and compares both digests, so any change in key
order, scalar formatting, witness choice or error text names the request
that moved.

A change that alters canonical output on purpose regenerates the file
with ``python tests/test_golden.py`` and names the requests it moved.
``python tests/test_golden.py --check`` replays and compares without
writing, on the standard library alone, so any local interpreter can run
it against ``src``; it exits 1 when a request or a response moved.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
SEED = 1
PASS = 0

# The request builders, read-only; ``src`` last, for a run without PYTHONPATH.
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "src"))
import workloads  # noqa: E402

from irrtypes import cli  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _request_digest(request) -> str:
    argv = json.dumps(request.argv).encode()
    return _sha(argv if request.chained else argv + b"\0" + request.stdin)


def _call(argv, stdin: bytes):
    """Exit code and stdout bytes of one in-process ``irrtypes`` request."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"), io.StringIO()
    try:
        code = cli.run(list(argv))
        return code, sys.stdout.getvalue().encode()
    finally:
        sys.stdin, sys.stdout = saved


def replay(workload: str):
    """Per request: (kind, argv, request digest, response digest)."""
    rows, previous = [], b""
    for request in workloads.build_pass(workload, SEED, PASS):
        code, stdout = _call(request.argv, previous if request.chained else request.stdin)
        response = _sha(f"{code}\n".encode() + stdout)
        rows.append((request.kind, request.argv, _request_digest(request), response))
        previous = stdout
    return rows


def differences(workload: str) -> List[str]:
    """How a replay of ``workload`` differs from ``golden.json``, one line each."""
    golden = json.loads(GOLDEN.read_text())
    if (golden["seed"], golden["pass"]) != (SEED, PASS):
        return [f"{GOLDEN.name} holds seed {golden['seed']}, pass {golden['pass']}"]
    expected = golden["workloads"][workload]
    rows = replay(workload)
    if [row[2] for row in rows] != [entry["request"] for entry in expected]:
        return [
            f"the benchmark's {workload} requests changed; regenerate {GOLDEN.name} "
            "with `python tests/test_golden.py`"
        ]
    return [
        f"{workload}[{index}] {kind} {argv}"
        for index, ((kind, argv, _, response), entry) in enumerate(zip(rows, expected))
        if response != entry["response"]
    ]


def pytest_generate_tests(metafunc):
    metafunc.parametrize("workload", workloads.WORKLOADS)


def test_replay_matches_golden(workload):
    moved = differences(workload)
    assert not moved, f"{GOLDEN.name} differs:\n" + "\n".join(moved)


def write_golden() -> None:
    document = {
        "seed": SEED,
        "pass": PASS,
        "workloads": {
            workload: [{"request": request, "response": response} for _, _, request, response in replay(workload)]
            for workload in workloads.WORKLOADS
        },
    }
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        moved = [line for workload in workloads.WORKLOADS for line in differences(workload)]
        print("\n".join(moved) or f"Python {sys.version.split()[0]}: every response matches {GOLDEN.name}")
        sys.exit(1 if moved else 0)
    write_golden()
    print(f"wrote {GOLDEN}")
