"""End-to-end tests of the command-line surface.

Canonical outputs are frozen as exact byte strings where the payload is
small; everything else is checked structurally plus a byte-for-byte
determinism assertion between repeated runs.
"""

import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import irrtypes
from irrtypes import (
    ConnectionGerm,
    FamilyIrregularType,
    GaugeElement,
    IrregularType,
    IrregularTypeAtInfinity,
    LaurentTail,
    MultiPoly,
    RootOrderVector,
    RootSystem,
    TruncatedSeries,
    build_root_system,
    enumerate_strata,
    gauge_transform,
    gauss,
    is_admissible,
    leading_regular_diagonalize,
)
from irrtypes.cli import run
from irrtypes.serialization import (
    atinf_to_json,
    family_to_json,
    gauge_to_json,
    germ_to_json,
    irregular_type_to_json,
    order_vector_to_json,
    pair_to_json,
    poly_to_json,
    root_system_to_json,
    scalar_to_json,
    stratum_to_json,
)

A1 = build_root_system("A", 1)
A1SPAN = RootSystem(1, [(Fraction(2),), (Fraction(-2),)], family="A1r1")


def _src_env():
    """Environment for a child interpreter that imports this checkout's irrtypes."""
    src = str(Path(irrtypes.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _invoke(capsys, monkeypatch, argv, document=None):
    if document is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    code = run(argv)
    return code, capsys.readouterr().out


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _assert_error(code, out, expected_code, name, message=None):
    assert code == expected_code
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert set(payload) == {"error", "message"} and payload["error"] == name
    if message is not None:
        assert payload["message"] == message


class TestGoldenOutputs:
    def test_strata_enumerate_rank_one(self, capsys, monkeypatch):
        code, out = _invoke(
            capsys, monkeypatch, ["strata", "enumerate", "--family", "A", "--rank", "1", "-p", "3"]
        )
        assert code == 0
        assert out == (
            '[{"d":[3,3],"levels":[[],[],[]]},'
            '{"d":[2,2],"levels":[[],[],[0,1]]},'
            '{"d":[1,1],"levels":[[],[0,1],[0,1]]},'
            '{"d":[0,0],"levels":[[0,1],[0,1],[0,1]]}]\n'
        )

    def test_classify_zero_type_dimension_zero(self, capsys, monkeypatch):
        doc = irregular_type_to_json(IrregularType.zero(A1SPAN, 2))
        code, out = _invoke(capsys, monkeypatch, ["classify"], doc)
        assert code == 0
        assert out == '{"d":[0,0],"dimension":0,"levels":[[0,1],[0,1]]}\n'

    def test_dm_check_elliptic_unmarked_orders(self, capsys, monkeypatch):
        doc = [order_vector_to_json(RootOrderVector(A1, 1, [0, 0]))]
        code, out = _invoke(capsys, monkeypatch, ["dm-check", "--g", "1", "--m", "1"], doc)
        assert code == 0
        assert out == '{"deligne_mumford":true,"relevant":true}\n'

    def test_version(self, capsys, monkeypatch):
        code, out = _invoke(capsys, monkeypatch, ["version"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert isinstance(payload["version"], str)

    def test_stabilizer_finite_and_infinite(self, capsys, monkeypatch):
        finite = atinf_to_json(IrregularTypeAtInfinity(A1SPAN, 4, [[0], [1], [0], [1]]))
        code, out = _invoke(capsys, monkeypatch, ["stabilizer", "--group", "g1"], finite)
        assert code == 0 and out == '{"order":2}\n'
        tame = atinf_to_json(IrregularTypeAtInfinity(A1SPAN, 1, [[1]]))
        code, out = _invoke(capsys, monkeypatch, ["stabilizer", "--group", "g1"], tame)
        assert code == 0 and out == '{"order":"infinite"}\n'

    def test_orbit_equal_counterexample(self, capsys, monkeypatch):
        doc = {
            "first": [[scalar_to_json(gauss(1))], [scalar_to_json(gauss(1))]],
            "second": [[scalar_to_json(gauss(1))], [scalar_to_json(gauss(-1))]],
            "weights": [2, 4],
        }
        code, out = _invoke(capsys, monkeypatch, ["orbit-equal"], doc)
        assert code == 0 and out == '{"equivalent":false}\n'

    def test_sl2z_inversion(self, capsys, monkeypatch):
        doc = {
            "gamma": [0, -1, 1, 0],
            "tau": scalar_to_json(gauss(0, 1)),
            "type": irregular_type_to_json(IrregularType(A1SPAN, 1, [[1]])),
        }
        code, out = _invoke(capsys, monkeypatch, ["sl2z-act"], doc)
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] == {"im": "1", "re": "0"}
        assert payload["type"]["coefficients"][0][0] == {"im": "-1", "re": "0"}


class TestRoutingAndModes:
    def test_levi_list_flags(self, capsys, monkeypatch):
        code, out = _invoke(capsys, monkeypatch, ["levi", "list", "--family", "A", "--rank", "2"])
        assert code == 0
        assert len(json.loads(out)) == 5

    def test_exchange(self, capsys, monkeypatch):
        doc = {
            "regular": [scalar_to_json(gauss(1)), scalar_to_json(gauss(-3)), scalar_to_json(gauss(2))],
            "configuration": [scalar_to_json(gauss(2)), scalar_to_json(gauss(-1))],
        }
        code, out = _invoke(capsys, monkeypatch, ["exchange"], doc)
        assert code == 0
        payload = json.loads(out)
        assert payload["configuration"] == [{"im": "0", "re": "-4"}, {"im": "0", "re": "1"}]
        assert payload["regular"][0] == {"im": "0", "re": "-1/3"}

    def test_connection_extract(self, capsys, monkeypatch):
        def cell(tail):
            return (LaurentTail(3, tail), TruncatedSeries(1, [0]))

        germ = ConnectionGerm(
            2,
            2,
            [
                [cell([4, 0, 0]), cell([0, 0, 0])],
                [cell([0, 0, 0]), cell([-6, 0, 0])],
            ],
        )
        code, out = _invoke(capsys, monkeypatch, ["connection", "extract"], germ_to_json(germ))
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 2
        assert payload["coefficients"][1] == [{"im": "0", "re": "-2"}, {"im": "0", "re": "3"}]
        assert payload["coefficients"][0] == [{"im": "0", "re": "0"}, {"im": "0", "re": "0"}]

    def test_strata_witness_round_trip(self, capsys, monkeypatch):
        vec = order_vector_to_json(RootOrderVector(A1, 2, [2, 2]))
        code, out = _invoke(capsys, monkeypatch, ["strata", "witness"], vec)
        assert code == 0
        witness = json.loads(out)
        code, out = _invoke(capsys, monkeypatch, ["classify"], witness)
        assert code == 0
        assert json.loads(out)["d"] == [2, 2]

    def test_input_file(self, capsys, monkeypatch, tmp_path):
        doc = irregular_type_to_json(IrregularType.zero(A1SPAN, 1))
        path = tmp_path / "type.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = _invoke(capsys, monkeypatch, ["classify", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["d"] == [0, 0]

    def test_pretty_mode_same_object(self, capsys, monkeypatch):
        doc = irregular_type_to_json(IrregularType.zero(A1SPAN, 1))
        code, pretty = _invoke(capsys, monkeypatch, ["classify", "--output", "pretty"], doc)
        assert code == 0
        assert "\n  " in pretty
        code, canonical = _invoke(capsys, monkeypatch, ["classify"], doc)
        assert json.loads(pretty) == json.loads(canonical)

    def test_canonical_is_deterministic(self, capsys, monkeypatch):
        runs = []
        for _ in range(2):
            code, out = _invoke(
                capsys,
                monkeypatch,
                ["strata", "enumerate", "--family", "B", "--rank", "2", "-p", "2"],
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]


class TestErrorChannel:
    def test_bad_json_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        code = run(["classify"])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "MalformedInput"
        assert "message" in payload

    def test_unknown_key_exits_one(self, capsys, monkeypatch):
        doc = irregular_type_to_json(IrregularType.zero(A1SPAN, 1))
        doc["stray"] = 1
        code, out = _invoke(capsys, monkeypatch, ["classify"], doc)
        assert code == 1
        assert json.loads(out)["error"] == "MalformedInput"

    def test_missing_subcommand_exits_one(self, capsys, monkeypatch):
        code, out = _invoke(capsys, monkeypatch, [])
        assert code == 1
        assert json.loads(out)["error"] == "MalformedInput"

    def test_precondition_exits_two(self, capsys, monkeypatch):
        A2 = build_root_system("A", 2)
        orders = [1 if root[2] == 0 else 0 for root in A2.roots]
        doc = order_vector_to_json(RootOrderVector(A2, 1, orders))
        code, out = _invoke(capsys, monkeypatch, ["strata", "dimension"], doc)
        assert code == 2
        assert json.loads(out)["error"] == "NotRelevant"

    def test_zero_pair_exits_two(self, capsys, monkeypatch):
        doc = pair_to_json(
            (IrregularType.zero(A1SPAN, 1), IrregularTypeAtInfinity.zero(A1SPAN, 1))
        )
        code, out = _invoke(capsys, monkeypatch, ["stabilizer", "--group", "g2"], doc)
        assert code == 2
        assert json.loads(out)["error"] == "ZeroPair"

    def test_resource_guard_exits_three(self, capsys, monkeypatch):
        code, out = _invoke(
            capsys, monkeypatch, ["strata", "enumerate", "--family", "A", "--rank", "8", "-p", "1"]
        )
        assert code == 3
        assert json.loads(out)["error"] == "TooLarge"

    def test_huge_literal_exits_three(self, capsys, monkeypatch, tmp_path):
        doc = {"rank": 1, "roots": [["9" * 5000], ["-" + "9" * 5000]], "family": None}
        path = tmp_path / "roots.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["levi", "list", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out.count("\n") == 1
        payload = json.loads(captured.out)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "TooLarge"
        assert "Traceback" not in captured.err

    def test_huge_json_integer_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"rank": 1' + "0" * 5000 + "}"))
        code = run(["levi", "list"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == "TooLarge"

    def test_huge_result_exits_three(self, capsys, monkeypatch):
        big = {"re": "9" * 3000, "im": "0"}
        doc = {
            "gamma": [2, 1, 1, 1],
            "tau": {"re": "9" * 3000, "im": "1"},
            "type": irregular_type_to_json(IrregularType(A1SPAN, 1, [[gauss(1)]])),
        }
        doc["type"]["coefficients"] = [[big]]
        code, out = _invoke(capsys, monkeypatch, ["sl2z-act"], doc)
        assert code == 3
        assert json.loads(out)["error"] == "TooLarge"

    def test_huge_orbit_weights_exit_three_promptly(self):
        one = {"re": "1", "im": "0"}
        two = {"re": "2", "im": "0"}
        doc = {"first": [[one], [one]], "second": [[two], [two]], "weights": [1000000007, 1000000009]}
        result = subprocess.run(
            [sys.executable, "-m", "irrtypes.cli", "orbit-equal"],
            input=json.dumps(doc), capture_output=True, text=True, env=_src_env(), timeout=10,
        )
        assert result.returncode == 3
        assert json.loads(result.stdout)["error"] == "TooLarge"
        assert "Traceback" not in result.stderr

    def test_oversized_gauge_request_exits_three_promptly(self):
        rng = random.Random(11)
        r, k, n, order = 20, 4, 8, 3

        def scalar():
            return {"re": str(rng.randint(-9, 9)), "im": str(rng.randint(-1, 1))}

        germ = {
            "r": r, "pole_bound": k, "precision": n,
            "entries": [
                [{"tail": [scalar() for _ in range(k + 1)], "regular": [scalar() for _ in range(n)]} for _ in range(r)]
                for _ in range(r)
            ],
        }
        gauge = {"r": r, "precision": order, "entries": [[[scalar() for _ in range(order)] for _ in range(r)] for _ in range(r)]}
        result = subprocess.run(
            [sys.executable, "-m", "irrtypes.cli", "connection", "gauge"],
            input=json.dumps({"germ": germ, "gauge": gauge}), capture_output=True, text=True,
            env=_src_env(), timeout=10,
        )
        assert result.returncode == 3
        assert result.stdout.count("\n") == 1
        payload = json.loads(result.stdout)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "TooLarge"
        assert "Traceback" not in result.stderr

    def test_unreadable_file_exits_one(self, capsys, monkeypatch, tmp_path):
        code, out = _invoke(capsys, monkeypatch, ["classify", "--input", str(tmp_path / "no.json")])
        assert code == 1
        assert json.loads(out)["error"] == "MalformedInput"

    def test_non_utf8_file_exits_one(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"rank": 1}\xff')
        code, out = _invoke(capsys, monkeypatch, ["classify", "--input", str(path)])
        _assert_error(code, out, 1, "MalformedInput")
        assert "utf-8" in json.loads(out)["message"]

    def test_non_utf8_stdin_exits_one(self):
        env = dict(_src_env(), PYTHONIOENCODING="utf-8:strict")
        result = subprocess.run(
            [sys.executable, "-m", "irrtypes.cli", "classify"],
            input=b"\xff", capture_output=True, env=env, timeout=10,
        )
        assert result.returncode == 1
        assert result.stdout.count(b"\n") == 1
        assert json.loads(result.stdout)["error"] == "MalformedInput"
        assert b"Traceback" not in result.stderr

    def test_huge_pole_bound_exits_three_promptly(self):
        B3 = build_root_system("B", 3)
        doc = order_vector_to_json(RootOrderVector(B3, 10**6, [1] * len(B3)))
        for argv, document in (
            (["strata", "dimension"], doc),
            (["strata", "witness"], doc),
            (["dm-check", "--g", "0", "--m", "1"], [doc]),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "irrtypes.cli", *argv],
                input=json.dumps(document), capture_output=True, text=True,
                env=_src_env(), timeout=10,
            )
            assert result.returncode == 3, argv
            assert result.stdout.count("\n") == 1
            payload = json.loads(result.stdout)
            assert set(payload) == {"error", "message"}
            assert payload["error"] == "TooLarge"
            assert "Traceback" not in result.stderr


class TestHandlers:
    """Each handler's output against the library call it wraps."""

    def test_admissible_matches_library(self, capsys, monkeypatch):
        t = MultiPoly.variable(("t",), "t")
        one = MultiPoly.constant(("t",), 1)
        for coefficients, verdict in (([[t], [one]], True), ([[one], [t]], False)):
            fam = FamilyIrregularType(A1SPAN, 2, ("t",), coefficients)
            code, out = _invoke(capsys, monkeypatch, ["admissible"], family_to_json(fam))
            assert code == 0
            ok, failures = is_admissible(fam)
            assert ok is verdict
            expected = {
                "admissible": ok,
                "witnesses": [{"root": i, "leading": poly_to_json(poly)} for i, poly in failures],
            }
            assert out == _canonical(expected)
        assert [w["root"] for w in json.loads(out)["witnesses"]] == [0, 1]

    def test_strata_enumerate_document_matches_flags(self, capsys, monkeypatch):
        system = build_root_system("B", 2)
        doc = {"rootsystem": root_system_to_json(system), "p": 2}
        code, out = _invoke(capsys, monkeypatch, ["strata", "enumerate"], doc)
        assert code == 0
        assert out == _canonical([stratum_to_json(s) for s in enumerate_strata(system, 2)])
        code, flags = _invoke(
            capsys, monkeypatch, ["strata", "enumerate", "--family", "B", "--rank", "2", "-p", "2"]
        )
        assert code == 0 and flags == out

    def test_strata_enumerate_document_needs_integer_p(self, capsys, monkeypatch):
        for p in ("2", 2.0, True, None):
            doc = {"rootsystem": root_system_to_json(A1), "p": p}
            code, out = _invoke(capsys, monkeypatch, ["strata", "enumerate"], doc)
            _assert_error(code, out, 1, "MalformedInput", "pole bound must be an integer")

    def test_family_flag_needs_rank_and_p(self, capsys, monkeypatch):
        for argv, message in (
            (["strata", "enumerate", "--family", "A"], "--family requires --rank and -p"),
            (["strata", "enumerate", "--family", "A", "--rank", "2"], "--family requires --rank and -p"),
            (["strata", "enumerate", "--family", "A", "-p", "2"], "--family requires --rank and -p"),
            (["levi", "list", "--family", "A"], "--family requires --rank"),
        ):
            code, out = _invoke(capsys, monkeypatch, argv)
            _assert_error(code, out, 1, "MalformedInput", message)

    def test_orbit_equal_needs_integer_weights(self, capsys, monkeypatch):
        one = scalar_to_json(gauss(1))
        for weight in (1.5, "2", True, None):
            doc = {"first": [[one]], "second": [[one]], "weights": [weight]}
            code, out = _invoke(capsys, monkeypatch, ["orbit-equal"], doc)
            _assert_error(code, out, 1, "MalformedInput", "weights must be integers")

    def test_connection_gauge_matches_library(self, capsys, monkeypatch):
        data = {
            -2: [[gauss(1), gauss(0)], [gauss(0), gauss(3)]],
            -1: [[gauss(0), gauss(1, 1)], [gauss(2), gauss(0)]],
            0: [[gauss(Fraction(1, 2)), gauss(0)], [gauss(0), gauss(-1)]],
        }
        germ = ConnectionGerm.from_order_dict(2, 1, 2, data)
        g = GaugeElement(2, [[[gauss(1), gauss(2)], [gauss(0), gauss(1)]],
                             [[gauss(0), gauss(0, 1)], [gauss(3), gauss(0)]]])
        doc = {"germ": germ_to_json(germ), "gauge": gauge_to_json(g)}
        code, out = _invoke(capsys, monkeypatch, ["connection", "gauge"], doc)
        assert code == 0
        assert out == _canonical(germ_to_json(gauge_transform(germ, g)))
        # by construction: the identity gauge moves nothing
        doc["gauge"] = gauge_to_json(GaugeElement.identity(2, 3))
        code, out = _invoke(capsys, monkeypatch, ["connection", "gauge"], doc)
        assert code == 0 and out == _canonical(germ_to_json(germ))

    def test_connection_diagonalize_matches_library(self, capsys, monkeypatch):
        # leading [[0, -1], [1, 0]] has eigenvalues +- i and is not diagonal
        data = {
            -3: [[gauss(0), gauss(-1)], [gauss(1), gauss(0)]],
            -2: [[gauss(1), gauss(2)], [gauss(0), gauss(1)]],
            0: [[gauss(1), gauss(2)], [gauss(3), gauss(4)]],
        }
        germ = ConnectionGerm.from_order_dict(2, 2, 3, data)
        code, out = _invoke(capsys, monkeypatch, ["connection", "diagonalize"], germ_to_json(germ))
        assert code == 0
        gauge, moved = leading_regular_diagonalize(germ)
        assert out == _canonical({"gauge": gauge_to_json(gauge), "germ": germ_to_json(moved)})
        payload = json.loads(out)
        assert payload["gauge"]["precision"] == 2
        lead = [[cell["tail"][0] for cell in row] for row in payload["germ"]["entries"]]
        assert lead[0][1] == lead[1][0] == scalar_to_json(gauss(0))


class TestRuntimeDependencies:
    def test_diagonalize_runs_without_sympy(self):
        # Leading coefficient [[0, -1], [1, 0]]: eigenvalues +- i, not diagonal.
        data = {-3: [[gauss(0), gauss(-1)], [gauss(1), gauss(0)]], 0: [[gauss(1), gauss(2)], [gauss(3), gauss(4)]]}
        doc = json.dumps(germ_to_json(ConnectionGerm.from_order_dict(2, 2, 3, data)))
        script = (
            "import io, sys\n"
            "sys.modules['sympy'] = None\n"
            "from irrtypes import cli\n"
            f"sys.stdin = io.StringIO({doc!r})\n"
            "code = cli.run(['connection', 'diagonalize'])\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'sympy' and sys.modules[m] is not None]\n"
            "print(loaded, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=60
        )
        assert result.returncode == 0, result.stdout
        assert set(json.loads(result.stdout)) == {"gauge", "germ"}
        assert result.stderr.strip() == "[]"


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("irrtypes")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run(
            [exe, "version"], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["schema"] == 1
