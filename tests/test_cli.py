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
import time
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
from irrtypes import irregular, symmetry
from irrtypes.cli import run
from irrtypes.connections import gauge_to_json, germ_to_json
from irrtypes.irregular import (
    atinf_to_json,
    family_to_json,
    irregular_type_to_json,
    order_vector_to_json,
)
from irrtypes.polynomials import poly_to_json
from irrtypes.rootsystems import root_system_to_json
from irrtypes.strata import stratum_to_json
from irrtypes.symmetry import pair_to_json

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
            "first": [[gauss(1).to_json()], [gauss(1).to_json()]],
            "second": [[gauss(1).to_json()], [gauss(-1).to_json()]],
            "weights": [2, 4],
        }
        code, out = _invoke(capsys, monkeypatch, ["orbit-equal"], doc)
        assert code == 0 and out == '{"equivalent":false}\n'

    def test_sl2z_inversion(self, capsys, monkeypatch):
        doc = {
            "gamma": [0, -1, 1, 0],
            "tau": gauss(0, 1).to_json(),
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
            "regular": [gauss(1).to_json(), gauss(-3).to_json(), gauss(2).to_json()],
            "configuration": [gauss(2).to_json(), gauss(-1).to_json()],
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

    def test_guard_message_names_the_root_count(self, capsys, monkeypatch):
        code, out = _invoke(capsys, monkeypatch, ["levi", "list", "--family", "B", "--rank", "6"])
        assert (code, out) == (3, '{"error":"TooLarge","message":"root system has 72 roots; guard is 60"}\n')

    def test_huge_rank_exits_three_promptly(self):
        # The closed-form root count refuses the system before it is built.
        for argv in (
            ["levi", "list", "--family", "A", "--rank", str(10**6)],
            ["strata", "enumerate", "--family", "C", "--rank", str(10**6), "-p", "1"],
        ):
            result = subprocess.run(
                [sys.executable, "-m", "irrtypes.cli", *argv],
                capture_output=True, text=True, env=_src_env(), timeout=5,
            )
            assert result.returncode == 3, argv
            assert json.loads(result.stdout)["error"] == "TooLarge"
            assert "Traceback" not in result.stderr

    def test_flat_lattices_past_the_budget_exit_three_promptly(self):
        # The closed-form flat count refuses A7 (4,140 flats) and D6 (2,546)
        # before the system is built; walking them took 4-5 s.
        for family, rank, flats in (("A", 7, 4140), ("D", 6, 2546)):
            for argv in (["levi", "list"], ["strata", "enumerate", "-p", "1"]):
                start = time.perf_counter()
                result = subprocess.run(
                    [sys.executable, "-m", "irrtypes.cli", *argv, "--family", family, "--rank", str(rank)],
                    capture_output=True, text=True, env=_src_env(), timeout=10,
                )
                assert time.perf_counter() - start < 1.0, argv
                assert result.returncode == 3, argv
                assert result.stdout == (
                    f'{{"error":"TooLarge","message":"root system has {flats} flats; budget is 1000"}}\n'
                )
                assert result.stderr == ""

    def test_unsupported_family_or_rank_wins_over_the_guard(self, capsys, monkeypatch):
        for family, rank in (("G", 10**6), ("D", 1)):
            code, out = _invoke(
                capsys, monkeypatch, ["levi", "list", "--family", family, "--rank", str(rank)]
            )
            _assert_error(code, out, 2, "Unsupported")

    def test_strata_budget_exits_three(self, capsys, monkeypatch):
        code, out = _invoke(
            capsys, monkeypatch, ["strata", "enumerate", "--family", "A", "--rank", "3", "-p", "40"]
        )
        _assert_error(code, out, 3, "TooLarge", "pole bound 40 gives 202581 strata; budget is 20000")

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

    def test_orthogonal_pairs_past_the_flat_budget_exit_three_promptly(self):
        """30 pairs +-e_i in Q^30 pass the 60-root guard but have 2^30 flats.
        The walk finds the 1,001st flat among the first closures of rank
        three, about 2 s into each request on a 2-vCPU machine."""
        roots = [tuple(s if j == i else 0 for j in range(30)) for i in range(30) for s in (1, -1)]
        system = root_system_to_json(RootSystem(30, roots))
        for argv, document in (
            (["levi", "list"], system),
            (["strata", "enumerate"], {"rootsystem": system, "p": 1}),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "irrtypes.cli", *argv],
                input=json.dumps(document), capture_output=True, text=True,
                env=_src_env(), timeout=30,
            )
            assert result.returncode == 3, argv
            assert result.stdout == '{"error":"TooLarge","message":"root system has more than 1000 flats"}\n'
            assert result.stderr == ""

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

    def test_strata_past_the_entry_budget_exit_three_promptly(self):
        """60 roots +-1..+-30 on one line at p = 1,024: 1,025 strata, within the
        strata budget, would list 31.5 million entries, 92 MB of JSON."""
        line = RootSystem(1, [[k] for k in range(-30, 31) if k])
        document = {"rootsystem": root_system_to_json(line), "p": 1024}
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "irrtypes.cli", "strata", "enumerate"],
            input=json.dumps(document), capture_output=True, text=True,
            env=_src_env(), timeout=10,
        )
        assert time.perf_counter() - start < 1.0
        assert result.returncode == 3
        assert result.stdout == (
            '{"error":"TooLarge","message":"pole bound 1024 gives strata of 31549500 entries; '
            'budget is 2097152"}\n'
        )
        assert result.stderr == ""

    def _assert_refused_promptly(self, argv, document, message=None):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "irrtypes.cli", *argv],
            input=json.dumps(document), capture_output=True, text=True,
            env=_src_env(), timeout=30,
        )
        assert time.perf_counter() - start < 2.0
        assert result.returncode == 3
        assert result.stdout.count("\n") == 1
        payload = json.loads(result.stdout)
        assert set(payload) == {"error", "message"} and payload["error"] == "TooLarge"
        assert message is None or payload["message"] == message
        assert result.stderr == ""

    @staticmethod
    def _translated_type(p, digits):
        """A1 at infinity with A_j = (c + j, 0), c + j and the imaginary
        part 1 or, for digits > 1, both of that many digits."""
        c = int("7" * digits) if digits > 1 else 0
        im = c + 1 if digits > 1 else 1
        return atinf_to_json(
            IrregularTypeAtInfinity(A1, p, [[gauss(c + j, im), 0] for j in range(1, p + 1)])
        )

    @pytest.mark.parametrize("p, digits", [(400, 1), (50, 200), (25, 4000)])
    def test_large_g1_stabilizer_requests_exit_three_promptly(self, p, digits):
        """The expansion of these types ran for minutes: its cost grows with
        p^2 and with the square of the operand size."""
        self._assert_refused_promptly(["stabilizer", "--group", "g1"], self._translated_type(p, digits))

    def test_g1_budget_keeps_order_one_hundred_and_sparse_types(self):
        q = irregular.atinf_from_json(self._translated_type(100, 1))
        root = q.rootsystem.roots[0]
        lead = irregular.root_pairing(root, q.coefficient(100))
        sub = irregular.root_pairing(root, q.coefficient(99))
        symmetry._check_g1_work(symmetry.AffineG1(-sub / (lead * 100), 1), q)
        # Zero coefficients cost nothing: only A_1 and A_2 of 1,000 are set.
        sparse = IrregularTypeAtInfinity(A1, 1000, [[1, 0], [1, 0]] + [[0, 0]] * 998)
        assert symmetry.g1_stabilizer_order(sparse) == 2

    @staticmethod
    def _dense_pairs(seed=6, rank=6, digits=4300):
        """``rank`` root pairs +-v in Q^rank, each v with random dense entries
        of ``digits`` digits: 310 KB of JSON."""
        rng = random.Random(seed)
        roots = []
        for _ in range(rank):
            v = [rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(rank)]
            roots += [[str(x) for x in v], [str(-x) for x in v]]
        return {"rank": rank, "roots": roots, "family": None}

    @staticmethod
    def _tiny_entries(count):
        """1/(10^4299 + 2k + 1) for k < count: 4,300-digit denominators with a
        common denominator of about 14,300 bits per entry."""
        return [f"1/{10**4299 + 2 * k + 1}" for k in range(count)]

    @pytest.mark.parametrize("argv", [["levi", "list"], ["strata", "enumerate"]], ids=["levi", "strata"])
    def test_dense_root_pairs_exit_three_promptly(self, argv):
        """Unmetered, the eliminations of these flats run for about a minute;
        the root work budget refuses the request at its first costly pivot steps."""
        system = self._dense_pairs()
        document = system if argv[0] == "levi" else {"rootsystem": system, "p": 1}
        self._assert_refused_promptly(argv, document, "root system work exceeds the budget of 1000000000")

    def test_roots_with_a_huge_common_denominator_exit_three_promptly(self):
        """+-v in Q^50 with v_k = 1/(10^4299 + 2k + 1), 0.43 MB: unbounded, scaling
        v to integers takes 20 s, and listing its flats 25 s."""
        v = self._tiny_entries(50)
        document = {"rank": 50, "roots": [v, ["-" + x for x in v]], "family": None}
        self._assert_refused_promptly(["levi", "list"], document, "common denominator exceeds 83886 bits")

    def test_root_pairs_share_one_integer_form_allowance(self):
        """Ten pairs +-v_j in Q^17 whose 170 entries 1/(10^4299 + 2m + 1) all
        differ, 1.46 MB: each v_j alone fits ``INTEGER_FORM_BUDGET``, and
        scaling all twenty roots took 9 s.  The pairs share one allowance, so
        the second v_j is refused."""
        tiny = self._tiny_entries(170)
        roots = []
        for j in range(10):
            v = tiny[17 * j : 17 * (j + 1)]
            roots += [v, ["-" + x for x in v]]
        document = {"rank": 17, "roots": roots, "family": None}
        self._assert_refused_promptly(["levi", "list"], document, "common denominator exceeds 3970 bits")

    def test_coefficients_with_a_huge_common_denominator_exit_three_promptly(self):
        """+-(e1 - e2) in Q^200 with one coefficient vector of such entries,
        0.87 MB: unbounded, classifying it takes 26 s."""
        zeros = ["0"] * 198
        system = {"rank": 200, "roots": [["1", "-1"] + zeros, ["-1", "1"] + zeros], "family": None}
        coefficients = [[{"re": x, "im": "0"} for x in self._tiny_entries(200)]]
        document = {"rootsystem": system, "p": 1, "coefficients": coefficients}
        self._assert_refused_promptly(["classify"], document, "common denominator exceeds 10485 bits")

    @pytest.mark.parametrize("command", ["extract", "diagonalize"])
    def test_germ_with_a_huge_common_denominator_exits_three_promptly(self, command):
        """A diagonal 10 x 10 germ whose residue lists six such entries, 35 KB:
        its integer form would need a denominator of about 85,700 bits, past
        what one 10 x 10 product may use of ``GERM_WORK_BUDGET``."""
        tiny = self._tiny_entries(6)

        def cell(i, j):
            lead, residue = (str(i + 1), tiny[i] if i < 6 else "0") if i == j else ("0", "0")
            return {
                "tail": [{"re": lead, "im": "0"}, {"re": residue, "im": "0"}],
                "regular": [{"re": "0", "im": "0"}],
            }

        document = {"r": 10, "pole_bound": 1, "precision": 1, "entries": [[cell(i, j) for j in range(10)] for i in range(10)]}
        self._assert_refused_promptly(["connection", command], document, "common denominator exceeds 64000 bits")

    def test_witness_in_a_large_rank_exits_three_promptly(self):
        """Rank 4,000 with no roots: one kernel basis of 4,000 vectors."""
        document = {"rootsystem": {"rank": 4000, "roots": [], "family": None}, "p": 1, "orders": []}
        self._assert_refused_promptly(["strata", "witness"], document)

    @pytest.mark.parametrize(
        "system, p",
        [
            (RootSystem(256, [[1, -1] + [0] * 254, [-1, 1] + [0] * 254]), 1),
            (build_root_system("A", 7), 64),
        ],
        ids=["pair-in-rank-256", "A7-p64"],
    )
    def test_exponential_witness_searches_exit_three_promptly(self, system, p):
        """Every order 1: the pair's search would pass 3^254 tuples, and
        A7's first level would need height 4 in 8 coordinates, 9^8 tuples.
        The search budget refuses each within about a second."""
        document = order_vector_to_json(RootOrderVector(system, p, [1] * len(system)))
        self._assert_refused_promptly(["strata", "witness"], document)

    def test_extract_at_the_first_refused_size_exits_three_promptly(self):
        """r = 41 would list 41^2 x 40 = 67,240 root entries; r = 40 lists 62,400."""
        diagonal = [[i + 1 if i == j else 0 for j in range(41)] for i in range(41)]
        germ = ConnectionGerm.from_order_dict(41, 1, 1, {-2: diagonal})
        self._assert_refused_promptly(["connection", "extract"], germ_to_json(germ))

    def test_extract_budget_counts_root_entries(self, capsys, monkeypatch):
        from irrtypes import connections

        document = germ_to_json(ConnectionGerm.from_order_dict(3, 1, 1, {}))
        monkeypatch.setattr(connections, "EXTRACT_ROOT_ENTRY_BUDGET", 18)
        code, _ = _invoke(capsys, monkeypatch, ["connection", "extract"], document)
        assert code == 0
        monkeypatch.setattr(connections, "EXTRACT_ROOT_ENTRY_BUDGET", 17)
        code, out = _invoke(capsys, monkeypatch, ["connection", "extract"], document)
        _assert_error(code, out, 3, "TooLarge", "extracting from a 3 x 3 germ lists 18 root entries; budget is 17")

    def test_every_error_reports_its_class_name(self, capsys, monkeypatch):
        from irrtypes import cli, errors

        classes = [
            value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.IrrTypesError)
        ]
        assert len(classes) == 18
        for cls in classes:
            assert cls.code == cls.__name__

            def fail(ns, cls=cls):
                raise cls("boom")

            monkeypatch.setattr(cli, "_cmd_version", fail)
            code, out = _invoke(capsys, monkeypatch, ["version"])
            _assert_error(code, out, errors.exit_code_for(cls()), cls.__name__, "boom")


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
        one = gauss(1).to_json()
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
        assert lead[0][1] == lead[1][0] == gauss(0).to_json()


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
