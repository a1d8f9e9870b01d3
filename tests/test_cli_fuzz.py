"""Fuzzing the CLI contract in-process.

Whatever the arguments and the document, ``cli.run`` writes exactly one
JSON object to stdout and returns 0, 1, 2 or 3; no exception escapes it,
so the console script never prints a traceback.  Documents start from a
valid request of each subcommand and are mutated by hypothesis; inputs
stay small (rank <= 3, |p| <= 8, short literals), and every example is
held to a wall-clock bound as well.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irrtypes import (
    ConnectionGerm,
    FamilyIrregularType,
    GaugeElement,
    IrregularType,
    IrregularTypeAtInfinity,
    MultiPoly,
    RootOrderVector,
    RootSystem,
    build_root_system,
    gauss,
)
from irrtypes.cli import run
from irrtypes.connections import gauge_to_json, germ_to_json
from irrtypes.irregular import (
    atinf_to_json,
    family_to_json,
    irregular_type_to_json,
    order_vector_to_json,
)
from irrtypes.rootsystems import root_system_to_json
from irrtypes.symmetry import pair_to_json

EXAMPLE_WALL_S = 5.0
FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

A1 = RootSystem(1, [(Fraction(2),), (Fraction(-2),)], family="A1r1")
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)


def _germ():
    data = {
        -2: [[gauss(1), gauss(0)], [gauss(0), gauss(3)]],
        -1: [[gauss(0), gauss(1, 1)], [gauss(2), gauss(0)]],
        0: [[gauss(Fraction(1, 2)), gauss(0)], [gauss(0), gauss(-1)]],
    }
    return ConnectionGerm.from_order_dict(2, 1, 2, data)


def _seeds():
    """One valid (argv, document) request per subcommand."""
    t = MultiPoly.variable(("t",), "t")
    one = MultiPoly.constant(("t",), 1)
    germ = germ_to_json(_germ())
    gauge = gauge_to_json(
        GaugeElement(2, [[[gauss(1), gauss(2)], [gauss(0), gauss(1)]],
                         [[gauss(0), gauss(0, 1)], [gauss(3), gauss(0)]]])
    )
    a2_orders = order_vector_to_json(RootOrderVector(A2, 2, [2] * 6))
    q = irregular_type_to_json(IrregularType(A1, 2, [[gauss(1)], [gauss(0, 1)]]))
    return [
        (["strata", "enumerate"], {"rootsystem": root_system_to_json(A2), "p": 2}),
        (["strata", "dimension"], a2_orders),
        (["strata", "witness"], a2_orders),
        (["classify"], q),
        (["admissible"], family_to_json(FamilyIrregularType(A1, 2, ("t",), [[t], [one]]))),
        (["connection", "extract"], germ),
        (["connection", "diagonalize"], germ),
        (["connection", "gauge"], {"germ": germ, "gauge": gauge}),
        (["stabilizer", "--group", "g1"],
         atinf_to_json(IrregularTypeAtInfinity(A1, 4, [[0], [1], [0], [1]]))),
        (["stabilizer", "--group", "g2"],
         pair_to_json((IrregularType(A1, 1, [[1]]), IrregularTypeAtInfinity(A1, 1, [[2]])))),
        (["orbit-equal"], {
            "first": [[gauss(1).to_json()], [gauss(1).to_json()]],
            "second": [[gauss(1).to_json()], [gauss(-1).to_json()]],
            "weights": [2, 4],
        }),
        (["dm-check", "--g", "1", "--m", "1"], [order_vector_to_json(RootOrderVector(A1, 1, [0, 0]))]),
        (["exchange"], {
            "regular": [gauss(1).to_json(), gauss(-3).to_json(), gauss(2).to_json()],
            "configuration": [gauss(2).to_json(), gauss(-1).to_json()],
        }),
        (["sl2z-act"], {"gamma": [0, -1, 1, 0], "tau": gauss(0, 1).to_json(), "type": q}),
        (["levi", "list"], root_system_to_json(B2)),
    ]


SEEDS = _seeds()

_literals = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "7", "1/0", "x", "", "0/5", " 1"])
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-8, 8)
    | st.sampled_from([0.5, -1e3])
    | _literals
    | st.builds(lambda re, im: {"re": re, "im": im}, _literals, _literals)
)
_keys = st.sampled_from(["re", "im", "rank", "roots", "family", "p", "r", "entries", "stray"])
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every position inside a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


@st.composite
def _mutated(draw, document):
    """The document with a few positions replaced, dropped or extended."""
    doc = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(_values)
        if not path:
            doc = value
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "drop", "extend"]))
        if action == "replace":
            parent[path[-1]] = value
        elif action == "drop":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(value)
        else:
            parent["stray"] = value
    return doc


def _check_contract(argv, stdin_text):
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    start = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = old_stdin
    elapsed = time.perf_counter() - start
    assert elapsed < EXAMPLE_WALL_S, (argv, stdin_text[:200], elapsed)
    assert code in (0, 1, 2, 3), (argv, code)
    text = out.getvalue()
    payload = json.loads(text)  # exactly one JSON value, or this raises
    assert text.endswith("\n"), (argv, text[:200])
    if "pretty" not in argv:
        assert text.count("\n") == 1, (argv, text[:200])
    if code:
        assert set(payload) == {"error", "message"}, payload
    return code, payload


@FUZZ
@given(st.sampled_from(SEEDS).flatmap(lambda seed: st.tuples(st.just(seed[0]), _mutated(seed[1]))))
def test_mutated_documents_keep_the_contract(request):
    argv, document = request
    _check_contract(argv, json.dumps(document))


@FUZZ
@given(st.sampled_from(SEEDS), st.binary(max_size=3), st.integers(0, 200))
def test_damaged_bytes_keep_the_contract(seed, junk, cut):
    argv, document = seed
    text = json.dumps(document)
    damaged = text[:cut] + junk.decode("latin-1") + text[cut + len(junk):]
    _check_contract(argv, damaged)


_TOKENS = [
    "strata", "enumerate", "dimension", "witness", "classify", "admissible", "connection",
    "extract", "diagonalize", "gauge", "stabilizer", "orbit-equal", "dm-check", "exchange",
    "sl2z-act", "levi", "list", "version", "--family", "--rank", "-p", "--group", "--g", "--m",
    "--output", "pretty", "canonical", "g1", "g2", "A", "B", "C", "D", "G", "Z", "--bogus",
]
_argv = st.lists(
    st.sampled_from(_TOKENS) | st.integers(-8, 8).map(str), max_size=8
)
_flag_requests = st.tuples(
    st.sampled_from([["levi", "list"], ["strata", "enumerate"]]),
    st.sampled_from("ABCDGE"),
    st.integers(-1, 3),
    st.integers(-8, 8),
).map(
    lambda t: t[0] + ["--family", t[1], "--rank", str(t[2])]
    + (["-p", str(t[3])] if t[0][0] == "strata" else [])
)


@FUZZ
@given(_argv | _flag_requests, st.sampled_from(SEEDS))
def test_generated_arguments_keep_the_contract(argv, seed):
    _check_contract(argv, json.dumps(seed[1]))


def test_every_seed_is_answered():
    # The mutations start from requests the CLI accepts.
    for argv, document in SEEDS:
        code, _ = _check_contract(argv, json.dumps(document))
        assert code == 0, argv
