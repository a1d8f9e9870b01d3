"""The package namespace: what ``from irrtypes import *`` binds."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest
from test_cli_fuzz import SEEDS

import irrtypes

PUBLIC_NAMES = {
    "AffineG1", "BadModulus", "ConnectionGerm", "EXIT_CODES", "FamilyIrregularType",
    "G_I", "G_ONE", "G_ZERO", "GaugeElement", "GaussianRational", "IDENTITY_G1",
    "INFINITE", "InfiniteOrder", "IrrTypesError", "IrregularType",
    "IrregularTypeAtInfinity", "LaurentTail", "LeadingNotRegular", "LeviFiltration",
    "LeviSubsystem", "MalformedInput", "MultiPoly", "NotAUnit", "NotInXn", "NotRegular",
    "NotRelevant", "NotSplitOverField", "OrderTooLow", "OutOfRange", "PrecisionExhausted",
    "RootOrderVector", "RootSystem", "SL2ZElement", "SearchExhausted", "ShapeMismatch",
    "StratumDescriptor", "TooLarge", "TorusG2", "TruncatedSeries", "Twisted",
    "Unsupported", "UpperHalfPoint", "ZeroPair", "atinf_root_order",
    "atinf_root_order_vector", "build_root_system", "closure_leq", "convention_swap",
    "dm_check", "dvector_to_filtration", "enumerate_levi", "enumerate_strata",
    "evaluate_root", "exchange_map", "exchange_map_inverse", "exit_code_for",
    "extract_irregular_type", "family_root_order", "filtration_to_dvector", "g1_act",
    "g1_slice", "g1_stabilizer_order", "g2_act", "g2_stabilizer_order", "gauge_compose",
    "gauge_transform", "gauss", "gl_cartan_system", "is_admissible", "is_relevant",
    "is_untwisted_in_basis", "leading_regular_diagonalize", "levi_filtration_of", "phi_n",
    "phi_n_inverse", "rat_from_str", "rat_to_str", "root_order", "root_order_vector",
    "section_basis_decompose", "section_basis_reconstruct", "series_derivative",
    "series_inverse", "sl2z_act", "span_closure", "stratum_dimension", "stratum_witness",
    "sublevel_sets", "verify_framing_invariance", "weighted_orbit_equivalent",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 90
    assert len(irrtypes.__all__) == len(set(irrtypes.__all__))
    assert set(irrtypes.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves_and_is_no_module():
    for name in irrtypes.__all__:
        value = getattr(irrtypes, name)
        assert not isinstance(value, ModuleType), name


def test_star_import_leaves_submodule_names_alone():
    namespace = {"errors": "mine", "series": "mine"}
    exec("from irrtypes import *", namespace)
    assert namespace["errors"] == "mine" and namespace["series"] == "mine"
    assert namespace["IrregularTypeAtInfinity"] is irrtypes.IrregularTypeAtInfinity


def _python(*args):
    """Run a child interpreter that imports this checkout's irrtypes."""
    src = str(Path(irrtypes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


# Lists the irrtypes submodules whose body has run.  A lazily registered
# module has no ``__builtins__`` until its body runs, and reading its
# namespace through ``object.__getattribute__`` does not load it.
_RAN = (
    "import sys\n"
    "print(sorted(n for n, m in list(sys.modules.items()) if n.startswith('irrtypes.')"
    " and n != 'irrtypes.cli' and '__builtins__' in object.__getattribute__(m, '__dict__')))\n"
)


def test_dir_lists_exactly_the_public_names_beside_the_submodules():
    public = {
        name for name in dir(irrtypes)
        if not name.startswith("_") and not isinstance(getattr(irrtypes, name), ModuleType)
    }
    assert public - {"SCHEMA_VERSION"} == PUBLIC_NAMES


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    result = _python(
        "-c",
        "import irrtypes\n"
        "print(sum(1 for name in irrtypes.__all__ if getattr(irrtypes, name) is not None))\n"
        "from irrtypes import *\n",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "90\n"


def test_import_runs_no_submodule():
    result = _python("-c", "import irrtypes\n" + _RAN)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv", [["version"], ["bogus"], ["levi", "--output", "x"], []])
def test_version_and_usage_errors_run_only_the_errors_module(argv):
    script = (
        "import contextlib, io\n"
        "from irrtypes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run({argv!r})\n"
        "print(code)\n"
    ) + _RAN
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    code, ran = result.stdout.splitlines()
    assert code == ("0" if argv == ["version"] else "1")
    assert ran == "['irrtypes.errors']"


# A 2 x 2 germ of pole bound 2 and precision 2 whose leading coefficient
# [[0, -1], [1, 0]] has eigenvalues +- i, and the gauge [[1, z], [0, 1]].
_ZERO, _ONE, _MINUS = {"re": "0", "im": "0"}, {"re": "1", "im": "0"}, {"re": "-1", "im": "0"}


def _germ(tails):
    return {
        "r": 2, "pole_bound": 2, "precision": 2,
        "entries": [[{"tail": tail, "regular": [_ONE, _ZERO]} for tail in row] for row in tails],
    }


_GERM = _germ([[[_ZERO, _ZERO, _ZERO], [_MINUS, _ZERO, _ZERO]], [[_ONE, _ZERO, _ZERO], [_ZERO, _ONE, _ZERO]]])
_GAUGE = {"r": 2, "precision": 2, "entries": [[[_ONE, _ZERO], [_ZERO, _ONE]], [[_ZERO, _ZERO], [_ONE, _ZERO]]]}


def _run_with_text(argv, text):
    script = (
        "import contextlib, io, json, sys\n"
        "from irrtypes import cli\n"
        f"sys.stdin = io.StringIO({text!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run({argv!r})\n"
        "print(code, 'dataclasses' in sys.modules)\n"
    ) + _RAN
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def _run_with_document(argv, document):
    return _run_with_text(argv, json.dumps(document))


@pytest.mark.parametrize(
    "argv, document",
    [(["connection", "gauge"], {"germ": _GERM, "gauge": _GAUGE}), (["connection", "diagonalize"], _GERM)],
)
def test_gauge_and_diagonalize_run_only_errors_scalars_and_connections(argv, document):
    outcome, ran = _run_with_document(argv, document)
    assert outcome == "0 False"
    assert ran == "['irrtypes.connections', 'irrtypes.errors', 'irrtypes.scalars']"


_HALF = {"re": "1/2", "im": "0"}


@pytest.mark.parametrize(
    "argv, document",
    [
        (["orbit-equal"], {"first": [[_ONE]], "second": [[_MINUS]], "weights": [2]}),
        (["exchange"], {"regular": [_HALF, {"re": "-1/2", "im": "0"}], "configuration": [_ONE]}),
    ],
)
def test_orbit_equal_and_exchange_load_neither_serialization_nor_connections(argv, document):
    outcome, ran = _run_with_document(argv, document)
    assert outcome.split()[0] == "0"
    assert "'irrtypes.scalars'" in ran and "'irrtypes.symmetry'" in ran
    assert "'irrtypes.connections'" not in ran


# What each seed request runs beside ``errors`` and ``scalars``: the
# modules of the types it decodes or encodes, and what those import.
_TYPES = ("polynomials", "series", "rootsystems", "irregular")
_STRATA = _TYPES + ("strata",)
_SYMMETRY = _STRATA + ("symmetry",)
_MODULES_RUN = {
    "strata enumerate": _STRATA,
    "strata dimension": _STRATA,
    "strata witness": _STRATA,
    "classify": _STRATA,
    "admissible": _TYPES,
    "connection extract": ("connections",) + _TYPES,
    "connection diagonalize": ("connections",),
    "connection gauge": ("connections",),
    "stabilizer --group g1": _SYMMETRY,
    "stabilizer --group g2": _SYMMETRY,
    "orbit-equal": _SYMMETRY,
    "dm-check --g 1 --m 1": _SYMMETRY,
    "exchange": _SYMMETRY,
    "sl2z-act": _SYMMETRY,
    "levi list": ("rootsystems",),
}


@pytest.mark.parametrize("argv, document", SEEDS, ids=[" ".join(argv) for argv, _ in SEEDS])
def test_each_request_runs_exactly_the_modules_of_its_types(argv, document):
    outcome, ran = _run_with_document(argv, document)
    assert outcome == "0 False"
    modules = ("errors", "scalars") + _MODULES_RUN[" ".join(argv)]
    assert ran == str(sorted(f"irrtypes.{name}" for name in modules))


@pytest.mark.parametrize("argv", [argv for argv, _ in SEEDS], ids=" ".join)
def test_unparsable_json_runs_only_the_errors_module(argv):
    outcome, ran = _run_with_text(argv, '{"rank": 2,')
    assert outcome == "1 False"
    assert ran == "['irrtypes.errors']"


def test_no_request_loads_dataclasses_or_inspect():
    """One valid request of each of the 15 commands, in one interpreter."""
    requests = SEEDS + [(["version"], None)]
    assert len({tuple(argv[:2]) for argv, _ in requests}) == 15
    script = (
        "import contextlib, io, sys\n"
        "from irrtypes import cli\n"
        "codes = []\n"
        f"for argv, text in {[(argv, json.dumps(doc)) for argv, doc in requests]!r}:\n"
        "    sys.stdin = io.StringIO(text)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.run(argv))\n"
        "print(set(codes), 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    ) + _RAN
    result = _python("-c", script)
    assert result.returncode == 0, result.stderr
    outcome, ran = result.stdout.splitlines()
    assert outcome == "{0} False False"
    every = ("errors", "scalars", "connections") + _SYMMETRY
    assert ran == str(sorted(f"irrtypes.{name}" for name in every))


def test_module_run_of_the_cli_warns_nothing():
    result = _python("-W", "error", "-m", "irrtypes.cli", "version")
    assert result.returncode == 0
    assert result.stderr == ""
    assert json.loads(result.stdout) == {"schema": 1, "version": irrtypes.__version__}


def test_importing_the_cli_registers_every_submodule():
    result = _python(
        "-c",
        "import pkgutil, sys\n"
        "import irrtypes.cli\n"
        "names = [m.name for m in pkgutil.iter_modules(irrtypes.__path__)]\n"
        "print(len(names), [n for n in names if 'irrtypes.' + n not in sys.modules])\n",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "10 []\n"


_MATH_ALLOWED = {"gcd", "lcm", "isqrt", "comb"}


def _floating_point_uses(path):
    """Float or complex literals, the names ``float`` and ``complex``, and
    any ``math`` import beyond the exact integer functions, sorted."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"{node.lineno}: name {node.id}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name not in _MATH_ALLOWED
            ]
    return sorted(found)


def test_the_library_uses_no_floating_point():
    sources = sorted(Path(irrtypes.__file__).resolve().parent.glob("*.py"))
    assert len(sources) == 11
    found = {path.name: _floating_point_uses(path) for path in sources}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_floating_point_guard_sees_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from math import gcd, sqrt\nimport math\nx = float(1) + 0.5 + 2j\n")
    assert _floating_point_uses(path) == [
        "1: from math import sqrt", "2: import math", "3: literal 0.5", "3: literal 2j",
        "3: name float",
    ]


def _owners(tree):
    """The name of the function around each node, by node id."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so the innermost owner wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return owner


def _constructor_skips(path):
    """Each use of ``object.__new__``: its line and the function around it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = _owners(tree)
    return sorted(
        (node.lineno, owner.get(id(node), "<module>"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    )


def test_only_scalars_bare_skips_a_constructor():
    """Computed results are wrapped by one helper, ``scalars._bare``."""
    sources = sorted(Path(irrtypes.__file__).resolve().parent.glob("*.py"))
    assert len(sources) == 11
    found = {path.name: [fn for _, fn in _constructor_skips(path)] for path in sources}
    assert {name: fns for name, fns in found.items() if fns} == {"scalars.py": ["_bare"]}


def test_the_constructor_guard_sees_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "new = object.__new__\n"
        "def outer(cls):\n    def inner():\n        return object.__new__(cls)\n"
        "    return object.__new__(cls), inner, cls.__new__\n"
    )
    assert _constructor_skips(path) == [(1, "<module>"), (4, "inner"), (5, "outer")]


_BARRED_MODULES = {"dataclasses", "inspect"}


def _barred_imports(path):
    """Imports of ``dataclasses`` or ``inspect``, in any form, sorted.
    Either module costs every request that loads the importing module."""
    def barred(module):
        return (module or "").partition(".")[0] in _BARRED_MODULES

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if barred(a.name)]
        elif isinstance(node, ast.ImportFrom) and barred(node.module):
            names = ", ".join(a.name for a in node.names)
            found.append(f"{node.lineno}: from {node.module} import {names}")
    return sorted(found)


def test_the_library_imports_neither_dataclasses_nor_inspect():
    sources = sorted(Path(irrtypes.__file__).resolve().parent.glob("*.py"))
    assert len(sources) == 11
    found = {path.name: _barred_imports(path) for path in sources}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_import_guard_sees_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import dataclasses\nfrom dataclasses import dataclass, field\n"
        "import inspect as _inspect\nfrom inspect import signature\n"
        "def f():\n    import inspect\nimport ast, dis\n"
    )
    assert _barred_imports(path) == [
        "1: import dataclasses", "2: from dataclasses import dataclass, field",
        "3: import inspect", "4: from inspect import signature", "6: import inspect",
    ]


_WHOLE_ELIMINATIONS = {"span_closure", "kernel_intersection_dim", "kernel_lattice_basis"}


def _eliminations(path):
    """The functions that call ``_echelon``, and each import of a public
    routine that runs its own elimination, sorted."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = _owners(tree)
    callers = sorted({
        owner.get(id(node), "<module>")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "_echelon" or getattr(node.func, "attr", None) == "_echelon")
    })
    imports = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in _WHOLE_ELIMINATIONS
    )
    return callers, imports


def test_strata_eliminates_only_in_levels():
    """A stratum's levels are eliminated once each, by ``strata._levels``;
    every other stratum routine reads the echelons it returns."""
    path = Path(irrtypes.__file__).resolve().parent / "strata.py"
    assert _eliminations(path) == (["_levels"], [])


def test_the_elimination_guard_sees_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .rootsystems import _echelon, span_closure as close\n"
        "from .rootsystems import kernel_lattice_basis\n"
        "def outer(s):\n    def inner():\n        return rootsystems._echelon(s, [])\n"
        "    return _echelon(s, [])\n"
        "_echelon(None, [])\n"
    )
    assert _eliminations(path) == (["<module>", "inner", "outer"], ["kernel_lattice_basis", "span_closure"])
