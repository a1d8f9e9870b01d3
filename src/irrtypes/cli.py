"""Command-line surface: parse JSON, dispatch, emit deterministic JSON.

One request per invocation.  Documents arrive via ``--input FILE`` or
standard input; results leave on standard output either canonically
(sorted keys, no whitespace) or pretty-printed.  Canonical mode is byte
reproducible: the same request always yields the same bytes.  Library
errors surface as ``{"error": name, "message": text}`` with the exit
code determined by the error category: 1 for malformed input, 2 for a
violated precondition, 3 for a tripped resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, Sequence

# Module objects only: each submodule runs its body on first use, so a
# request loads only what its handler touches, and every library name is
# looked up at call time.
from . import (
    SCHEMA_VERSION,
    __version__,
    connections,
    irregular,
    polynomials,
    rootsystems,
    scalars,
    strata,
    symmetry,
)
from .errors import IrrTypesError, MalformedInput, TooLarge, exit_code_for


class _Parser(argparse.ArgumentParser):
    """Routes usage errors through the library error channel."""

    def error(self, message: str) -> None:
        raise MalformedInput(message)


def _read_document(ns: argparse.Namespace) -> object:
    path = getattr(ns, "input", None)
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise MalformedInput(f"cannot read input: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedInput(f"input is not valid JSON: {err}") from err
    except ValueError as err:
        # Raised for integers beyond Python's int/str conversion limit.
        raise TooLarge("input holds an integer literal with too many digits") from err


def _emit(payload: object, mode: str) -> None:
    if mode == "pretty":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _enumerable_system(family: str, rank: int) -> rootsystems.RootSystem:
    """The --family/--rank system, refused by its closed-form root and flat
    counts before it is built when enumerating its flats would be refused."""
    rootsystems.check_enumeration_guard(rootsystems.root_count(family, rank))
    flats = rootsystems.flat_count(family, rank)
    if flats > rootsystems.FLAT_BUDGET:
        raise TooLarge(f"root system has {flats} flats; budget is {rootsystems.FLAT_BUDGET}")
    return rootsystems.build_root_system(family, rank)


def _system_from_flags_or_document(ns: argparse.Namespace) -> rootsystems.RootSystem:
    if ns.family is not None:
        if ns.rank is None:
            raise MalformedInput("--family requires --rank")
        return _enumerable_system(ns.family, ns.rank)
    doc = _read_document(ns)
    return rootsystems.root_system_from_json(doc)


def _cmd_strata_enumerate(ns: argparse.Namespace) -> object:
    if ns.family is not None:
        if ns.rank is None or ns.p is None:
            raise MalformedInput("--family requires --rank and -p")
        system, p = _enumerable_system(ns.family, ns.rank), ns.p
    else:
        doc = _read_document(ns)
        obj = scalars._as_object(doc, ("rootsystem", "p"), "enumeration request")
        system = rootsystems.root_system_from_json(obj["rootsystem"])
        p = obj["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise MalformedInput("pole bound must be an integer")
    return [strata.stratum_to_json(s) for s in strata.enumerate_strata(system, p)]


def _cmd_strata_dimension(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    vec = irregular.order_vector_from_json(doc)
    return {"dimension": strata.stratum_dimension(vec.rootsystem, vec.p, vec)}


def _cmd_strata_witness(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    vec = irregular.order_vector_from_json(doc)
    witness = strata.stratum_witness(vec.rootsystem, vec.p, vec)
    return irregular.irregular_type_to_json(witness)


def _cmd_classify(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    q = irregular.irregular_type_from_json(doc)
    vec = irregular.root_order_vector(q)
    return {
        "d": list(vec.orders),
        "levels": [sorted(level) for level in irregular.sublevel_sets(q.rootsystem, q.p, vec.orders)],
        "dimension": strata.stratum_dimension(q.rootsystem, q.p, vec),
    }


def _cmd_admissible(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    fam = irregular.family_from_json(doc)
    verdict, failures = irregular.is_admissible(fam)
    return {
        "admissible": verdict,
        "witnesses": [
            {"root": index, "leading": polynomials.poly_to_json(poly)}
            for index, poly in failures
        ],
    }


def _cmd_connection_extract(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    germ = connections.germ_from_json(doc)
    return irregular.irregular_type_to_json(connections.extract_irregular_type(germ))


def _cmd_connection_diagonalize(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    germ = connections.germ_from_json(doc)
    gauge, moved = connections.leading_regular_diagonalize(germ)
    return {
        "gauge": connections.gauge_to_json(gauge),
        "germ": connections.germ_to_json(moved),
    }


def _cmd_connection_gauge(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    obj = scalars._as_object(doc, ("germ", "gauge"), "gauge request")
    germ = connections.germ_from_json(obj["germ"])
    gauge = connections.gauge_from_json(obj["gauge"])
    return connections.germ_to_json(connections.gauge_transform(germ, gauge))


def _cmd_stabilizer(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    if ns.group == "g1":
        order = symmetry.g1_stabilizer_order(irregular.atinf_from_json(doc))
    else:
        order = symmetry.g2_stabilizer_order(symmetry.pair_from_json(doc))
    return {"order": "infinite" if isinstance(order, symmetry.InfiniteOrder) else order}


def _cmd_orbit_equal(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    obj = scalars._as_object(doc, ("first", "second", "weights"), "orbit request")
    first, second = (
        [
            scalars._vector_from_json(vec, "coefficient vector")
            for vec in scalars._as_list(obj[key], key)
        ]
        for key in ("first", "second")
    )
    weights = []
    for w in scalars._as_list(obj["weights"], "weights"):
        if not isinstance(w, int) or isinstance(w, bool):
            raise MalformedInput("weights must be integers")
        weights.append(w)
    return {"equivalent": symmetry.weighted_orbit_equivalent(first, second, weights)}


def _cmd_dm_check(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    vectors = [
        irregular.order_vector_from_json(item)
        for item in scalars._as_list(doc, "order vectors")
    ]
    relevant, bound = symmetry.dm_check(ns.g, ns.m, vectors)
    return {"relevant": relevant, "deligne_mumford": bound}


def _cmd_exchange(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    obj = scalars._as_object(doc, ("regular", "configuration"), "exchange request")
    out_conf, out_reg = symmetry.exchange_map(
        scalars._vector_from_json(obj["regular"], "regular tuple"),
        scalars._vector_from_json(obj["configuration"], "configuration"),
    )
    return {
        "configuration": scalars._vector_to_json(out_conf),
        "regular": scalars._vector_to_json(out_reg),
    }


def _cmd_sl2z_act(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    obj = scalars._as_object(doc, ("gamma", "tau", "type"), "modular request")
    gamma = symmetry.sl2z_from_json(obj["gamma"])
    point = symmetry.upper_half_from_json({"tau": obj["tau"]})
    q = irregular.irregular_type_from_json(obj["type"])
    new_point, new_q = symmetry.sl2z_act(gamma, point, q)
    return {
        "tau": new_point.tau.to_json(),
        "type": irregular.irregular_type_to_json(new_q),
    }


def _cmd_levi_list(ns: argparse.Namespace) -> object:
    system = _system_from_flags_or_document(ns)
    return [list(levi.sorted_members()) for levi in rootsystems.enumerate_levi(system)]


def _cmd_version(ns: argparse.Namespace) -> object:
    return {"version": __version__, "schema": SCHEMA_VERSION}


Handler = Callable[[argparse.Namespace], object]

_GROUP_HELP = {
    "strata": "stratum combinatorics",
    "connection": "formal connection germs",
    "levi": "Levi subsystem combinatorics",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="irrtypes", description=__doc__)
    # Flag-only parents: each command shares their actions instead of
    # building its own.
    input_flag = _Parser(add_help=False)
    input_flag.add_argument("--input", metavar="FILE", help="JSON document; - or absent reads stdin")
    output_flag = _Parser(add_help=False)
    output_flag.add_argument("--output", choices=("pretty", "canonical"), default="canonical")
    sub = parser.add_subparsers(dest="command", metavar="command")
    groups = {}

    def command(words: str, handler: Handler, reads_document: bool = True) -> _Parser:
        """Add the command ``words`` (``"strata witness"``, ``"classify"``),
        creating its group on first use."""
        group, _, name = words.rpartition(" ")
        actions = sub
        if group:
            if group not in groups:
                parent = sub.add_parser(group, help=_GROUP_HELP[group])
                groups[group] = parent.add_subparsers(dest="subcommand", metavar="action")
            actions = groups[group]
        flags = [input_flag, output_flag] if reads_document else [output_flag]
        cmd = actions.add_parser(name, parents=flags)
        cmd.set_defaults(handler=handler)
        return cmd

    enum = command("strata enumerate", _cmd_strata_enumerate)
    enum.add_argument("--family", choices=tuple("ABCDG"))
    enum.add_argument("--rank", type=int)
    enum.add_argument("-p", type=int, dest="p")
    command("strata dimension", _cmd_strata_dimension)
    command("strata witness", _cmd_strata_witness)
    command("classify", _cmd_classify)
    command("admissible", _cmd_admissible)
    command("connection extract", _cmd_connection_extract)
    command("connection diagonalize", _cmd_connection_diagonalize)
    command("connection gauge", _cmd_connection_gauge)
    command("stabilizer", _cmd_stabilizer).add_argument(
        "--group", choices=("g1", "g2"), required=True
    )
    command("orbit-equal", _cmd_orbit_equal)
    dm = command("dm-check", _cmd_dm_check)
    dm.add_argument("--g", type=int, required=True, help="genus")
    dm.add_argument("--m", type=int, required=True, help="marked points")
    command("exchange", _cmd_exchange)
    command("sl2z-act", _cmd_sl2z_act)
    levi_list = command("levi list", _cmd_levi_list)
    levi_list.add_argument("--family", choices=tuple("ABCDG"))
    levi_list.add_argument("--rank", type=int)
    command("version", _cmd_version, reads_document=False)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    mode = "canonical"
    try:
        ns = parser.parse_args(argv)
        mode = getattr(ns, "output", "canonical")
        handler = getattr(ns, "handler", None)
        if handler is None:
            raise MalformedInput("missing subcommand; run with --help for usage")
        payload = handler(ns)
    except IrrTypesError as err:
        _emit({"error": err.code, "message": str(err)}, mode)
        return exit_code_for(err)
    _emit(payload, mode)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
