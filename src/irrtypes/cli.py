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
from typing import Optional, Sequence

from . import __version__
from .connections import (
    extract_irregular_type,
    gauge_transform,
    leading_regular_diagonalize,
)
from .errors import IrrTypesError, MalformedInput, TooLarge, exit_code_for
from .irregular import is_admissible, levi_filtration_of, root_order_vector
from .rootsystems import RootSystem, build_root_system, enumerate_levi
from .serialization import (
    SCHEMA_VERSION,
    _as_list,
    _as_object,
    atinf_from_json,
    family_from_json,
    gauge_from_json,
    germ_from_json,
    germ_to_json,
    gauge_to_json,
    irregular_type_from_json,
    irregular_type_to_json,
    order_vector_from_json,
    pair_from_json,
    poly_to_json,
    root_system_from_json,
    scalar_from_json,
    scalar_to_json,
    sl2z_from_json,
    stratum_to_json,
    upper_half_from_json,
)
from .strata import enumerate_strata, stratum_dimension, stratum_witness
from .symmetry import (
    InfiniteOrder,
    dm_check,
    exchange_map,
    g1_stabilizer_order,
    g2_stabilizer_order,
    sl2z_act,
    weighted_orbit_equivalent,
)


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


def _system_from_flags_or_document(ns: argparse.Namespace) -> RootSystem:
    if ns.family is not None:
        if ns.rank is None:
            raise MalformedInput("--family requires --rank")
        return build_root_system(ns.family, ns.rank)
    return root_system_from_json(_read_document(ns))


def _cmd_strata_enumerate(ns: argparse.Namespace) -> object:
    if ns.family is not None:
        if ns.rank is None or ns.p is None:
            raise MalformedInput("--family requires --rank and -p")
        system, p = build_root_system(ns.family, ns.rank), ns.p
    else:
        obj = _as_object(_read_document(ns), ("rootsystem", "p"), "enumeration request")
        system = root_system_from_json(obj["rootsystem"])
        p = obj["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise MalformedInput("pole bound must be an integer")
    return [stratum_to_json(s) for s in enumerate_strata(system, p)]


def _cmd_strata_dimension(ns: argparse.Namespace) -> object:
    vec = order_vector_from_json(_read_document(ns))
    return {"dimension": stratum_dimension(vec.rootsystem, vec.p, vec)}


def _cmd_strata_witness(ns: argparse.Namespace) -> object:
    vec = order_vector_from_json(_read_document(ns))
    return irregular_type_to_json(stratum_witness(vec.rootsystem, vec.p, vec))


def _cmd_classify(ns: argparse.Namespace) -> object:
    q = irregular_type_from_json(_read_document(ns))
    vec = root_order_vector(q)
    filt = levi_filtration_of(vec)
    return {
        "d": list(vec.orders),
        "levels": [sorted(level) for level in filt.levels],
        "dimension": stratum_dimension(q.rootsystem, q.p, vec),
    }


def _cmd_admissible(ns: argparse.Namespace) -> object:
    fam = family_from_json(_read_document(ns))
    verdict, failures = is_admissible(fam)
    return {
        "admissible": verdict,
        "witnesses": [
            {"root": index, "leading": poly_to_json(poly)} for index, poly in failures
        ],
    }


def _cmd_connection_extract(ns: argparse.Namespace) -> object:
    germ = germ_from_json(_read_document(ns))
    return irregular_type_to_json(extract_irregular_type(germ))


def _cmd_connection_diagonalize(ns: argparse.Namespace) -> object:
    germ = germ_from_json(_read_document(ns))
    gauge, moved = leading_regular_diagonalize(germ)
    return {"gauge": gauge_to_json(gauge), "germ": germ_to_json(moved)}


def _cmd_connection_gauge(ns: argparse.Namespace) -> object:
    obj = _as_object(_read_document(ns), ("germ", "gauge"), "gauge request")
    germ = germ_from_json(obj["germ"])
    gauge = gauge_from_json(obj["gauge"])
    return germ_to_json(gauge_transform(germ, gauge))


def _cmd_stabilizer(ns: argparse.Namespace) -> object:
    doc = _read_document(ns)
    if ns.group == "g1":
        order = g1_stabilizer_order(atinf_from_json(doc))
    else:
        order = g2_stabilizer_order(pair_from_json(doc))
    return {"order": "infinite" if isinstance(order, InfiniteOrder) else order}


def _cmd_orbit_equal(ns: argparse.Namespace) -> object:
    obj = _as_object(_read_document(ns), ("first", "second", "weights"), "orbit request")
    first = [
        [scalar_from_json(x) for x in _as_list(vec, "coefficient vector")]
        for vec in _as_list(obj["first"], "first")
    ]
    second = [
        [scalar_from_json(x) for x in _as_list(vec, "coefficient vector")]
        for vec in _as_list(obj["second"], "second")
    ]
    weights = []
    for w in _as_list(obj["weights"], "weights"):
        if not isinstance(w, int) or isinstance(w, bool):
            raise MalformedInput("weights must be integers")
        weights.append(w)
    return {"equivalent": weighted_orbit_equivalent(first, second, weights)}


def _cmd_dm_check(ns: argparse.Namespace) -> object:
    vectors = [order_vector_from_json(item) for item in _as_list(_read_document(ns), "order vectors")]
    relevant, bound = dm_check(ns.g, ns.m, vectors)
    return {"relevant": relevant, "deligne_mumford": bound}


def _cmd_exchange(ns: argparse.Namespace) -> object:
    obj = _as_object(_read_document(ns), ("regular", "configuration"), "exchange request")
    regular = [scalar_from_json(x) for x in _as_list(obj["regular"], "regular tuple")]
    configuration = [
        scalar_from_json(x) for x in _as_list(obj["configuration"], "configuration")
    ]
    out_conf, out_reg = exchange_map(regular, configuration)
    return {
        "configuration": [scalar_to_json(x) for x in out_conf],
        "regular": [scalar_to_json(x) for x in out_reg],
    }


def _cmd_sl2z_act(ns: argparse.Namespace) -> object:
    obj = _as_object(_read_document(ns), ("gamma", "tau", "type"), "modular request")
    gamma = sl2z_from_json(obj["gamma"])
    point = upper_half_from_json({"tau": obj["tau"]})
    q = irregular_type_from_json(obj["type"])
    new_point, new_q = sl2z_act(gamma, point, q)
    return {"tau": scalar_to_json(new_point.tau), "type": irregular_type_to_json(new_q)}


def _cmd_levi_list(ns: argparse.Namespace) -> object:
    system = _system_from_flags_or_document(ns)
    return [list(levi.sorted_members()) for levi in enumerate_levi(system)]


def _cmd_version(ns: argparse.Namespace) -> object:
    return {"version": __version__, "schema": SCHEMA_VERSION}


def build_parser() -> _Parser:
    parser = _Parser(prog="irrtypes", description=__doc__)
    io_common = _Parser(add_help=False)
    io_common.add_argument("--input", metavar="FILE", help="JSON document; - or absent reads stdin")
    io_common.add_argument(
        "--output", choices=("pretty", "canonical"), default="canonical"
    )
    out_only = _Parser(add_help=False)
    out_only.add_argument(
        "--output", choices=("pretty", "canonical"), default="canonical"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    strata = sub.add_parser("strata", help="stratum combinatorics")
    strata_sub = strata.add_subparsers(dest="subcommand", metavar="action")
    enum = strata_sub.add_parser("enumerate", parents=[io_common])
    enum.add_argument("--family", choices=tuple("ABCDG"))
    enum.add_argument("--rank", type=int)
    enum.add_argument("-p", type=int, dest="p")
    enum.set_defaults(handler=_cmd_strata_enumerate)
    dim = strata_sub.add_parser("dimension", parents=[io_common])
    dim.set_defaults(handler=_cmd_strata_dimension)
    wit = strata_sub.add_parser("witness", parents=[io_common])
    wit.set_defaults(handler=_cmd_strata_witness)

    classify = sub.add_parser("classify", parents=[io_common])
    classify.set_defaults(handler=_cmd_classify)

    admissible = sub.add_parser("admissible", parents=[io_common])
    admissible.set_defaults(handler=_cmd_admissible)

    connection = sub.add_parser("connection", help="formal connection germs")
    connection_sub = connection.add_subparsers(dest="subcommand", metavar="action")
    extract = connection_sub.add_parser("extract", parents=[io_common])
    extract.set_defaults(handler=_cmd_connection_extract)
    diag = connection_sub.add_parser("diagonalize", parents=[io_common])
    diag.set_defaults(handler=_cmd_connection_diagonalize)
    gau = connection_sub.add_parser("gauge", parents=[io_common])
    gau.set_defaults(handler=_cmd_connection_gauge)

    stab = sub.add_parser("stabilizer", parents=[io_common])
    stab.add_argument("--group", choices=("g1", "g2"), required=True)
    stab.set_defaults(handler=_cmd_stabilizer)

    orbit = sub.add_parser("orbit-equal", parents=[io_common])
    orbit.set_defaults(handler=_cmd_orbit_equal)

    dm = sub.add_parser("dm-check", parents=[io_common])
    dm.add_argument("--g", type=int, required=True, help="genus")
    dm.add_argument("--m", type=int, required=True, help="marked points")
    dm.set_defaults(handler=_cmd_dm_check)

    exchange = sub.add_parser("exchange", parents=[io_common])
    exchange.set_defaults(handler=_cmd_exchange)

    modular = sub.add_parser("sl2z-act", parents=[io_common])
    modular.set_defaults(handler=_cmd_sl2z_act)

    levi = sub.add_parser("levi", help="Levi subsystem combinatorics")
    levi_sub = levi.add_subparsers(dest="subcommand", metavar="action")
    levi_list = levi_sub.add_parser("list", parents=[io_common])
    levi_list.add_argument("--family", choices=tuple("ABCDG"))
    levi_list.add_argument("--rank", type=int)
    levi_list.set_defaults(handler=_cmd_levi_list)

    version = sub.add_parser("version", parents=[out_only])
    version.set_defaults(handler=_cmd_version)

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
        _emit({"error": type(err).__name__, "message": str(err)}, mode)
        return exit_code_for(err)
    _emit(payload, mode)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
