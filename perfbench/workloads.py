"""Seeded request streams and the oracle attached to each request.

A workload is a closed loop with one client: one ``irrtypes`` process
per request, the document on stdin.  ``build_pass`` returns one pass of
a workload: a fixed request mix whose inputs come from the seed and the
pass index only.  Each request carries a check that raises
``oracles.Mismatch`` on a wrong answer.

The mixes are fixed so that neither latency percentile sits on the
boundary between a fast and a slow class of requests: in germ-gauge the
slow class (diagonalize, which imports sympy) is 20 of 100 requests, so
the median lies inside the fast class and p90 in the middle of the slow
one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, gcd
from typing import Callable, Dict, List

import exact
import oracles
from oracles import Roots, check_error, decode, expect

SWEEP_SYSTEMS = (("A", 3), ("A", 4), ("B", 3), ("C", 3), ("G", 2), ("D", 4))
POINT_SYSTEMS = (("B", 3), ("A", 4), ("D", 4))

@cache
def roots(family: str, rank: int) -> Roots:
    """One shared instance per system, so its flats are computed once."""
    return Roots(family, rank)


@dataclass
class Request:
    """One CLI invocation and the oracle for its response.

    ``check(code, stdout, stdin)`` raises ``Mismatch`` when the answer
    is wrong.  With ``chained`` set, stdin is the stdout of the request
    just before it in the stream.
    """

    kind: str
    argv: List[str]
    stdin: bytes = b""
    check: Callable[[int, bytes, bytes], None] = field(default=None, repr=False)
    chained: bool = False


def _doc(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _ok(code: int, stdout: bytes):
    expect(code == 0, f"exit code {code}: {stdout[:200]!r}")
    return decode(stdout)


# ---------------------------------------------------------------- helpers


def _gint(rng: random.Random, bound: int = 3, nonzero: bool = False) -> exact.G:
    while True:
        value = exact.g(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not nonzero or value != exact.ZERO:
            return value


def _random_chain(rng: random.Random, system: Roots, p: int) -> List[frozenset]:
    """Nested flats L1 <= .. <= Lp, each grown from the last by closure."""
    chain, level = [], frozenset()
    for _ in range(p):
        extra = rng.sample(range(len(system)), rng.randint(0, 2))
        level = system.closure(sorted(level | set(extra)))
        chain.append(level)
    return chain


def _order_doc(system: Roots, p: int, orders) -> dict:
    return {"rootsystem": system.to_json(), "p": p, "orders": list(orders)}


def _type_doc(system: Roots, coefficients) -> dict:
    return {
        "rootsystem": system.to_json(),
        "p": len(coefficients),
        "coefficients": [[exact.to_json(x) for x in vec] for vec in coefficients],
    }


def _generic_vector(rng: random.Random, system: Roots) -> List[exact.G]:
    """A vector on which no root vanishes."""
    while True:
        vec = [_gint(rng) for _ in range(system.ambient)]
        if all(system.orders_of([vec])):
            return vec


def _unimodular(rng: random.Random, r: int):
    """Integer matrix of determinant +-1 and its inverse, both exact."""
    p, pinv = exact.identity(r), exact.identity(r)
    for _ in range(r + 1):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-2, -1, 1, 2))
        e, einv = exact.identity(r), exact.identity(r)
        e[i][j], einv[i][j] = exact.g(c), exact.g(-c)
        p, pinv = exact.mat_mul(p, e), exact.mat_mul(einv, pinv)
    perm = list(range(r))
    rng.shuffle(perm)
    pm = [[exact.ONE if perm[i] == j else exact.ZERO for j in range(r)] for i in range(r)]
    pmt = [[pm[j][i] for j in range(r)] for i in range(r)]
    return exact.mat_mul(p, pm), exact.mat_mul(pmt, pinv)


# ----------------------------------------------------------- strata-sweep


def _levi_request(family: str, rank: int) -> Request:
    system = roots(family, rank)

    def check(code, out, _):
        oracles.check_levi_list(system, _ok(code, out))

    return Request("levi list", ["levi", "list", "--family", family, "--rank", str(rank)], check=check)


def _strata_request(family: str, rank: int, p: int) -> Request:
    system = roots(family, rank)

    def check(code, out, _):
        oracles.check_strata(system, p, _ok(code, out))

    argv = ["strata", "enumerate", "--family", family, "--rank", str(rank), "-p", str(p)]
    return Request("strata enumerate", argv, check=check)


def _strata_document_request(rng: random.Random, family: str, rank: int, p: int) -> Request:
    """strata enumerate on a root-system document with the roots shuffled."""
    order = list(range(len(roots(family, rank))))
    rng.shuffle(order)
    system = Roots(family, rank, order)

    def check(code, out, _):
        oracles.check_strata(system, p, _ok(code, out))

    doc = {"rootsystem": system.to_json(), "p": p}
    return Request("strata enumerate document", ["strata", "enumerate"], _doc(doc), check)


def _dimension_request(system: Roots, p: int, orders) -> Request:
    want = {"dimension": system.dimension(orders, p)}

    def check(code, out, _):
        expect(_ok(code, out) == want, "stratum dimension differs")

    return Request("strata dimension", ["strata", "dimension"], _doc(_order_doc(system, p, orders)), check)


def _witness_triple(rng: random.Random, system: Roots) -> List[Request]:
    """strata dimension, strata witness, then classify of that witness."""
    p = rng.randint(1, 3)
    orders = system.orders_from_chain(_random_chain(rng, system, p))
    want = {
        "d": orders,
        "levels": system.levels(orders, p),
        "dimension": system.dimension(orders, p),
    }

    def check_witness(code, out, _):
        oracles.check_type_classification(system, p, _ok(code, out), orders)

    def check_classify(code, out, _):
        expect(_ok(code, out) == want, "classify of the witness differs from its stratum")

    doc = _doc(_order_doc(system, p, orders))
    return [
        _dimension_request(system, p, orders),
        Request("strata witness", ["strata", "witness"], doc, check_witness),
        Request("classify", ["classify"], check=check_classify, chained=True),
    ]


def strata_sweep(rng: random.Random) -> List[List[Request]]:
    units = [[_levi_request(f, n)] for f, n in SWEEP_SYSTEMS]
    units += [[_strata_request(f, n, p)] for f, n in SWEEP_SYSTEMS for p in (1, 2, 3)]
    # Eighteen documents of the cost of B3/C3 with p = 3 join A4 levi list
    # and A4 p = 1 in one cost class at ranks 7-28 from the top, so p90
    # (ranks 11-12 of 102) falls inside that class instead of on the gap
    # between two classes, where one noisy request would move it.
    units += [[_strata_document_request(rng, f, 3, 3)] for f in "BC" * 9]
    for t in range(20):
        units.append(_witness_triple(rng, roots(*POINT_SYSTEMS[t % len(POINT_SYSTEMS)])))
    return units


# ------------------------------------------------------------- germ-gauge


def _diagonal_type(rng: random.Random, r: int, k: int) -> List[List[exact.G]]:
    """A_1 .. A_k on the diagonal; A_k has distinct entries."""
    vectors = [[_gint(rng, 2) for _ in range(r)] for _ in range(k - 1)]
    while True:
        lead = [_gint(rng, 3) for _ in range(r)]
        if len(set(lead)) == r:
            return vectors + [lead]


def _untwisted_lau(rng: random.Random, r: int, k: int, n: int, vectors) -> Dict[int, exact.Matrix]:
    """Germ with diagonal principal part -l A_l z^-(l+1); anything from z^-1 on."""
    lau = {}
    for l in range(1, k + 1):
        lau[-(l + 1)] = [
            [exact.scale(vectors[l - 1][i], -l) if i == j else exact.ZERO for j in range(r)]
            for i in range(r)
        ]
    for l in range(-1, n):
        lau[l] = [[_gint(rng, 2) for _ in range(r)] for _ in range(r)]
    return lau


def _germ_doc(lau: Dict[int, exact.Matrix], r: int, k: int, n: int) -> dict:
    zero = exact.ZERO
    return {
        "r": r,
        "pole_bound": k,
        "precision": n,
        "entries": [
            [
                {
                    "tail": [exact.to_json(lau[l][i][j] if l in lau else zero) for l in range(-(k + 1), 0)],
                    "regular": [exact.to_json(lau[l][i][j] if l in lau else zero) for l in range(n)],
                }
                for j in range(r)
            ]
            for i in range(r)
        ],
    }


def _gauge_doc(gauge: Dict[int, exact.Matrix], r: int, order: int) -> dict:
    return {
        "r": r,
        "precision": order,
        "entries": [
            [[exact.to_json(gauge[l][i][j]) for l in range(order)] for j in range(r)]
            for i in range(r)
        ],
    }


def _nilpotent(rng: random.Random, r: int) -> exact.Matrix:
    return [[_gint(rng, 1) if j > i else exact.ZERO for j in range(r)] for i in range(r)]


def _scramble(rng: random.Random, lau, r: int, k: int, n: int):
    """g lau g^-1 + dg g^-1 for g = P (1 + z N1 + z^2 N2), N strictly upper.

    The unipotent factor has a polynomial inverse, so the result is
    exact; orders at or above n are dropped.
    """
    p, pinv = _unimodular(rng, r)
    nil = {1: _nilpotent(rng, r), 2: _nilpotent(rng, r)}
    u = {0: exact.identity(r), **nil}
    uinv, term = {0: exact.identity(r)}, {0: exact.identity(r)}
    for _ in range(r - 1):
        term = exact.lau_mul(term, nil)
        term = {l: [[exact.scale(x, -1) for x in row] for row in m] for l, m in term.items()}
        uinv = exact.lau_add(uinv, term)
    g = exact.lau_mul({0: p}, u)
    ginv = exact.lau_mul(uinv, {0: pinv}, n + k + 1)
    # g and g^-1 have no negative orders, so nothing at or above n is needed.
    total = exact.lau_add(
        exact.lau_mul(exact.lau_mul(g, lau, n), ginv, n),
        exact.lau_mul(exact.lau_derivative(g), ginv, n),
    )
    return {l: m for l, m in total.items() if -(k + 1) <= l}


def _diagonalize_request(rng: random.Random) -> Request:
    r, k = rng.randint(2, 4), rng.randint(1, 4)
    n = rng.randint(k, 4)
    vectors = _diagonal_type(rng, r, k)
    germ = _germ_doc(_scramble(rng, _untwisted_lau(rng, r, k, n, vectors), r, k, n), r, k, n)

    def check(code, out, _):
        payload = _ok(code, out)
        found = oracles.untwisted_type(payload["germ"]["entries"], r, k)
        expect(found is not None, "diagonalized germ is still twisted")
        expect(
            exact.same_up_to_column_permutation(found, vectors),
            "diagonalized type differs from the generator's up to permutation",
        )
        oracles.check_gauge_equation(germ, payload["germ"], oracles.gauge_doc_lau(payload["gauge"]))

    return Request("connection diagonalize", ["connection", "diagonalize"], _doc(germ), check)


def _gauge_request(rng: random.Random, trivial_mod_z: bool) -> Request:
    r, k = rng.randint(2, 4), rng.randint(1, 4)
    n = rng.randint(k, 4)
    order = rng.randint(2, 3)
    vectors = _diagonal_type(rng, r, k)
    lau = _untwisted_lau(rng, r, k, n, vectors)
    if trivial_mod_z:
        # Off-diagonal gauge terms only from z^k on keep the principal
        # part below the residue diagonal and unchanged.
        gauge = {0: exact.identity(r)}
        for m in range(1, order):
            gauge[m] = [
                [_gint(rng, 2) if (i == j or m >= k) else exact.ZERO for j in range(r)]
                for i in range(r)
            ]
    else:
        lau = _scramble(rng, lau, r, k, n)
        gauge = {0: _unimodular(rng, r)[0]}
        for m in range(1, order):
            gauge[m] = [[_gint(rng, 2) for _ in range(r)] for _ in range(r)]
    germ = _germ_doc(lau, r, k, n)

    def check(code, out, _):
        payload = _ok(code, out)
        oracles.check_gauge_equation(germ, payload, gauge)
        if trivial_mod_z:
            expect(
                oracles.untwisted_type(payload["entries"], r, k) == vectors,
                "a gauge trivial mod z changed the extracted type",
            )

    kind = "connection gauge trivial" if trivial_mod_z else "connection gauge"
    doc = {"germ": germ, "gauge": _gauge_doc(gauge, r, order)}
    return Request(kind, ["connection", "gauge"], _doc(doc), check)


def _extract_request(rng: random.Random) -> Request:
    r, k = rng.randint(2, 4), rng.randint(1, 4)
    n = rng.randint(1, 4)
    vectors = _diagonal_type(rng, r, k)
    germ = _germ_doc(_untwisted_lau(rng, r, k, n, vectors), r, k, n)
    want = oracles.gl_type_json(r, k, vectors)

    def check(code, out, _):
        expect(_ok(code, out) == want, "extracted type differs")

    return Request("connection extract", ["connection", "extract"], _doc(germ), check)


def germ_gauge(rng: random.Random) -> List[List[Request]]:
    units = [[_diagonalize_request(rng)] for _ in range(20)]
    units += [[_gauge_request(rng, trivial_mod_z=t % 2 == 0)] for t in range(50)]
    units += [[_extract_request(rng)] for _ in range(30)]
    return units


# --------------------------------------------------------- small-requests

SMALL_SYSTEMS = (("A", 1), ("A", 2), ("B", 2))


def version_request() -> Request:
    def check(code, out, _):
        payload = _ok(code, out)
        expect(payload.get("schema") == 1 and isinstance(payload.get("version"), str), "bad version")

    return Request("version", ["version"], check=check)


def _g1_translate(coefficients, s: exact.G):
    """Coefficients of q(z + s) at infinity, degree-zero term dropped."""
    p = len(coefficients)
    rank = len(coefficients[0])
    out = [[exact.ZERO] * rank for _ in range(p)]
    for j in range(1, p + 1):
        for i in range(1, j + 1):
            factor = exact.scale(exact.power(s, j - i), comb(j, i))
            for c in range(rank):
                out[i - 1][c] = exact.add(out[i - 1][c], exact.mul(coefficients[j - 1][c], factor))
    return out


def _support(rng: random.Random, p: int) -> List[int]:
    """Degrees with no two consecutive, so that the slice is the identity."""
    while True:
        chosen = [j for j in range(1, p + 1) if rng.random() < 0.5]
        if chosen and all(b - a > 1 for a, b in zip(chosen, chosen[1:])):
            return chosen


def _stabilizer_g1_request(rng: random.Random) -> Request:
    system = roots(*rng.choice(SMALL_SYSTEMS))
    p = rng.randint(1, 6)
    support = _support(rng, p)
    coefficients = [
        _generic_vector(rng, system) if j in support else [exact.ZERO] * system.ambient
        for j in range(1, p + 1)
    ]
    moved = _g1_translate(coefficients, _gint(rng, 2))
    want = {"order": gcd(*support) if max(support) >= 2 else "infinite"}

    def check(code, out, _):
        expect(_ok(code, out) == want, f"g1 stabilizer differs from {want}")

    return Request("stabilizer g1", ["stabilizer", "--group", "g1"], _doc(_type_doc(system, moved)), check)


def _stabilizer_g2_request(rng: random.Random) -> Request:
    system = roots(*rng.choice(SMALL_SYSTEMS))
    p0, pinf = rng.randint(1, 5), rng.randint(1, 5)
    s0 = [j for j in range(1, p0 + 1) if rng.random() < 0.5]
    sinf = [j for j in range(1, pinf + 1) if rng.random() < 0.5] or [pinf]

    def block(p, support):
        return [
            _generic_vector(rng, system) if j in support else [exact.ZERO] * system.ambient
            for j in range(1, p + 1)
        ]

    doc = {"at0": _type_doc(system, block(p0, s0)), "atinf": _type_doc(system, block(pinf, sinf))}
    want = {"order": gcd(*(set(s0) | set(sinf)))}

    def check(code, out, _):
        expect(_ok(code, out) == want, f"g2 stabilizer differs from {want}")

    return Request("stabilizer g2", ["stabilizer", "--group", "g2"], _doc(doc), check)


def _orbit_request(rng: random.Random) -> Request:
    slots = rng.randint(2, 4)
    r0 = _gint(rng, 2, nonzero=True)
    weights = [rng.randint(1, 5) for _ in range(slots)]
    first, second = [], []
    for w in weights:
        if rng.random() < 0.25:
            vec = [exact.ZERO] * 3
            first.append(vec)
            second.append(vec)
            continue
        vec = [_gint(rng, 3, nonzero=True) for _ in range(3)]
        first.append(vec)
        second.append([exact.mul(exact.power(r0, w), x) for x in vec])
    equivalent = rng.random() < 0.5
    if not equivalent:
        # Break proportionality in one slot, made nonzero if needed.
        slot = rng.randrange(slots)
        if first[slot][0] == exact.ZERO:
            first[slot] = [exact.ONE, exact.ONE, exact.ONE]
            second[slot] = [exact.ONE, exact.ONE, exact.ONE]
        second[slot] = [exact.scale(second[slot][0], 2)] + second[slot][1:]
    doc = {
        "first": [[exact.to_json(x) for x in v] for v in first],
        "second": [[exact.to_json(x) for x in v] for v in second],
        "weights": weights,
    }

    def check(code, out, _):
        expect(_ok(code, out) == {"equivalent": equivalent}, "orbit equivalence differs")

    return Request("orbit-equal", ["orbit-equal"], _doc(doc), check)


def _random_orders(rng: random.Random, system: Roots, p: int) -> List[int]:
    """Negation-symmetric orders, relevant or not."""
    if rng.random() < 0.5:
        return system.orders_from_chain(_random_chain(rng, system, p))
    orders = [0] * len(system)
    index = {v: i for i, v in enumerate(system.roots)}
    for i, v in enumerate(system.roots):
        if v > tuple(-x for x in v):
            orders[i] = orders[index[tuple(-x for x in v)]] = rng.randint(0, p)
    return orders


def _relevant(system: Roots, p: int, orders) -> bool:
    return all(
        system.closure(level) == frozenset(level) for level in system.levels(orders, p)
    )


def _dm_request(rng: random.Random) -> Request:
    genus, markings = rng.randint(0, 2), rng.randint(1, 3)
    docs, relevant, total = [], True, 0
    for _ in range(markings):
        system = roots(*rng.choice(SMALL_SYSTEMS))
        p = rng.randint(1, 3)
        orders = _random_orders(rng, system, p)
        relevant = relevant and _relevant(system, p, orders)
        total += max(orders)
        docs.append(_order_doc(system, p, orders))
    want = {"relevant": relevant, "deligne_mumford": 2 * genus - 2 + markings + total > 0}

    def check(code, out, _):
        expect(_ok(code, out) == want, f"dm-check differs from {want}")

    argv = ["dm-check", "--g", str(genus), "--m", str(markings)]
    return Request("dm-check", argv, _doc(docs), check)


def _distinct(rng: random.Random, count: int, nonzero: bool) -> List[exact.G]:
    while True:
        vals = [_gint(rng, 4, nonzero) for _ in range(count)]
        if len(set(vals)) == count:
            return vals


def _exchange_request(rng: random.Random) -> Request:
    while True:
        regular = _distinct(rng, rng.randint(1, 4), nonzero=False)
        regular.append(exact.scale(exact.total(regular), -1))
        if len(set(regular)) == len(regular):
            break
    configuration = _distinct(rng, rng.randint(1, 4), nonzero=True)
    first = exact.scale(exact.total(configuration), Fraction(-1, len(configuration) + 1))
    want = {
        "configuration": [exact.to_json(exact.sub(v, regular[0])) for v in regular[1:]],
        "regular": [exact.to_json(first)] + [exact.to_json(exact.add(first, v)) for v in configuration],
    }
    doc = {
        "regular": [exact.to_json(v) for v in regular],
        "configuration": [exact.to_json(v) for v in configuration],
    }

    def check(code, out, _):
        expect(_ok(code, out) == want, "exchange map differs")

    return Request("exchange", ["exchange"], _doc(doc), check)


def _sl2z_request(rng: random.Random) -> Request:
    while True:
        a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        # d solves a d - b c = 1 when a divides 1 + b c.
        if a and (1 + b * c) % a == 0:
            d = (1 + b * c) // a
            break
    tau = exact.g(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    system = roots(*rng.choice(SMALL_SYSTEMS))
    coefficients = [[_gint(rng) for _ in range(system.ambient)] for _ in range(rng.randint(1, 3))]
    denom = exact.add(exact.scale(tau, c), exact.g(d))
    new_tau = exact.div(exact.add(exact.scale(tau, a), exact.g(b)), denom)
    scaled = [
        [exact.div(x, exact.power(denom, j)) for x in vec]
        for j, vec in enumerate(coefficients, start=1)
    ]
    want = {"tau": exact.to_json(new_tau), "type": _type_doc(system, scaled)}
    doc = {"gamma": [a, b, c, d], "tau": exact.to_json(tau), "type": _type_doc(system, coefficients)}

    def check(code, out, _):
        expect(_ok(code, out) == want, "modular action differs")

    return Request("sl2z-act", ["sl2z-act"], _doc(doc), check)


def _admissible_request(rng: random.Random) -> Request:
    """Family whose coefficients are constants plus, sometimes, a times a constant vector."""
    system = roots(*rng.choice(SMALL_SYSTEMS))
    p, variables = rng.randint(1, 3), ["a", "b"]
    constant = [[_gint(rng, 2) for _ in range(system.ambient)] for _ in range(p)]
    linear = [
        [_gint(rng, 1) for _ in range(system.ambient)] if rng.random() < 0.5 else [exact.ZERO] * system.ambient
        for _ in range(p)
    ]

    def poly(c: exact.G, a: exact.G) -> dict:
        terms = {}
        if c != exact.ZERO:
            terms[(0, 0)] = c
        if a != exact.ZERO:
            terms[(1, 0)] = a
        return terms

    doc = {
        "rootsystem": system.to_json(),
        "p": p,
        "variables": variables,
        "coefficients": [
            [
                {"terms": [{"exponents": list(e), "coefficient": exact.to_json(x)} for e, x in poly(c, a).items()]}
                for c, a in zip(cvec, avec)
            ]
            for cvec, avec in zip(constant, linear)
        ],
    }
    failures = {}
    for i, root in enumerate(system.roots):
        for j in range(p, 0, -1):
            pairing = {}
            for coeff, vec in (((0, 0), constant[j - 1]), ((1, 0), linear[j - 1])):
                value = exact.total(exact.scale(x, a) for a, x in zip(root, vec))
                if value != exact.ZERO:
                    pairing[coeff] = value
            if pairing:
                if (1, 0) in pairing:
                    failures[i] = pairing
                break

    def check(code, out, _):
        payload = _ok(code, out)
        expect(payload["admissible"] == (not failures), "admissibility verdict differs")
        found = {
            w["root"]: {tuple(t["exponents"]): exact.from_json(t["coefficient"]) for t in w["leading"]["terms"]}
            for w in payload["witnesses"]
        }
        expect(found == failures and len(found) == len(payload["witnesses"]), "admissibility witnesses differ")

    return Request("admissible", ["admissible"], _doc(doc), check)


def _classify_point_request(rng: random.Random, system: Roots) -> Request:
    p = rng.randint(1, 3)
    # Coordinates from a small set make many roots vanish.
    coefficients = [
        [exact.g(rng.choice((0, 1, -1, 2))) for _ in range(system.ambient)] for _ in range(p)
    ]
    doc = _type_doc(system, coefficients)
    want = oracles.check_type_classification(system, p, doc, None)

    def check(code, out, _):
        expect(_ok(code, out) == want, "classify differs")

    return Request(f"classify {system.label}", ["classify"], _doc(doc), check)


def _error_request(rng: random.Random, which: int) -> Request:
    if which == 0:
        argv, stdin, name, code = ["classify"], b'{"rootsystem": [', "MalformedInput", 1
    elif which == 1:
        system = roots(*rng.choice((("B", 3), ("D", 4))))
        while True:
            orders = _random_orders(rng, system, 1)
            if not _relevant(system, 1, orders):
                break
        argv, stdin, name, code = ["strata", "dimension"], _doc(_order_doc(system, 1, orders)), "NotRelevant", 2
    elif which == 2:
        r, k = rng.randint(2, 3), rng.randint(1, 3)
        vectors = _diagonal_type(rng, r, k)
        vectors[-1][1] = vectors[-1][0]
        lau = _untwisted_lau(rng, r, k, k, vectors)
        argv, stdin, name, code = ["connection", "diagonalize"], _doc(_germ_doc(lau, r, k, k)), "LeadingNotRegular", 2
    else:
        family, rank = rng.choice((("B", 6), ("C", 6), ("A", 8)))
        argv, stdin = ["levi", "list", "--family", family, "--rank", str(rank)], b""
        name, code = "TooLarge", 3

    def check(got, out, _):
        check_error(decode(out), name, got, code)

    return Request(f"error {name}", argv, stdin, check)


def small_requests(rng: random.Random) -> List[List[Request]]:
    # 204 requests, so that one pass lasts about as long as one pass of
    # the other workloads and every run at 25 s measures exactly one pass.
    units = [[version_request()] for _ in range(12)]
    for make in (
        _stabilizer_g1_request,
        _stabilizer_g2_request,
        _orbit_request,
        _dm_request,
        _exchange_request,
        _sl2z_request,
        _admissible_request,
    ):
        units += [[make(rng)] for _ in range(16)]
    for family, rank in (("B", 3), ("D", 4)):
        system = roots(family, rank)
        units += [[_classify_point_request(rng, system)] for _ in range(12)]
        for _ in range(12):
            p = rng.randint(1, 3)
            orders = system.orders_from_chain(_random_chain(rng, system, p))
            units.append([_dimension_request(system, p, orders)])
    units += [[_error_request(rng, t % 4)] for t in range(32)]
    return units


MIXES = {
    "strata-sweep": strata_sweep,
    "germ-gauge": germ_gauge,
    "small-requests": small_requests,
}
WORKLOADS = tuple(MIXES)


def build_pass(workload: str, seed: int, pass_index: int) -> List[Request]:
    """One pass: the workload's fixed mix, inputs and order from the seed."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    units = MIXES[workload](rng)
    rng.shuffle(units)
    return [request for unit in units for request in unit]
