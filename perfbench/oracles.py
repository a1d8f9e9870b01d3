"""Root systems, flats and response checks owned by the benchmark.

Nothing here imports ``irrtypes``.  Root systems are rebuilt in the
library's standard realization (sorted integer tuples), flats are
enumerated by a rank test, and the known closed-form counts (Bell and
Dowling numbers) check that enumeration before it checks the program.
Each ``check_*`` function raises ``Mismatch`` with a reason when a
response is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Sequence, Tuple

import exact

# Flats of the root arrangement: Bell numbers B(n+1) for A_n, the Dowling
# number 24 for B3 and C3, and the counts for G2 and D4.
KNOWN_FLAT_COUNTS = {"A3": 15, "A4": 52, "B3": 24, "C3": 24, "G2": 8, "D4": 72}


class Mismatch(Exception):
    """A response disagrees with the benchmark's oracle."""


class Roots:
    """A root system in the library's standard integral realization.

    ``order`` lists the sorted roots in another order; the library keeps
    the given order as the index convention of its answers.
    """

    def __init__(self, family: str, rank: int, order: Sequence[int] | None = None):
        vecs: List[Tuple[int, ...]] = []
        if family == "A":
            ambient = rank + 1
            for i in range(ambient):
                for j in range(ambient):
                    if i != j:
                        v = [0] * ambient
                        v[i], v[j] = 1, -1
                        vecs.append(tuple(v))
        elif family in "BCD":
            ambient = rank
            for i, j in combinations(range(rank), 2):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * rank
                        v[i], v[j] = si, sj
                        vecs.append(tuple(v))
            if family != "D":
                for i in range(rank):
                    for s in (1, -1):
                        v = [0] * rank
                        v[i] = s * (2 if family == "C" else 1)
                        vecs.append(tuple(v))
        elif family == "G" and rank == 2:
            ambient = 3
            for v in [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]:
                vecs.append(v)
                vecs.append(tuple(-x for x in v))
        else:
            raise ValueError(f"no root system {family}{rank}")
        self.family, self.rank = family, rank
        self.label = f"{family}{rank}"
        self.ambient = ambient
        self.roots = sorted(vecs)
        if order is not None:
            self.roots = [self.roots[i] for i in order]
        self._flats: List[FrozenSet[int]] | None = None

    def __len__(self) -> int:
        return len(self.roots)

    def to_json(self) -> dict:
        return {
            "rank": self.ambient,
            "roots": [[str(x) for x in v] for v in self.roots],
            "family": self.label,
        }

    def level_rank(self, members) -> int:
        return exact.rank([self.roots[i] for i in members]) if members else 0

    def closure(self, members) -> FrozenSet[int]:
        basis = exact.echelon([self.roots[j] for j in members])
        return frozenset(
            i for i, v in enumerate(self.roots) if not any(exact.reduce(basis, v))
        )

    def flats(self) -> List[FrozenSet[int]]:
        """All flats in the library's order (size, then member list)."""
        if self._flats is None:
            seen = {frozenset()}
            layer = [frozenset()]
            while layer:
                grown = set()
                for flat in layer:
                    covered = set(flat)
                    for i in range(len(self.roots)):
                        if i not in covered:
                            closed = self.closure(sorted(flat | {i}))
                            covered |= closed
                            if closed not in seen:
                                seen.add(closed)
                                grown.add(closed)
                layer = list(grown)
            self._flats = sorted(seen, key=lambda s: (len(s), sorted(s)))
            expected = KNOWN_FLAT_COUNTS.get(self.label)
            if expected is not None and len(self._flats) != expected:
                raise AssertionError(f"oracle flat count {len(self._flats)} for {self.label}")
        return self._flats

    def multichains(self, p: int) -> int:
        """Number of chains L1 <= .. <= Lp of flats (repeats allowed)."""
        flats = self.flats()
        counts = [1] * len(flats)
        for _ in range(p - 1):
            counts = [
                sum(c for lower, c in zip(flats, counts) if lower <= upper)
                for upper in flats
            ]
        return sum(counts) if p else 1

    def orders_of(self, coefficients: Sequence[Sequence[exact.G]]) -> List[int]:
        """Root pole orders of a type with coefficient vectors A_1 .. A_p."""
        out = []
        for root in self.roots:
            d = 0
            for j in range(len(coefficients), 0, -1):
                if exact.total(exact.scale(x, a) for a, x in zip(root, coefficients[j - 1])) != exact.ZERO:
                    d = j
                    break
            out.append(d)
        return out

    def levels(self, orders: Sequence[int], p: int) -> List[List[int]]:
        return [[a for a, d in enumerate(orders) if d < i] for i in range(1, p + 1)]

    def dimension(self, orders: Sequence[int], p: int) -> int:
        return sum(self.ambient - self.level_rank(level) for level in self.levels(orders, p))

    def orders_from_chain(self, chain: Sequence[FrozenSet[int]]) -> List[int]:
        return [sum(1 for level in chain if a not in level) for a in range(len(self.roots))]


def decode(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError as err:
        raise Mismatch(f"stdout is not JSON: {err}") from err


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def check_levi_list(system: Roots, payload) -> None:
    expected = [sorted(f) for f in system.flats()]
    expect(payload == expected, f"levi list of {system.label} differs from the flats")


def check_strata(system: Roots, p: int, payload) -> None:
    flats = set(system.flats())
    expect(isinstance(payload, list), "strata output is not a list")
    expect(
        len(payload) == system.multichains(p),
        f"{system.label} p={p}: {len(payload)} strata, expected {system.multichains(p)}",
    )
    seen = set()
    for item in payload:
        levels = [frozenset(level) for level in item["levels"]]
        expect(len(levels) == p, "stratum depth differs from p")
        expect(all(level in flats for level in levels), "stratum level is not a flat")
        expect(all(a <= b for a, b in zip(levels, levels[1:])), "stratum levels not nested")
        expect(item["d"] == system.orders_from_chain(levels), "stratum d disagrees with levels")
        seen.add(tuple(levels))
    expect(len(seen) == len(payload), "duplicate strata")


def check_type_classification(system: Roots, p: int, type_doc, want_orders) -> dict:
    """Classify a type document independently; checks it has the wanted orders."""
    expect(type_doc["rootsystem"] == system.to_json(), "type carries another root system")
    expect(type_doc["p"] == p, "type carries another pole bound")
    coefficients = [[exact.from_json(x) for x in vec] for vec in type_doc["coefficients"]]
    orders = system.orders_of(coefficients)
    if want_orders is not None:
        expect(orders == list(want_orders), "type lies on another stratum")
    return {
        "d": orders,
        "levels": system.levels(orders, p),
        "dimension": system.dimension(orders, p),
    }


def check_error(payload, name: str, code: int, want_code: int) -> None:
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    expect(
        isinstance(payload, dict) and set(payload) == {"error", "message"},
        "error response is not one {error, message} object",
    )
    expect(payload["error"] == name, f"error {payload['error']}, expected {name}")


def untwisted_type(entries, r: int, k: int):
    """Irregular type read off a germ document, or None if it is twisted.

    The coefficient of z^{-(l+1)} dz on the diagonal is -l A_l; the
    off-diagonal entries must vanish at every order below the residue.
    """
    tails = [[[exact.from_json(x) for x in cell["tail"]] for cell in row] for row in entries]
    for i in range(r):
        for j in range(r):
            if i != j and any(x != exact.ZERO for x in tails[i][j][:k]):
                return None
    return [
        [exact.scale(tails[i][i][k - l], Fraction(-1, l)) for i in range(r)]
        for l in range(1, k + 1)
    ]


def gl_type_json(r: int, k: int, vectors) -> dict:
    """Expected document of an extracted type on the diagonal Cartan of gl_r, r >= 2."""
    return {
        "rootsystem": Roots("A", r - 1).to_json(),
        "p": k,
        "coefficients": [[exact.to_json(x) for x in vec] for vec in vectors],
    }


def germ_lau(doc) -> Dict[int, exact.Matrix]:
    """Known coefficients of a germ document as order -> matrix."""
    r, k, n = doc["r"], doc["pole_bound"], doc["precision"]
    out = {}
    for l in range(-(k + 1), n):
        out[l] = [
            [
                exact.from_json(
                    doc["entries"][i][j]["tail"][l + k + 1] if l < 0
                    else doc["entries"][i][j]["regular"][l]
                )
                for j in range(r)
            ]
            for i in range(r)
        ]
    return out


def check_gauge_equation(before, after, gauge_lau: Dict[int, exact.Matrix]) -> None:
    """after = g before g^-1 + dg g^-1, checked as after g = g before + dg.

    Both sides are known exactly at every order of the germ window,
    because g has no negative orders; no inverse is needed.
    """
    r, k, n = before["r"], before["pole_bound"], before["precision"]
    expect(
        (after["r"], after["pole_bound"], after["precision"]) == (r, k, n),
        "transformed germ has another window",
    )
    m_before, m_after = germ_lau(before), germ_lau(after)
    left = exact.lau_mul(m_after, gauge_lau)
    right = exact.lau_add(exact.lau_mul(gauge_lau, m_before), exact.lau_derivative(gauge_lau))
    zero = [[exact.ZERO] * r for _ in range(r)]
    for l in range(-(k + 1), n):
        expect(left.get(l, zero) == right.get(l, zero), f"gauge equation fails at order {l}")


def gauge_doc_lau(doc) -> Dict[int, exact.Matrix]:
    r, order = doc["r"], doc["precision"]
    return {
        l: [[exact.from_json(doc["entries"][i][j][l]) for j in range(r)] for i in range(r)]
        for l in range(order)
    }
