"""Exact arithmetic owned by the benchmark, independent of ``irrtypes``.

Gaussian rationals are pairs ``(re, im)`` of ``Fraction``; matrices are
lists of rows; a Laurent matrix is a dict ``order -> matrix`` holding
only the orders it knows.  The oracles and the input generators use
these helpers so that no check relies on the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

G = Tuple[Fraction, Fraction]
Matrix = List[List[G]]

ZERO: G = (Fraction(0), Fraction(0))
ONE: G = (Fraction(1), Fraction(0))


def g(re: int | Fraction = 0, im: int | Fraction = 0) -> G:
    return (Fraction(re), Fraction(im))


def add(a: G, b: G) -> G:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: G, b: G) -> G:
    return (a[0] - b[0], a[1] - b[1])


def mul(a: G, b: G) -> G:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def scale(a: G, q: int | Fraction) -> G:
    return (a[0] * q, a[1] * q)


def div(a: G, b: G) -> G:
    n = b[0] * b[0] + b[1] * b[1]
    return mul(a, (b[0] / n, -b[1] / n))


def power(a: G, e: int) -> G:
    out = ONE
    for _ in range(e):
        out = mul(out, a)
    return out


def rat_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rat_parse(text: str) -> Fraction:
    num, slash, den = text.partition("/")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


def to_json(a: G) -> dict:
    return {"re": rat_str(a[0]), "im": rat_str(a[1])}


def from_json(obj: dict) -> G:
    return (rat_parse(obj["re"]), rat_parse(obj["im"]))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(b)
    return [
        [
            total(mul(a[i][t], b[t][j]) for t in range(n))
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def total(items) -> G:
    out = ZERO
    for x in items:
        out = add(out, x)
    return out


def identity(r: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(r)] for i in range(r)]


def lau_mul(a: Dict[int, Matrix], b: Dict[int, Matrix], hi: int | None = None) -> Dict[int, Matrix]:
    """Product of Laurent matrices given as exact finite dicts.

    With ``hi`` set, orders at or above it are not computed.
    """
    out: Dict[int, Matrix] = {}
    for la, ma in a.items():
        for lb, mb in b.items():
            if hi is not None and la + lb >= hi:
                continue
            prod = mat_mul(ma, mb)
            acc = out.get(la + lb)
            out[la + lb] = prod if acc is None else [
                [add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(acc, prod)
            ]
    return out


def lau_add(a: Dict[int, Matrix], b: Dict[int, Matrix]) -> Dict[int, Matrix]:
    out = {l: [row[:] for row in m] for l, m in a.items()}
    for l, m in b.items():
        acc = out.get(l)
        out[l] = m if acc is None else [
            [add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(acc, m)
        ]
    return out


def lau_derivative(a: Dict[int, Matrix]) -> Dict[int, Matrix]:
    return {l - 1: [[scale(x, l) for x in row] for row in m] for l, m in a.items() if l}


def echelon(rows: Sequence[Sequence[int | Fraction]]) -> List[Tuple[int, List[Fraction]]]:
    """Echelon basis over Q as (pivot column, row) pairs."""
    basis: List[Tuple[int, List[Fraction]]] = []
    for row in rows:
        v = reduce(basis, row)
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((pivot, [x / v[pivot] for x in v]))
    return basis


def reduce(basis: List[Tuple[int, List[Fraction]]], row: Sequence[int | Fraction]) -> List[Fraction]:
    v = [Fraction(x) for x in row]
    for pivot, b in basis:
        if v[pivot]:
            f = v[pivot]
            v = [x - f * y for x, y in zip(v, b)]
    return v


def rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    return len(echelon(rows))


def same_up_to_column_permutation(a: Sequence[Sequence[G]], b: Sequence[Sequence[G]]) -> bool:
    """Whether one permutation of coordinates maps every vector of a to b."""
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return False
    if not a:
        return True
    return sorted(zip(*a)) == sorted(zip(*b))
