"""Exact dense linear algebra over Fraction or GaussianRational entries.

Everything is plain Gaussian elimination on lists of lists.  Entries
must support +, -, *, / and be falsy exactly when zero; both stdlib
``Fraction`` and :class:`~irrtypes.scalars.GaussianRational` qualify.
The callers are the root-system layer, whose matrices are the size of
the ambient rank, so no attempt at pivoting strategies or sparsity.
Connection germs use the Gaussian-integer kernel in
:mod:`irrtypes.connections` instead and take nothing from this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, TypeVar

F = TypeVar("F")
Matrix = List[List[F]]


def mat_copy(rows: Sequence[Sequence[F]]) -> Matrix:
    return [list(r) for r in rows]


def rref(rows: Sequence[Sequence[F]]) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = mat_copy(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def mat_rank(rows: Sequence[Sequence[F]]) -> int:
    return len(rref(rows)[1])


def in_row_span(rows: Sequence[Sequence[F]], vector: Sequence[F]) -> bool:
    """Whether ``vector`` lies in the row span; ``rows`` should be an RREF."""
    v = list(vector)
    echelon, pivots = rows if isinstance(rows, tuple) else rref(rows)
    for r, col in zip(echelon, pivots):
        if v[col]:
            factor = v[col]
            v = [a - factor * b for a, b in zip(v, r)]
    return not any(v)


def kernel_basis(rows: Sequence[Sequence[F]], ncols: int, one: F, zero: F) -> Matrix:
    """Basis of the right kernel, one vector per free column, deterministic."""
    echelon, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in zip(echelon, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def clear_denominators(vector: Sequence[Fraction]) -> List[Fraction]:
    """Scale a rational vector to primitive integer entries, sign-normalized."""
    from math import gcd, lcm

    denoms = [f.denominator for f in vector]
    scale = lcm(*denoms) if denoms else 1
    ints = [int(f * scale) for f in vector]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]
