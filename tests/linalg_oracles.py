"""Plain dense matrix routines that serve the tests as oracles.

The library multiplies and inverts connection matrices on Gaussian
integers over one denominator (``irrtypes.connections``).  These
textbook versions work on any field entries (``Fraction`` or
``GaussianRational``) and check those results independently.
"""

from fractions import Fraction

from irrtypes import NotAUnit


def mat_identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(mid):
                prod = a[i][t] * b[t][j]
                acc = prod if acc is None else acc + prod
            row.append(acc)
        out.append(row)
    return out


def sum_(items):
    acc = None
    for x in items:
        acc = x if acc is None else acc + x
    return acc


def mat_vec(a, v):
    return [sum_(a[i][t] * v[t] for t in range(len(v))) for i in range(len(a))]


def mat_inverse(rows, one, zero):
    """Inverse via Gauss-Jordan; raises ``NotAUnit`` when singular."""
    n = len(rows)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, n) if aug[i][col]), None)
        if pivot is None:
            raise NotAUnit("matrix is singular")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [x / inv for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row])]
        row += 1
    return [r[n:] for r in aug]


def char_poly(matrix, one, zero):
    """Characteristic polynomial coefficients [1, c1, .., cn] via Faddeev-LeVerrier.

    P(t) = t^n + c1 t^{n-1} + .. + cn, computed with exact divisions by
    integers (valid in characteristic zero).
    """
    n = len(matrix)
    coeffs = [one]
    m = mat_identity(n, one, zero)
    for k in range(1, n + 1):
        m = mat_mul(matrix, m)
        trace = sum_(m[i][i] for i in range(n))
        ck = trace / Fraction(-k)
        coeffs.append(ck)
        for i in range(n):
            m[i][i] = m[i][i] + ck
    return coeffs
