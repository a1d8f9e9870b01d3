"""Plain dense matrix routines that serve the tests as oracles.

The library runs one elimination, the fraction-free Gauss-Jordan over
the Gaussian integers in ``irrtypes.scalars``: the root layer reads
ranks, kernels and row spans off it, and the germ layer inverses and
eigenvectors.  These textbook versions work on any field entries
(``Fraction`` or ``GaussianRational``) and check those results
independently.  ``root_order`` is the root order the library read off
exact ``Fraction`` pairings before it paired integer rows, and
``point_counts`` counts the points of each stratum over a finite field.
"""

from fractions import Fraction
from math import gcd, lcm

from irrtypes import NotAUnit


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
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


def mat_rank(rows):
    return len(rref(rows)[1])


def in_row_span(rows, vector):
    """Whether ``vector`` lies in the row span; ``rows`` may be an ``rref`` result."""
    v = list(vector)
    echelon, pivots = rows if isinstance(rows, tuple) else rref(rows)
    for r, col in zip(echelon, pivots):
        if v[col]:
            factor = v[col]
            v = [a - factor * b for a, b in zip(v, r)]
    return not any(v)


def kernel_basis(rows, ncols, one, zero):
    """Basis of the right kernel, one vector per free column, deterministic."""
    echelon, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in zip(echelon, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def clear_denominators(vector):
    """Scale a rational vector to primitive integer entries, sign-normalized."""
    scale = lcm(*(f.denominator for f in vector)) if vector else 1
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


def root_order(root, coefficients):
    """Pole order of a rational root composed with the type A_1 .. A_p: the
    highest j whose pairing with A_j, summed part by part in ``Fraction``,
    is nonzero, else 0."""
    for j in range(len(coefficients), 0, -1):
        vector = coefficients[j - 1]
        if sum(a * x.re for a, x in zip(root, vector)) or sum(a * x.im for a, x in zip(root, vector)):
            return j
    return 0


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def point_counts(strata, dims):
    """Per stratum, the number of its points over F_q as a polynomial in q
    (rank * p + 1 coefficients by degree), from the flats of its root
    system, given as ``dims``: each flat's kernel dimension.

    Level i of a stratum with Levi chain L_1 <= .. <= L_p is the kernel of
    L_i minus the hyperplanes of the roots of order exactly i, that is of
    L_{i+1} outside L_i, with L_{p+1} all roots.  Its points number
    chi_[L_i, L_{i+1}](q) = sum over flats L_i <= H <= L_{i+1} of
    mu(L_i, H) q^{dim ker H} (the finite-field method: Crapo-Rota 1970,
    Athanasiadis 1996), and the stratum is the product of its levels.
    """
    flats = sorted(dims, key=len)  # the empty flat first, all roots last
    rank, top = dims[frozenset()], flats[-1]
    intervals = {}

    def interval_poly(low, high):
        if (low, high) not in intervals:
            mu, coeffs = {}, [0] * (rank + 1)
            for flat in flats:  # sorted by size, so every H < flat comes first
                if low <= flat <= high:
                    mu[flat] = 1 if flat == low else -sum(m for h, m in mu.items() if h < flat)
                    coeffs[dims[flat]] += mu[flat]
            intervals[low, high] = coeffs
        return intervals[low, high]

    counts = {}
    for s in strata:
        chain = s.filtration.levels + (top,)
        poly = [1]
        for low, high in zip(chain, chain[1:]):
            poly = _poly_mul(poly, interval_poly(low, high))
        counts[s.orders.orders] = poly
    return counts


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
