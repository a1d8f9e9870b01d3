"""The root layer on arbitrary rational configurations, against brute force.

Documents may carry any rational root set closed under negation: roots
that do not span, proportional roots such as v and 2v, sets that are
not crystallographic.  Hypothesis draws such sets in rank 1-3 (entries
in -2..2, at most 10 roots) and checks the flat lattice, the strata at
p <= 2, their dimensions and their witnesses against oracles that close
every subset with the plain ``Fraction`` ranks of ``fraction_oracles``.
The strata are also counted over finite fields, and every root order the
library reads in integers is compared with the exact ``Fraction``
pairing on Gaussian-rational types.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from fraction_oracles import clear_denominators, kernel_basis, mat_rank, point_counts
from fraction_oracles import root_order as fraction_root_order

from irrtypes import (
    IrregularType,
    RootSystem,
    enumerate_levi,
    enumerate_strata,
    gauss,
    levi_filtration_of,
    root_order,
    root_order_vector,
    stratum_dimension,
    stratum_witness,
)
from irrtypes.cli import run
from irrtypes.irregular import irregular_type_to_json

ENTRY = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))


@st.composite
def configurations(draw):
    """A shuffled root set closed under negation, with up to 5 pairs."""
    rank = draw(st.integers(1, 3))
    vectors = st.tuples(*[ENTRY] * rank).filter(any)
    pairs = draw(st.lists(vectors, max_size=5, unique_by=lambda v: frozenset([v, tuple(-x for x in v)])))
    roots = [v for pair in pairs for v in (pair, tuple(-x for x in pair))]
    return RootSystem(rank, draw(st.permutations(roots)))


def _flats(system):
    """Every subset closed by brute force: a root joins when it keeps the rank."""
    n = len(system)
    rank = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            rank[frozenset(subset)] = mat_rank([system.roots[i] for i in subset])
    return {
        members | {i for i in range(n) if rank[members | {i}] == r}
        for members, r in rank.items()
    }, rank


def _chains(flats, p):
    """Every chain F_1 <= .. <= F_p of flats, as the order vector it labels."""
    chains = [[]]
    for _ in range(p):
        chains = [c + [f] for c in chains for f in flats if not c or c[-1] <= f]
    return chains


def _settings(examples):
    return settings(
        max_examples=examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@seed(20241020)
@_settings(60)
@given(configurations())
def test_flats_strata_dimensions_and_witnesses_match_brute_force(system):
    flats, rank = _flats(system)
    levis = [levi.members for levi in enumerate_levi(system)]
    assert levis == sorted(flats, key=lambda s: (len(s), sorted(s)))
    n = len(system)
    for p in (1, 2):
        expected = {
            tuple(sum(1 for level in chain if i not in level) for i in range(n))
            for chain in _chains(flats, p)
        }
        found = enumerate_strata(system, p)
        assert {s.orders.orders for s in found} == expected
        assert len(found) == len(expected)
        for stratum in found:
            d = stratum.orders.orders
            levels = [frozenset(i for i in range(n) if d[i] < j) for j in range(1, p + 1)]
            assert stratum_dimension(system, p, d) == sum(system.rank - rank[level] for level in levels)
            assert root_order_vector(stratum_witness(system, p, d)).orders == d


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def _good_prime(rows, rank):
    """The smallest prime q >= 5 that divides no nonzero minor of ``rows``, so
    every subset keeps its rank mod q and the flats do not change."""
    minors = {
        _det([[row[c] for c in cols] for row in chosen])
        for k in range(1, rank + 1)
        for chosen in combinations(rows, k)
        for cols in combinations(range(rank), k)
    }
    q = 5
    while any(m % q == 0 for m in minors if m) or any(q % d == 0 for d in range(2, q)):
        q += 1
    return q


@seed(20241021)
@_settings(40)
@given(configurations())
def test_strata_partition_the_points_over_finite_fields(system):
    """The strata at p <= 2 split (F_q^rank)^p, each into q^dimension plus
    lower terms; at p = 1 the points of F_q^rank, sorted by their root orders
    mod a good prime q, number what their stratum's count says."""
    flats, rank = _flats(system)
    dims = {flat: system.rank - rank[flat] for flat in flats}
    counts = {p: point_counts(enumerate_strata(system, p), dims) for p in (1, 2)}
    for p, polys in counts.items():
        for orders, poly in polys.items():
            degree = max(k for k, c in enumerate(poly) if c)
            assert poly[degree] == 1
            assert degree == stratum_dimension(system, p, orders)
        assert [sum(column) for column in zip(*polys.values())] == [0] * (system.rank * p) + [1]
    rows = [[int(x) for x in clear_denominators(root)] for root in system.roots]
    q = _good_prime(rows, system.rank)
    seen = {}
    for point in product(range(q), repeat=system.rank):
        orders = tuple(1 if sum(r * x for r, x in zip(row, point)) % q else 0 for row in rows)
        seen[orders] = seen.get(orders, 0) + 1
    expected = {orders: sum(c * q**k for k, c in enumerate(poly)) for orders, poly in counts[1].items()}
    assert seen == {orders: n for orders, n in expected.items() if n}


@seed(20241022)
@_settings(30)
@given(configurations())
def test_dimensions_by_perturbation(system):
    """As ``test_strata.TestWitness``: moving one level of a witness along a
    basis vector of that level's kernel never raises a root order and, for
    all but finitely many scales, keeps the stratum; those directions number
    the stratum's dimension.  The kernels come from the oracle."""
    n = len(system)
    for p in (1, 2):
        for stratum in enumerate_strata(system, p):
            d = stratum.orders.orders
            witness = stratum_witness(system, p, d)
            directions = 0
            for level in range(1, p + 1):
                below = [system.roots[i] for i in range(n) if d[i] < level]
                basis = kernel_basis(below, system.rank, Fraction(1), Fraction(0))
                directions += len(basis)
                for vector in basis:
                    hits = 0
                    for scale in range(1, n + 2):
                        coefficients = [list(c) for c in witness.coefficients]
                        coefficients[level - 1] = [c + x * scale for c, x in zip(coefficients[level - 1], vector)]
                        moved = root_order_vector(IrregularType(system, p, coefficients)).orders
                        assert all(m == want or (want == level and m < level) for m, want in zip(moved, d))
                        hits += moved == d
                    # each root pair of order ``level`` forbids at most one scale
                    assert hits >= 1
            assert directions == stratum_dimension(system, p, d)


PART = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
SCALAR = st.builds(gauss, st.one_of(st.just(0), PART), st.one_of(st.just(0), PART))


@st.composite
def typed_configurations(draw):
    """A configuration with a type of pole bound 1-3 on it.  Each A_j is a
    combination, with Gaussian-rational scalars of denominators 1-6, of the
    integer kernel basis of a random root subset, so that many pairings
    vanish, and real and imaginary parts often vanish apart."""
    system = draw(configurations())
    p = draw(st.integers(1, 3))
    coefficients = []
    for _ in range(p):
        subset = draw(st.sets(st.integers(0, len(system) - 1))) if len(system) else set()
        rows = [system.roots[i] for i in sorted(subset)]
        basis = [clear_denominators(v) for v in kernel_basis(rows, system.rank, Fraction(1), Fraction(0))]
        scalars = [draw(SCALAR) for _ in basis]
        coefficients.append([sum((c * v[k] for c, v in zip(scalars, basis)), gauss(0)) for k in range(system.rank)])
    return IrregularType(system, p, coefficients)


def _classify(q):
    out, old_stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(irregular_type_to_json(q)))
    try:
        with redirect_stdout(out):
            assert run(["classify"]) == 0
    finally:
        sys.stdin = old_stdin
    return json.loads(out.getvalue())


@seed(20241023)
@_settings(80)
@given(typed_configurations())
def test_integer_root_orders_match_the_fraction_pairing(q):
    system, p = q.rootsystem, q.p
    d = tuple(fraction_root_order(root, q.coefficients) for root in system.roots)
    assert root_order_vector(q).orders == d
    assert tuple(root_order(q, i) for i in range(len(system))) == d
    levels = [frozenset(i for i, order in enumerate(d) if order < j) for j in range(1, p + 1)]
    assert levi_filtration_of(q).levels == tuple(levels)
    assert _classify(q) == {
        "d": list(d),
        "levels": [sorted(level) for level in levels],
        "dimension": sum(system.rank - mat_rank([system.roots[i] for i in level]) for level in levels),
    }
