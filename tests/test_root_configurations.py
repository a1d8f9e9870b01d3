"""The root layer on arbitrary rational configurations, against brute force.

Documents may carry any rational root set closed under negation: roots
that do not span, proportional roots such as v and 2v, sets that are
not crystallographic.  Hypothesis draws such sets in rank 1-3 (entries
in -2..2, at most 10 roots) and checks the flat lattice, the strata at
p <= 2, their dimensions and their witnesses against oracles that close
every subset with the plain ``Fraction`` ranks of ``linalg_oracles``.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from linalg_oracles import mat_rank

from irrtypes import (
    RootSystem,
    enumerate_levi,
    enumerate_strata,
    root_order_vector,
    stratum_dimension,
    stratum_witness,
)

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


@seed(20241020)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
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
