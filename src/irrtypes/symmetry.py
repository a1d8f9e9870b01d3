"""Symmetry groups acting on low-genus irregular-type moduli.

Genus 0, one marked point: the affine substitutions z -> r z + s act on
types written at infinity; a slice condition kills the translations and
leaves a weighted torus action whose stabilizers are cyclic of gcd
order.  Genus 0, two marked points: the torus scales the two types with
opposite weights.  Genus 1: the integral Mobius group moves the modulus
and rescales coefficients by automorphy weights.  The regular-diagonal
against-configuration exchange map and the boundary existence criterion
for coarse moduli round out the toolkit.

Stabilizer and orbit decisions never construct actual roots of unity:
everything reduces to integer gcds and scalar compatibility inside the
Gaussian rationals.

This module defines no irregular type of its own: the pole-at-infinity
convention is :class:`~irrtypes.irregular.IrregularTypeAtInfinity`, and
its root orders come from :func:`~irrtypes.irregular.root_order`.
"""

from __future__ import annotations

from math import comb, gcd
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    MalformedInput,
    NotInXn,
    NotRegular,
    OrderTooLow,
    OutOfRange,
    ShapeMismatch,
    TooLarge,
    ZeroPair,
)
from .irregular import (
    IrregularType,
    IrregularTypeAtInfinity,
    RootOrderVector,
    atinf_from_json,
    atinf_to_json,
    irregular_type_from_json,
    irregular_type_to_json,
    root_order,
    root_order_vector,
    root_pairing,
)
from .scalars import (
    G_ONE,
    G_ZERO,
    GaussianRational,
    ScalarLike,
    _as_int,
    _as_list,
    _as_object,
    _Record,
    _set,
)
from .strata import is_relevant


def convention_swap(
    q: Union[IrregularType, IrregularTypeAtInfinity]
) -> Union[IrregularType, IrregularTypeAtInfinity]:
    """Swap the pole-at-zero and pole-at-infinity presentations.

    Index-preserving involution: the coefficient of z^{-j} becomes the
    coefficient of z^{j} and back.
    """
    if isinstance(q, IrregularTypeAtInfinity):
        return IrregularType(q.rootsystem, q.p, q.coefficients)
    if isinstance(q, IrregularType):
        return IrregularTypeAtInfinity(q.rootsystem, q.p, q.coefficients)
    raise MalformedInput("expected an irregular type in either convention")


# Root orders do not depend on the pole convention.
atinf_root_order = root_order
atinf_root_order_vector = root_order_vector


class AffineG1(_Record):
    """Substitution z -> r z + s with r invertible.

    Composition follows map composition: applying (s1, r1) and then
    (s2, r2) equals applying (r2 s1 + s2, r2 r1).
    """

    __slots__ = __match_args__ = ("s", "r")

    def __init__(self, s: GaussianRational, r: GaussianRational) -> None:
        _set(self, "s", s)
        _set(self, "r", r)
        self.__post_init__()

    def __post_init__(self) -> None:
        _set(self, "s", GaussianRational.of(self.s))
        _set(self, "r", GaussianRational.of(self.r))
        if not self.r:
            raise MalformedInput("scaling part must be nonzero")

    def compose(self, first: "AffineG1") -> "AffineG1":
        """self after first, as maps on the coordinate."""
        return AffineG1(self.r * first.s + self.s, self.r * first.r)

    def inverse(self) -> "AffineG1":
        rinv = self.r.inverse()
        return AffineG1(-self.s * rinv, rinv)


IDENTITY_G1 = AffineG1(G_ZERO, G_ONE)

# Work one substitution may do, charged by the germ layer's rule
# (``connections._Work.charge``): an operation on operands totalling b bits
# costs (1 + b/64)^2.  A1 at p = 100 with one-digit coefficients costs
# about 10^8 (3 s on a 2-vCPU machine); p = 150, or p = 20 with 200-digit
# coefficients, is refused.
G1_WORK_BUDGET = 2 * 10**8


def _bit_size(x: GaussianRational) -> int:
    parts = (x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator)
    return max(n.bit_length() for n in parts)


def _check_g1_work(g: AffineG1, q: IrregularTypeAtInfinity) -> None:
    """Refuse ``g1_act(g, q)`` before it runs when it would exceed ``G1_WORK_BUDGET``.

    Each nonzero A_j gives j terms (j, i).  A term raises r and s to powers
    (about 2 log2 j products) and adds one product into each coordinate;
    its operands have at most j (bits(r) + bits(s) + 1) + bits(A_j) bits,
    the binomial included.
    """
    support = q.support()
    if not support:
        return
    top = support[-1]
    operations = sum(support) * (q.rootsystem.rank + 2 * top.bit_length())
    bits = top * (_bit_size(g.r) + _bit_size(g.s) + 1)
    bits += max(_bit_size(x) for j in support for x in q.coefficient(j))
    words = 1 + bits // 64
    if operations * words * words > G1_WORK_BUDGET:
        raise TooLarge(f"affine substitution work exceeds the budget of {G1_WORK_BUDGET}")


def g1_act(g: AffineG1, q: IrregularTypeAtInfinity) -> IrregularTypeAtInfinity:
    """Substitute z -> r z + s and drop the degree-zero term.

    Precomposition makes this a right action: acting by g then h equals
    acting by the composite map g after h.  ``TooLarge`` when the
    expansion would exceed ``G1_WORK_BUDGET``.
    """
    _check_g1_work(g, q)
    rank = q.rootsystem.rank
    new = [[G_ZERO for _ in range(rank)] for _ in range(q.p)]
    for j in range(1, q.p + 1):
        coeff = q.coefficient(j)
        if not any(coeff):
            continue
        for i in range(1, j + 1):
            scalar = GaussianRational.of(comb(j, i)) * g.r ** i * g.s ** (j - i)
            if not scalar:
                continue
            row = new[i - 1]
            for c in range(rank):
                row[c] = row[c] + coeff[c] * scalar
    return IrregularTypeAtInfinity(q.rootsystem, q.p, new)


def g1_slice(
    q: IrregularTypeAtInfinity, root_index: int
) -> Tuple[GaussianRational, IrregularTypeAtInfinity]:
    """Translate the type onto the slice where the chosen subleading term dies.

    For a root of order d >= 2 the translation s = -alpha(A_{d-1}) / (d
    alpha(A_d)) is the unique one making alpha of the new A_{d-1}
    vanish; the result is returned with the translation used.  Applying
    the slice twice is the identity on the second pass (s = 0).
    """
    d = root_order(q, root_index)
    if d < 2:
        raise OrderTooLow(f"root order {d} < 2 admits no slice normalization")
    root = q.rootsystem.roots[root_index]
    lead = root_pairing(root, q.coefficient(d))
    sub = root_pairing(root, q.coefficient(d - 1))
    s = -sub / (GaussianRational.of(d) * lead)
    moved = g1_act(AffineG1(s, G_ONE), q)
    if root_pairing(root, moved.coefficient(d - 1)):
        raise OrderTooLow("slice normalization failed to kill the subleading term")
    return s, moved


class InfiniteOrder:
    """Sentinel for stabilizers that are not finite."""

    _instance: Optional["InfiniteOrder"] = None

    def __new__(cls) -> "InfiniteOrder":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinite"


INFINITE = InfiniteOrder()


def g1_stabilizer_order(q: IrregularTypeAtInfinity) -> Union[int, InfiniteOrder]:
    """Order of the affine stabilizer, by slicing to the weighted torus.

    When every root order is at most one the translations act trivially
    on the root-visible data and the stabilizer is infinite.  Otherwise
    slice along any root of order at least two; on the slice the
    stabilizer sits inside the torus acting with weight j on A_j, so
    its order is the gcd of the support.
    """
    orders = root_order_vector(q).orders
    if not orders or max(orders) <= 1:
        return INFINITE
    root_index = next(i for i, d in enumerate(orders) if d >= 2)
    _, sliced = g1_slice(q, root_index)
    support = sliced.support()
    return gcd(*support) if len(support) > 1 else support[0]


class TorusG2(_Record):
    """Scaling z -> r z acting on a pair of types at zero and infinity."""

    __slots__ = __match_args__ = ("r",)

    def __init__(self, r: GaussianRational) -> None:
        _set(self, "r", r)
        self.__post_init__()

    def __post_init__(self) -> None:
        _set(self, "r", GaussianRational.of(self.r))
        if not self.r:
            raise MalformedInput("torus element must be nonzero")


def g2_act(
    g: TorusG2, pair: Tuple[IrregularType, IrregularTypeAtInfinity]
) -> Tuple[IrregularType, IrregularTypeAtInfinity]:
    """Weight -j on the pole-at-zero side, weight +j at infinity."""
    at0, atinf = pair
    scaled0 = [
        [c * g.r ** (-j) for c in at0.coefficient(j)] for j in range(1, at0.p + 1)
    ]
    scaledinf = [
        [c * g.r ** j for c in atinf.coefficient(j)] for j in range(1, atinf.p + 1)
    ]
    return (
        IrregularType(at0.rootsystem, at0.p, scaled0),
        IrregularTypeAtInfinity(atinf.rootsystem, atinf.p, scaledinf),
    )


def g2_stabilizer_order(pair: Tuple[IrregularType, IrregularTypeAtInfinity]) -> int:
    """gcd of the union of the two supports; rejects the zero pair."""
    at0, atinf = pair
    combined = sorted(set(at0.support()) | set(atinf.support()))
    if not combined:
        raise ZeroPair("both members of the pair vanish")
    return gcd(*combined) if len(combined) > 1 else combined[0]


def _proportionality(
    first: Sequence[GaussianRational], second: Sequence[GaussianRational]
) -> Optional[GaussianRational]:
    """Scalar c with second = c * first, for nonzero first; None if none."""
    lead = next((i for i, x in enumerate(first) if x), None)
    if lead is None:
        return None
    c = second[lead] / first[lead]
    for x, y in zip(first, second):
        if y != x * c:
            return None
    return c


# Largest power a ratio is raised to while deciding orbit equivalence;
# the size of c ** n grows linearly in n.
ORBIT_EXPONENT_BUDGET = 1024


def _extended_gcd_combination(values: Sequence[int]) -> Tuple[int, List[int]]:
    """(g, n) with sum n_i values_i = g = gcd, iteratively."""
    g = 0
    coeffs: List[int] = []
    for v in values:
        if g == 0:
            g = abs(v)
            coeffs.append(1 if v >= 0 else -1)
            continue
        a, b = _bezout(g, v)
        g = g * a + v * b
        coeffs = [c * a for c in coeffs] + [b]
    return g, coeffs


def _bezout(a: int, b: int) -> Tuple[int, int]:
    """(x, y) with a x + b y = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
        old_y, y = y, old_y - quotient * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def weighted_orbit_equivalent(
    first: Sequence[Sequence[ScalarLike]],
    second: Sequence[Sequence[ScalarLike]],
    weights: Sequence[int],
) -> bool:
    """Whether a single scalar r moves ``first`` to ``second`` weightwise.

    Asks for a complex r with second_j = r^{w_j} first_j for every j.
    Supports must match; each nonzero slot fixes a Gaussian-rational
    ratio c_j, and the existence of r is decided exactly: with g the
    gcd of the support weights, the combination r0 = prod c_j^{n_j}
    over a Bezout combination sum n_j (w_j / g) = 1 is the only
    candidate for r^g, and r exists precisely when r0^{w_j / g} = c_j
    for every j.  The witness r itself may live outside the field.
    Raises ``TooLarge`` when a power needed on the way exceeds
    ``ORBIT_EXPONENT_BUDGET``.
    """
    if len(first) != len(second) or len(first) != len(weights):
        raise ShapeMismatch("coefficient lists and weights must share a length")
    firsts = [tuple(GaussianRational.of(x) for x in vec) for vec in first]
    seconds = [tuple(GaussianRational.of(x) for x in vec) for vec in second]
    for a, b in zip(firsts, seconds):
        if len(a) != len(b):
            raise ShapeMismatch("paired coefficient vectors differ in length")
    ratios: List[Tuple[int, GaussianRational]] = []
    for w, a, b in zip(weights, firsts, seconds):
        a_zero, b_zero = not any(a), not any(b)
        if a_zero != b_zero:
            return False
        if a_zero:
            continue
        c = _proportionality(a, b)
        if c is None or not c:
            return False
        ratios.append((int(w), c))
    for w, c in ratios:
        if w == 0 and c != G_ONE:
            return False
    ratios = [(w, c) for w, c in ratios if w != 0]
    if not ratios:
        return True
    g, coeffs = _extended_gcd_combination([w for w, _ in ratios])
    exponent = max(abs(n) for n in coeffs + [w // g for w, _ in ratios])
    if exponent > ORBIT_EXPONENT_BUDGET:
        raise TooLarge(
            f"orbit test needs the power {exponent}; budget is {ORBIT_EXPONENT_BUDGET}"
        )
    r0 = G_ONE
    for (w, c), n in zip(ratios, coeffs):
        r0 = r0 * c ** n
    return all(r0 ** (w // g) == c for w, c in ratios)


def dm_check(
    genus: int, markings: int, order_vectors: Sequence[RootOrderVector]
) -> Tuple[bool, bool]:
    """Relevance of each marking and the coarse-moduli existence bound.

    Returns ``(relevant, deligne_mumford)`` where the second holds iff
    2 genus - 2 + markings + sum of maximal orders is positive.
    """
    if genus < 0:
        raise OutOfRange("genus must be non-negative")
    if markings < 1 or len(order_vectors) != markings:
        raise ShapeMismatch("need one order vector per marked point")
    relevant = True
    total = 0
    for vec in order_vectors:
        top = vec.max_order()
        total += top
        if not is_relevant(vec.rootsystem, vec.p, vec):
            relevant = False
    return relevant, (2 * genus - 2 + markings + total) > 0


def phi_n(b: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
    """Differences against the first entry of a regular trace-zero tuple.

    Sends (b_1, .., b_{n+1}) with distinct entries and zero sum to
    (b_2 - b_1, .., b_{n+1} - b_1), landing in the configuration space
    of nonzero pairwise-distinct entries.
    """
    vals = [GaussianRational.of(x) for x in b]
    if len(vals) < 2:
        raise NotRegular("need at least two diagonal entries")
    total = G_ZERO
    for v in vals:
        total = total + v
    if total:
        raise NotRegular("entries must sum to zero")
    if len({(v.re, v.im) for v in vals}) != len(vals):
        raise NotRegular("entries must be pairwise distinct")
    first = vals[0]
    return tuple(v - first for v in vals[1:])


def phi_n_inverse(x: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
    """Inverse of ``phi_n``: recenter a configuration to sum zero."""
    vals = [GaussianRational.of(v) for v in x]
    if not vals:
        raise NotInXn("empty configuration")
    if any(not v for v in vals):
        raise NotInXn("configuration entries must be nonzero")
    if len({(v.re, v.im) for v in vals}) != len(vals):
        raise NotInXn("configuration entries must be pairwise distinct")
    n = len(vals)
    total = G_ZERO
    for v in vals:
        total = total + v
    first = -total / GaussianRational.of(n + 1)
    return (first,) + tuple(first + v for v in vals)


def exchange_map(
    regular: Sequence[ScalarLike], configuration: Sequence[ScalarLike]
) -> Tuple[Tuple[GaussianRational, ...], Tuple[GaussianRational, ...]]:
    """(phi_n, phi_m^{-1}) on a (regular tuple, configuration) pair."""
    return phi_n(regular), phi_n_inverse(configuration)


def exchange_map_inverse(
    configuration: Sequence[ScalarLike], regular: Sequence[ScalarLike]
) -> Tuple[Tuple[GaussianRational, ...], Tuple[GaussianRational, ...]]:
    """Inverse of ``exchange_map``."""
    return phi_n_inverse(configuration), phi_n(regular)


class UpperHalfPoint(_Record):
    """Gaussian-rational point with positive imaginary part."""

    __slots__ = __match_args__ = ("tau",)

    def __init__(self, tau: GaussianRational) -> None:
        _set(self, "tau", tau)
        self.__post_init__()

    def __post_init__(self) -> None:
        _set(self, "tau", GaussianRational.of(self.tau))
        if self.tau.im <= 0:
            raise MalformedInput("point must have positive imaginary part")


class SL2ZElement(_Record):
    """Integral matrix [[a, b], [c, d]] with determinant one."""

    __slots__ = __match_args__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        self.__post_init__()

    def __post_init__(self) -> None:
        for x in (self.a, self.b, self.c, self.d):
            if not isinstance(x, int):
                raise MalformedInput("matrix entries must be integers")
        if self.a * self.d - self.b * self.c != 1:
            raise MalformedInput("determinant must be one")

    def compose(self, other: "SL2ZElement") -> "SL2ZElement":
        return SL2ZElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def sl2z_act(
    gamma: SL2ZElement, point: UpperHalfPoint, q: IrregularType
) -> Tuple[UpperHalfPoint, IrregularType]:
    """Mobius move of the modulus with automorphy weights on coefficients.

    tau goes to (a tau + b) / (c tau + d) and A_j is divided by
    (c tau + d)^j, the weight induced by rescaling the elliptic
    coordinate.  Positivity of the imaginary part is preserved.
    """
    tau = point.tau
    denom = GaussianRational.of(gamma.c) * tau + GaussianRational.of(gamma.d)
    new_tau = (GaussianRational.of(gamma.a) * tau + GaussianRational.of(gamma.b)) / denom
    scaled = [
        [x / denom ** j for x in q.coefficient(j)] for j in range(1, q.p + 1)
    ]
    return UpperHalfPoint(new_tau), IrregularType(q.rootsystem, q.p, scaled)


def pair_to_json(pair: Tuple[IrregularType, IrregularTypeAtInfinity]) -> dict:
    at0, atinf = pair
    return {"at0": irregular_type_to_json(at0), "atinf": atinf_to_json(atinf)}


def pair_from_json(data: object) -> Tuple[IrregularType, IrregularTypeAtInfinity]:
    obj = _as_object(data, ("at0", "atinf"), "type pair")
    return irregular_type_from_json(obj["at0"]), atinf_from_json(obj["atinf"])


def g1_to_json(g: AffineG1) -> dict:
    return {"s": g.s.to_json(), "r": g.r.to_json()}


def g1_from_json(data: object) -> AffineG1:
    obj = _as_object(data, ("s", "r"), "affine substitution")
    return AffineG1(GaussianRational.from_json(obj["s"]), GaussianRational.from_json(obj["r"]))


def g2_to_json(g: TorusG2) -> dict:
    return {"r": g.r.to_json()}


def g2_from_json(data: object) -> TorusG2:
    obj = _as_object(data, ("r",), "torus element")
    return TorusG2(GaussianRational.from_json(obj["r"]))


def sl2z_to_json(g: SL2ZElement) -> list:
    return [g.a, g.b, g.c, g.d]


def sl2z_from_json(data: object) -> SL2ZElement:
    arr = _as_list(data, "integral matrix")
    if len(arr) != 4:
        raise MalformedInput("integral matrix must list four entries")
    a, b, c, d = (_as_int(x, "matrix entry") for x in arr)
    return SL2ZElement(a, b, c, d)


def upper_half_to_json(point: UpperHalfPoint) -> dict:
    return {"tau": point.tau.to_json()}


def upper_half_from_json(data: object) -> UpperHalfPoint:
    obj = _as_object(data, ("tau",), "upper half-plane point")
    return UpperHalfPoint(GaussianRational.from_json(obj["tau"]))
