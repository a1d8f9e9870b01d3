"""Formal connection germs: gauge moves, extraction, diagonalization."""

import random
from fractions import Fraction

import pytest

from irrtypes import (
    G_ZERO,
    ConnectionGerm,
    GaugeElement,
    LaurentTail,
    LeadingNotRegular,
    MalformedInput,
    NotAUnit,
    NotSplitOverField,
    OutOfRange,
    PrecisionExhausted,
    ShapeMismatch,
    TooLarge,
    TruncatedSeries,
    Twisted,
    extract_irregular_type,
    gauge_compose,
    gauge_transform,
    gauss,
    gl_cartan_system,
    is_untwisted_in_basis,
    leading_regular_diagonalize,
    verify_framing_invariance,
)
from irrtypes import connections
from irrtypes.connections import gauge_from_json, gauge_to_json, germ_from_json, germ_to_json
from irrtypes.scalars import G_ONE
from linalg_oracles import mat_inverse, mat_mul


def _diag_germ(k, precision, leading, middle=None):
    """Diagonal 2x2 germ with given z^{-(k+1)} leading diagonal."""
    data = {-(k + 1): [[leading[0], gauss(0)], [gauss(0), leading[1]]]}
    if middle:
        data[-k] = [[middle[0], gauss(0)], [gauss(0), middle[1]]]
    return ConnectionGerm.from_order_dict(2, k, precision, data)


class TestGermConstruction:
    def test_window_enforced(self):
        with pytest.raises(MalformedInput):
            ConnectionGerm.from_order_dict(1, 1, 2, {-3: [[gauss(1)]]})
        with pytest.raises(MalformedInput):
            ConnectionGerm.from_order_dict(1, 1, 2, {2: [[gauss(1)]]})

    def test_coefficient_window(self):
        germ = ConnectionGerm.from_order_dict(1, 1, 2, {-2: [[gauss(3)]], 1: [[gauss(7)]]})
        assert germ.coefficient(0, 0, -2) == gauss(3)
        assert germ.coefficient(0, 0, -5) == gauss(0)  # below any pole: exact zero
        assert germ.coefficient(0, 0, 1) == gauss(7)
        with pytest.raises(PrecisionExhausted):
            germ.coefficient(0, 0, 2)

    def test_shape_validation(self):
        with pytest.raises(MalformedInput):
            ConnectionGerm.from_order_dict(2, 1, 2, {-2: [[gauss(1)]]})
        for r, k, n in ((0, 1, 2), (1, -1, 2), (1, 1, 0)):
            with pytest.raises(MalformedInput):
                ConnectionGerm.from_order_dict(r, k, n, {})

    def test_series_pairs_and_order_map_agree(self):
        rng = random.Random(5)
        for _ in range(10):
            r, k, n = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3)
            data = {
                l: [[gauss(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(r)] for _ in range(r)]
                for l in range(-(k + 1), n)
                if rng.random() < 0.7
            }

            def at(i, j, l):
                return data[l][i][j] if l in data else G_ZERO

            pairs = [
                [
                    (
                        LaurentTail(k + 1, [at(i, j, l) for l in range(-(k + 1), 0)]),
                        TruncatedSeries(n, [at(i, j, l) for l in range(n)]),
                    )
                    for j in range(r)
                ]
                for i in range(r)
            ]
            germ = ConnectionGerm(r, k, pairs)
            assert germ == ConnectionGerm.from_order_dict(r, k, n, data)
            assert (germ.r, germ.pole_bound, germ.precision) == (r, k, n)
            for l in range(-(k + 2), n):
                assert germ.coefficient_matrix(l) == [[at(i, j, l) for j in range(r)] for i in range(r)]

    def test_order_map_paths_build_no_series(self, monkeypatch):
        """Germs built from order maps, products and JSON never make series objects."""
        made = []

        def counted(cls):
            original = cls.__post_init__

            def post_init(self):
                made.append(cls.__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", post_init)

        counted(LaurentTail)
        counted(TruncatedSeries)
        germ = _diag_germ(1, 2, (gauss(1), gauss(2)), middle=(gauss(0, 1), gauss(3)))
        g = GaugeElement(2, [[[gauss(1), gauss(1)], [gauss(0), gauss(2)]],
                             [[gauss(0), gauss(1)], [gauss(1), gauss(3)]]])
        moved = gauge_transform(germ, g)
        assert germ_from_json(germ_to_json(moved)) == moved
        leading_regular_diagonalize(moved)
        assert made == []


class TestCartan:
    def test_gl1_has_no_roots(self):
        assert len(gl_cartan_system(1)) == 0

    def test_glr_is_type_a(self):
        system = gl_cartan_system(3)
        assert system.rank == 3
        assert len(system) == 6


class TestExtraction:
    def test_values(self):
        # dz coefficient c_{-(l+1)} on the diagonal becomes -c/l
        germ = _diag_germ(2, 3, (gauss(4), gauss(-6)), middle=(gauss(3), gauss(5)))
        q = extract_irregular_type(germ)
        assert q.p == 2
        assert q.coefficient(2) == (gauss(-2), gauss(3))
        assert q.coefficient(1) == (gauss(-3), gauss(-5))

    def test_residue_discarded(self):
        germ = ConnectionGerm.from_order_dict(
            1, 0, 2, {-1: [[gauss(9)]], 0: [[gauss(1)]]}
        )
        q = extract_irregular_type(germ)
        assert q.p == 0

    def test_twisted_rejected(self):
        data = {-3: [[gauss(1), gauss(1)], [gauss(0), gauss(2)]]}
        germ = ConnectionGerm.from_order_dict(2, 2, 3, data)
        assert not is_untwisted_in_basis(germ)
        with pytest.raises(Twisted):
            extract_irregular_type(germ)

    def test_off_diagonal_residue_is_still_untwisted(self):
        # only z^{-1} off-diagonal entries: no condition there
        data = {-1: [[gauss(0), gauss(5)], [gauss(1), gauss(0)]]}
        germ = ConnectionGerm.from_order_dict(2, 1, 2, data)
        assert is_untwisted_in_basis(germ)


class TestGaugeElement:
    def test_constant_term_must_be_invertible(self):
        with pytest.raises(NotAUnit):
            GaugeElement(2, [[[gauss(1)], [gauss(2)]], [[gauss(2)], [gauss(4)]]])

    def test_singular_outside_input_still_rejected(self):
        singular = [[[gauss(1), gauss(5)], [gauss(2), gauss(0)]], [[gauss(2), gauss(1)], [gauss(4), gauss(1)]]]
        with pytest.raises(NotAUnit):
            GaugeElement(2, singular)
        with pytest.raises(NotAUnit):
            GaugeElement.from_constant([[gauss(0), gauss(0)], [gauss(0), gauss(1)]])
        data = gauge_to_json(GaugeElement.identity(2, 2))
        data["entries"][1][1][0] = {"re": "0", "im": "0"}
        with pytest.raises(NotAUnit):
            gauge_from_json(data)

    def test_compose_does_not_recheck_the_product(self, monkeypatch):
        a = GaugeElement(2, [[[gauss(1), gauss(2)], [gauss(1), gauss(0)]], [[gauss(0), gauss(1)], [gauss(1), gauss(5)]]])
        b = GaugeElement.from_constant([[gauss(2), gauss(1)], [gauss(1), gauss(1)]])
        calls = []
        inverse = connections._gi_mat_inverse

        def counted(*args):
            calls.append(1)
            return inverse(*args)

        monkeypatch.setattr(connections, "_gi_mat_inverse", counted)
        c = gauge_compose(a, b)
        assert calls == []
        # (1 + A1 z) B: constant term A0 B, linear term A1 B
        assert c.entries[0][0] == (gauss(3), gauss(4))
        assert c.entries[1][1] == (gauss(1), gauss(6))
        assert c.order == 2

    def test_entries_view_is_read_only(self):
        g = GaugeElement(1, [[[gauss(1), gauss(2)]]])
        with pytest.raises(AttributeError):
            g.entries = ()
        assert g.entries == (((gauss(1), gauss(2)),),)

    def test_compose_is_polynomial_product(self):
        a = GaugeElement(1, [[[gauss(1), gauss(2)]]])  # 1 + 2z
        b = GaugeElement(1, [[[gauss(1), gauss(3)]]])  # 1 + 3z
        c = gauge_compose(a, b)
        assert c.entries[0][0] == (gauss(1), gauss(5), gauss(6))

    def test_identity_mod_z(self):
        g = GaugeElement(2, [[[gauss(1), gauss(4)], [gauss(0), gauss(1)]],
                             [[gauss(0), gauss(2)], [gauss(1), gauss(0)]]])
        assert g.is_identity_mod_z()
        h = GaugeElement.from_constant([[gauss(2), gauss(0)], [gauss(0), gauss(1)]])
        assert not h.is_identity_mod_z()


class TestGaugeTransform:
    def test_keeps_precision(self):
        germ = _diag_germ(2, 4, (gauss(1), gauss(2)))
        g = GaugeElement(2, [[[gauss(1), gauss(1)], [gauss(0), gauss(2)]],
                            [[gauss(0), gauss(1)], [gauss(1), gauss(3)]]])
        moved = gauge_transform(germ, g)
        assert moved.precision == germ.precision
        assert moved.pole_bound == germ.pole_bound

    def test_composition_law(self):
        rng = random.Random(3)

        def rand_gauge(r, order):
            while True:
                entries = [
                    [
                        [gauss(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(order)]
                        for _ in range(r)
                    ]
                    for _ in range(r)
                ]
                try:
                    return GaugeElement(r, entries)
                except NotAUnit:
                    continue

        def rand_germ(r, k, precision):
            data = {}
            for order in range(-(k + 1), precision):
                data[order] = [
                    [gauss(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(r)]
                    for _ in range(r)
                ]
            return ConnectionGerm.from_order_dict(r, k, precision, data)

        for _ in range(10):
            r = rng.choice([1, 2, 3])
            germ = rand_germ(r, rng.randint(0, 2), rng.randint(2, 4))
            g = rand_gauge(r, rng.randint(1, 3))
            h = rand_gauge(r, rng.randint(1, 3))
            once = gauge_transform(gauge_transform(germ, g), h)
            both = gauge_transform(germ, gauge_compose(h, g))
            assert once == both

    def test_constant_conjugation_matches_matrix_algebra(self):
        germ = _diag_germ(1, 3, (gauss(1), gauss(4)))
        c = [[gauss(1), gauss(1)], [gauss(0), gauss(1)]]
        g = GaugeElement.from_constant(c)
        moved = gauge_transform(germ, g)
        # conjugation by a constant: no derivative term at pole orders
        lead = moved.coefficient_matrix(-2)
        assert lead == [[gauss(1), gauss(3)], [gauss(0), gauss(4)]]

    def test_shape_mismatch(self):
        germ = _diag_germ(1, 2, (gauss(1), gauss(2)))
        with pytest.raises(ShapeMismatch):
            gauge_transform(germ, GaugeElement.identity(3))

    def test_gauge_equation_holds_order_by_order(self):
        """M' g = g M + dg at every known order, checked without the integer kernel."""
        rng = random.Random(41)

        def scalar():
            return gauss(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))

        for _ in range(12):
            r, k, n, order = rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 4), rng.randint(1, 3)
            data = {l: [[scalar() for _ in range(r)] for _ in range(r)] for l in range(-(k + 1), n)}
            germ = ConnectionGerm.from_order_dict(r, k, n, data)
            while True:
                try:
                    g = GaugeElement(r, [[[scalar() for _ in range(order)] for _ in range(r)] for _ in range(r)])
                    break
                except NotAUnit:
                    continue
            moved = gauge_transform(germ, g)

            def g_at(l):
                if not 0 <= l < order:
                    return [[G_ZERO] * r for _ in range(r)]
                return [[g.entries[i][j][l] for j in range(r)] for i in range(r)]

            def add(x, y):
                return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(x, y)]

            for l in range(-(k + 1), n):
                lhs = [[G_ZERO] * r for _ in range(r)]
                rhs = [[c * (l + 1) for c in row] for row in g_at(l + 1)]
                for a in range(order):
                    lhs = add(lhs, mat_mul(moved.coefficient_matrix(l - a), g_at(a)))
                    rhs = add(rhs, mat_mul(g_at(a), germ.coefficient_matrix(l - a)))
                assert lhs == rhs, (r, k, n, order, l)

    def test_work_budget_refuses_before_the_products(self, monkeypatch):
        germ = _diag_germ(2, 3, (gauss(1), gauss(2)))
        g = GaugeElement.from_constant([[gauss(1), gauss(1)], [gauss(0), gauss(1)]])
        monkeypatch.setattr(connections, "GERM_WORK_BUDGET", 10)
        with pytest.raises(TooLarge):
            gauge_transform(germ, g)


class TestFramingInvariance:
    def test_id_mod_z_required(self):
        germ = _diag_germ(1, 3, (gauss(1), gauss(2)))
        bad = GaugeElement.from_constant([[gauss(2), gauss(0)], [gauss(0), gauss(1)]])
        with pytest.raises(MalformedInput):
            verify_framing_invariance(germ, bad)

    def test_block_preserving_changes(self):
        """Framings differing by Id mod z leave the extracted type unchanged.

        Principal coefficients are scalar on each block of a partition
        and the gauge is block-diagonal, so it commutes with the whole
        principal part and both presentations stay untwisted.
        """
        rng = random.Random(17)
        for _ in range(20):
            r = rng.choice([2, 3])
            k = rng.randint(1, 3)
            precision = k + rng.randint(1, 2)
            blocks = []
            left = r
            while left:
                size = rng.randint(1, left)
                blocks.append(size)
                left -= size
            owner = []
            for b, size in enumerate(blocks):
                owner.extend([b] * size)
            data = {}
            for order in range(-(k + 1), 0):
                scalars = [gauss(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in blocks]
                data[order] = [
                    [scalars[owner[i]] if i == j else gauss(0) for j in range(r)]
                    for i in range(r)
                ]
            for order in range(0, precision):
                data[order] = [
                    [gauss(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)
                ]
            germ = ConnectionGerm.from_order_dict(r, k, precision, data)
            assert is_untwisted_in_basis(germ)
            entries = [
                [
                    [gauss(1 if i == j else 0)]
                    + [
                        gauss(rng.randint(-2, 2), rng.randint(-1, 1))
                        if owner[i] == owner[j]
                        else gauss(0)
                        for _ in range(k)
                    ]
                    for j in range(r)
                ]
                for i in range(r)
            ]
            g = GaugeElement(r, entries)
            assert verify_framing_invariance(germ, g)

    def test_diagonal_principal_part_with_diagonal_mix(self):
        germ = _diag_germ(2, 4, (gauss(2), gauss(-1)), middle=(gauss(1), gauss(1)))
        entries = [
            [[gauss(1), gauss(3), gauss(-2)], [gauss(0), gauss(0), gauss(0)]],
            [[gauss(0), gauss(0), gauss(0)], [gauss(1), gauss(-1), gauss(7)]],
        ]
        g = GaugeElement(2, entries)
        assert verify_framing_invariance(germ, g)


class TestDiagonalize:
    def test_already_diagonal_distinct(self):
        germ = _diag_germ(2, 3, (gauss(1), gauss(2)))
        g, moved = leading_regular_diagonalize(germ)
        assert g.is_identity_mod_z()
        assert moved == germ

    def test_repeated_leading_rejected(self):
        germ = _diag_germ(2, 3, (gauss(1), gauss(1)))
        with pytest.raises(LeadingNotRegular):
            leading_regular_diagonalize(germ)

    def test_irrational_spectrum_rejected(self):
        # leading [[0, 2], [1, 0]] has eigenvalues +- sqrt(2)
        data = {-3: [[gauss(0), gauss(2)], [gauss(1), gauss(0)]]}
        germ = ConnectionGerm.from_order_dict(2, 2, 3, data)
        with pytest.raises(NotSplitOverField):
            leading_regular_diagonalize(germ)

    def test_gaussian_spectrum_accepted(self):
        # leading [[0, -1], [1, 0]] has eigenvalues +- i
        data = {-3: [[gauss(0), gauss(-1)], [gauss(1), gauss(0)]]}
        germ = ConnectionGerm.from_order_dict(2, 2, 3, data)
        g, moved = leading_regular_diagonalize(germ)
        assert is_untwisted_in_basis(moved)
        lead = moved.coefficient_matrix(-3)
        assert {lead[0][0], lead[1][1]} == {gauss(0, 1), gauss(0, -1)}

    def test_precision_guard(self):
        germ = _diag_germ(3, 2, (gauss(1), gauss(2)))
        with pytest.raises(PrecisionExhausted):
            leading_regular_diagonalize(germ)

    def test_regular_singular_guard(self):
        germ = ConnectionGerm.from_order_dict(1, 0, 2, {-1: [[gauss(1)]]})
        with pytest.raises(OutOfRange):
            leading_regular_diagonalize(germ)

    def test_scramble_round_trip(self):
        """Conjugating a diagonal germ and re-diagonalizing recovers its type."""
        rng = random.Random(29)
        done = 0
        while done < 15:
            r = rng.choice([2, 3])
            k = rng.randint(1, 3)
            precision = k + rng.randint(0, 2)
            # distinct Gaussian rational leading entries
            leads = set()
            while len(leads) < r:
                leads.add((rng.randint(-6, 6), rng.randint(-2, 2)))
            leading = [gauss(a, b) for a, b in sorted(leads)]
            data = {-(k + 1): [[leading[i] if i == j else gauss(0) for j in range(r)] for i in range(r)]}
            for order in range(-k, precision):
                data[order] = [
                    [gauss(rng.randint(-2, 2)) if i == j else gauss(0) for j in range(r)]
                    for i in range(r)
                ]
            germ = ConnectionGerm.from_order_dict(r, k, precision, data)
            q0 = extract_irregular_type(germ)
            # scramble by a random invertible polynomial gauge
            while True:
                entries = [
                    [
                        [gauss(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(k + 1)]
                        for _ in range(r)
                    ]
                    for _ in range(r)
                ]
                try:
                    g = GaugeElement(r, entries)
                    break
                except NotAUnit:
                    continue
            moved = gauge_transform(germ, g)
            try:
                _, diag = leading_regular_diagonalize(moved)
            except LeadingNotRegular:
                continue
            q1 = extract_irregular_type(diag)
            # same multiset of diagonal evolutions, up to coordinate order
            key = lambda col: tuple((c.re, c.im) for c in col)
            cols0 = sorted(
                (
                    tuple(q0.coefficient(j)[i] for j in range(1, q0.p + 1))
                    for i in range(r)
                ),
                key=key,
            )
            cols1 = sorted(
                (
                    tuple(q1.coefficient(j)[i] for j in range(1, q1.p + 1))
                    for i in range(r)
                ),
                key=key,
            )
            assert cols0 == cols1
            done += 1


def _conjugated(rng, block):
    """P block P^{-1} for a random invertible P with small Gaussian entries."""
    r = len(block)
    while True:
        p = [[gauss(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(r)] for _ in range(r)]
        try:
            return mat_mul(mat_mul(p, block), mat_inverse(p, G_ONE, G_ZERO))
        except NotAUnit:
            continue


def _sympy_spectrum(matrix):
    """Sorted Q(i) eigenvalues, or the error name, from sympy's factorization over QQ_I."""
    sympy = pytest.importorskip("sympy")

    def sym(x):
        return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
            x.im.numerator, x.im.denominator
        )

    lam = sympy.Symbol("lam")
    charpoly = sympy.Matrix([[sym(x) for x in row] for row in matrix]).charpoly(lam).as_expr()
    _, factors = sympy.Poly(charpoly, lam, domain="QQ_I").factor_list()
    if any(e > 1 for _, e in factors):
        return "LeadingNotRegular"
    if any(f.degree() > 1 for f, _ in factors):
        return "NotSplitOverField"
    roots = []
    for f, _ in factors:
        a, b = f.all_coeffs()
        re, im = sympy.expand(-b / a).as_real_imag()
        roots.append(gauss(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))))
    return sorted(roots, key=lambda v: (v.re, v.im))


def _spectrum(matrix):
    try:
        return connections._qi_eigenvalues(matrix, connections._Work())
    except (LeadingNotRegular, NotSplitOverField) as err:
        return type(err).__name__


class TestQiEigenvalues:
    def test_matches_sympy_factorization(self):
        """Planted split, repeated and non-split spectra, some with 300-digit entries."""
        rng = random.Random(7)
        kinds = ["split", "repeated", "nonsplit", "random"]
        for trial in range(32):
            r = rng.randint(2, 4)
            kind = kinds[trial % 4]
            digits = 300 if trial % 8 < 3 else 2
            if kind == "random":
                matrix = [[gauss(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(r)] for _ in range(r)]
            else:
                big = 10**digits
                spectrum = [
                    gauss(Fraction(rng.randint(-big, big), rng.randint(1, 4)), rng.randint(-big, big))
                    for _ in range(r)
                ]
                block = [[spectrum[i] if i == j else G_ZERO for j in range(r)] for i in range(r)]
                if kind == "repeated":
                    block[1][1] = block[0][0]
                if kind == "nonsplit":
                    # [[0, -2], [1, 0]] has eigenvalues +- i sqrt(2)
                    block[0][0], block[0][1], block[1][0], block[1][1] = G_ZERO, gauss(-2), gauss(1), G_ZERO
                matrix = _conjugated(rng, block)
            assert _spectrum(matrix) == _sympy_spectrum(matrix), (trial, kind)

    @pytest.mark.parametrize(
        "diagonal, companions",
        [
            ([1, 1], [2]),  # (x - 1)^2 (x^2 + 2)
            ([], [2, 3, 3]),  # (x^2 + 2) (x^2 + 3)^2: sympy lists x^2 + 2 first
        ],
    )
    def test_repeated_eigenvalue_wins_over_non_split_factor(self, diagonal, companions):
        n = len(diagonal) + 2 * len(companions)
        block = [[G_ZERO] * n for _ in range(n)]
        for i, value in enumerate(diagonal):
            block[i][i] = gauss(value)
        for t, a in enumerate(companions):
            i = len(diagonal) + 2 * t
            block[i][i + 1], block[i + 1][i] = gauss(-a), gauss(1)  # x^2 + a
        matrix = _conjugated(random.Random(3), block)
        with pytest.raises(LeadingNotRegular):
            connections._qi_eigenvalues(matrix, connections._Work())

    def test_hensel_bounds(self, monkeypatch):
        split = _conjugated(random.Random(5), [[gauss(1), G_ZERO], [G_ZERO, gauss(0, 2)]])
        huge = [[gauss(2**40000), G_ZERO], [gauss(1), gauss(3)]]
        with pytest.raises(TooLarge):
            connections._qi_eigenvalues(huge, connections._Work())
        monkeypatch.setattr(connections, "HENSEL_PRIME_BUDGET", 0)
        with pytest.raises(TooLarge):
            connections._qi_eigenvalues(split, connections._Work())
