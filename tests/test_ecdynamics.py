import itertools
import random

import numpy as np
import pytest

from conftest import (brute_orbit_structure, ec_brute_census, ec_brute_points, ec_sweep_order,
                      trial_primes_between)
from expcycles import dynamics, ecdynamics
from expcycles.dynamics import FunctionalGraphSummary, MemoryBudgetError
from expcycles.modarith import is_prime, primitive_root

F5_CURVE = ecdynamics.CurveParams(5, 1, 1)  # y^2 = x^3 + x + 1 over F_5
F5_AFFINE = [(0, 1), (0, 4), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)]


class TestCurveParams:
    def test_reduces_coefficients(self):
        curve = ecdynamics.CurveParams(5, 6, 11)
        assert (curve.a, curve.b) == (1, 1)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            ecdynamics.CurveParams(5, 0, 0)
        with pytest.raises(ValueError):
            ecdynamics.CurveParams(7, 0, 7)  # y^2 = x^3

    def test_rejects_tiny_or_composite_modulus(self):
        with pytest.raises(ValueError):
            ecdynamics.CurveParams(3, 1, 1)
        with pytest.raises(ValueError):
            ecdynamics.CurveParams(9, 1, 1)


class TestGroupLaw:
    def test_affine_points_enumerated(self):
        assert sorted(ec_brute_points(5, 1, 1)) == sorted(F5_AFFINE)
        for point in F5_AFFINE:
            assert ecdynamics.is_on_curve(F5_CURVE, point)

    def test_neutral_element(self):
        for point in F5_AFFINE:
            assert ecdynamics.point_add(F5_CURVE, point, None) == point
            assert ecdynamics.point_add(F5_CURVE, None, point) == point
        assert ecdynamics.point_add(F5_CURVE, None, None) is None

    def test_negation_pair(self):
        assert ecdynamics.point_add(F5_CURVE, (0, 1), (0, 4)) is None
        for point in F5_AFFINE:
            neg = ecdynamics.point_neg(F5_CURVE, point)
            assert ecdynamics.point_add(F5_CURVE, point, neg) is None

    def test_doubling_stays_on_curve(self):
        doubled = ecdynamics.point_add(F5_CURVE, (0, 1), (0, 1))
        assert doubled is not None
        assert ecdynamics.is_on_curve(F5_CURVE, doubled)

    def test_closure_and_commutativity_exhaustive(self):
        points = [None] + F5_AFFINE
        for pt1, pt2 in itertools.product(points, repeat=2):
            left = ecdynamics.point_add(F5_CURVE, pt1, pt2)
            assert ecdynamics.is_on_curve(F5_CURVE, left)
            assert left == ecdynamics.point_add(F5_CURVE, pt2, pt1)

    def test_associativity_exhaustive_f5(self):
        points = [None] + F5_AFFINE
        add = lambda a, b: ecdynamics.point_add(F5_CURVE, a, b)
        for pt1, pt2, pt3 in itertools.product(points, repeat=3):
            assert add(add(pt1, pt2), pt3) == add(pt1, add(pt2, pt3))

    def test_associativity_sampled_random_curves(self):
        rng = random.Random(40)
        pool = trial_primes_between(5, 300)
        for _ in range(10):
            p = rng.choice(pool)
            curve, points = _random_curve(rng, p)
            for _ in range(30):
                pts = [rng.choice(points) for _ in range(3)]
                add = lambda a, b: ecdynamics.point_add(curve, a, b)
                assert add(add(pts[0], pts[1]), pts[2]) == add(pts[0], add(pts[1], pts[2]))


def _random_curve(rng, p):
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a * a * a + 27 * b * b) % p:
            curve = ecdynamics.CurveParams(p, a, b)
            return curve, [None] + ec_brute_points(p, a, b)


class TestScalarMul:
    def test_zero_and_one(self):
        assert ecdynamics.scalar_mul(F5_CURVE, 0, (0, 1)) is None
        assert ecdynamics.scalar_mul(F5_CURVE, 1, (0, 1)) == (0, 1)

    def test_group_order_annihilates(self):
        for point in F5_AFFINE:
            assert ecdynamics.scalar_mul(F5_CURVE, 9, point) is None

    def test_matches_repeated_addition(self):
        acc = None
        for k in range(0, 12):
            assert ecdynamics.scalar_mul(F5_CURVE, k, (0, 1)) == acc
            acc = ecdynamics.point_add(F5_CURVE, acc, (0, 1))

    def test_order_annihilates_small_curves_exhaustive(self):
        rng = random.Random(41)
        for p in trial_primes_between(5, 199):
            curve, points = _random_curve(rng, p)
            n = ecdynamics.curve_order(curve)
            assert n == len(points)
            for point in points:
                assert ecdynamics.scalar_mul(curve, n, point) is None

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            ecdynamics.scalar_mul(F5_CURVE, -1, (0, 1))


class TestCurveOrder:
    def test_f5_curves(self):
        assert ecdynamics.curve_order(F5_CURVE) == 9
        assert ecdynamics.curve_order(ecdynamics.CurveParams(5, 0, 1)) == 6

    def test_matches_double_loop(self):
        assert ecdynamics.curve_order(ecdynamics.CurveParams(97, 3, 8)) == 1 + len(
            ec_brute_points(97, 3, 8)
        )
        rng = random.Random(42)
        for _ in range(20):
            p = rng.choice(trial_primes_between(5, 97))
            curve, points = _random_curve(rng, p)
            assert ecdynamics.curve_order(curve) == len(points)

    def test_matches_double_loop_a_or_b_zero(self):
        # b = 0 puts the point (0, 0) of order 2 on the curve; a = 0 puts the
        # points (0, +-sqrt(b)) of order 3 on it
        for p in trial_primes_between(5, 61):
            for a, b in [(0, 1), (0, 2), (0, p - 1), (1, 0), (2, 0), (p - 1, 0)]:
                if (4 * a**3 + 27 * b**2) % p:
                    curve = ecdynamics.CurveParams(p, a, b)
                    assert ecdynamics.curve_order(curve) == 1 + len(ec_brute_points(p, a, b)), (
                        p, a, b)

    def test_hasse_window(self):
        rng = random.Random(43)
        pool = trial_primes_between(5, 2000)
        for _ in range(30):
            p = rng.choice(pool)
            curve, _ = _random_curve_no_points(rng, p)
            assert ecdynamics.hasse_ok(p, ecdynamics.curve_order(curve))

    def test_every_curve_up_to_47(self):
        for p in trial_primes_between(5, 47):
            for a, b in itertools.product(range(p), repeat=2):
                if (4 * a**3 + 27 * b**2) % p:
                    n = ecdynamics.curve_order(ecdynamics.CurveParams(p, a, b))
                    assert n == ec_sweep_order(p, a, b), (p, a, b)

    def test_seeded_and_j0_j1728_curves_53_to_2003(self):
        # a = 0 (j = 0) and b = 0 (j = 1728) hold the supersingular curves,
        # N = p + 1, for p = 2 mod 3 and p = 3 mod 4. Scaling b by a sixth
        # power (a by a fourth power) gives an isomorphic curve, so the powers
        # g^0..g^5 (g^0..g^3) of a primitive root reach every class of both
        # families. The walk of curve_order starts at p = 233
        rng = random.Random(49)
        walked, supersingular = 0, 0
        for p in trial_primes_between(53, 2003):
            g = primitive_root(p)
            curves = [(0, pow(g, i, p)) for i in range(6)] + [(pow(g, i, p), 0) for i in range(4)]
            while len(curves) < 14:
                a, b = rng.randrange(p), rng.randrange(p)
                if (4 * a**3 + 27 * b**2) % p:
                    curves.append((a, b))
            for a, b in curves:
                n = ecdynamics.curve_order(ecdynamics.CurveParams(p, a, b))
                assert n == ec_sweep_order(p, a, b), (p, a, b)
                supersingular += n == p + 1 and a * b == 0
            walked += p > ecdynamics._LEGENDRE_MAX_P
        # 6 supersingular curves for each p = 2 mod 3, 4 for each p = 3 mod 4
        assert walked == 254 and supersingular >= 1474

    def test_above_old_int64_limit(self):
        # too large for the sweep oracle: N annihilates points of E, and
        # 2p + 2 - N points of the twist
        p = dynamics._NUMPY_MOD_LIMIT + 1
        while not is_prime(p):
            p += 1
        assert p % 4 == 3  # square roots are powers
        curve = ecdynamics.CurveParams(p, 2, 3)
        n = ecdynamics.curve_order(curve)
        assert ecdynamics.hasse_ok(p, n)
        on_curve = on_twist = 0
        for x in range(1, 40):
            r = (x**3 + 2 * x + 3) % p
            if pow(r, (p - 1) // 2, p) == 1:
                point = (x, pow(r, (p + 1) // 4, p))
                assert ecdynamics.is_on_curve(curve, point)
                assert ecdynamics.scalar_mul(curve, n, point) is None, x
                on_curve += 1
            else:  # (rx, r^2) lies on y^2 = x^3 + 2r^2 x + 3r^3, the twist for a non-square r
                twist = ecdynamics.CurveParams(p, 2 * r * r, 3 * r**3)
                point = (r * x % p, r * r % p)
                assert ecdynamics.scalar_mul(twist, 2 * p + 2 - n, point) is None, x
                on_twist += 1
        assert on_curve >= 5 and on_twist >= 5


def _point_order(curve, point, n):
    return next(d for d in range(1, n + 1) if n % d == 0
                and ecdynamics.scalar_mul(curve, d, point) is None)


def _random_curve_no_points(rng, p):
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a * a * a + 27 * b * b) % p:
            return ecdynamics.CurveParams(p, a, b), None


def _largest_int64_exact_prime():
    p = dynamics._NUMPY_MOD_LIMIT
    while not is_prime(p):
        p -= 1
    return p


class TestBatchInverse:
    # a level of odd length is padded with 1: only the leaves for 3, 7 and
    # _CHUNK - 1 (the chunk is a power of two), deeper levels too for 5 and
    # 2**14 + 1 (every level); _CHUNK, the longest a chunk gets, never
    @pytest.mark.parametrize("p", [5, 7, 2000003, _largest_int64_exact_prime()])
    def test_matches_scalar_inverse(self, p):
        rng = np.random.default_rng(p % 1000)
        chunk = dynamics._CHUNK
        tree = dynamics._work().tree
        for length in (1, 2, 3, 5, 7, 2**14 + 1, chunk - 1, chunk):
            assert length <= chunk
            d = rng.integers(1, p, size=length, dtype=np.int64)
            d[::3] -= p  # _add_block leaves its differences in (-p, p)
            tree[:length] = d
            ecdynamics._batch_inverse(tree, length, p)
            assert tree[:length].tolist() == [pow(v, -1, p) for v in d.tolist()], (p, length)


class TestECExpMap:
    def test_construction(self):
        m = ecdynamics.ECExpMap(F5_CURVE, (0, 1))
        assert m.n == 9

    def test_rejects_infinity_base(self):
        with pytest.raises(ValueError):
            ecdynamics.ECExpMap(F5_CURVE, None)

    def test_rejects_off_curve_base(self):
        with pytest.raises(ValueError):
            ecdynamics.ECExpMap(F5_CURVE, (1, 1))

    def test_rejects_wrong_supplied_order(self):
        with pytest.raises(ValueError):
            ecdynamics.ECExpMap(F5_CURVE, (0, 1), n=8)


class TestECApply:
    def test_zero_maps_to_zero(self):
        m = ecdynamics.ECExpMap(F5_CURVE, (0, 1))
        assert ecdynamics.ec_apply(m, 0) == 0

    def test_x_coordinate_values(self):
        m = ecdynamics.ECExpMap(F5_CURVE, (0, 1))
        assert ecdynamics.ec_apply(m, 1) == 0  # x((0,1)) = 0
        m2 = ecdynamics.ECExpMap(F5_CURVE, (2, 1))
        assert ecdynamics.ec_apply(m2, 1) == 2

    def test_domain_enforced(self):
        m = ecdynamics.ECExpMap(F5_CURVE, (0, 1))
        with pytest.raises(ValueError):
            ecdynamics.ec_apply(m, 9)
        with pytest.raises(ValueError):
            ecdynamics.ec_apply(m, -1)

    def test_table_matches_pointwise_apply(self):
        # every base point on curves with p = 1 and 3 mod 4, N odd and even,
        # including N prime (13, 0, 2) and p = N (97, 1, 1), 2-torsion bases
        # with y = 0 and bases of order below N, whose doubling blocks add
        # Q = O and P = +-Q
        curves = [(5, 1, 1), (7, 0, 1), (11, 3, 3), (13, 0, 1), (13, 0, 2),
                  (97, 1, 1), (97, 2, 3), (101, 1, 1), (103, 0, 3), (103, 2, 3)]
        residues, parities, two_torsion, proper_order = set(), set(), 0, 0
        for p, a, b in curves:
            curve = ecdynamics.CurveParams(p, a, b)
            n = ecdynamics.curve_order(curve)
            for base in ec_brute_points(p, a, b):
                m = ecdynamics.ECExpMap(curve, base, n=n)
                table = ecdynamics.ec_table(m).tolist()
                assert table == [ecdynamics.ec_apply(m, u) for u in range(n)], (p, a, b, base)
                assert all(table[u] == table[n - u] for u in range(1, n))
                residues.add(p % 4)
                parities.add(n % 2)
                two_torsion += base[1] == 0
                proper_order += _point_order(curve, base, n) < n
        assert residues == {1, 3} and parities == {0, 1}
        assert two_torsion > 0 and proper_order > 0

    @pytest.mark.parametrize("a, b, base, order", [(1, 1, (999, 0), 2), (1, 2, (435, 218), 3)])
    def test_half_table_small_order_base(self, monkeypatch, a, b, base, order):
        # every block lane is P = O or P = +-Q; small chunks make many blocks
        curve = ecdynamics.CurveParams(1009, a, b)
        m = ecdynamics.ECExpMap(curve, base)
        assert _point_order(curve, base, m.n) == order
        monkeypatch.setattr(ecdynamics, "_CHUNK", 61)
        half = ecdynamics._x_half(m).tolist()
        assert half == [ecdynamics.ec_apply(m, u) for u in range(m.n // 2 + 1)]

    def test_table_matches_apply_at_benchmark_size(self):
        m = ecdynamics.ECExpMap(ecdynamics.CurveParams(2000003, 2, 3), (0, 919159))
        table = ecdynamics.ec_table(m)
        assert table.dtype == np.int32
        rng = random.Random(47)
        for u in [0, 1, 2, m.n - 1] + rng.sample(range(m.n), 2000):
            assert table[u] == ecdynamics.ec_apply(m, u), u

    def test_table_refused_above_int64_limit(self, monkeypatch):
        # the table's int64 products would overflow above the limit
        m = ecdynamics.ECExpMap(ecdynamics.CurveParams(97, 3, 8), (1, 20), n=112)
        monkeypatch.setattr(dynamics, "_NUMPY_MOD_LIMIT", 96)
        with pytest.raises(MemoryBudgetError, match="int64"):
            ecdynamics.ec_table(m)


class TestECCensus:
    def test_f5_census_against_enumeration(self):
        m = ecdynamics.ECExpMap(F5_CURVE, (0, 1))
        census = ecdynamics.ec_census(m, 3)
        n_div, n_least = ec_brute_census(ecdynamics.ec_table(m), 9, 3)
        assert list(census.n_dividing) == n_div == [0, 0, 0, 3]
        assert list(census.n_least_period) == n_least

    def test_against_brute_census(self):
        # F5 with G = (0, 1) has x(G) = 0: the orbit of u = 1 falls into the 0 sink
        sink = ecdynamics.ECExpMap(F5_CURVE, (0, 1))
        assert ecdynamics.ec_table(sink)[1] == 0
        maps = [sink]
        rng = random.Random(46)
        for _ in range(20):
            curve, points = _random_curve(rng, rng.choice(trial_primes_between(5, 300)))
            maps.append(ecdynamics.ECExpMap(curve, rng.choice(points[1:])))
        for m in maps:
            table = ecdynamics.ec_table(m).tolist()
            for k_max in range(1, 13):
                census = ecdynamics.ec_census(m, k_max)
                n_div, n_least = ec_brute_census(table, m.n, k_max)
                assert list(census.n_dividing) == n_div, (m, k_max)
                assert list(census.n_least_period) == n_least, (m, k_max)

    def test_folded_census_equals_full_table_census(self):
        # ec_census folds {v, N-v} together; _census_from_table on the full
        # mirrored table is the unfolded count. N odd and even (v = N/2 is
        # its own mirror), bases of order at most 6 (x = 0 at every multiple
        # of the order) and N around 256, where the half table's last
        # doubling block is one lane short of full, full, or one lane long
        rng = random.Random(48)
        maps = []
        for _ in range(20):
            curve, points = _random_curve(rng, rng.choice(trial_primes_between(5, 300)))
            maps.append(ecdynamics.ECExpMap(curve, rng.choice(points[1:])))
        small_order = 0
        for p in (7, 13, 31, 61, 97, 101, 103):
            curve, points = _random_curve(rng, p)
            n = len(points)
            for base in points[1:]:
                if _point_order(curve, base, n) <= 6:
                    maps.append(ecdynamics.ECExpMap(curve, base, n=n))
                    small_order += 1
        edge = 256
        sizes = {}
        for p in trial_primes_between(edge - 30, edge + 30):
            for a, b in itertools.product(range(4), range(1, 6)):
                if (4 * a**3 + 27 * b**2) % p:
                    curve = ecdynamics.CurveParams(p, a, b)
                    n = ecdynamics.curve_order(curve)
                    if abs(n - edge) <= 3 and n not in sizes:
                        base = max(ec_brute_points(p, a, b),
                                   key=lambda pt: _point_order(curve, pt, n))
                        sizes[n] = ecdynamics.ECExpMap(curve, base, n=n)
        assert sorted(sizes) == list(range(edge - 3, edge + 4)) and small_order > 0
        for m in sizes.values():
            table = ecdynamics.ec_table(m).tolist()
            assert table == [ecdynamics.ec_apply(m, u) for u in range(m.n)], m
        maps += sizes.values()
        assert {m.n % 2 for m in maps} == {0, 1}
        for m in maps:
            table = ecdynamics.ec_table(m)
            for k_max in range(1, 9):
                full = dynamics._census_from_table(table, k_max, 1)
                assert ecdynamics.ec_census(m, k_max) == full, (m, k_max)

    def test_divisor_monotonicity(self):
        rng = random.Random(44)
        for _ in range(15):
            p = rng.choice(trial_primes_between(5, 300))
            curve, points = _random_curve(rng, p)
            base = rng.choice(points[1:])
            m = ecdynamics.ECExpMap(curve, base)
            census = ecdynamics.ec_census(m, 6)
            for k in range(1, 7):
                for d in range(1, k):
                    if k % d == 0:
                        assert census.n_dividing[d] <= census.n_dividing[k]

    def test_graph_route_agrees_with_naive(self):
        rng = random.Random(45)
        for _ in range(20):
            p = rng.choice(trial_primes_between(5, 300))
            curve, points = _random_curve(rng, p)
            base = rng.choice(points[1:])
            m = ecdynamics.ECExpMap(curve, base)
            naive = ecdynamics.ec_census(m, 5)
            _, derived = ecdynamics.ec_census_graph(m, 5)
            assert naive == derived, (p, curve.a, curve.b, base)

    def test_graph_summary_against_brute_walk(self):
        # y^2 = x^3 + 2x + 3 over F_101: 96 points, cycles (1, 1, 1, 2, 3, 3, 4), tail 8
        m = ecdynamics.ECExpMap(ecdynamics.CurveParams(101, 2, 3), (1, 39))
        table = [ecdynamics.ec_apply(m, u) for u in range(m.n)]
        cycles, max_tail = brute_orbit_structure(table, range(m.n))
        summary, census = ecdynamics.ec_census_graph(m, 4)
        assert summary == FunctionalGraphSummary(
            component_count=len(cycles),
            cyclic_point_count=sum(cycles),
            cycle_length_multiset=tuple(cycles),
            max_tail_length=max_tail,
            is_permutation=len(set(table)) == m.n,
        )
        assert max_tail > 0 and len(cycles) > 1
        n_div, n_least = ec_brute_census(table, m.n, 4)
        assert list(census.n_dividing) == n_div
        assert list(census.n_least_period) == n_least
        for k_max in (0, -2):  # refused as by ec_census and census_graph
            for census_route in (ecdynamics.ec_census, ecdynamics.ec_census_graph):
                with pytest.raises(ValueError, match="k_max must be >= 1"):
                    census_route(m, k_max)
