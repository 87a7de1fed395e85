import math
import random
import re
from fractions import Fraction

import pytest

from conftest import brute_thm3_holds, trial_primes_between
from expcycles import bounds, dynamics


class TestThm1Bound:
    def test_values(self):
        assert bounds.thm1_bound(11) == pytest.approx(math.sqrt(22) + 0.5)
        assert bounds.thm1_bound(2) == pytest.approx(2.5)
        assert bounds.thm1_bound(9973) == pytest.approx(math.sqrt(19946) + 0.5)

    def test_applicability_threshold(self):
        assert bounds.THM1_MIN_P == 11

    def test_exact_form_matches_float_comparison(self):
        rng = random.Random(20)
        for _ in range(500):
            p = rng.randint(3, 10**6)
            n1 = rng.randint(0, 2000)
            # float comparison is safe away from exact ties; the integer
            # form must agree there
            lhs, rhs = n1, bounds.thm1_bound(p)
            if abs(lhs - rhs) > 1e-6:
                assert bounds.thm1_holds(p, n1) == (lhs <= rhs)


class TestThm2Bound:
    def test_golden_11_2(self):
        assert bounds.thm2_bound_explicit(11, 2) == (2, 45)  # 11 + 2 + 32

    def test_z_is_one_when_cube_reaches_p(self):
        # g**3 >= p forces z = 1 and bound 2p + 2 + 2g**2
        for p, g in [(7, 2), (11, 3), (97, 5)]:
            assert g**3 >= p
            assert bounds.thm2_bound_explicit(p, g) == (1, 2 * p + 2 + 2 * g * g)

    def test_golden_99991_3(self):
        # independent big-integer evaluation of every term
        z, value = bounds.thm2_bound_explicit(99991, 3)
        assert z == 4
        assert value == math.ceil(2 * 99991 / 4) + 2 + 2 * 3**8 == 63120

    def test_z_matches_float_ceiling_on_primes(self):
        # p prime is never a perfect power of g, so the float route has no ties
        rng = random.Random(21)
        pool = trial_primes_between(3, 10**5)
        for _ in range(300):
            p = rng.choice(pool)
            g = rng.randint(2, 50)
            z = bounds.thm2_z(p, g)
            assert z == math.ceil(math.log(p) / (3 * math.log(g)))
            assert g ** (3 * z) >= p
            assert z == 1 or g ** (3 * (z - 1)) < p

    def test_g_one_rejected(self):
        with pytest.raises(ValueError):
            bounds.thm2_z(97, 1)


class TestThm3Bound:
    def test_golden(self):
        assert bounds.thm3_bound(11, 2) == Fraction(17)  # (33 + 32 + 3) / 4
        assert bounds.thm3_bound(101, 3) == Fraction(2494, 4) == Fraction(1247, 2)

    def test_base_one(self):
        for p in (5, 11, 101):
            assert bounds.thm3_bound(p, 1) == Fraction(3 * p + 3, 4)

    def test_exactness_for_large_g(self):
        # g = 11 already needs 11**23, far beyond 64 bits
        value = bounds.thm3_bound(13, 11)
        assert value == Fraction(3 * 13 + 11**23 + 12, 4)


class TestVerify:
    def test_golden_11_2(self):
        report = bounds.verify(dynamics.ExpMap(11, 2))
        assert (report.n1, report.n2, report.n3) == (1, 5, 1)
        assert report.thm1_applicable and report.thm1_ok
        assert report.thm2_ok and report.thm2_value == 45
        assert report.thm3_ok and report.thm3_value == "17"
        assert not report.violated

    def test_small_p_inapplicable(self):
        report = bounds.verify(dynamics.ExpMap(7, 3))
        assert not report.thm1_applicable
        assert (report.n1, report.n2, report.n3) == (3, 3, 6)
        assert any("thm1" in note for note in report.notes)

    def test_base_one_degenerate(self):
        report = bounds.verify(dynamics.ExpMap(101, 1))
        assert (report.n1, report.n2, report.n3) == (1, 1, 1)
        assert report.thm2_z is None and report.thm2_value is None
        assert report.thm1_ok and report.thm2_ok and report.thm3_ok

    def test_vacuous_notes(self):
        report = bounds.verify(dynamics.ExpMap(11, 2))
        assert "thm2: vacuous (bound exceeds p-1)" in report.notes

    def test_counts_match_supplied_census(self):
        m = dynamics.ExpMap(103, 5)
        census = dynamics.census_naive(m, 3)
        assert bounds.verify(m, census=census) == bounds.verify(m)


def parse_thm3(text: str) -> Fraction:
    """The rational a thm3_value string stands for: a decimal or "(A + g**E)/4"."""
    compact = re.fullmatch(r"\((\d+) \+ (\d+)\*\*(\d+)\)/4", text)
    if compact:
        a, g, e = map(int, compact.groups())
        return Fraction(a + g**e, 4)
    assert re.fullmatch(r"\d+(\.5)?", text), text
    return Fraction(text)


class TestThm3Value:
    def test_decimal_remainders(self):
        # the numerator 3p + g**(2g+1) + g + 1 is even for odd p, so the
        # exact decimal ends in nothing or ".5"; never ".25" or ".75"
        assert bounds.verify(dynamics.ExpMap(11, 2)).thm3_value == "17"
        assert bounds.verify(dynamics.ExpMap(101, 3)).thm3_value == "623.5"
        assert bounds.verify(dynamics.ExpMap(13, 2)).thm3_value == "18.5"
        for p in trial_primes_between(3, 200):
            for g in range(1, min(p, 40)):
                assert bounds.thm3_bound(p, g).denominator in (1, 2), (p, g)

    @pytest.mark.parametrize("p, g", [(101, 72), (101, 73), (751, 72), (751, 73),
                                      (751, 748), (1999, 1998)])
    def test_both_sides_of_threshold(self, p, g):
        report = bounds.verify(dynamics.ExpMap(p, g))
        exact = bounds.thm3_bound(p, g)
        assert ((2 * g + 1) * g.bit_length() <= bounds.THM3_EXACT_BITS) is (g <= 72)
        assert report.thm3_value.startswith("(") is (g > 72)
        assert parse_thm3(report.thm3_value) == exact
        assert report.thm3_ok is brute_thm3_holds(p, g, report.n3) is True
        assert ("thm3: vacuous (bound exceeds p-1)" in report.notes) is (exact > p - 1)

    def test_no_power_above_threshold(self, monkeypatch):
        def refuse(p, g):
            raise AssertionError(f"_thm3_numerator({p}, {g}) called")

        monkeypatch.setattr(bounds, "_thm3_numerator", refuse)
        for g in (73, 100, 250):
            report = bounds.verify(dynamics.ExpMap(251, g))
            assert report.thm3_ok and "thm3: vacuous (bound exceeds p-1)" in report.notes
        with pytest.raises(AssertionError, match="called"):
            bounds.verify(dynamics.ExpMap(251, 72))


class TestSweeps:
    def test_thm1_no_violations_small(self):
        violations = [(p, g, n1) for p in trial_primes_between(11, 300)
                      for g, n1 in enumerate(dynamics.fixed_point_counts_all_bases(p).tolist())
                      if g and not bounds.thm1_holds(p, n1)]
        assert violations == []

    def test_sweep_counts_match_census(self):
        # the vectorized all-bases counter behind the sweep above agrees
        # with per-map censuses
        p = 61
        counts = dynamics.fixed_point_counts_all_bases(p)
        for g in range(1, p):
            census = dynamics.census_naive(dynamics.ExpMap(p, g), 1)
            assert counts[g] == census.n_dividing[1]
