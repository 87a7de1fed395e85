import math
import random

import pytest

from conftest import brute_ind, brute_order, trial_prime, trial_primes_between
from expcycles import modarith


class TestIsPrime:
    @pytest.mark.parametrize("n,expected", [(0, False), (1, False), (2, True),
                                            (11, True), (561, False), (2003, True)])
    def test_known_values(self, n, expected):
        assert modarith.is_prime(n) is expected
        if n > 1:
            assert trial_prime(n) is expected

    def test_mersenne_61(self):
        assert modarith.is_prime((1 << 61) - 1)

    def test_matches_trial_division_to_a_million(self):
        # byte sieve as the independent oracle
        limit = 10**6
        sieve = bytearray(b"\x01") * limit
        sieve[:2] = b"\x00\x00"
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
        for n in range(limit):
            assert modarith.is_prime(n) == bool(sieve[n]), n


class TestPrimesSieve:
    def test_primes_up_to(self):
        assert modarith.primes_in_range(0, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert modarith.primes_in_range(0, 1) == []

    def test_primes_in_range(self):
        assert modarith.primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]

    def test_segment_matches_filtered_sieve(self):
        # ends on and off primes, squares of base primes, segments shorter
        # than a base prime; the reference is trial division, since the
        # sieve finds its own base primes with itself
        rng = random.Random(50)
        full = trial_primes_between(0, 203000)
        ranges = [(lo, lo + rng.randrange(0, 3000)) for lo in rng.sample(range(200000), 40)]
        ranges += [(lo, min(lo + width, 200000)) for lo, width in
                   [(0, 100), (289, 0), (288, 290), (3, 99997), (199000, 1000), (41, 1681)]]
        for lo, hi in ranges:
            assert modarith.primes_in_range(lo, hi) == [p for p in full if lo <= p <= hi], (lo, hi)

    def test_segment_edges(self):
        assert modarith.primes_in_range(-5, 2) == [2]
        assert modarith.primes_in_range(0, 1) == []
        assert modarith.primes_in_range(2, 3) == [2, 3]
        assert modarith.primes_in_range(10007, 10007) == [10007]
        assert modarith.primes_in_range(10008, 10008) == []
        assert modarith.primes_in_range(31, 30) == []
        assert modarith.primes_in_range(10**7, 10**7 + 100) == [10000019, 10000079]
        # base primes through sieves up to 10**6, 1000, 31, 5 and 2
        lo = 10**12
        assert modarith.primes_in_range(lo, lo + 300) == [
            n for n in range(lo, lo + 301) if modarith.is_prime(n)]


class TestPrimeFactors:
    @pytest.mark.parametrize("n,expected", [(1, ()), (2, (2,)), (12, (2, 3)),
                                            (360, (2, 3, 5)), (97, (97,))])
    def test_small(self, n, expected):
        assert modarith.prime_factors(n) == expected

    def test_large_semiprime(self):
        # both factors above the trial-division bound, forcing the rho path
        a, b = 1000003, 1000033
        assert modarith.prime_factors(a * b) == (a, b)


class TestMultiplicativeOrder:
    def test_identity(self):
        for p in (3, 7, 101):
            assert modarith.multiplicative_order(1, p) == 1

    def test_known(self):
        assert modarith.multiplicative_order(2, 7) == 3  # 2, 4, 1
        assert modarith.multiplicative_order(3, 7) == 6

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            modarith.multiplicative_order(7, 7)
        with pytest.raises(ValueError):
            modarith.multiplicative_order(0, 11)

    def test_divides_group_order_exhaustive(self):
        for p in trial_primes_between(3, 499):
            for g in range(1, p):
                t = modarith.multiplicative_order(g, p)
                assert (p - 1) % t == 0
                assert pow(g, t, p) == 1

    def test_matches_brute_order_sampled(self):
        rng = random.Random(2)
        for _ in range(200):
            p = rng.choice(trial_primes_between(3, 2000))
            g = rng.randint(1, p - 1)
            assert modarith.multiplicative_order(g, p) == brute_order(g, p)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,expected", [(3, 2), (5, 2), (7, 3), (11, 2)])
    def test_known(self, p, expected):
        assert modarith.primitive_root(p) == expected

    def test_is_smallest_with_full_order(self):
        for p in trial_primes_between(3, 200):
            g = modarith.primitive_root(p)
            assert brute_order(g, p) == p - 1
            for smaller in range(2, g):
                assert brute_order(smaller, p) != p - 1


class TestDiscreteLog:
    def test_log_of_one_is_zero(self):
        for p in (5, 7, 11, 101):
            g = modarith.primitive_root(p)
            assert modarith.discrete_log(g, 1, p) == 0

    def test_known(self):
        assert modarith.discrete_log(3, 6, 7) == 3  # 3**3 = 27 = 6 mod 7
        assert modarith.discrete_log(2, 7, 11) == 7  # 2**7 = 128 = 7 mod 11

    def test_rejects_non_primitive_root(self):
        with pytest.raises(ValueError):
            modarith.discrete_log(2, 3, 7)  # 2 has order 3 mod 7

    def test_rejects_non_unit_argument(self):
        with pytest.raises(ValueError):
            modarith.discrete_log(3, 0, 7)

    def test_round_trip_exhaustive(self):
        for p in trial_primes_between(3, 1999):
            g = modarith.primitive_root(p)
            for h in range(1, p):
                v = modarith.discrete_log(g, h, p)
                assert 0 <= v <= p - 2
                assert pow(g, v, p) == h

    def test_matches_linear_scan_sampled(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rng.choice(trial_primes_between(100, 3000))
            g = modarith.primitive_root(p)
            h = rng.randint(1, p - 1)
            assert modarith.discrete_log(g, h, p) == brute_ind(g, h, p)
