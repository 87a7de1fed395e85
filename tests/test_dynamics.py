import random

import numpy as np
import pytest

from conftest import (
    brute_census,
    brute_cycle_multiset,
    brute_max_tail,
    brute_orbit_structure,
    brute_order,
    brute_table,
    trial_primes_between,
)
from expcycles import dynamics, lemmas
from expcycles.modarith import multiplicative_order


class TestExpMap:
    def test_reduces_g(self):
        assert dynamics.ExpMap(7, 10).g == 3
        assert dynamics.ExpMap(7, 3).g == 3

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            dynamics.ExpMap(4, 2)

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError):
            dynamics.ExpMap(7, 0)
        with pytest.raises(ValueError):
            dynamics.ExpMap(7, 14)


class TestApplyIterate:
    def test_fixed_point_example(self):
        assert dynamics.apply(dynamics.ExpMap(7, 3), 2) == 2  # 3**2 = 9 = 2 mod 7

    def test_constant_base(self):
        m = dynamics.ExpMap(13, 1)
        assert all(dynamics.apply(m, u) == 1 for u in range(1, 13))

    def test_known_value(self):
        assert dynamics.apply(dynamics.ExpMap(11, 2), 6) == 9  # 2**6 = 64 = 9 mod 11

    @pytest.mark.parametrize("u", [0, 11, 200])
    def test_domain_enforced(self, u):
        with pytest.raises(ValueError):
            dynamics.apply(dynamics.ExpMap(11, 2), u)

    def test_iterate_two_cycle(self):
        assert dynamics.iterate(dynamics.ExpMap(11, 2), 3, 2) == 3  # 3 -> 8 -> 3

    def test_iterate_zero_steps(self):
        assert dynamics.iterate(dynamics.ExpMap(11, 2), 5, 0) == 5

    def test_iterate_three_cycle(self):
        assert dynamics.iterate(dynamics.ExpMap(7, 3), 1, 3) == 1  # 1 -> 3 -> 6 -> 1

    def test_iterate_matches_repeated_apply(self):
        m = dynamics.ExpMap(101, 7)
        v = 55
        for k in range(12):
            assert dynamics.iterate(m, 55, k) == v
            v = dynamics.apply(m, v)


class TestOrbit:
    def test_fixed_point(self):
        rec = dynamics.orbit(dynamics.ExpMap(11, 2), 7)
        assert (rec.tail_length, rec.cycle_length, rec.entry_point) == (0, 1, 7)

    def test_tail_into_two_cycle(self):
        rec = dynamics.orbit(dynamics.ExpMap(7, 2), 5)  # 5 -> 4 -> 2 -> 4
        assert (rec.tail_length, rec.cycle_length, rec.entry_point) == (1, 2, 4)

    def test_five_cycle(self):
        rec = dynamics.orbit(dynamics.ExpMap(11, 2), 1)
        assert (rec.tail_length, rec.cycle_length, rec.entry_point) == (0, 5, 1)

    def test_consistency_random_maps(self):
        rng = random.Random(11)
        for _ in range(60):
            p = rng.choice(trial_primes_between(3, 600))
            m = dynamics.ExpMap(p, rng.randint(1, p - 1))
            u0 = rng.randint(1, p - 1)
            rec = dynamics.orbit(m, u0)
            entry = dynamics.iterate(m, u0, rec.tail_length)
            assert entry == rec.entry_point
            assert dynamics.iterate(m, entry, rec.cycle_length) == entry
            # the tail really is minimal: one step earlier is not yet cyclic
            if rec.tail_length > 0:
                before = dynamics.iterate(m, u0, rec.tail_length - 1)
                assert dynamics.iterate(m, before, rec.cycle_length) != before


class TestCensusNaive:
    def test_golden_11_2(self):
        c = dynamics.census_naive(dynamics.ExpMap(11, 2), 3)
        assert c.n_dividing[1:] == (1, 5, 1)
        assert c.n_least_period[1:] == (1, 4, 0)

    def test_golden_7_3(self):
        c = dynamics.census_naive(dynamics.ExpMap(7, 3), 3)
        assert c.n_dividing[1:] == (3, 3, 6)

    def test_constant_base(self):
        c = dynamics.census_naive(dynamics.ExpMap(13, 1), 4)
        assert c.n_dividing[1:] == (1, 1, 1, 1)

    def test_dividing_is_sum_over_least_divisors(self):
        rng = random.Random(4)
        for _ in range(40):
            p = rng.choice(trial_primes_between(3, 500))
            c = dynamics.census_naive(dynamics.ExpMap(p, rng.randint(1, p - 1)), 6)
            for k in range(1, 7):
                assert c.n_dividing[k] == sum(
                    c.n_least_period[d] for d in range(1, k + 1) if k % d == 0
                )

    def test_divisor_monotonicity(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rng.choice(trial_primes_between(3, 500))
            c = dynamics.census_naive(dynamics.ExpMap(p, rng.randint(1, p - 1)), 6)
            for k in range(1, 7):
                for d in range(1, k):
                    if k % d == 0:
                        assert c.n_dividing[d] <= c.n_dividing[k]


class TestPowRange:
    def test_matches_pow_small(self):
        for p, g in [(7, 3), (11, 2), (97, 5), (101, 7), (499, 7)]:
            for count in (0, 1, 2, 5, p - 1, p, p + 3):
                powers = dynamics._pow_range(g, count, p)
                assert powers.dtype == np.int64
                assert powers.tolist() == [pow(g, u, p) for u in range(count)]

    def test_matches_pow_sampled_large(self):
        p, g = 99991, 3
        table = dynamics._pow_range(g, p, p)
        rng = random.Random(6)
        for u in [1, 2, p - 1] + [rng.randint(1, p - 1) for _ in range(200)]:
            assert int(table[u]) == pow(g, u, p)


class TestCensusRoutes:
    def test_table_equals_naive_sampled(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.choice(trial_primes_between(3, 400))
            g = rng.randint(1, p - 1)
            m = dynamics.ExpMap(p, g)
            assert dynamics.census_table(m, 6) == dynamics.census_naive(m, 6)

    def test_table_census_against_oracle_proper_subgroups(self):
        # the table census runs on <g>; check bases of index >= 2 against
        # the brute-force census over all of {1,...,p-1}
        rng = random.Random(15)
        for p in [1009, 2003] + rng.sample(trial_primes_between(100, 2003), 4):
            h = rng.randint(2, p - 2)
            for g in (h * h % p, pow(h, 6, p), p - 1):
                if g == 1:
                    continue
                assert (p - 1) // brute_order(g, p) >= 2
                census = dynamics.census_table(dynamics.ExpMap(p, g), 4)
                n_div, n_least = brute_census(p, g, 4)
                assert list(census.n_dividing) == n_div, (p, g)
                assert list(census.n_least_period) == n_least, (p, g)

    def test_graph_equals_naive_exhaustive_small(self):
        # both routes on <g>; every g covers t = 1 (g = 1), t = 2 (g = p-1),
        # proper subgroups and primitive roots
        for p in trial_primes_between(3, 59):
            for g in range(1, p):
                m = dynamics.ExpMap(p, g)
                naive = dynamics.census_naive(m, 4)
                _, derived = dynamics.census_graph(m, k_max=4)
                assert derived == naive, (p, g)
                assert dynamics.census_table(m, 4) == naive, (p, g)

    def test_routes_agree_beyond_small_range(self):
        for p, g in [(10007, 5), (20011, 2)]:
            m = dynamics.ExpMap(p, g)
            naive = dynamics.census_naive(m, 4)
            assert dynamics.census_table(m, 4) == naive
            _, derived = dynamics.census_graph(m, k_max=4)
            assert derived == naive

    def test_only_table_routes_refuse_above_int64_limit(self, monkeypatch):
        m = dynamics.ExpMap(101, 7)
        naive = dynamics.census_naive(m, 6)
        assert dynamics.census_table(m, 6) == naive
        # the limit lowered just below p stands in for p > 3.04e9: the
        # full power table of the 3-periodic set refuses; the routes on <g>
        # build S in Python and still run
        monkeypatch.setattr(dynamics, "_NUMPY_MOD_LIMIT", 100)
        with pytest.raises(dynamics.MemoryBudgetError, match="int64"):
            lemmas.three_periodic_set(m, "least")
        assert dynamics.census_table(m, 6) == naive
        _, derived = dynamics.census_graph(m, k_max=6)
        assert derived == naive
        assert dynamics.fixed_points(m) == {u for u in range(1, 101) if pow(7, u, 101) == u}

    def test_python_subgroup_map_agrees(self, monkeypatch):
        # every prime here exceeds the lowered limit, so _subgroup_map takes
        # its Python branch; g = 1, p-1, proper subgroups and primitive roots
        monkeypatch.setattr(dynamics, "_NUMPY_MOD_LIMIT", 4)
        for p in (5, 13, 31, 61, 101):
            for g in range(1, p):
                m = dynamics.ExpMap(p, g)
                naive = dynamics.census_naive(m, 4)
                assert dynamics.census_table(m, 4) == naive, (p, g)
                fixed = dynamics.fixed_points(m)
                assert fixed == {u for u in range(1, p) if pow(g, u, p) == u}, (p, g)
                assert len(fixed) == naive.n_dividing[1], (p, g)

    def test_graph_census_against_oracle(self):
        rng = random.Random(8)
        for _ in range(25):
            p = rng.choice(trial_primes_between(3, 400))
            g = rng.randint(1, p - 1)
            _, census = dynamics.census_graph(dynamics.ExpMap(p, g), k_max=5)
            n_div, n_least = brute_census(p, g, 5)
            assert list(census.n_dividing) == n_div
            assert list(census.n_least_period) == n_least


class TestCensusGraph:
    def test_golden_11_2(self):
        summary, _ = dynamics.census_graph(dynamics.ExpMap(11, 2))
        assert summary.cycle_length_multiset == (1, 2, 2, 5)
        assert summary.component_count == 4
        assert summary.is_permutation

    def test_golden_7_2(self):
        summary, _ = dynamics.census_graph(dynamics.ExpMap(7, 2))
        assert summary.cycle_length_multiset == (2,)
        assert summary.cyclic_point_count == 2
        assert not summary.is_permutation

    def test_constant_base(self):
        summary, _ = dynamics.census_graph(dynamics.ExpMap(13, 1))
        assert summary.cycle_length_multiset == (1,)
        assert summary.component_count == 1
        assert summary.max_tail_length == 1

    def test_multiset_against_oracle(self):
        rng = random.Random(9)
        for _ in range(30):
            p = rng.choice(trial_primes_between(3, 400))
            g = rng.randint(1, p - 1)
            summary, _ = dynamics.census_graph(dynamics.ExpMap(p, g))
            assert list(summary.cycle_length_multiset) == brute_cycle_multiset(p, g)
            assert summary.cyclic_point_count == sum(summary.cycle_length_multiset)
            assert summary.is_permutation == (summary.max_tail_length == 0)
            assert summary.is_permutation == (summary.cyclic_point_count == p - 1)

    def test_memory_budget_enforced(self):
        with pytest.raises(dynamics.MemoryBudgetError):
            dynamics.census_graph(dynamics.ExpMap(10007, 5), mem_budget=1000)

    def test_budget_charges_elements_of_the_subgroup(self):
        m = dynamics.ExpMap(1009, 3)  # ord_1009(3) = 168, index 6
        need = dynamics._GRAPH_BYTES_PER_NODE * multiplicative_order(3, 1009)
        with pytest.raises(dynamics.MemoryBudgetError):
            dynamics.census_graph(m, k_max=3, mem_budget=need - 1)
        _, census = dynamics.census_graph(m, k_max=3, mem_budget=need)
        assert census == dynamics.census_naive(m, 3)

    def test_cyclic_points_lie_in_subgroup(self):
        # every cyclic point is a power of g: x in <g> iff x**ord(g) == 1
        rng = random.Random(10)
        for _ in range(20):
            p = rng.choice(trial_primes_between(3, 300))
            g = rng.randint(1, p - 1)
            m = dynamics.ExpMap(p, g)
            t = multiplicative_order(g, p)
            for u in range(1, p):
                rec = dynamics.orbit(m, u)
                assert pow(rec.entry_point, t, p) == 1, (p, g, u)


class TestDecomposeTable:
    @staticmethod
    def check(table, lo=0):
        cycle_lengths, max_tail = dynamics.decompose_table(np.asarray(table), lo)
        assert type(max_tail) is int
        expected = brute_orbit_structure(np.asarray(table).tolist(), range(lo, len(table)))
        assert (sorted(cycle_lengths.tolist()), max_tail) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
    def test_random_tables(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            self.check(rng.integers(0, n, n))

    def test_identity(self):
        self.check(range(7))

    def test_one_cycle(self):
        self.check([(i + 1) % 9 for i in range(9)])

    def test_star_into_fixed_point(self):
        self.check([0] * 12)

    def test_rho(self):
        # 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 2: tail 2 into a 4-cycle
        self.check([1, 2, 3, 4, 5, 2])

    def test_long_chain(self):
        table = list(range(1, 2000)) + [1999]
        _, max_tail = dynamics.decompose_table(np.array(table), 0)
        assert max_tail == 1999
        self.check(table)

    def test_disjoint_components(self):
        # fixed point 0 with feeders 1, 2 <- 3; 2-cycle 4 <-> 5 with
        # 6, 11 -> 7 -> 4; 3-cycle 8 -> 9 -> 10 -> 8
        self.check([0, 0, 0, 2, 5, 4, 7, 4, 9, 10, 8, 7])

    def test_shifted_by_lo(self):
        rng = np.random.default_rng(7)
        lo, n = 5, 300
        table = np.concatenate([rng.integers(-50, 50, lo), rng.integers(lo, lo + n, n)])
        self.check(table, lo)

    # The tables below straddle the switches of decompose_table: a frontier
    # of _NARROW leaves, cyclic sets of _WALK_LIMIT and _JUMP_LIMIT nodes,
    # and the ruling set (stride _RULER_STRIDE) above _JUMP_LIMIT.

    @staticmethod
    def comb(cycle: int, chains: list[int], seed: int = 0) -> np.ndarray:
        """A cycle of the given length fed by chains of the given lengths,
        each ending on its own cycle node, under a random relabelling."""
        nodes = cycle + sum(chains)
        table = [(i + 1) % cycle for i in range(cycle)]
        for k, length in enumerate(chains):
            start = len(table)
            table += list(range(start + 1, start + length)) + [k * cycle // len(chains)]
        label = np.random.default_rng(seed).permutation(nodes)
        out = np.empty(nodes, dtype=np.int64)
        out[label] = label[table]
        return out

    @pytest.mark.parametrize("width", [0, 1])
    def test_frontier_either_side_of_narrow(self, width):
        # _NARROW or _NARROW + 1 leaves: peeled in Python, or first in numpy
        self.check(self.comb(1000, [5] * (dynamics._NARROW + width), seed=width))

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("limit", ["_WALK_LIMIT", "_JUMP_LIMIT"])
    def test_cyclic_set_either_side_of_limit(self, limit, extra):
        # wide rounds, then narrow ones, leave one cycle of the limit or one more
        chains = [2] * (2 * dynamics._NARROW) + [50] * 8
        self.check(self.comb(getattr(dynamics, limit) + extra, chains, seed=extra))

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("limit", ["_WALK_LIMIT", "_JUMP_LIMIT"])
    def test_permutation_either_side_of_limit(self, limit, extra):
        n = getattr(dynamics, limit) + extra
        self.check(np.random.default_rng(n).permutation(n))

    def test_permutations_above_the_limit(self):
        n = dynamics._JUMP_LIMIT + 1000
        rng = np.random.default_rng(3)
        self.check(np.arange(n))  # all fixed points
        self.check(np.arange(n) ^ 1)  # all 2-cycles
        self.check(rng.permutation(n))
        order = rng.permutation(n)  # one giant cycle
        giant = np.empty(n, dtype=np.int64)
        giant[order] = np.roll(order, -1)
        self.check(giant)

    def test_rulers_in_a_row(self):
        # one cycle through every ruler first, then every other node: a
        # single walker covers almost the whole cycle
        n, stride = dynamics._JUMP_LIMIT + 1000, dynamics._RULER_STRIDE
        is_ruler = np.arange(n) % stride == 0
        order = np.concatenate([np.flatnonzero(is_ruler), np.flatnonzero(~is_ruler)])
        table = np.empty(n, dtype=np.int64)
        table[order] = np.roll(order, -1)
        self.check(table)

    @pytest.mark.parametrize("free", [dynamics._WALK_LIMIT, dynamics._WALK_LIMIT + 1, None])
    def test_cycles_that_avoid_every_ruler(self, free):
        # `free` non-rulers (None: all of them) form 3-cycles and one short
        # cycle that no walker visits: walked in Python up to _WALK_LIMIT
        # nodes, else by pointer jumping. The rest form one cycle.
        n, stride = dynamics._JUMP_LIMIT + 1000, dynamics._RULER_STRIDE
        is_ruler = np.arange(n) % stride == 0
        others = np.flatnonzero(~is_ruler)
        rest = others[:free]
        big = np.concatenate([np.flatnonzero(is_ruler), others[len(rest):]])
        table = np.arange(n)
        table[big] = np.roll(big, -1)
        cut = (len(rest) - 2) // 3 * 3
        triples = rest[:cut].reshape(-1, 3)
        table[triples[:, 0]], table[triples[:, 1]], table[triples[:, 2]] = (
            triples[:, 1], triples[:, 2], triples[:, 0])
        table[rest[cut:]] = np.roll(rest[cut:], -1)
        self.check(table)

    def test_long_chain_into_a_large_cycle(self):
        self.check(self.comb(dynamics._JUMP_LIMIT + 10, [2000]))


def oracle_summary(p: int, g: int) -> dynamics.FunctionalGraphSummary:
    cycles = brute_cycle_multiset(p, g)
    return dynamics.FunctionalGraphSummary(
        component_count=len(cycles),
        cyclic_point_count=sum(cycles),
        cycle_length_multiset=tuple(cycles),
        max_tail_length=brute_max_tail(p, g),
        is_permutation=len(set(brute_table(p, g).values())) == p - 1,
    )


class TestGraphSummaryAgainstOracles:
    def test_every_base_below_100(self):
        for p in trial_primes_between(3, 99):
            for g in range(1, p):
                summary, _ = dynamics.census_graph(dynamics.ExpMap(p, g))
                assert summary == oracle_summary(p, g), (p, g)

    def test_random_pairs_up_to_2003(self):
        # per prime: g = 1, g = p-1, a random h and h**2, whose index is >= 2
        rng = random.Random(14)
        primes = [2003] + rng.sample(trial_primes_between(100, 2003), 14)
        for p in primes:
            h = rng.randint(2, p - 2)
            assert (p - 1) // brute_order(h * h % p, p) >= 2
            for g in (1, p - 1, h, h * h % p):
                summary, census = dynamics.census_graph(dynamics.ExpMap(p, g), k_max=4)
                assert summary == oracle_summary(p, g), (p, g)
                n_div, n_least = brute_census(p, g, 4)
                assert list(census.n_dividing) == n_div, (p, g)
                assert list(census.n_least_period) == n_least, (p, g)


class TestPermutationCriterion:
    def test_small_exhaustive(self):
        for p in trial_primes_between(3, 97):
            for g in range(1, p):
                summary, _ = dynamics.census_graph(dynamics.ExpMap(p, g))
                assert summary.is_permutation == (brute_order(g, p) == p - 1), (p, g)


class TestFixedPoints:
    def test_golden(self):
        assert dynamics.fixed_points(dynamics.ExpMap(7, 3)) == {2, 4, 5}
        assert dynamics.fixed_points(dynamics.ExpMap(11, 2)) == {7}
        assert dynamics.fixed_points(dynamics.ExpMap(7, 2)) == set()

    def test_every_base_below_100(self):
        for p in trial_primes_between(3, 99):
            for g in range(1, p):
                expected = {u for u in range(1, p) if pow(g, u, p) == u}
                assert dynamics.fixed_points(dynamics.ExpMap(p, g)) == expected, (p, g)

    def test_count_matches_census(self):
        rng = random.Random(12)
        for _ in range(30):
            p = rng.choice(trial_primes_between(3, 500))
            g = rng.randint(1, p - 1)
            m = dynamics.ExpMap(p, g)
            assert len(dynamics.fixed_points(m)) == dynamics.census_naive(m, 1).n_dividing[1]

    def test_all_bases_counter(self):
        # p - 1 = 60, 72 and 96 have many divisors, so many u share a gcd
        for p in trial_primes_between(3, 99):
            counts = dynamics.fixed_point_counts_all_bases(p)
            assert len(counts) == p and counts[0] == 0
            for g in range(1, p):
                expected = sum(1 for u in range(1, p) if pow(g, u, p) == u)
                assert counts[g] == expected, (p, g)
