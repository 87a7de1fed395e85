import os
import random
import subprocess
import sys
import tracemalloc

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
from expcycles import dynamics, ecdynamics, lemmas
from expcycles.modarith import is_prime, multiplicative_order, primitive_root


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

    def test_refused_above_int64_limit(self, monkeypatch):
        # the limit lowered just below p stands in for p > 3.04e9
        monkeypatch.setattr(dynamics, "_NUMPY_MOD_LIMIT", 22)
        with pytest.raises(dynamics.MemoryBudgetError, match="int64"):
            dynamics._pow_range(2, 5, 23)


class TestSharedReduce:
    # the largest modulus whose products stay exact in int64: (p-1)**2 < 2**63
    P = next(q for q in range(dynamics._NUMPY_MOD_LIMIT, 0, -1) if is_prime(q))

    def test_pow_range_at_int64_edge(self):
        p = self.P
        for g in (2, p - 2, 1_234_567_891):
            powers = dynamics._pow_range(g, 4099, p)
            assert powers.tolist() == [pow(g, u, p) for u in range(4099)], g

    @pytest.mark.parametrize("low, high", [(-1, 1), (0, "square")])
    def test_reduce_ranges(self, low, high):
        # (-p, p) as the curve tree feeds it, [0, (p-1)**2] as products do
        p = self.P
        hi = p - 1 if high == 1 else (p - 1) ** 2
        lo = low * (p - 1)
        rng = random.Random(71)
        values = [lo, lo + 1, 0, 1, p - 1, hi - 1, hi] + [rng.randint(lo, hi) for _ in range(5000)]
        if high == 1:
            values.append(-1)
        a = np.array(values, dtype=np.int64)
        dynamics._reduce(a, p)
        assert a.tolist() == [v % p for v in values]

    def test_reduce_into_int32(self):
        t = 2**31 - 1
        values = [0, t - 1, t, (t - 1) ** 2, 12345678901234]
        out = np.empty(len(values), dtype=np.int32)
        dynamics._reduce(np.array(values, dtype=np.int64), t, out)
        assert out.tolist() == [v % t for v in values]


class TestMirroredSubgroupMap:
    # For even t, g**(t/2) = -1: _subgroup_map takes the powers e < t/2 and
    # fills S[t/2 + e] from p - g**e, in numpy and in Python alike. The
    # oracle takes every power with pow().

    @staticmethod
    def routes(monkeypatch, p, g):
        m = dynamics.ExpMap(p, g)
        t = multiplicative_order(g, p)
        numpy_s = dynamics._subgroup_map(m, t).tolist()
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_NUMPY_MOD_LIMIT", 4)
            python_s = dynamics._subgroup_map(m, t).tolist()
        return t, numpy_s, python_s, [pow(g, e, p) % t for e in range(t)]

    @pytest.mark.parametrize("p, g, t", [
        (101, 1, 1), (101, 100, 2),
        (23, 2, 11), (103, 2, 51),  # odd t: one pass, no mirror
        (7, 3, 6), (11, 2, 10), (1019, 2, 1018), (2003, 5, 2002),  # t/2 odd
        (1201, 2, 300), (1009, 11, 1008),  # t/2 even
    ])
    def test_small_orders(self, monkeypatch, p, g, t):
        order, numpy_s, python_s, oracle = self.routes(monkeypatch, p, g)
        assert order == t
        assert numpy_s == python_s == oracle

    def test_last_block_partial_in_both_halves(self, monkeypatch):
        # t/2 = 50001 powers in two blocks; a block spans whole rows of an
        # even width (224), so the odd t/2 leaves the last block partial
        t, numpy_s, python_s, oracle = self.routes(monkeypatch, 100003, 2)
        assert t > dynamics._CHUNK and t // 2 > dynamics._CHUNK and (t // 2) % 2 == 1
        assert numpy_s == python_s == oracle

    def test_many_small_blocks(self, monkeypatch):
        # a 64-element chunk: many blocks, rows of either parity, a partial last
        # row; at p = 40009, t/2 = 20004 > 64**2 caps the row width at the chunk
        monkeypatch.setattr(dynamics, "_CHUNK", 64)
        work = dynamics._Workspace()
        monkeypatch.setattr(dynamics, "_work", lambda: work)
        for p, g in [(1009, 11), (1009, 3), (2003, 5), (1201, 4), (1201, 2), (40009, 11)]:
            t, numpy_s, python_s, oracle = self.routes(monkeypatch, p, g)
            assert t > 64
            assert numpy_s == python_s == oracle, (p, g)

    @pytest.mark.parametrize("t", [2, 4, 3086, 6172])
    def test_near_the_int64_limit(self, monkeypatch, t):
        # the largest prime whose products are exact: p**2 just below 2**63,
        # p just below 2**32, so p - v and the uint32 values are at their edge
        p = TestSharedReduce.P
        assert (p - 1) % t == 0 and p > 3 * 10**9
        g = pow(primitive_root(p), (p - 1) // t, p)
        order, numpy_s, python_s, oracle = self.routes(monkeypatch, p, g)
        assert order == t
        assert numpy_s == python_s == oracle

    @pytest.mark.parametrize("p, g", [(23, 2), (100003, 2)])
    def test_int64_s(self, monkeypatch, p, g):
        # S is int64 for t > 2**31 and reduced mod t in a uint64 view, whose
        # two halves of a block do not fit quot at once; an int64 out takes
        # that route at small t: odd t at p = 23, and at p = 100003 two
        # mirrored blocks of more than half a chunk each
        t, _, _, oracle = self.routes(monkeypatch, p, g)
        out = np.empty(t, dtype=np.int64)
        assert dynamics._subgroup_map(dynamics.ExpMap(p, g), t, out).tolist() == oracle


class TestWorkspace:
    # census_table reuses one S buffer across calls; nothing may leak from
    # one map into the next, nor into an array the module hands out

    @staticmethod
    def _maps():
        # t rises, falls and repeats: g = 1 (t = 1), primitive roots (t = p-1),
        # proper subgroups, one t above the default _CHUNK
        seq = [(1009, 1), (1009, 11), (101, 2), (2003, 5), (1009, 11), (101, 100),
               (1201, primitive_root(1201)), (40009, primitive_root(40009)), (13, 3),
               (2003, 4), (1009, 1), (101, 2)]
        return [dynamics.ExpMap(p, g) for p, g in seq]

    @pytest.mark.parametrize("chunk, cap", [(dynamics._CHUNK, dynamics._WORKSPACE_MAX_ELEMENTS),
                                            (64, 1500)])
    def test_sequence_against_naive(self, monkeypatch, chunk, cap):
        # small chunk and cap: many gather and reduce chunks, and maps on
        # both sides of the cap in one sequence
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
        monkeypatch.setattr(dynamics, "_WORKSPACE_MAX_ELEMENTS", cap)
        work = dynamics._Workspace()
        monkeypatch.setattr(dynamics, "_work", lambda: work)
        maps = self._maps()
        expected = {m: dynamics.census_naive(m, 4) for m in set(maps)}
        for m in maps + maps[::-1]:
            assert dynamics.census_table(m, 4) == expected[m], m
        assert len(work.table) <= cap

    def test_int64_table_census(self):
        # curve tables with N >= 2**31 are int64 and get their own gather
        # buffers; the census must not depend on the index dtype
        rng = np.random.default_rng(72)
        for n, start in [(5, 1), (40000, 0), (40000, 1)]:
            table = rng.integers(0, n, n).astype(np.int32)
            table[: n // 3] = np.arange(n // 3)[::-1]  # 2-cycles and a fixed point
            census = dynamics._census_from_table(table, 4, start)
            assert dynamics._census_from_table(table.astype(np.int64), 4, start) == census
            succ = table.tolist()
            for k in range(1, 5):
                hits = 0
                for u in range(start, n):
                    v = u
                    for _ in range(k):
                        v = succ[v]
                    hits += v == u
                assert census.n_dividing[k] == hits, (n, start, k)

    def test_graph_pass_and_s_build_leave_other_buffers_alone(self, monkeypatch):
        # Each workspace buffer has one owner: the peel and the ruling set use
        # arrays of their own, and S's residues go straight into S, so the
        # census's buffers and the curve tree keep what they hold.
        work = dynamics._Workspace()
        monkeypatch.setattr(dynamics, "_work", lambda: work)
        owned = {name: getattr(work, name) for name in ("iterates", "equal", "ramp", "tree")}
        for buf in owned.values():
            buf[...] = -7
        before = {name: buf.copy() for name, buf in owned.items()}
        rng = np.random.default_rng(28)
        n = 2000  # a random map: about n/e leaves, so the first rounds run in numpy
        table = rng.integers(0, n, n).astype(np.int32)
        assert np.count_nonzero(np.bincount(table, minlength=n) == 0) > dynamics._NARROW
        dynamics.decompose_table(table, 0)
        perm = rng.permutation(4 * dynamics._WALK_LIMIT).astype(np.int32)  # the ruling set
        dynamics._cycle_lengths(perm)
        m = dynamics.ExpMap(100003, 2)  # t = 100002: two mirrored blocks
        t = multiplicative_order(m.g, m.p)
        dynamics._subgroup_map(m, t)
        dynamics._subgroup_map(m, t, np.empty(t, dtype=np.int32))
        for name, buf in owned.items():
            assert np.array_equal(buf, before[name]), name

    def test_python_branch_in_sequence(self, monkeypatch):
        maps = [m for m in self._maps() if m.p < 5000]
        expected = {m: dynamics.census_naive(m, 4) for m in set(maps)}
        for limit in (dynamics._NUMPY_MOD_LIMIT, 4, dynamics._NUMPY_MOD_LIMIT):
            monkeypatch.setattr(dynamics, "_NUMPY_MOD_LIMIT", limit)
            for m in maps:
                assert dynamics.census_table(m, 4) == expected[m], (limit, m)

    def test_returned_arrays_never_alias(self, monkeypatch):
        handed_out = []

        def recording(func):
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                handed_out.append(result)
                return result
            return wrapper

        # census_graph's summary comes from decompose_table(_subgroup_map(...)),
        # or for a primitive root from S alone; ec_table and ec_census each
        # build on _x_half, which runs in the same workspace
        monkeypatch.setattr(dynamics, "decompose_table", recording(dynamics.decompose_table))
        monkeypatch.setattr(dynamics, "_subgroup_map", recording(dynamics._subgroup_map))
        monkeypatch.setattr(ecdynamics, "_x_half", recording(ecdynamics._x_half))
        # N = 105 and 2000356: one chunk, and many of them
        curves = [ecdynamics.ECExpMap(ecdynamics.CurveParams(101, 2, 3), (1, 39)),
                  ecdynamics.ECExpMap(ecdynamics.CurveParams(2000003, 2, 3), (0, 919159))]
        work = dynamics._work()
        for m in self._maps():
            dynamics.census_table(m, 3)
            handed_out.clear()
            t = multiplicative_order(m.g, m.p)
            arrays = [dynamics._subgroup_map(m, t)]
            dynamics.census_graph(m, k_max=3)
            dynamics.fixed_points(m)
            # S of the direct call, of census_graph and of fixed_points, and
            # decompose_table's cycle lengths unless S is a permutation
            assert len(handed_out) == (3 if t == m.p - 1 else 4), m
            if m.p == 40009:  # once, after a prime map has filled the workspace
                for curve in curves:
                    arrays.append(ecdynamics.ec_table(curve))
                    arrays.append(ecdynamics._x_half(curve))
                    ecdynamics.ec_census(curve, 3)
                # _x_half under each of the three calls
                assert len(handed_out) == 3 + 3 * len(curves)
            for arr in arrays + handed_out:
                for part in arr if isinstance(arr, tuple) else (arr,):
                    if isinstance(part, np.ndarray):
                        for buf in (work.table, work.block, work.quot, work.tree,
                                    work.iterates, work.equal):
                            assert not np.shares_memory(part, buf), m


class TestRangeCheck:
    # The census and the ruling set gather in numpy's wrap mode, which folds
    # a bad index silently, behind one range check of the table; the peel
    # relies on np.add.at, which raises before its first round.

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("start", [0, 1])
    @pytest.mark.parametrize("bad", ["len", -1])
    def test_census_rejects_values_outside_the_table(self, dtype, start, bad):
        n = 3 * dynamics._CHUNK // 2  # two chunks of starts
        table = np.random.default_rng(start).integers(0, n, n).astype(dtype)
        table[n - 5] = n if bad == "len" else bad
        with pytest.raises(IndexError):
            dynamics._census_from_table(table, 3, start)

    def test_census_accepts_the_largest_value(self):
        table = np.array([2, 0, 1, 2], dtype=np.int32)
        assert dynamics._census_from_table(table, 3, 0).n_dividing == (0, 0, 0, 3)

    @pytest.mark.parametrize("n", [5, 2000])
    @pytest.mark.parametrize("bad", ["len", -(10**6)])
    def test_peel_rejects_values_outside_the_table(self, n, bad):
        # 2000 random nodes start with more than _NARROW leaves: numpy rounds
        table = np.random.default_rng(n).integers(0, n, n)
        table[1] = n if bad == "len" else bad
        with pytest.raises(IndexError):
            dynamics.decompose_table(table, 0)

    @pytest.mark.parametrize("bad", ["len", -1])
    def test_ruling_set_rejects_values_outside_the_table(self, bad):
        n = 4 * dynamics._WALK_LIMIT
        perm = np.random.default_rng(9).permutation(n).astype(np.int32)
        perm[n // 2] = n if bad == "len" else bad
        with pytest.raises(IndexError):
            dynamics._cycle_lengths(perm)

    def test_census_allocates_only_the_index_conversion(self):
        # np.take converts each chunk of int32 indices to intp, 8 B per
        # start; raise mode with out= would also gather into a copy of out
        # (393,952 B traced here)
        n = 4 * dynamics._CHUNK
        table = np.random.default_rng(4).integers(0, n, n).astype(np.int32)
        dynamics._work()  # made once per process, not by the pass
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            dynamics._census_from_table(table, 3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * dynamics._CHUNK + 4096


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
        need = (dynamics._GRAPH_BYTES_PER_NODE * multiplicative_order(3, 1009)
                + dynamics._work().chunk_bytes())
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



class TestCensusLadder:
    # p = 1009, g = 3: t = ord(3) = 168, and 1008 starts for the naive census
    P, G, T = 1009, 3, 168

    def need(self, bytes_per_node):
        return bytes_per_node * self.T + dynamics._work().chunk_bytes()

    def route(self, mem_budget, k_max=3):
        return dynamics.census_route(self.P, self.T, k_max, mem_budget)

    def test_memory_boundaries(self):
        graph = self.need(dynamics._GRAPH_BYTES_PER_NODE)
        table = self.need(dynamics._CENSUS_BYTES_PER_NODE)
        assert self.route(graph) == "graph"
        assert self.route(graph - 1) == "table"
        assert self.route(table) == "table"
        assert self.route(table - 1) == "naive"

    def test_naive_cap_boundary(self, monkeypatch):
        steps = (self.P - 1) * 3
        monkeypatch.setattr(dynamics, "_NAIVE_MAX_STEPS", steps)
        assert self.route(0) == "naive"
        monkeypatch.setattr(dynamics, "_NAIVE_MAX_STEPS", steps - 1)
        with pytest.raises(dynamics.MemoryBudgetError) as refused:
            self.route(0)
        table = self.need(dynamics._CENSUS_BYTES_PER_NODE)
        assert f"needs ~{table} bytes, budget 0" in str(refused.value)
        assert f"{steps} map applications exceed its cap of {steps - 1}" in str(refused.value)
        assert self.route(table) == "table"  # the cap bounds the naive rung only

    def test_refused_at_the_default_budget(self):
        # t = (p - 1) / 2: both fast passes need more than 2 GiB, and the
        # naive census 2.8e19 map applications
        p = 9223372036854775783
        m = dynamics.ExpMap(p, 2)
        with pytest.raises(dynamics.MemoryBudgetError, match="cap of 100000000"):
            dynamics.census_route(p, multiplicative_order(2, p), 3, dynamics.DEFAULT_MEM_BUDGET)
        with pytest.raises(dynamics.MemoryBudgetError, match="cap of 100000000"):
            dynamics.census(m, 3)

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            self.route(dynamics.DEFAULT_MEM_BUDGET, k_max=0)
        with pytest.raises(ValueError, match="mem_budget must be >= 0"):
            self.route(-1)

    def test_every_route_equals_naive(self, monkeypatch):
        # census reaches each route through the module's globals
        m = dynamics.ExpMap(self.P, self.G)
        oracle, ran = dynamics.census_naive, []
        for name in ("census_graph", "census_table", "census_naive"):
            def recorded(*args, _name=name, _route=getattr(dynamics, name)):
                ran.append(_name)
                return _route(*args)
            monkeypatch.setattr(dynamics, name, recorded)
        graph_summary, _ = dynamics.census_graph(m)
        for budget, route in [(self.need(dynamics._GRAPH_BYTES_PER_NODE), "census_graph"),
                              (self.need(dynamics._CENSUS_BYTES_PER_NODE), "census_table"),
                              (0, "census_naive")]:
            for k_max in (1, 4):
                ran.clear()
                census, summary = dynamics.census(m, k_max, budget)
                assert ran == [route], (budget, k_max)
                assert census == oracle(m, k_max), route
                assert summary == (graph_summary if route == "census_graph" else None)


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

    # In-degrees are counted in a byte, and again in the table's dtype when
    # a count wraps (the counts then sum to less than n). A node of 256
    # preimages would otherwise read as a leaf.
    @pytest.mark.parametrize("fan_in", [255, 256, 257])
    def test_in_degree_past_a_byte(self, fan_in):
        # node 0 of the 3-cycle 0 -> 1 -> 2 -> 0 has fan_in preimages: 2,
        # and fan_in - 1 tail nodes, each fed by one leaf
        tails = range(3, fan_in + 2)
        table = [1, 2, 0] + [0] * len(tails) + list(tails)
        self.check(table)

    @pytest.mark.parametrize("n", [257, 512])
    def test_constant_map_past_a_byte(self, n):
        self.check([0] * n)

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
    # of _NARROW leaves, a cyclic set of _WALK_LIMIT nodes, and the ruling
    # set (stride _RULER_STRIDE) above it. RULED nodes hold more than
    # _RULER_STRIDE rulers, so the ruling set runs lockstep rounds before
    # its last walkers finish in Python.
    RULED = 5000

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

    def size(self, name: str) -> int:
        return self.RULED if name == "RULED" else getattr(dynamics, name)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("limit", ["_WALK_LIMIT", "RULED"])
    def test_cyclic_set_either_side_of_limit(self, limit, extra):
        # wide rounds, then narrow ones, leave one cycle of the size or one more
        chains = [2] * (2 * dynamics._NARROW) + [50] * 8
        self.check(self.comb(self.size(limit) + extra, chains, seed=extra))

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("limit", ["_WALK_LIMIT", "RULED"])
    def test_permutation_either_side_of_limit(self, limit, extra):
        n = self.size(limit) + extra
        self.check(np.random.default_rng(n).permutation(n))

    def test_permutations_above_the_limit(self):
        n = self.RULED
        assert n > dynamics._RULER_STRIDE**2
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
        n, stride = self.RULED, dynamics._RULER_STRIDE
        is_ruler = np.arange(n) % stride == 0
        order = np.concatenate([np.flatnonzero(is_ruler), np.flatnonzero(~is_ruler)])
        table = np.empty(n, dtype=np.int64)
        table[order] = np.roll(order, -1)
        self.check(table)

    @pytest.mark.parametrize("free", [dynamics._WALK_LIMIT, dynamics._WALK_LIMIT + 1, None])
    def test_cycles_that_avoid_every_ruler(self, free):
        # `free` non-rulers (None: all of them) form 3-cycles and one short
        # cycle that no walker visits: relabelled and walked in Python
        # whatever their number. The rest form one cycle.
        n, stride = self.RULED, dynamics._RULER_STRIDE
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
        self.check(self.comb(self.RULED + 10, [2000]))

    def test_ruling_set_compresses_over_several_chunks(self, monkeypatch):
        # more walkers than four chunks, and a ruler-free remainder gathered
        # (_zeros_of) over many chunks: the cycle lengths must not depend on
        # the chunk size
        dynamics._work()  # the workspace keeps the default chunk
        monkeypatch.setattr(dynamics, "_CHUNK", 16)
        n = self.RULED
        assert n // dynamics._RULER_STRIDE > 4 * dynamics._CHUNK
        rng = np.random.default_rng(12)
        self.check(rng.permutation(n))
        order = rng.permutation(n)  # one giant cycle
        giant = np.empty(n, dtype=np.int64)
        giant[order] = np.roll(order, -1)
        self.check(giant)

    @pytest.mark.parametrize("chunk", [dynamics._CHUNK, 64])
    def test_fan_in_over_several_numpy_rounds(self, monkeypatch, chunk):
        # layers of 4800, 2400, ... nodes into a 3-cycle, each node of a
        # layer the head of one or more (two on average) nodes of the layer
        # above: every frontier down to 300 nodes is wide (five numpy
        # rounds), and a head freed by several leaves must enter the next
        # frontier once (else its successor is decremented twice and never
        # freed). A chunk of 64 spreads a head's leaves over several chunks
        # of a round.
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
        rng = np.random.default_rng(73)
        table = [1, 2, 0]
        below = [0]
        for size in (75, 150, 300, 600, 1200, 2400, 4800):
            layer = list(range(len(table), len(table) + size))
            # every node below is hit at least once, the rest at random
            heads = below + rng.choice(below, size - len(below)).tolist()
            table += rng.permutation(heads).tolist()
            below = layer
        assert len(below) > 8 * dynamics._NARROW
        label = rng.permutation(len(table))
        relabelled = np.empty(len(table), dtype=np.int64)
        relabelled[label] = label[table]
        self.check(relabelled)


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


class TestPrimitiveRoots:
    # t = p-1: S is a permutation and goes straight to the cycle finder,
    # whose method follows the size of the cyclic set (all of <g>)

    @pytest.mark.parametrize("p, rulers", [(1009, 0), (5003, 79), (20011, 313)])
    def test_summary_and_census_against_oracles(self, p, rulers):
        # p-1 at most _WALK_LIMIT (walked in Python), or split by a ruling
        # set of more than _RULER_STRIDE rulers, which runs lockstep rounds
        walked = p - 1 <= dynamics._WALK_LIMIT
        assert (0 if walked else -(-(p - 1) // dynamics._RULER_STRIDE)) == rulers
        assert walked or rulers > dynamics._RULER_STRIDE
        rng = random.Random(p)
        roots = [g for g in rng.sample(range(2, p - 1), 40) if brute_order(g, p) == p - 1]
        for g in roots[:2]:
            summary, census = dynamics.census_graph(dynamics.ExpMap(p, g), k_max=4)
            assert summary == oracle_summary(p, g), (p, g)
            assert summary.is_permutation and summary.max_tail_length == 0
            n_div, n_least = brute_census(p, g, 4)
            assert list(census.n_dividing) == n_div, (p, g)
            assert list(census.n_least_period) == n_least, (p, g)


class TestPermutationCriterion:
    def test_small_exhaustive(self):
        for p in trial_primes_between(3, 97):
            for g in range(1, p):
                summary, _ = dynamics.census_graph(dynamics.ExpMap(p, g))
                assert summary.is_permutation == (brute_order(g, p) == p - 1), (p, g)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
class TestMemoryModels:
    # Each pass runs in a fresh interpreter. Its peak RSS over the
    # post-import baseline must stay within the module's constant per
    # element of <g>, plus SLACK for page granularity and the workspace.
    # The peak is VmHWM, the high-water mark of the child's own address
    # space: getrusage's ru_maxrss keeps that of the spawning process
    # across fork and exec, so under a large pytest process it would
    # hide the pass.
    SLACK = 4 << 20
    PEAK = """
from expcycles import dynamics
from expcycles.modarith import multiplicative_order

def high_water():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

m = dynamics.ExpMap({p}, {g})
base = high_water()
dynamics.{call}
print(multiplicative_order(m.g, m.p), (high_water() - base) * 1024)
"""

    def peak(self, p, g, call):
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        done = subprocess.run([sys.executable, "-c", self.PEAK.format(p=p, g=g, call=call)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        return tuple(map(int, done.stdout.split()))

    # index 7; index 2, the widest peel; and a primitive root (a permutation)
    @pytest.mark.parametrize("g", [2, 3, 6])
    def test_graph_pass(self, g):
        t, grown = self.peak(10000019, g, "census_graph(m, 3)")
        assert t >= 10**6
        assert grown <= dynamics._GRAPH_BYTES_PER_NODE * t + self.SLACK, grown / t

    def test_table_census(self):
        t, grown = self.peak(10000019, 6, "census_table(m, 3)")
        assert t == 10000018
        assert grown <= dynamics._CENSUS_BYTES_PER_NODE * t + self.SLACK, grown / t


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
