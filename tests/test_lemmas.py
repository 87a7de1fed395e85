import random

import pytest

from conftest import brute_ind, brute_table, trial_primes_between
from expcycles import dynamics, lemmas, modarith
from expcycles.modarith import is_primitive_root, primitive_root


class TestFact1:
    def test_worked_example(self):
        # u=25, p=7: both sides reduce to 3**4 = 4 mod 7
        assert lemmas.fact1_check(25, 7, 3)

    def test_below_p_is_reflexive(self):
        for u in range(0, 7):
            assert lemmas.fact1_check(u, 7, 3)

    def test_large_u(self):
        assert lemmas.fact1_check(10**6, 11, 2)

    def test_random_triples(self):
        rng = random.Random(30)
        pool = trial_primes_between(3, 5000)
        for _ in range(2000):
            p = rng.choice(pool)
            g = rng.randint(1, p - 1)
            u = rng.randint(0, 10**7)
            assert lemmas.fact1_check(u, p, g), (u, p, g)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            lemmas.fact1_check(5, 7, 0)


class TestFact2:
    def test_exceptional_sets(self):
        assert lemmas.fact2_exceptional_set(11, 2) == {5, 10}
        assert lemmas.fact2_exceptional_set(11, 3) == {3, 7, 10}
        for p in (7, 11, 101):
            assert lemmas.fact2_exceptional_set(p, 1) == {p - 1}

    def test_set_has_at_most_g_elements(self):
        for p in trial_primes_between(3, 100):
            for g in range(1, p):
                assert len(lemmas.fact2_exceptional_set(p, g)) <= g

    def test_check_examples(self):
        assert lemmas.fact2_check(11, 2, 10)  # jump occurs, y = p-1 is exceptional
        assert lemmas.fact2_check(11, 2, 5)   # no jump
        assert lemmas.fact2_check(101, 3, 1)  # gy + g < p, both floors zero

    def test_exhaustive_small(self):
        for p in trial_primes_between(3, 199):
            for g in range(2, min(14, p)):
                for y in range(1, p):
                    assert lemmas.fact2_check(p, g, y), (p, g, y)

    def test_vectorized_agrees_with_scalar(self):
        rng = random.Random(31)
        for _ in range(25):
            p = rng.choice(trial_primes_between(3, 2000))
            g = rng.randint(1, min(50, p - 1))
            expected = [y for y in range(1, p) if not lemmas.fact2_check(p, g, y)]
            assert lemmas.fact2_violations(p, g) == expected == []

    def test_violations_refuse_products_beyond_int64(self):
        # g*p >= 2**62 needs p > 2**31; refused before any set or array exists
        with pytest.raises(ValueError):
            lemmas.fact2_violations(2147483659, 2147483658)


class TestCombLemma:
    def worked_instance(self):
        return lemmas.CombLemmaInstance(
            n=10, m_set=set(range(6)), s_set=set(), k=2,
            phi={0: 6, 1: 6, 2: 7, 3: 7, 4: 8},
        )

    def test_worked_instance(self):
        assert lemmas.comb_verify(self.worked_instance()) == (True, True)

    def test_empty_m(self):
        inst = lemmas.CombLemmaInstance(n=8, m_set=set(), s_set=set(), k=2, phi={})
        assert lemmas.comb_verify(inst) == (True, True)

    def test_full_m_cannot_satisfy_hypotheses(self):
        # C = Z_n and the codomain is empty, so any total phi lands in M
        n = 6
        inst = lemmas.CombLemmaInstance(
            n=n, m_set=set(range(n)), s_set=set(), k=2,
            phi={x: 0 for x in range(n)},
        )
        hypotheses_ok, bound_ok = lemmas.comb_verify(inst)
        assert not hypotheses_ok
        assert not bound_ok  # n*4 > 3n: the lemma is not contradicted

    def test_domain_mismatch_rejected(self):
        inst = self.worked_instance()
        del inst.phi[4]
        with pytest.raises(lemmas.MalformedInstanceError):
            lemmas.comb_verify(inst)

    def test_value_outside_zn_rejected(self):
        inst = self.worked_instance()
        inst.phi[4] = 10
        with pytest.raises(lemmas.MalformedInstanceError):
            lemmas.comb_verify(inst)

    def test_m_outside_zn_rejected(self):
        inst = lemmas.CombLemmaInstance(n=4, m_set={5}, s_set=set(), k=2, phi={})
        with pytest.raises(lemmas.MalformedInstanceError):
            lemmas.comb_verify(inst)

    def test_k_zero_rejected(self):
        inst = lemmas.CombLemmaInstance(n=4, m_set=set(), s_set=set(), k=0, phi={})
        with pytest.raises(ValueError):
            lemmas.comb_verify(inst)

    def test_preimage_overflow_fails_hypotheses(self):
        inst = self.worked_instance()
        inst.phi = {0: 6, 1: 6, 2: 6, 3: 7, 4: 8}  # 6 has three preimages, k = 2
        hypotheses_ok, _ = lemmas.comb_verify(inst)
        assert not hypotheses_ok

    def test_random_instances_satisfy_bound(self):
        rng = random.Random(32)
        for _ in range(200):
            inst = lemmas.random_comb_instance(rng, n_max=48, k=rng.randint(1, 3))
            hypotheses_ok, bound_ok = lemmas.comb_verify(inst)
            assert hypotheses_ok  # by construction
            assert bound_ok


class TestThm3S:
    def test_golden_11_2(self):
        assert lemmas.thm3_S(11, 2) == {10, 5, 4}

    def test_7_3_against_linear_scan(self):
        expected = {6, brute_ind(3, 6, 7), brute_ind(3, 7 // 3, 7), brute_ind(3, 14 // 3, 7)}
        assert lemmas.thm3_S(7, 3) == expected == {2, 3, 4, 6}

    def test_cardinality_at_most_g_plus_one(self):
        for p in trial_primes_between(3, 300):
            g = primitive_root(p)
            assert len(lemmas.thm3_S(p, g)) <= g + 1

    def test_rejects_non_primitive_root(self):
        with pytest.raises(ValueError):
            lemmas.thm3_S(7, 2)

    def test_primitive_root_tested_once(self, monkeypatch):
        # g + 1 discrete logs share the one primitive-root test of g
        p, g = 1000003, 5
        expected = {p - 1} | {modarith.discrete_log(g, h, p) for h in
                              [p - 1] + [j * p // g for j in range(1, g)]}
        calls = []

        def counted(*args):
            calls.append(args)
            return is_primitive_root(*args)

        monkeypatch.setattr(lemmas, "is_primitive_root", counted)
        monkeypatch.setattr(modarith, "is_primitive_root", counted)
        assert lemmas.thm3_S(p, g) == expected
        assert calls == [(g, p)]


class TestThm3Phi:
    def test_empty_domain_rejected(self):
        # (11, 2) has no 3-cycles, so C is empty
        m = dynamics.ExpMap(11, 2)
        m_set = lemmas.three_periodic_set(m, "least")
        assert m_set == set()
        with pytest.raises(ValueError):
            lemmas.thm3_phi(m, 3, m_set)

    def test_first_branch_instance(self):
        # p=19, g=2: 3-cycles {6,7,14} and {11,12,15}; C = {6, 11, 14}
        m = dynamics.ExpMap(19, 2)
        m_set = lemmas.three_periodic_set(m, "least")
        assert m_set == {6, 7, 11, 12, 14, 15}
        s_idx = lemmas.thm3_S(19, 2)
        table = brute_table(19, 2)
        for x in (6, 11):
            assert x not in s_idx
            value = lemmas.thm3_phi(m, x, m_set, s_idx)
            assert value == (table[x] + 1) % 19  # first branch
            assert value not in m_set

    def test_second_branch_value(self):
        # x=14 at p=19 takes the second branch (f(14)+1 = 7 lies in M)
        m = dynamics.ExpMap(19, 2)
        m_set = lemmas.three_periodic_set(m, "least")
        table = brute_table(19, 2)
        w = (table[14] + 1) % 19
        assert w in m_set
        value = lemmas.thm3_phi(m, 14, m_set)
        assert value == (table[table[w]] + 1) % 19

    def test_domain_excludes_s(self):
        m = dynamics.ExpMap(19, 2)
        m_set = lemmas.three_periodic_set(m, "least")
        with pytest.raises(ValueError):
            lemmas.thm3_phi(m, 6, m_set, s_set={6})


class TestThreePeriodicSet:
    def test_semantics(self):
        m = dynamics.ExpMap(7, 3)
        assert lemmas.three_periodic_set(m, "least") == {1, 3, 6}
        assert lemmas.three_periodic_set(m, "dividing") == {1, 2, 3, 4, 5, 6}
        m = dynamics.ExpMap(19, 2)
        assert lemmas.three_periodic_set(m, "least") == {6, 7, 11, 12, 14, 15}

    def test_refused_above_int64_limit(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_NUMPY_MOD_LIMIT", 18)
        with pytest.raises(dynamics.MemoryBudgetError, match="int64"):
            lemmas.three_periodic_set(dynamics.ExpMap(19, 2), "least")
        with pytest.raises(dynamics.MemoryBudgetError, match="int64"):
            lemmas.thm3_verify(19, 2, "least")

    def test_dividing_contains_fixed_points(self):
        rng = random.Random(33)
        for _ in range(20):
            p = rng.choice(trial_primes_between(3, 500))
            m = dynamics.ExpMap(p, rng.randint(1, p - 1))
            dividing = lemmas.three_periodic_set(m, "dividing")
            assert dynamics.fixed_points(m) <= dividing
            assert lemmas.three_periodic_set(m, "least") == dividing - dynamics.fixed_points(m)


class TestThm3Verify:
    def test_empty_m_11_2(self):
        report = lemmas.thm3_verify(11, 2, "least")
        assert report.m_set == set()
        assert report.phi == {}
        assert report.all_ok

    def test_7_3_least(self):
        report = lemmas.thm3_verify(7, 3, "least")
        assert report.m_set == {1, 3, 6}
        assert report.c_set == set()  # no adjacent pair inside M
        assert report.bound_check  # 3*4 <= 3*7 + |S|
        assert report.all_ok

    def test_7_3_dividing_nonempty_x(self):
        # M is all of {1,...,6}; both core points outside the index set
        # are trapped by the second branch, so X = {1, 5}
        report = lemmas.thm3_verify(7, 3, "dividing")
        assert report.m_set == {1, 2, 3, 4, 5, 6}
        assert report.x_set == {1, 5}
        assert report.s_set == {1, 2, 3, 4, 5, 6}
        assert report.phi == {}
        assert report.all_ok

    def test_19_2_least_x_nonempty(self):
        report = lemmas.thm3_verify(19, 2, "least")
        assert report.m_set == {6, 7, 11, 12, 14, 15}
        assert report.x_set == {14}
        assert report.phi == {6: 8, 11: 16}
        assert report.max_preimage <= 2
        assert report.all_ok

    def test_rejects_non_primitive_root(self):
        for p, g, match in [(7, 2, "not a primitive root"), (19, 7, "not a primitive root"),
                            (19, 19, "outside"), (19, 21, "outside")]:
            with pytest.raises(ValueError, match=match):
                lemmas.thm3_verify(p, g)

    def test_rejects_bad_semantics(self):
        for p, g, semantics in [(11, 2, "exact"), (19, 2, "maximal")]:
            with pytest.raises(ValueError, match="unknown semantics"):
                lemmas.thm3_verify(p, g, semantics)

    def test_sweep_small(self):
        for p in trial_primes_between(11, 300):
            for g in (2, 3):
                if g <= p - 1 and is_primitive_root(g, p):
                    for semantics in lemmas.M_SEMANTICS:
                        report = lemmas.thm3_verify(p, g, semantics)
                        assert report.all_ok, (p, g, semantics)
