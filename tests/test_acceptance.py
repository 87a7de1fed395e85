"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Every expected value is recomputed here by brute force or checked
through an independent route; nothing is trusted from the implementation
under test.
"""

import json
import random

from conftest import (
    brute_census,
    brute_cycle_multiset,
    brute_order,
    brute_thm2_holds,
    brute_thm3_holds,
    ec_brute_census,
    ec_brute_points,
    trial_primes_between,
)
from expcycles import bounds, cli, dynamics, ecdynamics, lemmas
from expcycles.modarith import is_primitive_root, primes_in_range


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {text}")


def test_criterion_01_fixed_point_bound_sweep():
    violations = [(p, g, n1) for p in primes_in_range(11, 2003)
                  for g, n1 in enumerate(dynamics.fixed_point_counts_all_bases(p).tolist())
                  if g and not bounds.thm1_holds(p, n1)]
    assert violations == []
    # spot-check the vectorized counter against the definitional census
    rng = random.Random(101)
    for _ in range(20):
        p = rng.choice(primes_in_range(11, 2003))
        g = rng.randint(1, p - 1)
        counts = dynamics.fixed_point_counts_all_bases(p)
        assert counts[g] == len(dynamics.fixed_points(dynamics.ExpMap(p, g)))
    report(1, "N(1) <= sqrt(2p)+1/2 for all primes 11..2003, all g: zero violations")


def test_criterion_02_two_cycle_bound_sweep(tmp_path):
    # the README example, through the CLI and its worker pool
    out = tmp_path / "bounds.jsonl"
    code = cli.main(["verify-bounds", "--pmin", "3", "--pmax", "100000", "--g-list", "2,3",
                     "--workers", "2", "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    expected = [(p, g) for p in trial_primes_between(3, 10**5) for g in (2, 3) if g < p]
    assert len(rows) == len(expected) == 19181
    assert [(row["p"], row["g"]) for row in rows] == expected
    for row in rows:
        assert row["flags"]["thm2"] is brute_thm2_holds(row["p"], row["g"], row["n2"]) is True
    rng = random.Random(102)
    for row in rng.sample([row for row in rows if row["p"] < 5000], 30):
        n_div, _ = brute_census(row["p"], row["g"], 3)
        assert [row["n1"], row["n2"], row["n3"]] == n_div[1:], row
    report(2, "N(2) <= ceil(2p/z)+2+2g^(2z) for g in {2,3}, all primes p <= 1e5")


def test_criterion_03_three_cycle_bound_sweep():
    for p in trial_primes_between(3, 10**4):
        for g in (2, 3, 5):
            if g < p:
                r = bounds.verify(dynamics.ExpMap(p, g))
                assert r.thm3_ok is brute_thm3_holds(p, g, r.n3) is True, (p, g)
    report(3, "N(3) <= 3p/4+(g^(2g+1)+g+1)/4 for g in {2,3,5}, all primes p <= 1e4")


def test_criterion_04_census_oracle_equivalence():
    rng = random.Random(104)
    for p in trial_primes_between(3, 1999):
        for g in [rng.randint(1, p - 1) for _ in range(5)]:
            m = dynamics.ExpMap(p, g)
            naive = dynamics.census_naive(m, 6)
            _, derived = dynamics.census_graph(m, k_max=6)
            assert naive == derived, (p, g)
    report(4, "census_naive == census_graph census, all primes p < 2000, 5 random g each")


def test_criterion_05_golden_instances():
    cases = {
        (11, 2): ((1, 5, 1), [1, 2, 2, 5], None),
        (7, 3): ((3, 3, 6), None, None),
        (7, 2): ((0, 2, 0), None, {2, 4}),
    }
    for (p, g), (n_expected, multiset, cyclic) in cases.items():
        # recompute the expectation by brute force before asserting
        n_div, _ = brute_census(p, g, 3)
        assert tuple(n_div[1:]) == n_expected
        census = dynamics.census_naive(dynamics.ExpMap(p, g), 3)
        assert census.n_dividing[1:] == n_expected
        summary, _ = dynamics.census_graph(dynamics.ExpMap(p, g))
        if multiset is not None:
            assert brute_cycle_multiset(p, g) == multiset
            assert list(summary.cycle_length_multiset) == multiset
        if cyclic is not None:
            entry_points = {
                dynamics.orbit(dynamics.ExpMap(p, g), u).entry_point for u in range(1, p)
            }
            cyclic_points = set()
            for u in entry_points:
                rec = dynamics.orbit(dynamics.ExpMap(p, g), u)
                cyclic_points.add(u)
                for _ in range(rec.cycle_length - 1):
                    u = dynamics.apply(dynamics.ExpMap(p, g), u)
                    cyclic_points.add(u)
            assert cyclic_points == cyclic
            assert summary.cyclic_point_count == len(cyclic)
    report(5, "golden censuses (11,2), (7,3), (7,2) recomputed by brute force and matched")


def test_criterion_06_lemma_sweeps():
    rng = random.Random(106)
    pool = primes_in_range(3, 10**4)
    for _ in range(10**6):
        p = rng.choice(pool)
        g = rng.randint(1, p - 1)
        u = rng.randint(0, 10**7)
        assert lemmas.fact1_check(u, p, g), (u, p, g)
    for p in pool:
        for g in range(2, 14):
            if g <= p - 1:
                assert lemmas.fact2_violations(p, g) == [], (p, g)
    report(6, "fact1 on 1e6 random triples; fact2 exhaustive p < 1e4, g in 2..13")


def test_criterion_07_comb_lemma_randomized():
    rng = random.Random(107)
    for _ in range(1000):
        inst = lemmas.random_comb_instance(rng, n_max=64, k=2)
        hypotheses_ok, bound_ok = lemmas.comb_verify(inst)
        assert hypotheses_ok and bound_ok, (inst.n, sorted(inst.m_set), sorted(inst.s_set))
    worked = lemmas.CombLemmaInstance(
        n=10, m_set=set(range(6)), s_set=set(), k=2,
        phi={0: 6, 1: 6, 2: 7, 3: 7, 4: 8},
    )
    assert lemmas.comb_verify(worked) == (True, True)
    report(7, "1000 seeded lemma instances (n <= 64) all satisfy the bound; worked n=10 too")


def test_criterion_08_three_cycle_proof_harness():
    checked = 0
    for p in primes_in_range(11, 2003):
        if not is_primitive_root(2, p):
            continue
        for semantics in ("least", "dividing"):
            r = lemmas.thm3_verify(p, 2, semantics)
            assert r.phi_total, (p, semantics)
            assert r.phi_lands_outside_m, (p, semantics)
            assert r.max_preimage <= 2, (p, semantics)
            assert r.key_claim_ok, (p, semantics)
            assert r.hypotheses_ok and r.bound_check, (p, semantics)
            assert r.x_cardinality_ok and r.s_cardinality_ok, (p, semantics)
        checked += 1
    assert checked > 100  # primes with 2 a primitive root are plentiful in range
    report(8, f"proof harness: phi total, codomain ok, preimages <= 2, key claim "
              f"ok on {checked} primes, both semantics")


def test_criterion_09_elliptic_curve_module():
    curve = ecdynamics.CurveParams(5, 1, 1)
    assert ecdynamics.curve_order(curve) == 9
    points = [None] + ec_brute_points(5, 1, 1)
    assert len(points) == 9
    for point in points:
        assert ecdynamics.scalar_mul(curve, 9, point) is None
    rng = random.Random(109)
    prime_pool = trial_primes_between(5, 2000)
    for _ in range(100):
        p = rng.choice(prime_pool)
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a * a * a + 27 * b * b) % p:
                break
        n = ecdynamics.curve_order(ecdynamics.CurveParams(p, a, b))
        assert ecdynamics.hasse_ok(p, n), (p, a, b, n)
    m = ecdynamics.ECExpMap(curve, (0, 1))
    census = ecdynamics.ec_census(m, 3)
    n_div, n_least = ec_brute_census(
        [ecdynamics.ec_apply(m, u) for u in range(9)], 9, 3
    )
    assert list(census.n_dividing) == n_div
    assert list(census.n_least_period) == n_least
    report(9, "F_5 curve has N=9, N*P=O for all points, 100 random curves in the "
              "Hasse window, census matches enumeration")


def test_criterion_10_permutation_criterion():
    for p in trial_primes_between(3, 499):
        for g in range(1, p):
            summary, _ = dynamics.census_graph(dynamics.ExpMap(p, g))
            assert summary.is_permutation == (brute_order(g, p) == p - 1), (p, g)
    report(10, "is_permutation == (order(g) == p-1) for all p < 500, all g")
