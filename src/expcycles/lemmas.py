"""Executable checkers for the supporting lemmas and the 3-cycle proof harness.

Three independent pieces:

  * fact1_*: the exponent-folding identity g**(u mod p) == g**(u - floor(u/p)).
  * fact2_*: the floor-jump implication, whose exceptional y values form
    the g-element set {floor(jp/g)} + {p-1}.
  * comb_*:  the interval-counting lemma on Z_n: a map phi from
    C - S into Z_n - M with preimages of size <= k forces
    #M <= (k+1)/(k+2) n + #S/(k+2).

thm3_verify ties them together: it builds the proof objects (the
exceptional set S, the map phi) for a concrete (p, g) with g a primitive
root and checks every claim made about them, including the final bound
through the combinatorial lemma itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .modarith import check_prime_modulus, discrete_log, is_primitive_root

M_SEMANTICS = dynamics.M_SEMANTICS


def fact1_check(u: int, p: int, g: int) -> bool:
    """g**(u mod p) == g**(u - floor(u/p)) (mod p); holds for every u >= 0."""
    check_prime_modulus(p)
    if u < 0:
        raise ValueError("u must be >= 0")
    g %= p
    if g == 0:
        raise ValueError("g must not be divisible by p")
    return pow(g, u % p, p) == pow(g, u - u // p, p)


def fact2_exceptional_set(p: int, g: int) -> set[int]:
    """{floor(jp/g) : 1 <= j <= g-1} together with p-1 (g elements total)."""
    check_prime_modulus(p)
    if not 1 <= g <= p - 1:
        raise ValueError(f"g={g} outside {{1,...,{p - 1}}}")
    out = {j * p // g for j in range(1, g)}
    out.add(p - 1)
    return out


def fact2_check(p: int, g: int, y: int) -> bool:
    """The floor-jump implication at a single y.

    True iff floor((gy+g)/p) <= floor((gy+1)/p), or y belongs to the
    exceptional set. Expected true for every y in {1,...,p-1}.
    """
    if not 1 <= y <= p - 1:
        raise ValueError(f"y={y} outside {{1,...,{p - 1}}}")
    gy = g * y
    if (gy + g) // p <= (gy + 1) // p:
        return True
    return y in fact2_exceptional_set(p, g)


def fact2_violations(p: int, g: int) -> list[int]:
    """All y in {1,...,p-1} where the implication fails; expected [].

    Vectorized over y in int64. g*p >= 2**62 needs p > 2**31, where the
    arrays alone would exceed 17 GB; it raises ValueError at once.
    """
    if g * p >= 2**62:
        raise ValueError(f"p={p}, g={g}: g*p >= 2**62 is too large for the int64 sweep")
    exceptional = fact2_exceptional_set(p, g)
    y = np.arange(1, p, dtype=np.int64)
    gy = g * y
    jump = (gy + g) // p > (gy + 1) // p
    return [int(v) for v in y[jump] if int(v) not in exceptional]


class MalformedInstanceError(ValueError):
    """The instance violates its own shape constraints (phi domain, ranges)."""


@dataclass
class CombLemmaInstance:
    """A concrete (n, M, S, k, phi) tuple for the interval-counting lemma.

    phi's domain must equal C - S, where C = {x in M : x+1 (mod n) in M}.
    """

    n: int
    m_set: set[int]
    s_set: set[int]
    k: int
    phi: dict[int, int] = field(default_factory=dict)


def adjacency_core(n: int, m_set: set[int]) -> set[int]:
    """C = {x in M : x+1 (mod n) in M}, the adjacent-pair core of M."""
    return {x for x in m_set if (x + 1) % n in m_set}


def comb_verify(inst: CombLemmaInstance) -> tuple[bool, bool]:
    """(hypotheses_ok, bound_ok) for one instance.

    hypotheses_ok: phi maps C - S into Z_n - M with every preimage of
    size <= k. bound_ok: #M * (k+2) <= (k+1) * n + #S, the integer form
    of the bound. The lemma asserts the first implies the second.
    """
    if inst.n < 1:
        raise ValueError("n must be >= 1")
    if inst.k < 1:
        raise ValueError("k must be >= 1")
    if not all(0 <= x < inst.n for x in inst.m_set):
        raise MalformedInstanceError("M not contained in Z_n")
    if not all(0 <= x < inst.n for x in inst.s_set):
        raise MalformedInstanceError("S not contained in Z_n")
    domain = adjacency_core(inst.n, inst.m_set) - inst.s_set
    if set(inst.phi) != domain:
        raise MalformedInstanceError("phi domain differs from C - S")
    if not all(0 <= v < inst.n for v in inst.phi.values()):
        raise MalformedInstanceError("phi value outside Z_n")
    hypotheses_ok = all(v not in inst.m_set for v in inst.phi.values())
    if hypotheses_ok:
        counts = Counter(inst.phi.values())
        hypotheses_ok = max(counts.values(), default=0) <= inst.k
    bound_ok = len(inst.m_set) * (inst.k + 2) <= (inst.k + 1) * inst.n + len(inst.s_set)
    return hypotheses_ok, bound_ok


def random_comb_instance(
    rng: random.Random, n_max: int = 64, k: int = 2
) -> CombLemmaInstance:
    """A random instance whose phi is constructed to satisfy the hypotheses.

    Draws M and S, then assigns C - S round-robin over Z_n - M so every
    preimage has size <= k; redraws when no such assignment can exist.
    """
    while True:
        n = rng.randint(1, n_max)
        m_set = set(rng.sample(range(n), rng.randint(0, n)))
        s_set = set(rng.sample(range(n), rng.randint(0, n)))
        domain = sorted(adjacency_core(n, m_set) - s_set)
        targets = sorted(set(range(n)) - m_set)
        if len(domain) > k * len(targets):
            continue
        phi = {x: targets[i // k] for i, x in enumerate(domain)}
        return CombLemmaInstance(n, m_set, s_set, k, phi)


def thm3_S(p: int, g: int) -> set[int]:
    """Index part of the exceptional set for the 3-cycle argument.

    {p-1, ind_g(p-1)} plus ind_g(floor(jp/g)) for 1 <= j <= g-1, at most
    g+1 elements. Raises ValueError unless p is an odd prime and g, in
    1..p-1, is a primitive root mod p.
    """
    check_prime_modulus(p)
    if not 1 <= g <= p - 1:
        raise ValueError(f"g={g} outside {{1,...,{p - 1}}}")
    if not is_primitive_root(g, p):
        raise ValueError(f"g={g} is not a primitive root mod {p}")
    out = {p - 1, discrete_log(g, p - 1, p)}
    for j in range(1, g):
        out.add(discrete_log(g, j * p // g, p))
    return out


def three_periodic_set(m: dynamics.ExpMap, semantics: str) -> set[int]:
    """The 3-periodic point set under the chosen semantics.

    "dividing": {u : u_3 == u} (includes fixed points); "least": points
    of least period exactly 3. Raises as _pow_range and _three_periodic do.
    """
    return _three_periodic(dynamics._pow_range(m.g, m.p, m.p), semantics)


def _three_periodic(table: np.ndarray, semantics: str) -> set[int]:
    """The 3-periodic points of u -> table[u] among 1..len(table)-1.

    A semantics outside M_SEMANTICS raises ValueError.
    """
    if semantics not in M_SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}; use one of {M_SEMANTICS}")
    base = np.arange(1, len(table), dtype=np.int64)
    t1 = table[1:]
    mask = table[table[t1]] == base
    if semantics == "least":
        mask &= t1 != base
    return {int(u) for u in base[mask]}


def thm3_phi(
    m: dynamics.ExpMap, x: int, m_set: set[int], s_set: set[int] = frozenset()
) -> int:
    """The map phi at x: f(x)+1 (mod p), or f(f(f(x)+1))+1 when that lands in M.

    x must lie in C - S for the given M (and S); everything is mod-p
    arithmetic on representatives {0,...,p-1}.
    """
    p = m.p
    c_set = adjacency_core(p, m_set)
    if x not in c_set or x in s_set:
        raise ValueError(f"x={x} outside the phi domain C - S")
    w = (dynamics.apply(m, x) + 1) % p
    if w not in m_set:
        return w
    return (dynamics.apply(m, dynamics.apply(m, w)) + 1) % p


@dataclass
class Thm3ProofReport:
    """Everything thm3_verify established about one (p, g) instance."""

    p: int
    g: int
    m_semantics: str
    m_set: set[int]
    s_index: set[int]  # {p-1, ind(p-1), ind(floor(jp/g))}
    x_set: set[int]  # empirical polynomial-root part
    s_set: set[int]  # s_index | x_set
    c_set: set[int]
    phi: dict[int, int]
    phi_total: bool
    phi_lands_outside_m: bool
    max_preimage: int
    key_claim_ok: bool
    hypotheses_ok: bool
    bound_check: bool
    x_cardinality_ok: bool  # #X <= g**(2g+1)
    s_cardinality_ok: bool  # #S <= g**(2g+1) + g + 1

    @property
    def all_ok(self) -> bool:
        return (
            self.phi_total
            and self.phi_lands_outside_m
            and self.max_preimage <= 2
            and self.key_claim_ok
            and self.hypotheses_ok
            and self.bound_check
            and self.x_cardinality_ok
            and self.s_cardinality_ok
        )


def thm3_verify(p: int, g: int, m_semantics: str = "least") -> Thm3ProofReport:
    """Construct and check the 3-cycle proof objects for a concrete (p, g).

    M is the 3-periodic set under the chosen semantics. The index part of
    S is computed directly; the polynomial-root part X is recovered
    empirically as the x in C - S_index whose second phi branch lands
    back in M, then held to the cardinality ceiling g**(2g+1). phi is
    evaluated on all of C - S and the final bound goes through
    comb_verify on the assembled instance with k = 2.

    As X is recovered that way, phi_total, phi_lands_outside_m and
    key_claim_ok hold by construction, and hypotheses_ok equals
    max_preimage <= 2. The checks that can fail are max_preimage,
    bound_check, x_cardinality_ok and s_cardinality_ok.

    Raises as thm3_S does, then as _pow_range and _three_periodic do.
    """
    s_index = thm3_S(p, g)
    table = dynamics._pow_range(g, p, p)
    m_set = _three_periodic(table, m_semantics)
    c_set = adjacency_core(p, m_set)

    tl = table.tolist()
    phi: dict[int, int] = {}
    x_set: set[int] = set()
    for x in sorted(c_set - s_index):
        w = (tl[x] + 1) % p
        if w not in m_set:
            phi[x] = w
            continue
        v = (tl[tl[w]] + 1) % p
        if v in m_set:
            x_set.add(x)  # second branch trapped in M: exceptional point
        else:
            phi[x] = v
    s_set = s_index | x_set

    # the key claim, checked over all x outside the assembled S
    key_claim_ok = True
    for x in c_set - s_set:
        w = (tl[x] + 1) % p
        if w in m_set and (tl[tl[w]] + 1) % p in m_set:
            key_claim_ok = False
            break

    phi_total = set(phi) == c_set - s_set
    phi_lands_outside_m = all(v not in m_set for v in phi.values())
    max_preimage = max(Counter(phi.values()).values(), default=0)
    hypotheses_ok, bound_check = comb_verify(
        CombLemmaInstance(n=p, m_set=m_set, s_set=s_set, k=2, phi=phi)
    )
    ceiling = g ** (2 * g + 1)
    return Thm3ProofReport(
        p=p,
        g=g,
        m_semantics=m_semantics,
        m_set=m_set,
        s_index=s_index,
        x_set=x_set,
        s_set=s_set,
        c_set=c_set,
        phi=phi,
        phi_total=phi_total,
        phi_lands_outside_m=phi_lands_outside_m,
        max_preimage=max_preimage,
        key_claim_ok=key_claim_ok,
        hypotheses_ok=hypotheses_ok,
        bound_check=bound_check,
        x_cardinality_ok=len(x_set) <= ceiling,
        s_cardinality_ok=len(s_set) <= ceiling + g + 1,
    )
