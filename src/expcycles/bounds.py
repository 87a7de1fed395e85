"""Explicit upper bounds on fixed-point and short-cycle counts.

Three bound families are evaluated against exact censuses:

  k=1:  N <= sqrt(2p) + 1/2            (guaranteed for p >= 11)
  k=2:  N <= ceil(2p/z) + 2 + 2g**(2z) with z = ceil(log p / (3 log g))
  k=3:  N <= (3p + g**(2g+1) + g + 1) / 4

All comparisons are exact integer inequalities. verify decides all
three; thm1_sweep lists k=1 violations for all g. Above THM3_EXACT_BITS
verify computes no power: there g**(2g+1) >= 2**512 > 4p (p < 2**63),
so the k=3 bound holds and is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from . import dynamics
from .modarith import primes_in_range

# Smallest p for which the fixed-point bound is guaranteed.
THM1_MIN_P = 11

# Largest (2g+1) * g.bit_length() for which verify builds g**(2g+1).
THM3_EXACT_BITS = 1024


def thm1_bound(p: int) -> float:
    """sqrt(2p) + 1/2, the fixed-point ceiling."""
    return math.sqrt(2 * p) + 0.5


def thm1_holds(p: int, n1: int) -> bool:
    """n1 <= sqrt(2p) + 1/2 in exact integer form (no float rounding)."""
    if n1 <= 0:
        return True
    return (2 * n1 - 1) ** 2 <= 8 * p


def thm2_z(p: int, g: int) -> int:
    """ceil(log p / (3 log g)), computed exactly as the least z with g**(3z) >= p."""
    if g < 2:
        raise ValueError("the z parameter needs g >= 2")
    if p < 2:
        raise ValueError("p must be >= 2")
    z = 1
    cube = g**3
    power = cube
    while power < p:
        power *= cube
        z += 1
    return z


def thm2_bound_explicit(p: int, g: int) -> tuple[int, int]:
    """(z, ceil(2p/z) + 2 + 2*g**(2z)) with exact integer arithmetic.

    The ceiling on 2p/z keeps the value on the conservative side; g**(2z)
    is exact however large it gets.
    """
    z = thm2_z(p, g)
    bound = -(-2 * p // z) + 2 + 2 * g ** (2 * z)
    return z, bound


def thm3_bound(p: int, g: int):
    """(3p + g**(2g+1) + g + 1) / 4 as an exact Fraction."""
    from fractions import Fraction  # here, so that importing bounds does not load it
    if g < 1:
        raise ValueError("g must be >= 1")
    return Fraction(3 * p + g ** (2 * g + 1) + g + 1, 4)


@dataclass(frozen=True)
class BoundReport:
    """Exact counts for k <= 3 next to the three bounds and their flags."""

    p: int
    g: int
    n1: int
    n2: int
    n3: int
    thm1_value: float
    thm1_applicable: bool
    thm1_ok: bool
    thm2_z: int | None
    thm2_value: int | None
    thm2_ok: bool
    thm3_value: str
    thm3_ok: bool
    notes: tuple[str, ...]

    @property
    def violated(self) -> bool:
        """True when a bound with satisfied hypotheses fails."""
        return (
            (self.thm1_applicable and not self.thm1_ok)
            or not self.thm2_ok
            or not self.thm3_ok
        )


def verify(m: dynamics.ExpMap, census: dynamics.CycleCensus | None = None) -> BoundReport:
    """Compute N(1..3) for the map and check every bound exactly.

    A bound exceeding p-1 is noted as vacuous (the count can never reach
    it). g = 1 is degenerate for the k=2 route: the map is constant, so
    N(2) = 1 is checked directly and z is omitted. thm3_value is the
    exact k=3 bound: its decimal ("17", "623.5") up to THM3_EXACT_BITS,
    else "(A + g**E)/4" with A = 3p+g+1 and E = 2g+1.
    """
    p, g = m.p, m.g
    if census is None:
        census = dynamics.census_table(m, 3)
    if census.k_max < 3:
        raise ValueError("need census entries up to k = 3")
    n1, n2, n3 = census.n_dividing[1:4]
    notes: list[str] = []

    t1_value = thm1_bound(p)
    t1_applicable = p >= THM1_MIN_P
    t1_ok = thm1_holds(p, n1)
    if not t1_applicable:
        notes.append("thm1: inapplicable (p < 11)")
    elif t1_value > p - 1:
        notes.append("thm1: vacuous (bound exceeds p-1)")

    if g == 1:
        z: int | None = None
        t2_value: int | None = None
        t2_ok = n2 <= 1
        notes.append("thm2: g = 1 degenerate, N(2) = 1 checked directly")
    else:
        z, t2_value = thm2_bound_explicit(p, g)
        t2_ok = n2 <= t2_value
        if t2_value > p - 1:
            notes.append("thm2: vacuous (bound exceeds p-1)")

    if (2 * g + 1) * g.bit_length() <= THM3_EXACT_BITS:
        t3 = thm3_bound(p, g)
        whole, half = divmod(int(2 * t3), 2)  # 3p+1 and g + g**(2g+1) are even
        t3_value = str(whole) + ("", ".5")[half]
        t3_ok, t3_vacuous = n3 <= t3, t3 > p - 1
    else:  # g**(2g+1) >= 2**((2g+1)(bit_length-1)) >= 2**512 > 4p
        t3_value = f"({3 * p + g + 1} + {g}**{2 * g + 1})/4"
        t3_ok = t3_vacuous = True
    if t3_vacuous:
        notes.append("thm3: vacuous (bound exceeds p-1)")

    return BoundReport(
        p=p,
        g=g,
        n1=n1,
        n2=n2,
        n3=n3,
        thm1_value=t1_value,
        thm1_applicable=t1_applicable,
        thm1_ok=t1_ok,
        thm2_z=z,
        thm2_value=t2_value,
        thm2_ok=t2_ok,
        thm3_value=t3_value,
        thm3_ok=t3_ok,
        notes=tuple(notes),
    )


def thm1_sweep(p_min: int, p_max: int) -> list[tuple[int, int, int]]:
    """(p, g, n1) for every pair violating the fixed-point bound; expect [].

    Exhaustive over all primes in [p_min, p_max] and all g in 1..p-1,
    using the O(p) all-bases fixed-point count.
    """
    out: list[tuple[int, int, int]] = []
    for p in primes_in_range(max(p_min, 3), p_max):
        counts = dynamics.fixed_point_counts_all_bases(p).tolist()
        out.extend((p, g, n1) for g, n1 in enumerate(counts) if g and not thm1_holds(p, n1))
    return out
