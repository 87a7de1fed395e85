"""Weierstrass curves over F_p and the x-coordinate exponentiation analogue.

The curve y^2 = x^3 + ax + b carries the usual chord-tangent group law
with the point at infinity (represented as None) as neutral element.
For a base point G and the group size N, the analogue map sends
u -> x(uG) mod N on {0,...,N-1}, with x(O) assigned the value 0 so that
iteration is total. Censuses count starting values in {1,...,N-1},
mirroring the prime case: ec_census runs the shared table census of
dynamics on ec_table. curve_order, like dynamics.exp_table, refuses p
above the int64-exact limit dynamics._NUMPY_MOD_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    DEFAULT_MEM_BUDGET,
    CycleCensus,
    FunctionalGraphSummary,
    MemoryBudgetError,
    _census_from_cycles,
    _census_from_table,
    _graph_summary,
    _require_int64_exact,
    decompose_table,
)
from .modarith import check_prime_modulus

Point = Optional[tuple[int, int]]  # None is the point at infinity


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + ax + b over F_p, p >= 5 prime, nonsingular."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        check_prime_modulus(self.p)
        if self.p < 5:
            raise ValueError("curve arithmetic needs p >= 5")
        a = self.a % self.p
        b = self.b % self.p
        if (4 * a * a * a + 27 * b * b) % self.p == 0:
            raise ValueError(f"singular curve: 4a^3 + 27b^2 == 0 mod {self.p}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def is_on_curve(curve: CurveParams, point: Point) -> bool:
    """True for the point at infinity and for affine points satisfying the equation."""
    if point is None:
        return True
    x, y = point
    p = curve.p
    if not (0 <= x < p and 0 <= y < p):
        return False
    return (y * y - (x * x % p * x + curve.a * x + curve.b)) % p == 0


def point_neg(curve: CurveParams, point: Point) -> Point:
    if point is None:
        return None
    x, y = point
    return (x, (-y) % curve.p)


def point_add(curve: CurveParams, pt1: Point, pt2: Point) -> Point:
    """Chord-tangent addition; None is neutral, P + (-P) = None."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    p = curve.p
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if pt1 == pt2:
        slope = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    y3 = (slope * (x1 - x3) - y1) % p
    return (x3, y3)


def scalar_mul(curve: CurveParams, k: int, point: Point) -> Point:
    """kP by double-and-add; 0P is the point at infinity."""
    if k < 0:
        raise ValueError("k must be >= 0")
    result: Point = None
    addend = point
    while k:
        if k & 1:
            result = point_add(curve, result, addend)
        addend = point_add(curve, addend, addend)
        k >>= 1
    return result


def curve_order(curve: CurveParams, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """#E(F_p): the infinity point plus, per x, the number of y solving the equation.

    Full O(p) sweep via a square-count table in int64; intended for
    desk-scale p. p above the int64-exact limit raises MemoryBudgetError.
    """
    p = curve.p
    _require_int64_exact(p)
    if 16 * p > mem_budget:
        raise MemoryBudgetError(
            f"p={p} needs ~{16 * p} bytes for the order sweep, budget {mem_budget}"
        )
    x = np.arange(p, dtype=np.int64)
    rhs = (x * x % p * x % p + curve.a * x % p + curve.b) % p
    counts = np.bincount(x * x % p, minlength=p)
    return 1 + int(counts[rhs].sum())


def hasse_ok(p: int, n: int) -> bool:
    """|n - (p+1)| <= 2*sqrt(p), in exact integer form."""
    return (n - p - 1) ** 2 <= 4 * p


@dataclass(frozen=True)
class ECExpMap:
    """Base point G on a curve plus the group size N = #E(F_p).

    N is computed on construction when not supplied; N*G = O and the
    Hasse window are checked either way.
    """

    curve: CurveParams
    gen: tuple[int, int]
    n: int | None = None

    def __post_init__(self) -> None:
        if self.gen is None:
            raise ValueError("the base point must not be the point at infinity")
        if not is_on_curve(self.curve, self.gen):
            raise ValueError(f"point {self.gen} is not on the curve")
        n = self.n if self.n is not None else curve_order(self.curve)
        if not hasse_ok(self.curve.p, n):
            raise ValueError(f"group size {n} outside the Hasse window for p={self.curve.p}")
        if scalar_mul(self.curve, n, self.gen) is not None:
            raise ValueError(f"N*G != O for N={n}; wrong group size")
        object.__setattr__(self, "n", n)


def ec_apply(m: ECExpMap, u: int) -> int:
    """x(uG) mod N, with the point at infinity sent to 0; u in {0,...,N-1}."""
    if not 0 <= u < m.n:
        raise ValueError(f"u={u} outside {{0,...,{m.n - 1}}}")
    point = scalar_mul(m.curve, u, m.gen)
    return 0 if point is None else point[0] % m.n


def ec_table(m: ECExpMap) -> np.ndarray:
    """int64 table t with t[u] = x(uG) mod N for u in 0..N-1, by running addition."""
    table = np.zeros(m.n, dtype=np.int64)
    point: Point = None
    for u in range(1, m.n):
        point = point_add(m.curve, point, m.gen)
        if point is not None:
            table[u] = point[0] % m.n
    return table


def ec_census(m: ECExpMap, k_max: int) -> CycleCensus:
    """Count u0 in {1,...,N-1} with u_k == u0 for each k <= k_max.

    The table census of the prime case run on ec_table, so the counting
    semantics are the same.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _census_from_table(ec_table(m), k_max)


def ec_census_graph(
    m: ECExpMap, k_max: int | None = None
) -> tuple[FunctionalGraphSummary, CycleCensus]:
    """Functional-graph decomposition of the analogue map on {0,...,N-1}.

    The summary covers the extended domain including 0. The derived
    census excludes the guaranteed self-loop at 0 (0 maps to 0 and no
    other cycle passes through it), so it counts starting values in
    {1,...,N-1} exactly like ec_census.
    """
    cycle_lengths, dist = decompose_table(ec_table(m), 0)
    summary = _graph_summary(cycle_lengths, int(dist.max()))
    # the 0 -> 0 loop lies outside the census domain
    return summary, _census_from_cycles(summary.cycle_length_multiset, k_max, fixed_outside=1)
