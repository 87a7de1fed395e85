"""Weierstrass curves over F_p and the x-coordinate exponentiation analogue.

The curve y^2 = x^3 + ax + b carries the usual chord-tangent group law
with the point at infinity (represented as None) as neutral element.
For a base point G and the group size N, the analogue map sends
u -> x(uG) mod N on {0,...,N-1}, with x(O) assigned the value 0 so that
iteration is total. Censuses count starting values in {1,...,N-1},
mirroring the prime case, with the shared table census of dynamics.

N*G = O gives x((N-u)G) = x(-uG) = x(uG), so the map is f = h o phi with
phi(u) = min(u, N-u) and h = f on 0..N//2, the only part built (_x_half).
ec_table mirrors it, t[N-u] = t[u]; ec_census censuses the folded map
F(v) = min(h(v), N - h(v)) on the starts 1..N//2. As phi o f = F o phi,
each F-periodic v >= 1 has exactly one f-periodic point in {v, N-v}, of
the same period, so every n_dividing[k] is unchanged. ec_census_graph
decomposes the full table, a check independent of the fold.

_x_half builds its points by block doubling in numpy, as
dynamics._pow_range builds powers: the points 0..f-1 plus fG give the
points f..2f-1, by affine addition on int64 coordinate arrays where
x = p stands for the point at infinity; the first blocks are scalar
additions. Each chunk's slope denominators are inverted by one product
tree, _batch_inverse: about 3 modular multiplies per element plus one
scalar inverse. point_add and scalar_mul stay the scalar group law;
ec_apply, one scalar_mul per value, is the independent check of the table.
_x_half and curve_order refuse p above the int64-exact limit
dynamics._NUMPY_MOD_LIMIT, where their products would overflow silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    DEFAULT_MEM_BUDGET,
    CycleCensus,
    FunctionalGraphSummary,
    _census_from_cycles,
    _census_from_table,
    _check_budget,
    _graph_summary,
    _require_int64_exact,
    _require_kmax,
    decompose_table,
)
from .modarith import check_prime_modulus

Point = Optional[tuple[int, int]]  # None is the point at infinity

# Elements per vectorized point-addition step of ec_table; its temporaries
# stay a few MB whatever N is.
_EC_CHUNK = 1 << 16

# Points ec_table adds by scalar point_add before block doubling: below
# this size a block's fixed ~8 numpy calls per level of the _batch_inverse
# tree cost more (fastest of 32..512 at N = 100, 240, 1068 and 4036).
_EC_SCALAR_BASE = 128

# Peak bytes of curve_order per residue (int64 x and rhs, int8 roots, a mask):
# getrusage peak RSS over the interpreter baseline, 18.0 at p = 2e6, 1e7, 2e7.
_ORDER_BYTES_PER_ELEMENT = 18


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

    Full O(p) sweep via an int8 square-root-count table; intended for
    desk-scale p. p above the int64-exact limit raises MemoryBudgetError.
    """
    p = curve.p
    _require_int64_exact(p)
    _check_budget(f"p={p}: the order sweep", _ORDER_BYTES_PER_ELEMENT * p, mem_budget)
    x = np.arange(p, dtype=np.int64)
    rhs = x * x  # x^2 mod p, then x^3 + ax + b by Horner; all below p^2
    rhs %= p
    roots = np.zeros(p, dtype=np.int8)  # number of square roots: 0, 1 or 2
    roots[0] = 1
    roots[rhs[1 : (p + 1) // 2]] = 2  # x and p-x share a square; these are distinct
    rhs += curve.a
    np.subtract(rhs, p, out=rhs, where=rhs >= p)
    rhs *= x
    rhs %= p
    rhs += curve.b
    np.subtract(rhs, p, out=rhs, where=rhs >= p)
    return 1 + int(roots[rhs].sum(dtype=np.int64))


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


def _batch_inverse(d: np.ndarray, p: int) -> np.ndarray:
    """d**-1 mod p elementwise for residues 1..p-1 (Montgomery's trick).

    Product tree: pairs are multiplied up to one root (odd levels padded
    with 1), the root is inverted once, and each child's inverse is its
    parent's inverse times its sibling.
    """
    levels = []
    level = d
    while len(level) > 1:
        if len(level) % 2:
            level = np.append(level, 1)
        levels.append(level)
        level = level[0::2] * level[1::2] % p
    inv = np.array([pow(int(level[0]), -1, p)], dtype=np.int64)
    for level in reversed(levels):
        parent, inv = inv[: len(level) // 2], np.empty_like(level)
        np.multiply(parent, level[1::2], out=inv[0::2])
        np.multiply(parent, level[0::2], out=inv[1::2])
        inv %= p
    return inv[: len(d)]


def _add_block(curve: CurveParams, x1: np.ndarray, y1: np.ndarray, q: Point,
               x3: np.ndarray, y3: np.ndarray) -> None:
    """(x3, y3) = (x1, y1) + q elementwise; x == p marks the point at infinity."""
    p = curve.p
    if q is None:
        x3[:] = x1
        y3[:] = y1
        return
    qx, qy = q
    p_inf = x1 == p
    same_x = x1 == qx
    # P = -Q (which covers P = Q with y = 0) gives O; P = Q takes the tangent
    to_inf = same_x & (y1 == (-qy) % p)
    tangent = same_x & ~to_inf
    num = qy - y1  # both in (-p, p): lifted by compare-and-add, not %
    np.add(num, p, out=num, where=num < 0)
    den = qx - x1
    np.add(den, p, out=den, where=den < 0)
    num[tangent] = (x1[tangent] * x1[tangent] % p * 3 + curve.a) % p
    den[tangent] = 2 * y1[tangent] % p
    den[den == 0] = 1  # only in the lanes P = O and P = -Q, overwritten below
    slope = num * _batch_inverse(den, p) % p
    x3[:] = (slope * slope - x1 - qx) % p
    y3[:] = (slope * (x1 - x3) - y1) % p
    x3[p_inf], y3[p_inf] = qx, qy
    x3[to_inf], y3[to_inf] = p, 0


def _x_half(m: ECExpMap) -> np.ndarray:
    """h[u] = x(uG) mod N for u in 0..N//2, x(O) := 0; int32 if N < 2**31.

    Block doubling: once the points 0..f-1 are known, the next block is
    P[i] + fG, in chunks of _EC_CHUNK; the first _EC_SCALAR_BASE points are
    a running sum of scalar point_add.
    """
    p, n = m.curve.p, m.n // 2 + 1
    _require_int64_exact(p)
    xs = np.empty(n, dtype=np.int64)
    ys = np.empty(n, dtype=np.int64)
    filled = min(n, _EC_SCALAR_BASE)
    points: list[Point] = [None]
    for _ in range(1, filled):
        points.append(point_add(m.curve, points[-1], m.gen))
    xs[:filled] = [p if pt is None else pt[0] for pt in points]
    ys[:filled] = [0 if pt is None else pt[1] for pt in points]
    while filled < n:
        take = min(filled, n - filled)
        q = scalar_mul(m.curve, filled, m.gen)
        for lo in range(0, take, _EC_CHUNK):
            hi = min(lo + _EC_CHUNK, take)
            _add_block(m.curve, xs[lo:hi], ys[lo:hi], q,
                       xs[filled + lo : filled + hi], ys[filled + lo : filled + hi])
        filled += take
    del ys
    xs[xs == p] = 0
    xs %= m.n
    return xs.astype(np.int32 if m.n < 2**31 else np.int64, copy=False)


def ec_table(m: ECExpMap) -> np.ndarray:
    """t[u] = x(uG) mod N for u in 0..N-1, x(O) := 0: _x_half and its mirror t[N-u] = t[u]."""
    half = _x_half(m)
    return np.concatenate((half, half[(m.n + 1) // 2 - 1 : 0 : -1]))


def ec_census(m: ECExpMap, k_max: int) -> CycleCensus:
    """Count u0 in {1,...,N-1} with u_k == u0 for each k <= k_max.

    By the table census of the folded map F on 1..N//2 (module docstring).
    """
    _require_kmax(k_max)
    half = _x_half(m)
    np.minimum(half, m.n - half, out=half)  # N - h fits the dtype, as N < 2**31 for int32
    return _census_from_table(half, k_max, 1)


def ec_census_graph(
    m: ECExpMap, k_max: int | None = None
) -> tuple[FunctionalGraphSummary, CycleCensus]:
    """Functional-graph decomposition of the analogue map on {0,...,N-1}.

    The summary covers the extended domain including 0. The derived
    census excludes the guaranteed self-loop at 0 (0 maps to 0 and no
    other cycle passes through it), so it counts starting values in
    {1,...,N-1} exactly like ec_census.
    """
    if k_max is not None:
        _require_kmax(k_max)
    summary = _graph_summary(*decompose_table(ec_table(m), 0))
    # the 0 -> 0 loop lies outside the census domain
    return summary, _census_from_cycles(summary.cycle_length_multiset, k_max, fixed_outside=1)
