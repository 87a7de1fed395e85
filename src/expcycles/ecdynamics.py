"""Weierstrass curves over F_p and the x-coordinate analogue of the map.

The curve y^2 = x^3 + ax + b carries the chord-tangent group law, with
the point at infinity O as None (point_add, scalar_mul). For a base point
G and the group size N, the analogue map sends u -> x(uG) mod N on
{0,...,N-1}, with x(O) assigned the value 0 so that iteration is total.
Censuses count starting values in {1,...,N-1}, as for the prime map.

The routes and reductions, each stated in the function that enforces it:
- curve_order counts E by Shanks-Mestre on E and its quadratic twist,
  with no table; below _LEGENDRE_MAX_P it sums Legendre symbols;
- _x_half builds x(uG) mod N for u <= N//2 only, since x(-P) = x(P), by
  block doubling in numpy with x = p standing for O; each chunk's slope
  denominators share one inversion (_batch_inverse), in the workspace of
  dynamics, and p above dynamics._NUMPY_MOD_LIMIT is refused;
- ec_table mirrors the half; ec_census runs the table census of dynamics
  on the folded map, which keeps every N(k);
- ec_census_graph decomposes the full table and ec_apply maps one value
  by scalar_mul: checks independent of the fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    _CHUNK,
    CycleCensus,
    FunctionalGraphSummary,
    _census_from_cycles,
    _census_from_table,
    _graph_summary,
    _reduce,
    _require_int64_exact,
    _require_kmax,
    _work,
    decompose_table,
)
from .modarith import check_prime_modulus

Point = Optional[tuple[int, int]]  # None is the point at infinity

# Largest p whose curve order is a Legendre-symbol sum (see curve_order).
_LEGENDRE_MAX_P = 229


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


def curve_order(curve: CurveParams) -> int:
    """#E(F_p) by Shanks-Mestre (Cohen, GTM 138, section 7.4), with no table.

    N lies in the Hasse window of about 4 sqrt(p) integers; N annihilates
    every point of E, and 2p + 2 - N every point of its quadratic twist.
    For x = 0, 1, 2, ..., a nonzero r = x^3 + ax + b puts (rx, r^2) on
    Y^2 = X^3 + ar^2 X + br^3, isomorphic to E for a square r and to its
    twist otherwise. The candidates for N stay a progression first + i*step,
    i < count: one baby-step giant-step search cuts the window to it, and
    each further point cuts it, until one value is left. For p > 229 that
    always happens (Mestre's theorem, in the bound of Cremona and
    Sutherland 2010); below it the order is an exact Legendre-symbol sum.
    """
    p, a, b = curve.p, curve.a, curve.b
    if p <= _LEGENDRE_MAX_P:
        symbols = (pow(x * x * x + a * x + b, (p - 1) // 2, p) for x in range(p))
        return p + 1 + sum(1 if s == 1 else -1 if s else 0 for s in symbols)
    half_width = math.isqrt(4 * p)
    first, step, count = p + 1 - half_width, 1, 2 * half_width + 1
    for x in range(p):
        r = (x * x * x + a * x + b) % p
        if r == 0:
            continue  # a point of order 2 rules out little
        model = CurveParams(p, a * r * r, b * r * r * r)
        point = (r * x % p, r * r % p)
        if pow(r, (p - 1) // 2, p) == 1:
            hits = _zero_steps(model, point, first, step, count)
        else:  # the twist has 2p + 2 - N points
            hits = _zero_steps(model, point, 2 * p + 2 - first, -step, count)
        first += hits[0] * step
        if len(hits) == 1:
            return first
        gap = hits[1] - hits[0]
        count = (count - 1 - hits[0]) // gap + 1
        step *= gap
    raise ArithmeticError(f"no unique group order for {curve}")  # unreachable for p > 229


def _zero_steps(curve: CurveParams, point: Point, base: int, stride: int, count: int) -> list[int]:
    """The first two i in 0..count-1 with (base + i*stride) * point = O.

    Baby-step giant-step on S = stride*point: i*S = -(base*point). The
    solutions are spaced by the order of S, so the first two give all.
    """
    target = point_neg(curve, scalar_mul(curve, base, point))
    step = scalar_mul(curve, abs(stride), point)
    if stride < 0:
        step = point_neg(curve, step)
    width = math.isqrt(count - 1) + 1
    baby: dict[Point, int] = {}
    pt: Point = None
    for j in range(width):
        if j and pt is None:  # S has order j: baby holds every multiple
            first = baby.get(target)
            return [] if first is None else [i for i in (first, first + j) if i < count]
        baby[pt] = j
        pt = point_add(curve, pt, step)
    giant = point_neg(curve, pt)
    hits = []
    for i in range(0, width * width, width):
        j = baby.get(target)
        if j is not None:
            if i + j >= count:
                break
            hits.append(i + j)
            if len(hits) == 2:
                break
        target = point_add(curve, target, giant)
    return hits


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


def _batch_inverse(tree: np.ndarray, n: int, p: int) -> None:
    """tree[:n] = tree[:n]**-1 mod p elementwise, for units in (-p, p), n <= _CHUNK.

    Montgomery's trick on a product tree whose upper levels follow in
    tree[n:] (the whole tree takes at most 2n + 2 ceil(log2 n) + 1
    entries, as the workspace's tree holds): pairs are multiplied up to
    one root (odd levels padded with 1), the root is inverted once, and
    each child's inverse is its parent's inverse times its sibling (the
    left children's into a fresh array).
    """
    levels = []
    lo, size = 0, n
    while size > 1:
        if size % 2:
            tree[lo + size] = 1
            size += 1
        levels.append((lo, size))
        up = tree[lo + size : lo + size + size // 2]
        np.multiply(tree[lo : lo + size : 2], tree[lo + 1 : lo + size : 2], out=up)
        _reduce(up, p)
        lo, size = lo + size, size // 2
    tree[lo] = pow(int(tree[lo]), -1, p)
    for lo, size in reversed(levels):
        level = tree[lo : lo + size]
        parent = tree[lo + size : lo + size + size // 2]
        left = np.multiply(parent, level[1::2])
        np.multiply(parent, level[0::2], out=level[1::2])
        level[0::2] = left
        _reduce(level, p)


def _add_block(curve: CurveParams, x1: np.ndarray, y1: np.ndarray, q: Point,
               x3: np.ndarray, y3: np.ndarray) -> None:
    """(x3, y3) = (x1, y1) + q elementwise, for at most _CHUNK lanes of
    coordinates in [0, p], where x == p stands for O (no affine point has
    x = p).

    The slope numerators go in the workspace's block, the denominators
    in its tree. The chord formula runs on every lane; the lanes P = O
    and P = +-Q, where it does not apply, get a unit denominator and then
    their result Q, 2Q or O.
    """
    p = curve.p
    if q is None:
        x3[:] = x1
        y3[:] = y1
        return
    qx, qy = q
    n = len(x1)
    work = _work()
    slope, den = work.block[:n], work.tree[:n]
    np.subtract(qy, y1, out=slope)  # differences lie in (-p, p), which the
    np.subtract(qx, x1, out=den)  # tree and _reduce accept unlifted
    special = np.flatnonzero((x1 == qx) | (x1 == p))
    den[special] = 1
    _batch_inverse(work.tree, n, p)
    slope *= den
    _reduce(slope, p)
    np.multiply(slope, slope, out=x3)
    x3 -= x1
    x3 -= qx
    _reduce(x3, p)
    np.subtract(x1, x3, out=y3)
    y3 *= slope
    y3 -= y1
    _reduce(y3, p)
    if len(special):
        double = point_add(curve, q, q)
        dx, dy = (p, 0) if double is None else double
        at_inf = x1[special] == p
        doubled = y1[special] == qy  # P = Q; the other lanes are P = -Q
        x3[special] = np.where(at_inf, qx, np.where(doubled, dx, p))
        y3[special] = np.where(at_inf, qy, np.where(doubled, dy, 0))


def _x_half(m: ECExpMap) -> np.ndarray:
    """h[u] = x(uG) mod N for u in 0..N//2, x(O) := 0; int32 if N < 2**31.

    Block doubling from the point O: once the points 0..f-1 are known,
    the next block is P[i] + fG, _CHUNK lanes at a time. p above
    dynamics._NUMPY_MOD_LIMIT raises MemoryBudgetError, as its products
    would overflow int64 silently.
    """
    p, n = m.curve.p, m.n // 2 + 1
    _require_int64_exact(p)
    xs = np.empty(n, dtype=np.int64)
    ys = np.empty(n, dtype=np.int64)
    xs[0], ys[0] = p, 0  # the point O
    filled = 1
    while filled < n:
        take = min(filled, n - filled)
        q = scalar_mul(m.curve, filled, m.gen)
        for lo in range(0, take, _CHUNK):
            hi = min(lo + _CHUNK, take)
            _add_block(m.curve, xs[lo:hi], ys[lo:hi], q,
                       xs[filled + lo : filled + hi], ys[filled + lo : filled + hi])
        filled += take
    del ys
    xs[xs == p] = 0
    out = np.empty(n, dtype=np.int32) if m.n < 2**31 else xs
    for lo in range(0, n, _CHUNK):
        _reduce(xs[lo : lo + _CHUNK], m.n, out[lo : lo + _CHUNK])
    return out


def ec_table(m: ECExpMap) -> np.ndarray:
    """t[u] = x(uG) mod N for u in 0..N-1, x(O) := 0: _x_half and its mirror t[N-u] = t[u]."""
    half = _x_half(m)
    return np.concatenate((half, half[(m.n + 1) // 2 - 1 : 0 : -1]))


def ec_census(m: ECExpMap, k_max: int) -> CycleCensus:
    """Count u0 in {1,...,N-1} with u_k == u0 for each k <= k_max.

    N*G = O gives x((N-u)G) = x(-uG) = x(uG), so the map is f = h o phi
    with phi(u) = min(u, N-u) and h = _x_half. The table census runs on the
    folded map F(v) = min(h(v), N - h(v)) over the starts 1..N//2. As
    phi o f = F o phi, each F-periodic v >= 1 has exactly one f-periodic
    point in {v, N-v}, of the same period, so every n_dividing[k] is
    unchanged.
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
