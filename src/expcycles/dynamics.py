"""The repeated-exponentiation map u -> g**u mod p on {1,...,p-1}.

Three census routes, which the tests hold to agreement: census_naive
iterates the definition, census_table composes a value table k times
(_census_from_table, which ecdynamics shares), and census_graph
decomposes the functional graph (decompose_table, _cycle_lengths).
census is the one ladder over them: census_route picks the first that
fits the memory budget, or refuses a run that cannot finish. Each route
counts N(k) only; CycleCensus is the one place where least periods come
from.
fixed_points and fixed_point_counts_all_bases give N(1) directly.

The fast routes rest on these reductions, each stated in the function
that enforces it:
- every cycle lies in <g>, of order t = ord_p(g), where the map is
  conjugate to S(e) = (g**e mod p) mod t on {0,...,t-1}, so no table of
  size p is built (_subgroup_map); a point outside <g> adds one tail
  step (census_graph);
- for even t, g**(t/2) = -1 halves the powers that S takes (_subgroup_map);
- up to _NUMPY_MOD_LIMIT, products lie below p**2 < 2**64 and are
  reduced in numpy (_pow_blocks, _reduce); above it S is built in Python;
- a table is range-checked once, then gathered in numpy's wrap mode
  (_check_range);
- one workspace holds the chunk scratch of the table census and of both
  table builds (_Workspace).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .modarith import check_prime_modulus, multiplicative_order, primitive_root

# Byte budget for whole-graph passes.
DEFAULT_MEM_BUDGET = 2**31

# Peak working memory of census_graph per element of <g> with int32
# indices (t <= 2**31); int64 indices double it. The largest measured peak
# was 7.4 B, at p = 10000019, g = 2 (CHANGES.md); TestMemoryModels holds
# the pass to it.
_GRAPH_BYTES_PER_NODE = 8

# The graph pass's crossovers, measured in process (CHANGES.md): a numpy
# peel round over at most _NARROW leaves costs more than a Python step per
# leaf; a permutation of at most _WALK_LIMIT nodes is walked in Python, and
# a larger one split by a ruling set of every _RULER_STRIDE-th node.
_NARROW = 256
_WALK_LIMIT = 2**10
_RULER_STRIDE = 64

# The two readings of "periodic point of period k" (see CycleCensus) that
# the lemmas' 3-periodic sets and the CLI's --m-semantics choose between.
M_SEMANTICS = ("least", "dividing")

# Largest modulus for which int64 products a*b with a, b < p stay exact:
# about 3.04e9, below 2**32.
_NUMPY_MOD_LIMIT = math.isqrt(2**63 - 1)

# Elements per chunk of the table census and both table builds, so that a
# chunk's scratch stays in cache; 2**15 was faster than 2**14 for ec_census
# (CHANGES.md).
_CHUNK = 1 << 15

# census_table keeps its int32 S in the workspace between calls while <g> has
# at most this many elements (4 B per element at the cap); a larger S is a
# fresh array, freed on return.
_WORKSPACE_MAX_ELEMENTS = 1 << 20

# Peak working memory of census_table per element of <g>: 4.16 B measured
# at t = 1e7 (CHANGES.md); _check_budget charges the chunk scratch on top.
# TestMemoryModels holds the pass to it.
_CENSUS_BYTES_PER_NODE = 5

# The most map applications, (p-1)*k_max, that census_route lets the naive
# census make: about 2 minutes at the measured 1.2 us each (CHANGES.md).
_NAIVE_MAX_STEPS = 10**8


class _Workspace:
    """The chunk buffers of the table census and both table builds, reused
    from call to call, one role each.

    block (int64): a chunk's products, as uint64 below p**2 (_pow_blocks),
    or a curve chunk's slope numerators (ecdynamics._add_block).
    quot (int64): the quotients of _reduce, viewed in the dtype of its
    input; one more than a chunk, for a padded level of _batch_inverse.
    tree (int64): a curve chunk's product tree (ecdynamics._batch_inverse).
    iterates (int32), ramp and equal: the table census's two chunks of
    gathered iterates and its starts, the offsets 0.._CHUNK-1, and a
    chunk's comparison.
    table: census_table's S. It grows geometrically, so a sweep over many
    subgroup sizes faults new pages in only O(log t) times, and never
    past _WORKSPACE_MAX_ELEMENTS.

    The graph pass uses none of them. The one workspace makes the module
    not reentrant: the package runs in parallel by processes, never by
    threads. Nothing returned by the module or by ecdynamics aliases it.
    """

    def __init__(self) -> None:
        self.block = np.empty(_CHUNK, dtype=np.int64)
        self.quot = np.empty(_CHUNK + 1, dtype=np.int64)
        self.tree = np.empty(2 * _CHUNK + 64, dtype=np.int64)
        self.iterates = np.empty((3, _CHUNK), dtype=np.int32)
        self.ramp = np.arange(_CHUNK, dtype=np.int32)
        self.equal = np.empty(_CHUNK, dtype=bool)
        self.table = np.empty(0, dtype=np.int32)

    def chunk_bytes(self) -> int:
        """Bytes of every buffer but table: what a pass holds whatever t is."""
        return sum(buf.nbytes for buf in vars(self).values() if buf is not self.table)

    def table_for(self, t: int) -> np.ndarray | None:
        """A view of t elements of table, or None above the cap."""
        if t > _WORKSPACE_MAX_ELEMENTS:
            return None
        if len(self.table) < t:
            size = min(max(t, 2 * len(self.table)), _WORKSPACE_MAX_ELEMENTS)
            self.table = None  # free the old buffer first
            self.table = np.empty(size, dtype=np.int32)
        return self.table[:t]


@functools.cache
def _work() -> _Workspace:
    """The module's one workspace, made at its first table pass, so that a
    process that only imports the module pays nothing for it."""
    return _Workspace()


class MemoryBudgetError(RuntimeError):
    """A whole-graph pass would exceed the configured memory budget."""


def _check_budget(what: str, bytes_per_element: int, t: int, mem_budget: int) -> None:
    """Raise MemoryBudgetError for a pass (`what`) over an S of t elements
    whose working memory exceeds mem_budget: bytes_per_element per element
    (twice that when t > 2**31, where S and its indices are int64) plus the
    workspace's chunk buffers (its table is part of the per-element charge)."""
    need = bytes_per_element * t * (1 if t <= 2**31 else 2) + _work().chunk_bytes()
    if need > mem_budget:
        raise MemoryBudgetError(f"{what} needs ~{need} bytes, budget {mem_budget}")


def _require_kmax(k_max: int) -> None:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")


def census_route(p: int, t: int, k_max: int, mem_budget: int) -> str:
    """The route census takes for a map mod p whose <g> has t elements:
    "graph" if the graph pass fits mem_budget, else "table" if the table
    census fits, else "naive" while its (p-1)*k_max map applications stay
    within _NAIVE_MAX_STEPS.

    Above that cap raises MemoryBudgetError, naming the table census's
    bytes, the budget and the cap; k_max < 1 or a negative mem_budget
    raise ValueError. Every charge grows with p and t, so a run that
    passes at (p, p - 1) passes for every base mod every prime up to p.
    """
    _require_kmax(k_max)
    if mem_budget < 0:
        raise ValueError(f"mem_budget must be >= 0, got {mem_budget}")
    for route, per_node in (("graph", _GRAPH_BYTES_PER_NODE), ("table", _CENSUS_BYTES_PER_NODE)):
        try:
            _check_budget(f"p={p}: the {route} census", per_node, t, mem_budget)
            return route
        except MemoryBudgetError as exc:
            refusal = exc
    if (p - 1) * k_max > _NAIVE_MAX_STEPS:
        raise MemoryBudgetError(f"{refusal}, and the naive census's {(p - 1) * k_max} map "
                                f"applications exceed its cap of {_NAIVE_MAX_STEPS}")
    return "naive"


@dataclass(frozen=True)
class ExpMap:
    """The pair (p, g) acting on {1,...,p-1} by u -> g**u mod p.

    g is reduced mod p on construction; g == 0 (mod p) is rejected, so
    gcd(g, p) = 1 always holds and the image never contains 0.
    """

    p: int
    g: int

    def __post_init__(self) -> None:
        check_prime_modulus(self.p)
        g = self.g % self.p
        if g == 0:
            raise ValueError("g must not be divisible by p")
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class OrbitRecord:
    """Tail/cycle structure of a single orbit.

    Iterating tail_length steps from start lands on entry_point, the
    first cyclic element; cycle_length more steps return to it.
    """

    start: int
    tail_length: int
    cycle_length: int
    entry_point: int


@dataclass(frozen=True)
class CycleCensus:
    """Period counts for k = 1..k_max (index 0 of each tuple is unused).

    n_dividing[k] counts starting values whose k-th iterate returns to
    the start (period divides k), and is stored as a tuple whatever
    sequence is passed; n_least_period[d] counts points of least period
    exactly d. __post_init__ derives n_least_period from n_dividing by
    Mobius inversion over the divisors: N(k) sums it over d | k.
    """

    k_max: int
    n_dividing: tuple[int, ...]
    n_least_period: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        least = list(self.n_dividing)
        for d in range(1, self.k_max + 1):
            for multiple in range(2 * d, self.k_max + 1, d):
                least[multiple] -= least[d]
        object.__setattr__(self, "n_dividing", tuple(self.n_dividing))
        object.__setattr__(self, "n_least_period", tuple(least))


@dataclass(frozen=True)
class FunctionalGraphSummary:
    component_count: int
    cyclic_point_count: int
    cycle_length_multiset: tuple[int, ...]  # sorted ascending
    max_tail_length: int
    is_permutation: bool


def apply(m: ExpMap, u: int) -> int:
    """g**u mod p; u must lie in {1,...,p-1}."""
    if not 1 <= u < m.p:
        raise ValueError(f"u={u} outside the domain {{1,...,{m.p - 1}}}")
    return pow(m.g, u, m.p)


def iterate(m: ExpMap, u0: int, k: int) -> int:
    """The k-th iterate of u0; iterate(m, u0, 0) == u0."""
    if not 1 <= u0 < m.p:
        raise ValueError(f"u0={u0} outside the domain {{1,...,{m.p - 1}}}")
    if k < 0:
        raise ValueError("k must be >= 0")
    u = u0
    for _ in range(k):
        u = pow(m.g, u, m.p)
    return u


def orbit(m: ExpMap, u0: int) -> OrbitRecord:
    """Tail length, cycle length and entry point of the orbit of u0.

    Brent's cycle search: constant memory, then an exact tail resolution
    pass.
    """
    if not 1 <= u0 < m.p:
        raise ValueError(f"u0={u0} outside the domain {{1,...,{m.p - 1}}}")
    p, g = m.p, m.g
    power = lam = 1
    tortoise = u0
    hare = pow(g, u0, p)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = pow(g, hare, p)
        lam += 1
    hare = u0
    for _ in range(lam):
        hare = pow(g, hare, p)
    mu = 0
    tortoise = u0
    while tortoise != hare:
        tortoise = pow(g, tortoise, p)
        hare = pow(g, hare, p)
        mu += 1
    return OrbitRecord(start=u0, tail_length=mu, cycle_length=lam, entry_point=tortoise)


def census_naive(m: ExpMap, k_max: int) -> CycleCensus:
    """Count N(k), the u0 with u_k == u0, for each k <= k_max by the
    definition: iterate from every start.

    The definitional route: O(p * k_max) map applications, O(1) extra
    memory.
    """
    _require_kmax(k_max)
    p, g = m.p, m.g
    n_div = [0] * (k_max + 1)
    for u in range(1, p):
        v = u
        for k in range(1, k_max + 1):
            v = pow(g, v, p)
            n_div[k] += v == u
    return CycleCensus(k_max, n_div)


def _reduce(a: np.ndarray, m: int, out: np.ndarray | None = None) -> None:
    """out = a mod m (out defaults to a), as a floor division by the scalar
    m in a's dtype, a multiply and a subtract.

    a holds at most _CHUNK + 1 elements, or 2 * _CHUNK + 2 in uint32 (both
    halves of a block of S), since its quotients go in a view of the
    workspace's quot in a's dtype. An int64 a must lie in (-m**2, m**2);
    an unsigned a may hold any value. The result is cast into out's dtype
    unchecked (casting="unsafe"), so m must fit it.
    """
    q = np.ndarray(a.shape, a.dtype, _work().quot)
    np.floor_divide(a, m, out=q)
    q *= m
    np.subtract(a, q, out=a if out is None else out, casting="unsafe")


def _pow_blocks(base: int, count: int, p: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, block) where block mod p is [base**lo, base**(lo+1), ...]
    in consecutive blocks of at most _CHUNK covering 0..count-1.

    A block holds uint64 products in [0, p**2), unreduced, which
    p <= _NUMPY_MOD_LIMIT keeps below 2**64: each caller reduces it mod p
    (_reduce) into the buffer it fills. It is a view of the workspace's
    block, which the next block overwrites. With w about sqrt(count) (at
    most _CHUNK), base**(i*w + j) is lead[i] * row[j], where row holds
    base**0..base**(w-1) and lead the powers of base**w, both built by
    Python products.
    """
    base %= p
    width = min(math.isqrt(max(count - 1, 0)) + 1, _CHUNK)
    row, lead = [1] * width, [1] * -(-count // width)
    step = pow(base, width, p)
    for i in range(1, width):
        row[i] = row[i - 1] * base % p
    for i in range(1, len(lead)):
        lead[i] = lead[i - 1] * step % p
    row, lead = np.array(row, dtype=np.uint64), np.array(lead, dtype=np.uint64)
    span = _CHUNK // width * width
    block = _work().block.view(np.uint64)
    for lo in range(0, count, span):
        n = min(span, count - lo)
        rows = -(-n // width)  # the last row may run past n, never past span
        first = lo // width
        np.multiply(lead[first : first + rows, None], row,
                    out=block[: rows * width].reshape(rows, width))
        yield lo, block[:n]


def _pow_range(base: int, count: int, p: int) -> np.ndarray:
    """[base**0, ..., base**(count-1)] mod p as int64.

    p above _NUMPY_MOD_LIMIT raises MemoryBudgetError, as the products of
    _pow_blocks would overflow.
    """
    _require_int64_exact(p)
    out = np.empty(count, dtype=np.int64)
    for lo, block in _pow_blocks(base, count, p):
        _reduce(block, p, out[lo : lo + len(block)])
    return out


def _require_int64_exact(p: int) -> None:
    """Refuse a table pass over {0,...,p-1} whose int64 products would overflow."""
    if p > _NUMPY_MOD_LIMIT:
        raise MemoryBudgetError(
            f"p={p} exceeds {_NUMPY_MOD_LIMIT}, the largest modulus whose table "
            "products are exact in int64"
        )


def _check_range(table: np.ndarray) -> None:
    """Raise IndexError unless every value of table lies in [0, len(table)).

    Every wrap-mode gather of the module runs behind this check, or, in
    decompose_table's peel, behind np.add.at: wrap mode would fold a bad
    value silently. One max over an unsigned view, in which a negative
    value reads as a large one.
    """
    unsigned = table.view(np.uint32 if table.itemsize == 4 else np.uint64)
    if len(table) and np.maximum.reduce(unsigned) >= len(table):
        raise IndexError(f"a table value lies outside [0, {len(table)})")


def _census_from_table(table: np.ndarray, k_max: int, start: int) -> CycleCensus:
    """CycleCensus of u -> table[u] over the starts {start,...,len(table)-1}.

    The one census loop of the prime map (census_table, start 0) and the
    curve map (ecdynamics.ec_census, start 1). For k_max > 1 the table must
    map {0,...,len-1} into itself, else IndexError (_check_range). The
    starts go _CHUNK at a time, and each chunk's k iterates alternate
    between two chunk buffers of the workspace, gathered in wrap mode (raise
    mode would copy each through a fresh temporary).
    """
    n_div = [0] * (k_max + 1)
    work = _work()
    bufs = work.iterates
    if bufs.dtype != table.dtype:  # int64 indices: N >= 2**31 on a curve
        bufs = np.empty((3, min(len(table), _CHUNK)), dtype=table.dtype)
    if k_max > 1:
        _check_range(table)
    for lo in range(start, len(table), _CHUNK):
        n = min(_CHUNK, len(table) - lo)
        base = work.ramp[:n]  # the starts lo..lo+n-1
        if lo:
            base = np.add(base, lo, out=bufs[2, :n], dtype=bufs.dtype)
        equal = work.equal[:n]
        cur = table[lo : lo + n]  # table[base] without a gather
        for k in range(1, k_max + 1):
            if k > 1:
                cur = table.take(cur, out=bufs[k % 2, :n], mode="wrap")
            n_div[k] += int(np.count_nonzero(np.equal(cur, base, out=equal)))
    return CycleCensus(k_max, n_div)


def census_table(m: ExpMap, k_max: int) -> CycleCensus:
    """CycleCensus via k-fold composition of the subgroup map S.

    Every periodic point lies in <g>, where S is conjugate to the map (see
    _subgroup_map), so the census of S over all of {0,...,t-1} (e = 0 is
    u = 1) equals census_naive. This is the fast path the bound sweeps use;
    S is built in the module workspace (_Workspace) when it fits.
    """
    _require_kmax(k_max)
    t = multiplicative_order(m.g, m.p)
    return _census_from_table(_subgroup_map(m, t, _work().table_for(t)), k_max, 0)


def decompose_table(table: np.ndarray, lo: int) -> tuple[np.ndarray, int]:
    """Functional-graph decomposition of node -> table[node] on {lo,...,len-1}.

    The table must map that range into itself, else IndexError (np.add.at).
    Returns (cycle_lengths, max_tail): an int64 array with one entry per
    cycle, and the most steps any node takes to reach a cyclic node (0 for
    a permutation), as an int.

    Peeling leaves (Kahn) leaves the cyclic nodes, and its rounds count the
    longest tail. Besides the table, the pass holds the frontier and one
    uint8 array of in-degrees: a node of S has at most (p-1)/t preimages,
    the values of [1, p-1] congruent to it mod t, so a byte holds its count
    while (p-1)/t <= 255, and the curve map's are at most 4. Counts that
    wrapped no longer sum to n and are counted again in the table's dtype.
    A round over more than _NARROW leaves runs in numpy, _CHUNK leaves at a
    time; a narrower one takes a Python step per leaf on memoryviews. The
    cyclic nodes, relabelled by their rank, go to _cycle_lengths.
    """
    succ = np.asarray(table)[lo:]
    if lo:
        succ = succ - lo
    n = len(succ)
    succ = succ.astype(np.int32 if n <= 2**31 else np.int64, copy=False)

    # ufunc.at takes its fast loop (NumPy >= 1.25) only when the value has
    # the counts' dtype; a Python int would be cast element by element.
    for dtype in (np.uint8, succ.dtype):
        indeg = np.zeros(n, dtype=dtype)
        one = indeg.dtype.type(1)
        for i in range(0, n, _CHUNK):
            np.add.at(indeg, succ[i : i + _CHUNK], one)
        if indeg.sum(dtype=np.int64) == n:  # else some count wrapped
            break
    leaves = _zeros_of(indeg, succ.dtype)  # about n/e of them for a random map
    # A wide round gathers in wrap mode with no check of its own: np.add.at
    # above has raised on any value >= n, and read a value in [-n, 0) as
    # wrap mode does.
    max_tail = 0
    while leaves.size > _NARROW:
        max_tail += 1
        freed = 0
        for i in range(0, len(leaves), _CHUNK):
            heads = succ.take(leaves[i : i + _CHUNK], mode="wrap")
            np.subtract.at(indeg, heads, one)
            # A head freed here has no leaf left in a later chunk, so its
            # repeats all lie in this one.
            heads = heads[indeg.take(heads, mode="wrap") == 0]
            heads.sort()
            keep = np.empty(len(heads), dtype=bool)
            keep[:1] = True
            np.not_equal(heads[1:], heads[:-1], out=keep[1:])
            heads = heads[keep]
            leaves[freed : freed + len(heads)] = heads  # behind the chunks to read
            freed += len(heads)
        leaves = leaves[:freed]
    # A frontier never widens (each leaf frees at most its successor), so
    # every round left is narrow.
    step, left = memoryview(succ), memoryview(indeg)
    frontier = leaves.tolist()
    while frontier:
        max_tail += 1
        heads = []
        for u in frontier:
            v = step[u]
            left[v] -= 1
            if not left[v]:
                heads.append(v)
        frontier = heads
    if np.count_nonzero(indeg) < n:
        cyclic = np.flatnonzero(indeg)
        succ = np.searchsorted(cyclic, succ[cyclic])
    return np.array(_cycle_lengths(succ), dtype=np.int64), max_tail


def _zeros_of(a: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """np.flatnonzero(a == 0) as dtype, gathered a _CHUNK at a time, so no
    len(a)-long mask or intp index array is made."""
    out = np.empty(len(a) - np.count_nonzero(a), dtype=dtype)
    found = 0
    for i in range(0, len(a), _CHUNK):
        hits = np.flatnonzero(a[i : i + _CHUNK] == 0)
        out[found : found + len(hits)] = hits + i
        found += len(hits)
    return out


def _cycle_sums(succ: list[int], weight: list[int]) -> list[int]:
    """Sum of weight around each cycle of succ through nodes of positive
    weight (succ must map each such node to another); zeroes weight."""
    sums = []
    for start in range(len(succ)):
        total, u = 0, start
        while weight[u]:
            total += weight[u]
            weight[u] = 0
            u = succ[u]
        if total:
            sums.append(total)
    return sums


def _cycle_lengths(perm: np.ndarray) -> list[int]:
    """Cycle lengths of the permutation perm (int32 or int64), as a list.

    At most _WALK_LIMIT nodes are walked in Python. A larger perm must hold
    values in [0, len) only, else IndexError (_check_range), and is split
    by a sparse ruling set (as in list ranking: Reid-Miller 1994, Sibeyn
    1997). Every _RULER_STRIDE-th node (by label: no RNG) is a ruler. One
    walker per ruler steps in lockstep, one wrap-mode gather per round, to
    the next ruler, and the walkers that reach it are dropped by boolean
    indexing; the last _RULER_STRIDE walkers finish in Python.
    Summing the gaps around the ruler permutation gives every cycle that
    holds a ruler. The unvisited nodes lie on ruler-free cycles: they are
    relabelled by their rank among themselves and walked in Python.
    """
    if len(perm) <= _WALK_LIMIT:
        return _cycle_sums(perm.tolist(), [1] * len(perm))
    _check_range(perm)
    mark = np.zeros(len(perm), dtype=np.int8)  # 0 unvisited, 1 walked, 2 ruler
    mark[::_RULER_STRIDE] = 2
    count = -(-len(perm) // _RULER_STRIDE)
    gap = np.empty(count, dtype=np.int64)  # steps to the next ruler
    nxt = np.empty_like(gap)  # index of the next ruler
    # The walkers still out and where they stand, pos in intp so that no
    # gather converts it.
    ids, pos = np.arange(count), perm[::_RULER_STRIDE].astype(np.intp)
    steps = 0
    while True:
        steps += 1
        at_ruler = mark.take(pos, mode="wrap") == 2
        if at_ruler.any():
            finished = ids[at_ruler]
            nxt[finished] = pos[at_ruler] // _RULER_STRIDE
            gap[finished] = steps
            keep = ~at_ruler
            ids, pos = ids[keep], pos[keep]
        if len(ids) <= _RULER_STRIDE:
            break
        mark[pos] = 1
        pos[:] = perm.take(pos, mode="wrap")
    gap, nxt = gap.tolist(), nxt.tolist()
    step, seen = memoryview(perm), memoryview(mark)
    for i, u in zip(ids.tolist(), pos.tolist()):
        walked = steps
        while seen[u] != 2:
            seen[u] = 1
            u = step[u]
            walked += 1
        gap[i], nxt[i] = walked, u // _RULER_STRIDE
    rest = _zeros_of(mark, perm.dtype)
    rest_succ = np.searchsorted(rest, perm[rest]).tolist()
    return _cycle_sums(nxt, gap) + _cycle_sums(rest_succ, [1] * len(rest))


def _graph_summary(cycle_lengths: np.ndarray | list[int], max_tail: int) -> FunctionalGraphSummary:
    lengths = tuple(sorted(np.asarray(cycle_lengths).tolist()))
    return FunctionalGraphSummary(
        component_count=len(lengths),
        cyclic_point_count=sum(lengths),
        cycle_length_multiset=lengths,
        max_tail_length=max_tail,
        is_permutation=(max_tail == 0),
    )


def _census_from_cycles(
    cycle_lengths: tuple[int, ...], k_max: int | None, fixed_outside: int = 0
) -> CycleCensus:
    """CycleCensus from a cycle-length multiset.

    The L points of a cycle of length L return after k steps for every
    multiple k of L, so each adds L to n_dividing[k]. fixed_outside fixed
    points lie outside the census domain and are subtracted from every
    n_dividing[k]. k_max defaults to the longest cycle length.
    """
    if k_max is None:
        k_max = max(cycle_lengths)
    n_div = [0] + [-fixed_outside] * k_max
    for length in cycle_lengths:
        for k in range(length, k_max + 1, length):
            n_div[k] += length
    return CycleCensus(k_max, n_div)


def _subgroup_map(m: ExpMap, t: int, out: np.ndarray | None = None) -> np.ndarray:
    """S[e] = (g**e mod p) mod t for e in 0..t-1, where t = ord_p(g).

    e -> g**e mod p carries S onto the map restricted to <g>: the map
    sends g**e to g**(g**e mod p), which is g**S[e] because g**t == 1.
    S is written into out (t long; int32, int64 for t > 2**31) if given,
    else a fresh array. For even t, g**(t/2) = -1, so S[t/2 + e] =
    (p - (g**e mod p)) mod t and only the powers e < t/2 are taken. Up to
    _NUMPY_MOD_LIMIT a block's powers v < p < 2**32 and p - v go into the
    two halves of an unsigned view of S and are reduced mod t there; above
    it, S is built from Python products.
    """
    p, g = m.p, m.g
    if out is None:
        out = np.empty(t, dtype=np.int32 if t <= 2**31 else np.int64)
    halves = 2 - t % 2
    half = t // halves
    if p <= _NUMPY_MOD_LIMIT:
        dest = out.view(f"u{out.itemsize}").reshape(halves, half)
        for lo, block in _pow_blocks(g, half, p):
            v = dest[:, lo : lo + len(block)]
            _reduce(block, p, v[0])  # p < 2**32
            if halves == 2:
                np.subtract(p, v[0], out=v[1])
            for rows in (v,) if v.itemsize == 4 else v:  # quot holds one uint64 row
                _reduce(rows, t)
        return out
    values = [0] * t
    v = 1
    for e in range(half):
        values[e] = v % t
        if halves == 2:
            values[half + e] = (p - v) % t
        v = v * g % p
    out[:] = values
    return out


def census_graph(
    m: ExpMap,
    k_max: int | None = None,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> tuple[FunctionalGraphSummary, CycleCensus]:
    """Full functional-graph decomposition and the census derived from it.

    Every cycle lies in the image subgroup <g> of order t = ord_p(g), so
    the decomposition runs on the conjugate map S on {0,...,t-1} (see
    _subgroup_map). A point u outside <g> is never cyclic, and its tail
    is one step longer than that of the exponent u mod t. When <g> is a
    proper subgroup the longest tail is therefore one step longer than
    in S: a deepest point e of S has no preimage under S, so all (p-1)/t
    points of {1,...,p-1} congruent to e mod t lie outside <g> (if S is
    a permutation, every point outside <g> has tail 1).
    k_max defaults to the longest cycle length. Raises MemoryBudgetError
    when the pass, _GRAPH_BYTES_PER_NODE per element of <g>, exceeds
    mem_budget.
    """
    if k_max is not None:
        _require_kmax(k_max)
    p = m.p
    t = multiplicative_order(m.g, p)
    _check_budget(f"p={p}: the graph pass on the {t} elements of <g>",
                  _GRAPH_BYTES_PER_NODE, t, mem_budget)
    table = _subgroup_map(m, t)
    if t == p - 1:  # g is a primitive root: S is a permutation, with nothing to peel
        summary = _graph_summary(_cycle_lengths(table), 0)
    else:
        cycle_lengths, max_tail = decompose_table(table, 0)
        summary = _graph_summary(cycle_lengths, max_tail + 1)
    return summary, _census_from_cycles(summary.cycle_length_multiset, k_max)


def census(
    m: ExpMap, k_max: int, mem_budget: int = DEFAULT_MEM_BUDGET
) -> tuple[CycleCensus, FunctionalGraphSummary | None]:
    """The census of m by the route census_route picks, with the graph
    summary when that route is the graph pass, else None. Raises as
    census_route does, before any pass runs."""
    route = census_route(m.p, multiplicative_order(m.g, m.p), k_max, mem_budget)
    if route == "graph":
        summary, counts = census_graph(m, k_max, mem_budget)
        return counts, summary
    return (census_table if route == "table" else census_naive)(m, k_max), None


def fixed_points(m: ExpMap) -> set[int]:
    """{u : g**u == u (mod p)}; its cardinality is the k=1 census entry.

    Each such u = g**u lies in <g>: it is g**e for a fixed point e of S.
    """
    table = _subgroup_map(m, multiplicative_order(m.g, m.p))
    hits = np.flatnonzero(table == np.arange(len(table), dtype=table.dtype))
    return {pow(m.g, int(e), m.p) for e in hits}


def fixed_point_counts_all_bases(p: int) -> np.ndarray:
    """counts[g] = #{u : g**u == u (mod p)} for every g in 1..p-1; counts[0] = 0.

    O(p) by indices: with a primitive root r, g = r**i and u = r**L[u],
    g fixes u exactly when i*u == L[u] (mod p-1). For d = gcd(u, p-1)
    that has no solution i unless d divides L[u], and then d of them,
    one residue class mod (p-1)/d. Raises as primitive_root does for a p
    that is not an odd prime, then as _pow_range does.
    """
    n = p - 1
    powers = _pow_range(primitive_root(p), n, p)
    index = np.empty(p, dtype=np.int64)
    index[powers] = np.arange(n, dtype=np.int64)
    hits = [0] * n  # hits[i] counts the fixed points of r**i
    for u, lu in enumerate(index.tolist()[1:], 1):
        d = math.gcd(u, n)
        if lu % d == 0:
            step = n // d
            for i in range(lu // d * pow(u // d, -1, step) % step, n, step):
                hits[i] += 1
    counts = np.zeros(p, dtype=np.int64)
    counts[powers] = hits
    return counts
