"""The repeated-exponentiation dynamical system u -> g**u mod p.

The map acts on {1,...,p-1}. Three independent routes to the short-cycle
census are provided: definitional brute force (census_naive), k-fold
composition of a value table (census_table), and a full functional-graph
decomposition (census_graph). They must agree; the test suite holds them
to that.

Neither fast route builds a table of size p. All cycles lie in the
image subgroup <g> of order t = ord_p(g), where the map is conjugate to
S(e) = (g**e mod p) mod t on {0,...,t-1}; points outside <g> only add
one tail step. census_table and fixed_points scan S; decompose_table
finds the cyclic nodes and the longest tail of S by peeling leaves, in
numpy while the frontier is wide and in Python once it is narrow, with
one uint8 array of in-degrees beside S (a node of S has at most (p-1)/t
preimages), and the cycle lengths by a Python walk or, on a larger
cyclic set, a sparse ruling set. It returns (cycle_lengths, max_tail).
When g is a primitive root, S is a permutation with nothing to peel,
and census_graph hands it straight to the cycle finder. The graph
budget charges 8 bytes per element of <g>.

_subgroup_map is the one builder of S. It takes the powers g**e mod p
in blocks of _CHUNK elements, each the product of a row of small powers
and one power of g**w (w about sqrt(t)); the row and the powers of g**w
are each about sqrt(t) Python products. When t is even, g**(t/2) is the
one element of order 2, -1, so g**(e + t/2) mod p = p - (g**e mod p): only
the powers e < t/2 are taken, and each block fills S[lo:hi] and
S[t/2+lo : t/2+hi]. Every block is reduced mod p in uint64 (products lie
in [0, p**2), p < 2**32) into uint32 values, then mod t in uint32
straight into the int32 S. Every reduction of a chunk is _reduce, a
floor division by the scalar modulus in the dtype of its input (the
row and the powers of g**w are reduced in Python). The table census
(_census_from_table) runs the starts _CHUNK at a time, gathering the k
iterates with np.take into two chunk buffers, so no pass over S
allocates or streams a t-long temporary. These gathers, and those of
decompose_table's peel and ruling set, run in numpy's wrap mode behind
one range check per table (_check_range; in the peel, np.add.at raises
on a bad index first). In its default raise mode, np.take with out=
gathers into a fresh temporary and copies it into out, so that out is
left untouched if an index is bad: a second chunk-sized temporary per
gather, beside the intp copy of the indices that every take makes. The
chunk buffers live in one module workspace (_work), made at the first
table pass and reused from call to call, the only chunk scratch of both
table builds: ecdynamics builds the curve map's table in it, on the same
_CHUNK. census_table also builds S there, in a buffer that grows
geometrically, so a sweep over many (p, g) faults in no new pages once
it holds the largest S. Above _WORKSPACE_MAX_ELEMENTS a call gets a
fresh S instead. The workspace makes the module not reentrant: the
package runs in parallel by processes, never by threads. No array the
package returns aliases it.

The table census is shared with the elliptic-curve analogue: any map
given as a value table on {0,...,n-1} is censused by _census_from_table
from a given first start (0 for S, 1 for the curve map). Only the passes
over all of {0,...,p-1} (the all-bases fixed-point count and the
3-periodic sets of lemmas) refuse p above _NUMPY_MOD_LIMIT (about
3.04e9, where int64 products stop being exact and a table of size p
would exceed 24 GB); above it _subgroup_map runs in Python, so every
census route and fixed_points still run.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .modarith import check_prime_modulus, multiplicative_order, primitive_root

# Byte budget for whole-graph passes.
DEFAULT_MEM_BUDGET = 2**31

# Peak working memory of census_graph per element of <g> with int32
# indices (t <= 2**31); int64 indices double it. Peak RSS over the
# post-import baseline of a fresh process (VmHWM) at p = 10000019 was
# 7.3-7.4 and 6.3 B per element for the proper subgroups t = 1.43e6 and
# 5e6 (g = 2 and 3: S, the uint8 in-degrees and the first frontier), and
# 6.2 B for the permutation t = 1e7 (g = 6: S and the ruling set's marks);
# 8 leaves 1.27x headroom at t >= 5e6. It fails int32 in-degrees, which
# peak at 9.3 B per element at t = 5e6. TestMemoryModels holds the pass
# to it.
_GRAPH_BYTES_PER_NODE = 8

# decompose_table's crossovers, measured in process (CHANGES.md): a numpy
# peel round over at most _NARROW leaves costs more than a Python step per
# leaf; a permutation of at most _WALK_LIMIT nodes is walked in Python, and
# a larger one split by a ruling set of every _RULER_STRIDE-th node.
_NARROW = 256
_WALK_LIMIT = 2**10
_RULER_STRIDE = 64

# The two readings of "periodic point of period k" (see CycleCensus) that
# the lemmas' 3-periodic sets and the CLI's --m-semantics choose between.
M_SEMANTICS = ("least", "dividing")

# Largest modulus for which int64 products a*b with a, b < p stay exact.
_NUMPY_MOD_LIMIT = math.isqrt(2**63 - 1)

# Elements per chunk of both table builds: a chunk's scratch stays in cache,
# where a whole-array pass at t = 1e7 does not (there, _reduce took 1.7 ns
# per element in chunks and 3.3 ns in one pass; np.take 3.8 ns in chunks,
# where whole-table fancy indexing took 4.9 ns). Against 2**14, ec_census
# at N = 2000356 took about 50 ms instead of 65 (a 2-core host, 6
# interleaved runs); the prime map's times did not separate, and its peak
# RSS grows by about 0.6 MB per doubling.
_CHUNK = 1 << 15

# census_table keeps its int32 S in the workspace between calls while <g> has
# at most this many elements (4 B per element at the cap); a larger S is a
# fresh array, freed on return.
_WORKSPACE_MAX_ELEMENTS = 1 << 20

# Peak working memory of census_table per element of <g>, as peak RSS over
# the post-import baseline (VmHWM): 4.16 B at t = 10,000,018 (a fresh S).
# The chunk scratch adds about 1.6 MB whatever t is, which shows at small t:
# 5.65 B at t = 1,000,002 (S in the workspace); _check_budget charges it
# on top. 5 leaves 1.2x headroom at t = 1e7; TestMemoryModels holds the
# pass to it.
_CENSUS_BYTES_PER_NODE = 5


class _Workspace:
    """The chunk buffers of both table builds, reused from call to call.

    block (int64) holds a block of powers, as uint64 products below p**2,
    or the slope numerators of a curve chunk (ecdynamics._add_block);
    quot (int64) the quotients of every _reduce, viewed in the dtype of
    its input, one more than a chunk for the padded level of
    _batch_inverse; tree (int64) a curve chunk's product tree. iterates
    (int32) holds two chunks of gathered iterates and the chunk's starts;
    while S is built, and before the census gathers, its first two rows
    hold a block's powers mod p and their mirror p - v as uint32, and in
    decompose_table's numpy rounds its first row holds a chunk's heads.
    ramp holds the offsets 0.._CHUNK-1; equal a chunk's comparison, or
    as uint8 the in-degrees of a chunk's heads in the peel. table
    is census_table's S: it grows geometrically, so a sweep over many
    subgroup sizes faults new pages in only O(log t) times, and never
    past _WORKSPACE_MAX_ELEMENTS. Nothing returned by the module or by
    ecdynamics aliases these buffers.
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
    """The module's one workspace, made at its first table pass (a process
    that only imports the module, such as the CLI with workers, pays
    nothing for it)."""
    return _Workspace()


class MemoryBudgetError(RuntimeError):
    """A whole-graph pass would exceed the configured memory budget."""


def _check_budget(what: str, bytes_per_element: int, t: int, mem_budget: int) -> None:
    """Refuse a pass (`what`) over an S of t elements whose working memory,
    bytes_per_element per element (twice that when t > 2**31, where S and
    its indices are int64) plus the workspace's chunk buffers (about 1.6
    MB whatever t is; its table is part of the per-element charge),
    exceeds mem_budget."""
    need = bytes_per_element * t * (1 if t <= 2**31 else 2) + _work().chunk_bytes()
    if need > mem_budget:
        raise MemoryBudgetError(f"{what} needs ~{need} bytes, budget {mem_budget}")


def _require_kmax(k_max: int) -> None:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")


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
    """Period counts for k = 1..k_max (index 0 of each list is unused).

    n_dividing[k] counts starting values whose k-th iterate returns to
    the start (period divides k); n_least_period[d] counts points of
    least period exactly d.
    """

    k_max: int
    n_dividing: tuple[int, ...]
    n_least_period: tuple[int, ...]


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
    """Count u0 with u_k == u0 for each k <= k_max by direct iteration.

    The definitional route: O(p * k_max) map applications, O(1) extra
    memory.
    """
    _require_kmax(k_max)
    p, g = m.p, m.g
    n_div = [0] * (k_max + 1)
    n_least = [0] * (k_max + 1)
    for u in range(1, p):
        v = u
        least = 0
        for k in range(1, k_max + 1):
            v = pow(g, v, p)
            if v == u:
                n_div[k] += 1
                if least == 0:
                    least = k
        if least:
            n_least[least] += 1
    return CycleCensus(k_max, tuple(n_div), tuple(n_least))


def _reduce(a: np.ndarray, m: int, out: np.ndarray | None = None) -> None:
    """out = a mod m (out defaults to a), for a of at most _CHUNK + 1
    elements (2 * _CHUNK + 2 in uint32): int64 a in (-m, m**2), or
    unsigned a of any value. The quotients a // m go in a view of the
    workspace's quot in a's dtype. numpy divides by a scalar through
    libdivide: with the multiply and subtract, about half the time of
    np.remainder (2.0 against 4.1 ns per element at 2**16 elements in
    int64), and the division itself is faster unsigned (per element 0.82
    ns in int64, 0.49 in uint64, 0.16 in uint32). An out of another
    dtype takes the result unchecked (casting="unsafe").
    """
    q = np.ndarray(a.shape, a.dtype, _work().quot)
    np.floor_divide(a, m, out=q)
    q *= m
    np.subtract(a, q, out=a if out is None else out, casting="unsafe")


def _pow_blocks(base: int, count: int, p: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, block) where block mod p is [base**lo, base**(lo+1), ...]
    in consecutive blocks of at most _CHUNK covering 0..count-1. A block
    holds uint64 products in [0, p**2), unreduced: each caller reduces it
    mod p (unsigned, see _reduce) into the buffer it fills.

    One level: with w about sqrt(count) (at most _CHUNK), base**(i*w + j)
    is lead[i] * row[j], where row holds base**0..base**(w-1) and lead the
    powers of base**w: w and about count/w Python products, each about
    sqrt(count) below the cap, then one uint64 array each. A block is
    whole rows and one broadcast multiply, in a uint64 view of the
    workspace's block, which the next block overwrites.
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
    """[base**0, ..., base**(count-1)] mod p as int64."""
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


def _invert_dividing(n_div: list[int], k_max: int) -> list[int]:
    """Least-period counts from period-dividing counts (n_div[d] = sum over e|d)."""
    n_least = list(n_div)
    for d in range(1, k_max + 1):
        for multiple in range(2 * d, k_max + 1, d):
            n_least[multiple] -= n_least[d]
    return n_least


def _check_range(table: np.ndarray) -> None:
    """Raise IndexError unless every value of table lies in [0, len(table)).

    The one range check of a table that is then gathered in numpy's wrap
    mode, which would fold a bad value silently: a single max over an
    unsigned view, in which a negative value reads as one above 2**31.
    """
    unsigned = table.view(np.uint32 if table.itemsize == 4 else np.uint64)
    if len(table) and np.maximum.reduce(unsigned) >= len(table):
        raise IndexError(f"a table value lies outside [0, {len(table)})")


def _census_from_table(table: np.ndarray, k_max: int, start: int) -> CycleCensus:
    """CycleCensus of u -> table[u] over the starts {start,...,len(table)-1}.

    k-fold composition by gathers; the one census loop behind both the
    prime map (census_table, start 0) and the curve map
    (ecdynamics.ec_census, start 1). The starts go _CHUNK at a time, and
    each chunk's k iterates alternate between two chunk buffers of the
    workspace. The gathers run in numpy's wrap mode behind one range check
    of the table (_check_range), which raises IndexError for any value
    outside [0, len(table)). In its default raise mode, np.take with out=
    gathers into a fresh temporary and copies it into out, so that out is
    left untouched if an index is bad. A gather still converts its index
    chunk to intp, a temporary of 8 B per start of the chunk; nothing else
    of a chunk's size is allocated.
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
    return CycleCensus(k_max, tuple(n_div), tuple(_invert_dividing(n_div, k_max)))


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

    The table must map that range into itself. Returns (cycle_lengths,
    max_tail): one entry per cycle, and the most steps any node takes to
    reach a cyclic node (0 for a permutation), as an int.

    Cyclic nodes and the longest tail come from peeling leaves in
    topological order (Kahn): each round removes the nodes no remaining
    node maps to. The survivors are the cyclic nodes, and the number of
    rounds is the longest tail. Besides the table, the pass holds one
    uint8 array of in-degrees and the frontier. For S a node has at most
    (p-1)/t preimages, the values of [1, p-1] congruent to it mod t, so
    its count fits a byte while the index (p-1)/t is at most 255; the
    curve map's in-degrees are at most 4. A table with a node of 256 or
    more preimages (counts that no longer sum to n) is counted again in
    its own dtype. A round over more than _NARROW leaves runs in numpy,
    _CHUNK leaves at a time: the leaves' heads are gathered in wrap mode
    into the workspace, np.subtract.at takes one from the in-degree of
    each, and the heads it frees (their in-degrees gathered the same way)
    are sorted and told apart from their neighbours, so a head that
    several leaves free enters the next frontier once. A narrower round
    takes a Python step per leaf on memoryviews of the arrays (as fast to
    index as lists, with no copy) instead of ~25 us of numpy calls. The
    cyclic nodes, relabelled 0..c-1 by their rank among themselves
    (np.searchsorted), then go to _cycle_lengths.
    """
    succ = np.asarray(table)[lo:]
    if lo:
        succ = succ - lo
    n = len(succ)
    succ = succ.astype(np.int32 if n <= 2**31 else np.int64, copy=False)

    # ufunc.at runs its fast loop (NumPy >= 1.25) only when the value has
    # the dtype of the counts: np.add.at(indeg, idx, 1) casts element by
    # element, 30x slower (337 against 11 ms at n = 1.43e6). np.bincount
    # takes 16 ms there, but copies succ to intp and counts in int64.
    for dtype in (np.uint8, succ.dtype):
        indeg = np.zeros(n, dtype=dtype)
        one = indeg.dtype.type(1)
        for i in range(0, n, _CHUNK):
            np.add.at(indeg, succ[i : i + _CHUNK], one)
        if indeg.sum(dtype=np.int64) == n:  # else some count wrapped
            break
    leaves = _zeros_of(indeg, succ.dtype)  # about n/e of them for a random map
    # A wide round gathers a chunk's heads into a row of the workspace's
    # iterates and their in-degrees into its equal (as uint8), in wrap mode
    # with no check of its own: np.add.at above has raised on any value
    # >= n, and read a value in [-n, 0) as wrap mode does.
    work = _work()
    rows = work.iterates
    if rows.dtype != succ.dtype:  # int64 indices: n > 2**31
        rows = np.empty((2, _CHUNK), dtype=succ.dtype)
    counts = work.equal.view(np.uint8) if indeg.dtype == np.uint8 else rows[1]
    max_tail = 0
    while leaves.size > _NARROW:
        max_tail += 1
        freed = 0
        for i in range(0, len(leaves), _CHUNK):
            chunk = leaves[i : i + _CHUNK]
            heads = succ.take(chunk, out=rows[0, : len(chunk)], mode="wrap")
            np.subtract.at(indeg, heads, one)
            # A head freed here has no leaf left in a later chunk, so its
            # repeats all lie in this one.
            heads = heads[indeg.take(heads, out=counts[: len(heads)], mode="wrap") == 0]
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
    """Cycle lengths of the permutation perm.

    At most _WALK_LIMIT nodes are walked in Python. A larger perm is split
    by a sparse ruling set (as in list ranking: Reid-Miller 1994, Sibeyn
    1997). Every _RULER_STRIDE-th node (by label: no RNG) is a ruler. One
    walker per ruler steps in lockstep, one gather per round, to the next
    ruler; the last _RULER_STRIDE walkers finish in Python. Summing the
    gaps around the ruler permutation gives every cycle that holds a
    ruler. The unvisited nodes lie on ruler-free cycles (all of them but
    the rulers in the identity or in all 3-cycles): they are relabelled
    by their rank among themselves and walked in Python.
    """
    if len(perm) <= _WALK_LIMIT:
        return _cycle_sums(perm.tolist(), [1] * len(perm))
    _check_range(perm)
    mark = np.zeros(len(perm), dtype=np.int8)  # 0 unvisited, 1 walked, 2 ruler
    mark[::_RULER_STRIDE] = 2
    gap, nxt, steps, walkers = _ruler_rounds(perm, mark)
    gap, nxt = gap.tolist(), nxt.tolist()
    step, seen = memoryview(perm), memoryview(mark)
    for i, u in walkers:
        walked = steps
        while seen[u] != 2:
            seen[u] = 1
            u = step[u]
            walked += 1
        gap[i], nxt[i] = walked, u // _RULER_STRIDE
    rest = _zeros_of(mark, perm.dtype)
    rest_succ = np.searchsorted(rest, perm[rest]).tolist()
    return _cycle_sums(nxt, gap) + _cycle_sums(rest_succ, [1] * len(rest))


def _ruler_rounds(
    perm: np.ndarray, mark: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, list[tuple[int, int]]]:
    """The lockstep rounds of _cycle_lengths, one walker per ruler (the
    nodes marked 2), until at most _RULER_STRIDE walkers are out.

    Returns (gap, nxt, steps, walkers): for each finished walker the steps
    to the next ruler and that ruler's index, the number of rounds run,
    and the (ruler index, position) of each walker still out. A round
    gathers the marks at the walkers and their successors in wrap mode
    (perm is range-checked), into buffers made once, and the walkers still
    out are compressed to the front of those buffers; all of them are
    freed on return.
    """
    count = -(-len(perm) // _RULER_STRIDE)
    gap = np.empty(count, dtype=np.int64)  # steps to the next ruler
    nxt = np.empty_like(gap)  # index of the next ruler
    # The first `live` entries of ids and pos hold the walkers still out
    # and where they stand, pos in intp so that no gather converts it.
    ids, pos = np.arange(count), perm[::_RULER_STRIDE].astype(np.intp)
    hops = np.empty(count, dtype=perm.dtype)  # a round's successors
    seen = np.empty(count, dtype=np.int8)  # the marks at the walkers
    done = np.empty(count, dtype=bool)
    live, steps = count, 0
    while True:
        steps += 1
        at_ruler = np.equal(mark.take(pos[:live], out=seen[:live], mode="wrap"), 2,
                            out=done[:live])
        if at_ruler.any():
            finished = ids[:live][at_ruler]
            nxt[finished] = pos[:live][at_ruler] // _RULER_STRIDE
            gap[finished] = steps
            live = _compress(np.logical_not(at_ruler, out=at_ruler), ids, pos)
        if live <= _RULER_STRIDE:
            return gap, nxt, steps, list(zip(ids[:live].tolist(), pos[:live].tolist()))
        mark[pos[:live]] = 1
        pos[:live] = perm.take(pos[:live], out=hops[:live], mode="wrap")


def _compress(keep: np.ndarray, *arrays: np.ndarray) -> int:
    """Move the entries of each array where keep holds to its front, in
    order, and return their number.

    A _CHUNK at a time, each chunk's copy freed before the next is made:
    with two alive at once, the heap shrank and grew again in every round
    of _ruler_rounds (13.8k more minor faults at p = 10000019, g = 6).
    """
    live = 0
    for i in range(0, len(keep), _CHUNK):
        part = keep[i : i + _CHUNK]
        n = int(np.count_nonzero(part))
        for a in arrays:
            a[live : live + n] = a[i : i + len(part)][part]
        live += n
    return live


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

    A cycle of length L holds L points of least period L, and
    n_dividing[k] sums those over the divisors L of k. fixed_outside
    fixed points lie outside the census domain and are not counted.
    k_max defaults to the longest cycle length.
    """
    least = Counter()
    for length in cycle_lengths:
        least[length] += length
    if fixed_outside:
        least[1] -= fixed_outside
    if k_max is None:
        k_max = max(least)
    n_div = [0] * (k_max + 1)
    n_least = [0] * (k_max + 1)
    for d, count in least.items():
        if d <= k_max:
            n_least[d] = count
            for k in range(d, k_max + 1, d):
                n_div[k] += count
    return CycleCensus(k_max, tuple(n_div), tuple(n_least))


def _subgroup_map(m: ExpMap, t: int, out: np.ndarray | None = None) -> np.ndarray:
    """S[e] = (g**e mod p) mod t for e in 0..t-1, where t = ord_p(g).

    e -> g**e mod p carries S onto the map restricted to <g>: the map
    sends g**e to g**(g**e mod p), which is g**S[e] because g**t == 1.
    S is written into out (t long, int32) if given, else a fresh array.
    For even t, g**(t/2) = -1, so S[t/2 + e] = (p - (g**e mod p)) mod t
    and only the powers e < t/2 are taken, in numpy and in Python alike.
    Each block of powers is reduced mod p into uint32 values v in a view
    of the workspace's iterates, beside them goes p - v, and both are
    reduced mod t straight into the two halves of S.
    """
    p, g = m.p, m.g
    if out is None:
        out = np.empty(t, dtype=np.int32 if t <= 2**31 else np.int64)
    halves = 2 - t % 2
    half = t // halves
    if p <= _NUMPY_MOD_LIMIT:
        dest = out.reshape(halves, half)
        iterates = _work().iterates  # free until the census gathers
        for lo, block in _pow_blocks(g, half, p):
            n = len(block)
            v = np.ndarray((halves, n), np.uint32, iterates)
            _reduce(block, p, v[0])  # p < 2**32
            if halves == 2:
                np.subtract(p, v[0], out=v[1])
            _reduce(v, t, dest[:, lo : lo + n])
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
    k_max defaults to the longest cycle length.
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
    one residue class mod (p-1)/d. p above _NUMPY_MOD_LIMIT raises
    MemoryBudgetError; primitive_root checks that p is prime.
    """
    _require_int64_exact(p)
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
