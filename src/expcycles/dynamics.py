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
numpy while the frontier is wide and in Python once it is narrow, and
the cycle lengths by a Python walk, by pointer jumping or by a sparse
ruling set as the cyclic set grows (it is all of <g> when g is a
primitive root). It returns (cycle_lengths, max_tail). The graph
budget charges about 28 bytes per element of <g>.

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

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .modarith import check_prime_modulus, multiplicative_order, primitive_root

# Byte budget for whole-graph passes.
DEFAULT_MEM_BUDGET = 2**31

# Peak working memory of census_graph per element of <g> with int32
# indices (t <= 2**31); int64 indices double it. Peak RSS over the
# interpreter baseline (getrusage) was 20.7 and 20.0 B per element for
# the proper subgroups t = 1.43e6 and 5e6, and 20.0 B for the
# permutations t = 1e7 and 2e7 (np.bincount's intp copy of the table
# and its counts); 28 leaves 1.35x headroom over the maximum.
_GRAPH_BYTES_PER_NODE = 28

# decompose_table's crossovers, measured in process (CHANGES.md): a numpy
# peel round over at most _NARROW leaves costs more than a Python step per
# leaf; a permutation of at most _WALK_LIMIT nodes is walked in Python, of
# at most _JUMP_LIMIT by pointer jumping, and a larger one by a ruling set
# of every _RULER_STRIDE-th node.
_NARROW = 256
_WALK_LIMIT = 2**10
_JUMP_LIMIT = 2**14
_RULER_STRIDE = 64

# The two readings of "periodic point of period k" (see CycleCensus) that
# the lemmas' 3-periodic sets and the CLI's --m-semantics choose between.
M_SEMANTICS = ("least", "dividing")

# Largest modulus for which int64 products a*b with a, b < p stay exact.
_NUMPY_MOD_LIMIT = math.isqrt(2**63 - 1)


class MemoryBudgetError(RuntimeError):
    """A whole-graph pass would exceed the configured memory budget."""


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
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
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


def _pow_range(base: int, count: int, p: int) -> np.ndarray:
    """[base**0, ..., base**(count-1)] mod p as int64, by doubling blocks."""
    out = np.empty(count, dtype=np.int64)
    if count == 0:
        return out
    out[0] = 1 % p
    base %= p
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        mult = pow(base, filled, p)
        np.multiply(out[:take], mult, out=out[filled : filled + take])
        out[filled : filled + take] %= p
        filled += take
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
    n_least = [0] * (k_max + 1)
    for d in range(1, k_max + 1):
        n_least[d] = n_div[d] - sum(n_least[e] for e in range(1, d) if d % e == 0)
    return n_least


def _census_from_table(table: np.ndarray, k_max: int, start: int) -> CycleCensus:
    """CycleCensus of u -> table[u] over the starts {start,...,len(table)-1}.

    k-fold composition by gathers; the one census loop behind both the
    prime map (census_table, start 0) and the curve map
    (ecdynamics.ec_census, start 1).
    """
    n_div = [0] * (k_max + 1)
    base = np.arange(start, len(table), dtype=table.dtype)
    cur = table[start:]  # table[base] without a gather
    for k in range(1, k_max + 1):
        if k > 1:
            cur = table[cur]
        n_div[k] = int(np.count_nonzero(cur == base))
    return CycleCensus(k_max, tuple(n_div), tuple(_invert_dividing(n_div, k_max)))


def census_table(m: ExpMap, k_max: int) -> CycleCensus:
    """CycleCensus via k-fold composition of the subgroup map S.

    Every periodic point lies in <g>, where S is conjugate to the map (see
    _subgroup_map), so the census of S over all of {0,...,t-1} (e = 0 is
    u = 1) equals census_naive. This is the fast path the bound sweeps use.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _census_from_table(_subgroup_map(m, multiplicative_order(m.g, m.p)), k_max, 0)


def decompose_table(table: np.ndarray, lo: int) -> tuple[np.ndarray, int]:
    """Functional-graph decomposition of node -> table[node] on {lo,...,len-1}.

    The table must map that range into itself. Returns (cycle_lengths,
    max_tail): one entry per cycle, and the most steps any node takes to
    reach a cyclic node (0 for a permutation), as an int.

    Cyclic nodes and the longest tail come from peeling leaves in
    topological order (Kahn): each round removes the nodes no remaining
    node maps to. The survivors are the cyclic nodes, and the number of
    rounds is the longest tail. A round over more than _NARROW leaves is
    one numpy np.unique pass; a narrower one takes a Python step per
    leaf on memoryviews of the arrays (as fast to index as lists, with
    no copy) instead of ~25 us of numpy calls. The cyclic nodes, as a
    permutation, then go to _cycle_lengths.
    """
    succ = np.asarray(table)[lo:]
    if lo:
        succ = succ - lo
    n = len(succ)
    succ = succ.astype(np.int32 if n <= 2**31 else np.int64, copy=False)

    indeg = np.bincount(succ, minlength=n).astype(succ.dtype, copy=False)
    leaves = np.flatnonzero(indeg == 0)
    max_tail = 0
    while leaves.size > _NARROW:
        max_tail += 1
        heads, hits = np.unique(succ[leaves], return_counts=True)
        indeg[heads] -= hits
        leaves = heads[indeg[heads] == 0]
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
        succ = _restrict(succ, np.flatnonzero(indeg))
    return np.array(_cycle_lengths(succ), dtype=np.int64), max_tail


def _restrict(succ: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """succ on the sorted node set `nodes`, which it maps into itself, relabelled 0..len-1."""
    rank = np.zeros(len(succ), dtype=succ.dtype)
    rank[nodes] = np.arange(len(nodes), dtype=succ.dtype)
    return rank[succ[nodes]]


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

    At most _JUMP_LIMIT nodes go to _jump_cycles. A larger perm is split
    by a sparse ruling set (as in list ranking: Reid-Miller 1994, Sibeyn
    1997). Every _RULER_STRIDE-th node (by label: no RNG) is a ruler. One
    walker per ruler steps in lockstep, one gather per round, to the next
    ruler; the last _RULER_STRIDE walkers finish in Python. Summing the
    gaps around the ruler permutation gives every cycle that holds a
    ruler. The unvisited nodes lie on ruler-free cycles (all of them but
    the rulers in the identity or in all 3-cycles): they go to
    _jump_cycles.
    """
    if len(perm) <= _JUMP_LIMIT:
        return _jump_cycles(perm)
    rulers = np.arange(0, len(perm), _RULER_STRIDE)
    mark = np.zeros(len(perm), dtype=np.int8)  # 0 unvisited, 1 walked, 2 ruler
    mark[rulers] = 2
    gap = np.empty(len(rulers), dtype=np.int64)  # steps to the next ruler
    nxt = np.empty_like(gap)  # index of the next ruler
    # intp positions spare every gather a conversion of its index array
    active, pos = np.arange(len(rulers)), perm[rulers].astype(np.intp)
    steps = 0
    while True:
        steps += 1
        done = mark[pos] == 2
        if done.any():
            nxt[active[done]] = pos[done] // _RULER_STRIDE
            gap[active[done]] = steps
            active, pos = active[~done], pos[~done]
        if active.size <= _RULER_STRIDE:
            break
        mark[pos] = 1
        pos = perm[pos].astype(np.intp)
    gap, nxt = gap.tolist(), nxt.tolist()
    step, seen = memoryview(perm), memoryview(mark)
    for i, u in zip(active.tolist(), pos.tolist()):
        walked = steps
        while seen[u] != 2:
            seen[u] = 1
            u = step[u]
            walked += 1
        gap[i], nxt[i] = walked, u // _RULER_STRIDE
    lengths = _cycle_sums(nxt, gap)
    return lengths + _jump_cycles(_restrict(perm, np.flatnonzero(mark == 0)))


def _jump_cycles(perm: np.ndarray) -> list[int]:
    """Cycle lengths of the permutation perm: walked in Python if it has
    at most _WALK_LIMIT nodes, else by min-label pointer jumping (about
    log2 of the longest cycle passes over perm)."""
    if len(perm) <= _WALK_LIMIT:
        return _cycle_sums(perm.tolist(), [1] * len(perm))
    # The value is the least label among the next 2**r nodes of the
    # cycle; a round that changes no label leaves every cycle's min.
    state = np.stack([np.arange(len(perm), dtype=perm.dtype), perm], axis=1)
    while True:
        ahead = np.take(state, state[:, 1], axis=0)
        np.minimum(ahead[:, 0], state[:, 0], out=ahead[:, 0])
        if np.array_equal(ahead[:, 0], state[:, 0]):
            break
        state = ahead
    counts = np.bincount(state[:, 0])
    return counts[counts > 0].tolist()


def _graph_summary(cycle_lengths: np.ndarray, max_tail: int) -> FunctionalGraphSummary:
    lengths = tuple(sorted(cycle_lengths.tolist()))
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


def _subgroup_map(m: ExpMap, t: int) -> np.ndarray:
    """S[e] = (g**e mod p) mod t for e in 0..t-1, where t = ord_p(g).

    e -> g**e mod p carries S onto the map restricted to <g>: the map
    sends g**e to g**(g**e mod p), which is g**S[e] because g**t == 1.
    """
    p, g = m.p, m.g
    index_type = np.int32 if t <= 2**31 else np.int64
    if p <= _NUMPY_MOD_LIMIT:
        powers = _pow_range(g, t, p)
        powers %= t
        return powers.astype(index_type)
    powers = [0] * t
    v = 1
    for e in range(t):
        powers[e] = v % t
        v = v * g % p
    return np.array(powers, dtype=index_type)


def _check_budget(p: int, t: int, mem_budget: int) -> None:
    need = _GRAPH_BYTES_PER_NODE * t * (1 if t <= 2**31 else 2)
    if need > mem_budget:
        raise MemoryBudgetError(
            f"p={p}: the graph pass on the {t} elements of <g> needs ~{need} bytes, "
            f"budget {mem_budget}"
        )


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
    if k_max is not None and k_max < 1:
        raise ValueError("k_max must be >= 1")
    p = m.p
    t = multiplicative_order(m.g, p)
    _check_budget(p, t, mem_budget)
    cycle_lengths, max_tail = decompose_table(_subgroup_map(m, t), 0)
    summary = _graph_summary(cycle_lengths, max_tail + (1 if t < p - 1 else 0))
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
    MemoryBudgetError.
    """
    check_prime_modulus(p)
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
