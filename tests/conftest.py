"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive and independent of the package
internals: linear scans, trial division, double loops. Tests compare
package results against these, never the other way round.
"""

from __future__ import annotations



def trial_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if trial_prime(n)]


def brute_table(p: int, g: int) -> dict[int, int]:
    """u -> g**u mod p for u in 1..p-1, by repeated multiplication."""
    table = {}
    v = 1
    for u in range(1, p):
        v = v * g % p
        table[u] = v
    return table


def brute_census(p: int, g: int, k_max: int) -> tuple[list[int], list[int]]:
    """(n_dividing, n_least) lists with index 0 unused."""
    table = brute_table(p, g)
    n_div = [0] * (k_max + 1)
    n_least = [0] * (k_max + 1)
    for u in range(1, p):
        v = u
        least = 0
        for k in range(1, k_max + 1):
            v = table[v]
            if v == u:
                n_div[k] += 1
                if least == 0:
                    least = k
        if least:
            n_least[least] += 1
    return n_div, n_least


def brute_cycle_multiset(p: int, g: int) -> list[int]:
    """Sorted cycle lengths of the functional graph on {1,...,p-1}."""
    table = brute_table(p, g)
    state = {}  # 0 in-progress marker unused; use dict of final flags
    done: set[int] = set()
    lengths: list[int] = []
    for s in range(1, p):
        if s in done:
            continue
        seen = {}
        u = s
        while u not in seen and u not in done:
            seen[u] = len(seen)
            u = table[u]
        if u not in done:  # new cycle discovered
            cycle_len = len(seen) - seen[u]
            lengths.append(cycle_len)
        done.update(seen)
    return sorted(lengths)


def brute_orbit_structure(table, nodes) -> tuple[list[int], int]:
    """(sorted cycle lengths, longest tail) of u -> table[u] on nodes.

    Walks every orbit until a point repeats or a known cycle is met,
    then walks every point until it reaches a point that returns to
    itself.
    """
    on_cycle: set[int] = set()
    lengths: list[int] = []
    for s in nodes:
        seen = set()
        u = s
        while u not in seen and u not in on_cycle:
            seen.add(u)
            u = table[u]
        if u in on_cycle:
            continue
        cycle = [u]
        v = table[u]
        while v != u:
            cycle.append(v)
            v = table[v]
        on_cycle.update(cycle)
        lengths.append(len(cycle))
    longest = 0
    for s in nodes:
        steps = 0
        u = s
        while u not in on_cycle:
            u = table[u]
            steps += 1
        longest = max(longest, steps)
    return sorted(lengths), longest


def brute_max_tail(p: int, g: int) -> int:
    """Most steps any u in {1,...,p-1} takes to reach a cyclic point."""
    return brute_orbit_structure(brute_table(p, g), range(1, p))[1]


def brute_ind(g: int, h: int, p: int) -> int:
    """Discrete log by linear scan over exponents 0..p-2."""
    v = 1
    for e in range(p - 1):
        if v == h % p:
            return e
        v = v * g % p
    raise ValueError(f"{h} not a power of {g} mod {p}")


def brute_order(g: int, p: int) -> int:
    v = g % p
    t = 1
    while v != 1:
        v = v * g % p
        t += 1
    return t


def ec_brute_points(p: int, a: int, b: int) -> list[tuple[int, int]]:
    """All affine points by a double loop (the point at infinity excluded)."""
    return [
        (x, y)
        for x in range(p)
        for y in range(p)
        if (y * y - (x * x * x + a * x + b)) % p == 0
    ]


def ec_brute_census(table: list[int], n: int, k_max: int) -> tuple[list[int], list[int]]:
    """Same counting as brute_census, over a precomputed value table on 0..n-1."""
    n_div = [0] * (k_max + 1)
    n_least = [0] * (k_max + 1)
    for u in range(1, n):
        v = u
        least = 0
        for k in range(1, k_max + 1):
            v = table[v]
            if v == u:
                n_div[k] += 1
                if least == 0:
                    least = k
        if least:
            n_least[least] += 1
    return n_div, n_least


def brute_thm2_holds(p: int, g: int, n2: int) -> bool:
    """n2 <= ceil(2p/z) + 2 + 2*g**(2z), z the least z >= 1 with g**(3z) >= p."""
    z = 1
    while g ** (3 * z) < p:
        z += 1
    return n2 <= (2 * p + z - 1) // z + 2 + 2 * g ** (2 * z)


def brute_thm3_holds(p: int, g: int, n3: int) -> bool:
    """n3 <= (3p + g**(2g+1) + g + 1) / 4, cleared of the denominator."""
    return 4 * n3 <= 3 * p + g ** (2 * g + 1) + g + 1
