"""Workloads of the expcycles benchmark: instances, CLI arguments and oracles.

Each workload is one CLI command. The seed picks the oracle sample and,
for the map workloads, the concrete instance within the stated class;
seed 0 gives the instances named in the descriptions. The oracles are
the benchmark's own exact arithmetic and brute-force `pow` censuses, or
a second census route of the package (census_table against the graph
census, ec_census_graph against ec_census). None runs in a timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

SWEEP_WORKERS = 2  # the sweeps' --workers: nproc of the 2-core reference machine
BLOCK_PAIRS = 256  # in-process sweeps are cut at prime boundaries into calls of >= this many pairs
SAMPLE_ROWS = 8  # sweep rows re-counted by brute force per validation
INSTANCES = 16  # map workloads: the seed picks one of the first INSTANCES primes of the class


@dataclass
class Validation:
    """Outcome of checking one output against the expected items."""

    valid_rows: int = 0
    valid_nodes: int = 0  # domain sizes (p-1 or N-1) summed over the validated rows
    errors: list[str] = field(default_factory=list)


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes lo <= p <= hi by a sieve of Eratosthenes."""
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(p) for p in np.nonzero(sieve)[0] if p >= lo]


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _order(g: int, p: int) -> int:
    """Multiplicative order of g mod prime p, by trial-dividing p-1."""
    order, rest, f = p - 1, p - 1, 2
    while rest > 1:
        if f * f > rest:
            f = rest
        if rest % f == 0:
            while rest % f == 0:
                rest //= f
            while order % f == 0 and pow(g, order // f, p) == 1:
                order //= f
        f += 1
    return order


def _nth_prime_from(start: int, n: int, keep) -> int:
    """The n-th (from 0) prime p >= start with keep(p)."""
    p = start - 1
    while n >= 0:
        p += 1
        if _is_prime(p) and keep(p):
            n -= 1
    return p


def exact_flags(p: int, g: int, n1: int, n2: int, n3: int) -> dict[str, bool]:
    """The three bound flags re-derived from (p, g, N(1), N(2), N(3)) in integers.

    thm1: (2 N1 - 1)^2 <= 8p.  thm2: N2 <= ceil(2p/z) + 2 + 2 g^(2z), z the
    least integer with g^(3z) >= p (N2 <= 1 for g = 1).  thm3: 4 N3 <=
    3p + g^(2g+1) + g + 1, decided from bit lengths when g^(2g+1) alone
    exceeds 4p, which bounds 4 N3.
    """
    if g == 1:
        thm2 = n2 <= 1
    else:
        z, cube = 1, g**3
        while cube**z < p:
            z += 1
        thm2 = n2 <= -(-2 * p // z) + 2 + 2 * g ** (2 * z)
    if (2 * g + 1) * (g.bit_length() - 1) > (4 * p).bit_length():
        thm3 = True
    else:
        thm3 = 4 * n3 <= 3 * p + g ** (2 * g + 1) + g + 1
    return {
        "thm1_applicable": p >= 11,
        "thm1": n1 <= 0 or (2 * n1 - 1) ** 2 <= 8 * p,
        "thm2": thm2,
        "thm3": thm3,
    }


def brute_census(p: int, g: int) -> tuple[int, int, int]:
    """(N(1), N(2), N(3)) of u -> g**u mod p by iterating pow from every u."""
    n = [0, 0, 0]
    for u in range(1, p):
        v1 = pow(g, u, p)
        v2 = pow(g, v1, p)
        v3 = pow(g, v2, p)
        n[0] += v1 == u
        n[1] += v2 == u
        n[2] += v3 == u
    return n[0], n[1], n[2]


def _violated(flags: dict) -> bool:
    return (flags["thm1_applicable"] and not flags["thm1"]) or not flags["thm2"] or not flags["thm3"]


class SweepInstance:
    """`verify-bounds` over a prime range; one item per (p, g) pair."""

    def __init__(self, pmin: int, pmax: int, g_list: list[int] | None, seed: int) -> None:
        self.pmin, self.pmax, self.g_list, self.seed = pmin, pmax, g_list, seed
        self.primes = primes_between(max(pmin, 3), pmax)
        self.gs = {p: [g for g in g_list if 1 <= g <= p - 1] if g_list else list(range(1, p))
                   for p in self.primes}
        self.pairs = [(p, g) for p in self.primes for g in self.gs[p]]
        self.items = len(self.pairs)

    def _argv(self, pmin: int, pmax: int, workers: int) -> list[str]:
        argv = ["verify-bounds", "--pmin", str(pmin), "--pmax", str(pmax)]
        if self.g_list:
            argv += ["--g-list", ",".join(map(str, self.g_list))]
        return argv + ["--workers", str(workers)]

    def argv(self) -> list[str]:
        return self._argv(self.pmin, self.pmax, SWEEP_WORKERS)

    def blocks(self) -> list[list[str]]:
        """In-process calls with --workers 1, cut at prime boundaries."""
        out, first, pairs = [], None, 0
        for p in self.primes:
            first = first or p
            pairs += len(self.gs[p])
            if pairs >= BLOCK_PAIRS or p == self.primes[-1]:
                out.append(self._argv(first, p, 1))
                first, pairs = None, 0
        return out

    def validate(self, rows: list[dict], exit_code: int) -> Validation:
        """Rows must be the expected (p, g) pairs in order, with gaps only where
        the command failed; every row's flags are re-derived exactly and a
        seeded sample of rows is re-counted by brute force."""
        result = Validation()
        expected = iter(self.pairs)
        for i, row in enumerate(rows):
            key = (row.get("p"), row.get("g"))
            if not any(key == pair for pair in expected):
                result.errors.append(f"row {i}: (p, g) = {key} missing from or out of the expected order")
                return result
            p, g = key
            n1, n2, n3 = row["n1"], row["n2"], row["n3"]
            if not all(isinstance(n, int) and 0 <= n <= p - 1 for n in (n1, n2, n3)):
                result.errors.append(f"row {i}: counts {n1, n2, n3} outside [0, p-1]")
            elif row["flags"] != exact_flags(p, g, n1, n2, n3):
                result.errors.append(f"row {i}: flags {row['flags']} differ from the exact ones")
            else:
                result.valid_rows += 1
                result.valid_nodes += p - 1
        rng = random.Random(self.seed)
        for i in sorted(rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows)))):
            row = rows[i]
            brute = brute_census(row["p"], row["g"])
            if (row["n1"], row["n2"], row["n3"]) != brute:
                result.errors.append(f"row {i}: counts differ from brute force {brute}")
        complete = result.valid_rows == self.items
        if complete and exit_code != (1 if any(_violated(r["flags"]) for r in rows) else 0):
            result.errors.append(f"exit code {exit_code} does not match the rows")
        if not complete and exit_code in (0, 1):
            result.errors.append(f"exit code {exit_code} with {self.items - result.valid_rows} rows missing")
        return result


class CensusInstance:
    """`census` of one prime map; one item, p - 1 nodes."""

    items = 1

    def __init__(self, p: int, g: int, k_max: int, image_index: int) -> None:
        self.p, self.g, self.k_max, self.image_index = p, g, k_max, image_index

    def argv(self) -> list[str]:
        return ["census", "--p", str(self.p), "--g", str(self.g), "--kmax", str(self.k_max)]

    def blocks(self) -> list[list[str]]:
        return [self.argv()]

    def validate(self, rows: list[dict], exit_code: int) -> Validation:
        """Census against census_table; graph fields against each other."""
        from expcycles.dynamics import ExpMap, census_table

        result = Validation()
        if exit_code != 0 or len(rows) != 1:
            if rows:
                result.errors.append(f"{len(rows)} rows with exit code {exit_code}")
            return result
        row, p, k_max = rows[0], self.p, self.k_max
        graph = row.get("graph")
        if (row.get("p"), row.get("g"), row.get("k")) != (p, self.g, k_max) or graph is None:
            result.errors.append(f"row header or graph section wrong: {str(row)[:200]}")
            return result
        cycles = graph["cycles"]
        least = [sum(c for c in cycles if c == k) for k in range(1, k_max + 1)]
        dividing = [sum(least[d - 1] for d in range(1, k + 1) if k % d == 0)
                    for k in range(1, k_max + 1)]
        checks = {
            "sum(cycles) == cyclic_points": sum(cycles) == graph["cyclic_points"],
            "len(cycles) == components": len(cycles) == graph["components"],
            "cycles sorted and positive": bool(cycles) and cycles == sorted(cycles) and cycles[0] >= 1,
            "cyclic points lie in the image subgroup": graph["cyclic_points"] <= (p - 1) // self.image_index,
            "is_permutation == (max_tail == 0)": graph["is_permutation"] == (graph["max_tail"] == 0),
            "n_least_period from cycles": row["n_least_period"] == least,
            "n_dividing from cycles": row["n_dividing"] == dividing,
        }
        oracle = census_table(ExpMap(p, self.g), k_max)
        checks["census == census_table"] = (
            row["n_dividing"] == list(oracle.n_dividing[1:])
            and row["n_least_period"] == list(oracle.n_least_period[1:])
        )
        result.errors += [f"failed: {name}" for name, ok in checks.items() if not ok]
        if not result.errors:
            result.valid_rows, result.valid_nodes = 1, p - 1
        return result


class ECInstance:
    """`ec` census of the analogue map; one item, N - 1 nodes."""

    items = 1

    def __init__(self, p: int, a: int, b: int, k_max: int) -> None:
        self.p, self.a, self.b, self.k_max = p, a, b, k_max
        x = np.arange(p, dtype=np.int64)
        rhs = (x * x % p * x % p + a * x + b) % p
        square_roots = np.bincount(x * x % p, minlength=p)  # number of y with y^2 = v
        self.n = 1 + int(square_roots[rhs].sum())
        gx = int(np.nonzero(square_roots[rhs])[0][0])
        y = pow(int(rhs[gx]), (p + 1) // 4, p)  # p = 3 mod 4
        self.gen = (gx, min(y, p - y))

    def argv(self) -> list[str]:
        return ["ec", "--p", str(self.p), "--a", str(self.a), "--b", str(self.b),
                "--gx", str(self.gen[0]), "--gy", str(self.gen[1]), "--kmax", str(self.k_max)]

    def blocks(self) -> list[list[str]]:
        return [self.argv()]

    def validate(self, rows: list[dict], exit_code: int) -> Validation:
        """Group size against the benchmark's point count and Hasse; census
        against ec_census_graph."""
        from expcycles.ecdynamics import CurveParams, ECExpMap, ec_census_graph

        result = Validation()
        if exit_code != 0 or len(rows) != 1:
            if rows:
                result.errors.append(f"{len(rows)} rows with exit code {exit_code}")
            return result
        row, p = rows[0], self.p
        header = {"p": p, "a": self.a, "b": self.b, "gx": self.gen[0], "gy": self.gen[1],
                  "n": self.n, "hasse_ok": True, "k": self.k_max}
        wrong = {key: row.get(key) for key, value in header.items() if row.get(key) != value}
        if wrong or (self.n - p - 1) ** 2 > 4 * p:
            result.errors.append(f"header differs from {header}: {wrong}")
            return result
        m = ECExpMap(CurveParams(p, self.a, self.b), self.gen, n=self.n)
        _summary, oracle = ec_census_graph(m, self.k_max)
        if (row["n_dividing"] != list(oracle.n_dividing[1:])
                or row["n_least_period"] != list(oracle.n_least_period[1:])):
            result.errors.append("census differs from ec_census_graph")
        else:
            result.valid_rows, result.valid_nodes = 1, self.n - 1
        return result


def _bigmap(seed: int) -> CensusInstance:
    index = 7  # (p-1)/ord_p(2) at p = 10000019; it sets the image size and so the graph's shape
    p = _nth_prime_from(10**7, seed % INSTANCES, lambda q: (q - 1) // _order(2, q) == index)
    return CensusInstance(p, 2, 3, index)


def _ecmap(seed: int) -> ECInstance:
    p = _nth_prime_from(2 * 10**6, seed % INSTANCES, lambda q: q % 4 == 3)
    return ECInstance(p, 2, 3, 3)


# name -> (why, instance from seed). allbases is not among the workloads of
# BENCHMARK.json: at this commit its command fails at p >= 751 (a thm3 bound
# beyond the 4300-digit str() limit) and writes no row, so its throughput is
# 0 and cannot serve as a baseline. It runs by name and reports that failure.
WORKLOADS = {
    "allbases": (
        "verify-bounds --pmin 11 --pmax 1009 --workers 2, all g (76,954 pairs): per-task "
        "overhead, exact big bounds and serialization; fails at p >= 751 (4300-digit limit)",
        lambda seed: SweepInstance(11, 1009, None, seed),
    ),
    "fixedbase": (
        "verify-bounds --pmin 3 --pmax 100000 --g-list 2,3 --workers 2 (19,181 pairs): "
        "exp_table and census_table on mid-sized tables; bounds cost ~1%",
        lambda seed: SweepInstance(3, 100000, [2, 3], seed),
    ),
    "bigmap": (
        "census --g 2 --kmax 3 at a prime p ~ 1e7 where 2 has index 7 (seed 0: p = 10000019): "
        "~95% in the pure-Python decompose_table, ~100 B/node",
        _bigmap,
    ),
    "ecmap": (
        "ec --a 2 --b 3 --kmax 3 at a prime p = 3 mod 4 near 2e6, least-x base point "
        "(seed 0: p = 2000003): ec_table and ec_census, the other census user",
        _ecmap,
    ),
}
