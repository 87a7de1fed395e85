"""Exact modular arithmetic on integers up to 2**63.

Primality testing is deterministic over the whole supported range,
multiplicative orders are computed by factoring the group order, and
discrete logarithms use baby-step giant-step. Every function here is a
pure function of its arguments and safe to call from any number of
workers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

MAX_MODULUS = 1 << 63

# Miller-Rabin witnesses that are deterministic for all n < 3.3e24,
# comfortably covering the 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10**6


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 0 <= n < 2**64.

    Cached: validators call this repeatedly with the same moduli.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime_modulus(p: int) -> int:
    """Validate an odd prime modulus with 3 <= p < 2**63 and return it."""
    if not 3 <= p < MAX_MODULUS:
        raise ValueError(f"modulus {p} outside [3, 2**63)")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a byte sieve of [lo, hi] alone.

    The base primes up to sqrt(hi) come from this same sieve (the
    recursion ends once hi < 4) and cross off their multiples from
    max(q*q, lo) on, so the cost is O(sqrt(hi) + hi - lo). The sieve takes
    one byte per number in [lo, hi]; a span that does not fit in memory
    raises MemoryError.
    """
    lo = max(lo, 2)
    if lo > hi:
        return []
    sieve = bytearray(b"\x01") * (hi - lo + 1)
    for q in primes_in_range(2, math.isqrt(hi)):
        start = max(q * q, -(-lo // q) * q)
        if start <= hi:
            sieve[start - lo :: q] = bytes((hi - start) // q + 1)
    return list(compress(range(lo, hi + 1), sieve))


def _rho_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle-finding rho)."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


@lru_cache(maxsize=4096)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending.

    Trial division up to 10**6, then rho splitting for whatever is left.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    found = set()
    while n % 2 == 0:
        found.add(2)
        n //= 2
    d = 3
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            found.add(d)
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()  # > 1: rho splits off a factor strictly between 1 and m
        if is_prime(m):
            found.add(m)
            continue
        f = _rho_brent(m)
        stack.append(f)
        stack.append(m // f)
    return tuple(sorted(found))


def multiplicative_order(g: int, p: int) -> int:
    """Least t >= 1 with g**t == 1 (mod p).

    Descends through the prime factors of p-1. Raises ValueError unless
    gcd(g, p) == 1.
    """
    check_prime_modulus(p)
    g %= p
    if g == 0:
        raise ValueError("g shares a factor with p")
    t = p - 1
    for q in prime_factors(p - 1):
        while t % q == 0 and pow(g, t // q, p) == 1:
            t //= q
    return t


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the full multiplicative group mod p."""
    check_prime_modulus(p)
    g %= p
    if g == 0:
        return False
    return all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))


def primitive_root(p: int) -> int:
    """Smallest g >= 2 of multiplicative order p-1 mod p."""
    check_prime_modulus(p)
    return next(g for g in range(2, p) if is_primitive_root(g, p))


def discrete_log(g: int, h: int, p: int) -> int:
    """The index v in {0,...,p-2} with g**v == h (mod p), by baby-step giant-step.

    Requires g to be a primitive root mod p, which guarantees v exists
    and is unique. O(sqrt(p)) time and space.
    """
    check_prime_modulus(p)
    g %= p
    h %= p
    if h == 0:
        raise ValueError("h must be a unit mod p")
    if not is_primitive_root(g, p):
        raise ValueError(f"g={g} is not a primitive root mod {p}")
    m = math.isqrt(p - 2) + 1
    baby = {}
    x = 1
    for j in range(m):
        baby.setdefault(x, j)
        x = x * g % p
    giant = pow(x, p - 2, p)  # g**(-m)
    y = h
    for i in range(m + 1):
        j = baby.get(y)
        if j is not None:
            return (i * m + j) % (p - 1)
        y = y * giant % p
    raise ArithmeticError("index not found")  # unreachable for a primitive root
