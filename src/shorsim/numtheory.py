"""Classical arithmetic: orders, totients, continued fractions, order-to-factor reduction.

All functions are pure. The scalar ones operate on Python integers, so
intermediate products are arbitrary precision; a scalar modular power or gcd
is the built-in `pow(x, e, n)` or `math.gcd`. `multiplicative_order` is the
brute-force ground-truth oracle the rest of the package is verified against.
`prime_factors` is the one trial-division loop: the totient, the factoring
driver's input screen and its order reduction all read it.

Two functions work on int64 arrays instead and are tested against a scalar
twin: `mod_pow_range` (x^0 .. x^(count-1) mod n) against `pow`, and
`recoverable_controls` (the rounding rule over every control value) against
`recover_order_from_sample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrderError, NotCoprimeError

INT64_LIMIT = 2**63


@dataclass(frozen=True)
class FactorPair:
    """A nontrivial splitting f1 * f2 = n with 1 < f1 <= f2 < n."""

    f1: int
    f2: int

    def __post_init__(self):
        if not (1 < self.f1 <= self.f2):
            raise ValueError(f"factors must satisfy 1 < f1 <= f2, got ({self.f1}, {self.f2})")

    @staticmethod
    def of(n: int, a: int, b: int) -> "FactorPair":
        """Build a sorted pair and check it actually splits n."""
        f1, f2 = sorted((a, b))
        pair = FactorPair(f1, f2)
        if f1 * f2 != n or not (1 < f1 and f2 < n):
            raise ValueError(f"({a}, {b}) is not a nontrivial factorization of {n}")
        return pair


def mod_pow_range(x: int, count: int, n: int) -> np.ndarray:
    """x**e mod n for e = 0 .. count-1, int64 in [0, n), by doubling: the next
    block of powers is the block so far times x**len(block) mod n. Every
    product is of two residues below n, so n with (n-1)^2 >= 2^63 is refused."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if (n - 1) ** 2 >= INT64_LIMIT:
        raise ValueError(f"modulus {n} is too large for int64 products")
    powers = np.ones(count, dtype=np.int64)
    done = 1
    while done < count:
        powers[done : 2 * done] = powers[: min(done, count - done)] * pow(x, done, n) % n
        done *= 2
    return powers


def multiplicative_order(x: int, n: int) -> int:
    """Smallest r >= 1 with x^r = 1 (mod n), found by brute iteration.

    This is the ground-truth oracle: it never trusts any other routine.
    Raises NotCoprimeError when gcd(x, n) != 1 (the gcd is already a factor).
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    g = math.gcd(x, n)
    if g != 1:
        raise NotCoprimeError(x, n, g)
    y = x % n
    r = 1
    while y != 1:
        y = (y * x) % n
        r += 1
    return r


def prime_factors(m: int) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs whose product of p**e is m, by trial
    division; [] for m = 1."""
    if m < 1:
        raise ValueError(f"can only factor m >= 1, got {m}")
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return factors


def euler_phi(r: int) -> int:
    """Euler's totient: count of k in [1, r] coprime to r.

    Computed from the prime factorization; tests cross-check against the
    brute-force gcd count.
    """
    if r < 1:
        raise ValueError(f"totient argument must be >= 1, got {r}")
    result = r
    for p, _ in prime_factors(r):
        result -= result // p
    return result


def continued_fraction_convergents(c: int, q: int) -> list[tuple[int, int]]:
    """All convergents of c/q as (numerator, denominator) pairs, in order of
    increasing denominator.

    Each pair is in lowest terms with denominator >= 1 (consecutive convergents
    satisfy h_k k_{k-1} - h_{k-1} k_k = +-1); the last equals c/q in lowest
    terms, and c = 0 yields [(0, 1)].
    """
    if q < 1:
        raise ValueError(f"denominator must be positive, got {q}")
    if not 0 <= c < q:
        raise ValueError(f"numerator must satisfy 0 <= c < q, got c={c}, q={q}")
    if c == 0:
        return [(0, 1)]
    convergents = []
    # Numerator/denominator recurrence over the Euclidean quotients of c/q,
    # seeded with the conventional (h_-2, h_-1) = (0, 1), (k_-2, k_-1) = (1, 0).
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    num, den = c, q
    while den != 0:
        a, rem = divmod(num, den)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        convergents.append((h, k))
        num, den = den, rem
    return convergents


def recover_order_from_sample(
    c: int, q: int, x: int, n: int, multiplier_bound: int = 1
) -> int | None:
    """Try to recover an order from one measured c by rounding c/q.

    Scans the convergents of c/q with denominator below n; for each
    denominator t tries the multiples m*t (1 <= m <= multiplier_bound,
    m*t < n) in ascending order and returns the first candidate r' with
    x^r' = 1 (mod n). Returns None when nothing verifies.
    """
    if not 0 <= c < q:
        raise ValueError(f"sample must satisfy 0 <= c < q, got c={c}, q={q}")
    g = math.gcd(x, n)
    if g != 1:
        raise NotCoprimeError(x, n, g)
    return order_recovery_steps(c, q, x, n, multiplier_bound)[0]


def order_recovery_steps(c: int, q: int, x: int, n: int, multiplier_bound: int):
    """The rounding rule of recover_order_from_sample, with every step recorded.

    Returns (raw candidate or None, the convergents tried as (numerator,
    denominator) pairs, the candidates checked as (candidate, multiplier,
    verified) triples), each list in the order tried. Inputs are not checked.
    """
    convergents = []
    checks = []
    for h, t in continued_fraction_convergents(c, q):
        convergents.append((h, t))
        if t >= n:
            break
        for m in range(1, multiplier_bound + 1):
            candidate = m * t
            if candidate >= n:
                break
            verified = pow(x, candidate, n) == 1
            checks.append((candidate, m, verified))
            if verified:
                return candidate, convergents, checks
    return None, convergents, checks


def recoverable_controls(q: int, x: int, n: int, multiplier_bound: int = 1) -> np.ndarray:
    """Length-q bool array: entry c is whether `recover_order_from_sample(c, q,
    x, n, multiplier_bound)` returns an order.

    A denominator t < n verifies when some m*t < n with m <= multiplier_bound
    has x^(m*t) = 1 (mod n); that table is computed once. Euclid's algorithm
    then runs for every c in lock-step, carrying only the convergent
    denominators, and a lane stops where the scalar rule does: at its first
    denominator t >= n, at its first verified t, or when its remainder is 0.
    """
    if q < 1:
        raise ValueError(f"denominator must be positive, got {q}")
    g = math.gcd(x, n)
    if g != 1:
        raise NotCoprimeError(x, n, g)
    if (q + 1) * n >= INT64_LIMIT:
        raise ValueError(f"q={q} and n={n} are too large for int64 denominators")
    is_one = mod_pow_range(x, n, n) == 1
    verified = np.zeros(n, dtype=bool)
    for m in range(1, min(multiplier_bound, n - 1) + 1):
        # is_one[::m] holds x^(m*t) = 1 for every t with m*t < n.
        verified[: is_one[::m].size] |= is_one[::m]

    recovered = np.zeros(q, dtype=bool)
    # Live lanes: control value, remainder pair (num, den) and the last two
    # convergent denominators, seeded with (k_-2, k_-1) = (1, 0).
    lane = np.arange(q, dtype=np.int64)
    num = lane.copy()
    den = np.full(q, q, dtype=np.int64)
    k_prev = np.ones(q, dtype=np.int64)
    k = np.zeros(q, dtype=np.int64)
    while lane.size:
        a, rem = np.divmod(num, den)
        k_prev, k = k, a * k + k_prev
        below = k < n
        hit = below & verified[np.minimum(k, n - 1)]
        recovered[lane[hit]] = True
        go_on = below & ~hit & (rem != 0)
        lane, num, den = lane[go_on], den[go_on], rem[go_on]
        k_prev, k = k_prev[go_on], k[go_on]
    return recovered


def factor_from_order(n: int, x: int, r: int) -> FactorPair | None:
    """Split n from an order r of x via gcd(x^(r/2) -+ 1, n).

    Requires x^r = 1 (mod n). Returns None when r is odd, when
    x^(r/2) = -1 (mod n), or when either gcd is trivial.
    """
    if r < 1 or pow(x, r, n) != 1:
        raise InvalidOrderError(f"{x}^{r} != 1 (mod {n})")
    if r % 2 != 0:
        return None
    h = pow(x, r // 2, n)
    if h == n - 1:
        return None
    f1 = math.gcd(h - 1, n)
    f2 = math.gcd(h + 1, n)
    if 1 < f1 < n and 1 < f2 < n:
        return FactorPair.of(n, f1, f2)
    return None
