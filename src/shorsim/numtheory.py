"""Classical arithmetic: orders, totients, continued fractions, order-to-factor reduction.

All functions are pure. The scalar ones operate on Python integers, so
intermediate products are arbitrary precision. `multiplicative_order` is the
brute-force ground-truth oracle the rest of the package is verified against.

Two functions work on int64 arrays instead and are tested against a scalar
twin: `mod_pow_array` (x^e mod n over an exponent array) against `mod_pow`,
and `recoverable_controls` (the rounding rule over every control value)
against `recover_order_from_sample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrderError, NotCoprimeError, UndefinedInputError

INT64_LIMIT = 2**63


@dataclass(frozen=True)
class FactorPair:
    """A nontrivial splitting f1 * f2 = n with 1 < f1 <= f2 < n."""

    f1: int
    f2: int

    def __post_init__(self):
        if not (1 < self.f1 <= self.f2):
            raise ValueError(f"factors must satisfy 1 < f1 <= f2, got ({self.f1}, {self.f2})")

    @property
    def product(self) -> int:
        return self.f1 * self.f2

    @staticmethod
    def of(n: int, a: int, b: int) -> "FactorPair":
        """Build a sorted pair and check it actually splits n."""
        f1, f2 = sorted((a, b))
        pair = FactorPair(f1, f2)
        if pair.product != n or not (1 < f1 and f2 < n):
            raise ValueError(f"({a}, {b}) is not a nontrivial factorization of {n}")
        return pair


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two non-negative integers (not both zero)."""
    if a == 0 and b == 0:
        raise UndefinedInputError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def mod_pow(x: int, e: int, n: int) -> int:
    """x**e mod n via repeated squaring; result in [0, n)."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    return pow(x, e, n)


def mod_pow_array(x: int, exponents: np.ndarray, n: int) -> np.ndarray:
    """x**e mod n for every e of an int64 array, by square-and-multiply; int64 results in [0, n).

    Every product is of two residues below n, so n with (n-1)^2 >= 2^63 is
    refused rather than overflowed.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if (n - 1) ** 2 >= INT64_LIMIT:
        raise ValueError(f"modulus {n} is too large for int64 products")
    e = np.asarray(exponents, dtype=np.int64)
    if np.any(e < 0):
        raise ValueError("exponents must be non-negative")
    result = np.ones(e.shape, dtype=np.int64)
    square = x % n
    while np.any(e):
        odd = (e & 1).astype(bool)
        result[odd] = result[odd] * square % n
        square = square * square % n
        e = e >> 1
    return result


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


def euler_phi(r: int) -> int:
    """Euler's totient: count of k in [1, r] coprime to r.

    Computed from the prime factorization; tests cross-check against the
    brute-force gcd count.
    """
    if r < 1:
        raise ValueError(f"totient argument must be >= 1, got {r}")
    result = r
    m = r
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
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
            # 1 <= candidate < n, so mod_pow's argument checks cannot fail here.
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
    t = np.arange(n, dtype=np.int64)
    is_one = mod_pow_array(x, t, n) == 1
    verified = np.zeros(n, dtype=bool)
    for m in range(1, min(multiplier_bound, n - 1) + 1):
        fits = m * t < n
        verified[fits] |= is_one[m * t[fits]]

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
    if r < 1 or mod_pow(x, r, n) != 1:
        raise InvalidOrderError(f"{x}^{r} != 1 (mod {n})")
    if r % 2 != 0:
        return None
    h = mod_pow(x, r // 2, n)
    if h == n - 1:
        return None
    f1 = math.gcd(h - 1, n)
    f2 = math.gcd(h + 1, n)
    if 1 < f1 < n and 1 < f2 < n:
        return FactorPair.of(n, f1, f2)
    return None


def integer_kth_root(n: int, k: int) -> int:
    """Largest a with a^k <= n (n >= 0, k >= 1)."""
    if n < 0 or k < 1:
        raise ValueError("integer_kth_root requires n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    a = int(round(n ** (1.0 / k)))
    while a > 1 and a**k > n:
        a -= 1
    while (a + 1) ** k <= n:
        a += 1
    return a


def is_prime(n: int) -> bool:
    """Trial-division primality check; only used to screen driver inputs."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % p == 0:
            return False
        p += 2
    return True


def prime_power_base(n: int) -> int | None:
    """Return p when n = p^k for a prime p and k >= 2, else None."""
    for k in range(2, n.bit_length() + 1):
        a = integer_kth_root(n, k)
        if a >= 2 and a**k == n and is_prime(a):
            return a
    return None
