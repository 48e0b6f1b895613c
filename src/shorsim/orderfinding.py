"""Seeded sampling, order recovery, the factoring driver, and success rates.

`sample_outcomes` draws from an exact outcome table through an inverse CDF
over its ascending outcomes. `ColumnSampler` draws y from the fan-out's
y-marginal, then c from the one transformed column y (the chain rule), in
O(q) memory; the success rate reads all its columns at once.
Identical seeds give identical samples. The driver draws the base x and the
measurement samples from one generator, with the x draw preceding each
order-finding attempt, so whole runs replay exactly from (n, seed, budgets).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels, registers
from .checks import Check, check
from .distributions import (
    PROBABILITY_FLOOR,
    OutcomeDistribution,
    require_unit_norm,
    sequential_sum,
)
from .errors import UnsuitableInputError
from .numtheory import (
    FactorPair,
    euler_phi,
    factor_from_order,
    mod_pow_range,
    multiplicative_order,
    order_recovery_steps,
    prime_factors,
    recoverable_controls,
)
from .registers import DEFAULT_QUBIT_CAP, ProblemInstance, RegisterLayout, choose_modulus_power


def sample_outcomes(
    dist: OutcomeDistribution, count: int, seed: int
) -> list[tuple[int, ...]]:
    """Draw `count` i.i.d. outcomes by inverse CDF over ascending outcome order."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return dist.outcome_tuples(_draw_indices(dist.cdf, count, seed))


def _draw_indices(cdf: np.ndarray, count: int, seed: int | np.random.Generator) -> np.ndarray:
    """Positions of `count` i.i.d. inverse-CDF draws from one generator: a
    new one seeded by `seed`, or `seed` itself when it is a Generator."""
    rng = np.random.default_rng(seed)
    picks = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(picks, len(cdf) - 1, out=picks)


def _draws_per_block(block_ends: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """How many of the inverse-CDF `draws` land in each block of consecutive
    outcomes, given the cdf at each block's last outcome (ascending).

    `_draw_indices` puts a draw u on the first outcome whose cdf exceeds u, so
    the draws below a block's end are those landing in it or an earlier
    block: a draw equal to an end counts for the next block, and one at or
    beyond the last end for the last block, where the clip puts it."""
    below = np.searchsorted(np.sort(draws), block_ends, side="left")
    below[-1] = draws.size
    return np.diff(below, prepend=0)


# How order finding words a refused qubit cap: its arrays have q = 2**s entries.
_SAMPLER_NEEDS = "order finding needs length-2^{qubits} arrays"


class ColumnSampler:
    """Outcomes (c, y) of the one-register circuit by the chain rule
    P(c, y) = P(y) P(c | y), without its q·r table. y is `y_of_a` (the fan-out's
    map) at a uniform a in [0, q); c is an inverse-CDF draw over column y: the
    indicator of {a : y_of_a[a] = y}, scaled by 1/sqrt(q), through `dft_columns`.
    A draw keeps no column (O(q) memory); `qubit_cap` bounds the length-q
    arrays, as s qubits, before any is allocated."""

    def __init__(self, instance: ProblemInstance, qubit_cap: int = DEFAULT_QUBIT_CAP):
        self.layout = instance.layout(qubit_cap=qubit_cap)
        self.layout.check_capacity(qubits=instance.s, needs=_SAMPLER_NEEDS)
        self.q = instance.q
        self.y_of_a = mod_pow_range(instance.x, self.q, instance.n)

    def _columns(self, ys: np.ndarray) -> np.ndarray:
        """(q, len(ys)) probabilities P(c, ys[j]), one column per y (ys
        ascending) as above: 1/sqrt(q) is scattered into one zeroed matrix at
        (a, j) wherever y_of_a[a] = ys[j], which `dft_columns` transforms.

        The probabilities take the transform's buffer
        (`registers.square_in_place`, the bits of `np.abs(cols) ** 2`)."""
        j = np.searchsorted(ys, self.y_of_a)
        a = np.flatnonzero(ys[np.minimum(j, ys.size - 1)] == self.y_of_a)
        cols = np.zeros((self.q, ys.size), dtype=complex)
        cols[a, j[a]] = 1 / np.sqrt(self.q)
        cols = _kernels.dft_columns(cols)
        return registers.square_in_place(cols).reshape(self.q, ys.size)

    def column(self, y: int) -> tuple[np.ndarray, np.ndarray]:
        """(c, P(c, y)) over the c of column y whose probability exceeds
        PROBABILITY_FLOOR, ascending in c: the full table's rows for y."""
        probs = self._columns(np.array([y]))[:, 0]
        cs = np.flatnonzero(probs > PROBABILITY_FLOOR)
        return cs, probs[cs]

    def table(self) -> np.ndarray:
        """(q, m) probabilities of all m columns, y ascending, the cells the
        outcome table omits at 0.0. Refused before allocation where a sparse
        state is; its norm is checked as `measurement_distribution` checks one."""
        self.layout.check_capacity()
        probs = self._columns(np.flatnonzero(np.bincount(self.y_of_a)))
        require_unit_norm(probs)
        probs[probs <= PROBABILITY_FLOOR] = 0.0
        return probs

    def draw(self, rng: np.random.Generator) -> tuple[int, int]:
        """One outcome (c, y): the y draw, then the c draw, from `rng`."""
        y = int(self.y_of_a[rng.integers(self.q)])
        cs, probs = self.column(y)
        cdf = np.cumsum(probs)
        return int(cs[_draw_indices(cdf / cdf[-1], 1, rng)[0]]), y


def _minimal_verified_order(x: int, n: int, candidate: int) -> int:
    """Smallest divisor d of candidate with x^d = 1 (mod n). The order divides
    every such d, so dividing out each prime p while x^(d/p) = 1 still holds
    leaves exactly the order when candidate is verified, and candidate otherwise."""
    d = candidate
    for p, _ in prime_factors(candidate):
        while d % p == 0 and pow(x, d // p, n) == 1:
            d //= p
    return d


@dataclass(frozen=True)
class CandidateCheck:
    order_candidate: int
    multiplier: int
    verified: bool


@dataclass(frozen=True)
class OrderAttempt:
    attempt: int
    c: int
    ys: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    candidates: tuple[CandidateCheck, ...]
    raw_candidate: int | None
    order: int | None


@dataclass(frozen=True)
class RunTrace:
    """Everything needed to replay one order-finding run."""

    n: int
    x: int
    q: int
    s: int
    ell: int
    seed: int | None
    multiplier_bound: int
    max_samples: int
    order: int | None
    failure_reason: str | None
    used_multiplier_above_one: bool
    attempts: tuple[OrderAttempt, ...]


def _require_budgets(**budgets: int) -> None:
    """Reject a budget below 1, under which gcd shortcuts alone could drive a run."""
    for name, value in budgets.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def find_order(
    instance: ProblemInstance,
    max_samples: int = 32,
    multiplier_bound: int = 1,
    seed: int | np.random.Generator = 0,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[int | None, RunTrace]:
    """Sample measurement outcomes (y, then c, from `ColumnSampler`) until one
    recovers a verified order.

    The samples come from one generator: a new one seeded by `seed`, or
    `seed` itself when it is a Generator, whose trace then records no seed.
    A verified candidate is reduced to the smallest verified divisor, so the
    returned order always equals the true multiplicative order. `qubit_cap`
    bounds the sampler's length-q arrays (see `ColumnSampler`).
    """
    _require_budgets(max_samples=max_samples, multiplier_bound=multiplier_bound)
    sampler = ColumnSampler(instance, qubit_cap)
    rng = np.random.default_rng(seed)
    attempts = []
    order = None
    for attempt in range(1, max_samples + 1):
        c, y = sampler.draw(rng)
        raw, convergents, checks = order_recovery_steps(
            c, instance.q, instance.x, instance.n, multiplier_bound
        )
        reduced = (
            _minimal_verified_order(instance.x, instance.n, raw) if raw is not None else None
        )
        attempts.append(
            OrderAttempt(
                attempt=attempt,
                c=c,
                ys=(y,),
                convergents=tuple(convergents),
                candidates=tuple(CandidateCheck(*check) for check in checks),
                raw_candidate=raw,
                order=reduced,
            )
        )
        if reduced is not None:
            order = reduced
            break
    return order, RunTrace(
        n=instance.n,
        x=instance.x,
        q=instance.q,
        s=instance.s,
        ell=1,
        seed=None if isinstance(seed, np.random.Generator) else seed,
        multiplier_bound=multiplier_bound,
        max_samples=max_samples,
        order=order,
        failure_reason=None if order is not None else "sample budget exhausted",
        used_multiplier_above_one=any(
            candidate.verified and candidate.multiplier > 1
            for a in attempts
            for candidate in a.candidates
        ),
        attempts=tuple(attempts),
    )


@dataclass(frozen=True)
class FactorAttempt:
    attempt: int
    x: int
    gcd_shortcut: int | None
    outcome: str
    factors: tuple[int, int] | None
    order_trace: RunTrace | None


@dataclass(frozen=True)
class FactorTrace:
    n: int
    seed: int
    max_attempts: int
    samples_per_attempt: int
    multiplier_bound: int
    factors: tuple[int, int] | None
    failure_reason: str | None
    attempts: tuple[FactorAttempt, ...]


def screen_factoring_input(n: int, qubit_cap: int = DEFAULT_QUBIT_CAP) -> None:
    """Reject n the order-finding reduction cannot handle, naming the reason. The
    sampler's cap is checked before the O(sqrt(n)) trial division for primes."""
    if n < 3:
        raise UnsuitableInputError(n, "must be at least 3")
    if n % 2 == 0:
        raise UnsuitableInputError(n, "even")
    s = choose_modulus_power(n)[1]
    layout = RegisterLayout(s=s, L=(n - 1).bit_length(), ell=1, qubit_cap=qubit_cap)
    layout.check_capacity(qubits=s, needs=_SAMPLER_NEEDS)
    factors = prime_factors(n)
    if len(factors) == 1:
        p, k = factors[0]
        raise UnsuitableInputError(n, "prime" if k == 1 else f"prime power {p}^k")


def factor(
    n: int,
    max_attempts: int = 100,
    seed: int = 0,
    samples_per_attempt: int = 16,
    multiplier_bound: int = 8,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[FactorPair | None, FactorTrace]:
    """Factor an odd composite non-prime-power n by repeated order finding.

    Each attempt draws x from the run's generator (before any sampling), takes
    the gcd shortcut when x shares a factor with n, and otherwise runs
    `find_order` on that generator, followed by the gcd(x^(r/2) -+ 1, n)
    split. Attempts with an odd order or x^(r/2) = -1 (mod n) are retried
    with a fresh x. `qubit_cap` bounds the sampler's length-q arrays, counted
    as s qubits, and is checked before the trial division that screens out
    primes and before the first attempt, so a run is refused whatever its seed.
    """
    _require_budgets(max_attempts=max_attempts, samples_per_attempt=samples_per_attempt,
                     multiplier_bound=multiplier_bound)
    screen_factoring_input(n, qubit_cap)
    rng = np.random.default_rng(seed)
    attempts: list[FactorAttempt] = []
    pair = None
    for attempt in range(1, max_attempts + 1):
        x = int(rng.integers(2, n - 1, endpoint=True))
        g = math.gcd(x, n)
        if g > 1:
            pair = FactorPair.of(n, g, n // g)
            attempts.append(
                FactorAttempt(attempt, x, g, "gcd shortcut", (pair.f1, pair.f2), None)
            )
            break
        instance = ProblemInstance(n, x)
        order, trace = find_order(instance, samples_per_attempt, multiplier_bound, rng, qubit_cap)
        if order is None:
            attempts.append(FactorAttempt(attempt, x, None, "no order recovered", None, trace))
            continue
        pair = factor_from_order(n, x, order)
        if pair is None:
            reason = "odd order" if order % 2 == 1 else "trivial square root"
            attempts.append(FactorAttempt(attempt, x, None, reason, None, trace))
            continue
        attempts.append(
            FactorAttempt(attempt, x, None, "factored", (pair.f1, pair.f2), trace)
        )
        break
    return pair, FactorTrace(
        n=n,
        seed=seed,
        max_attempts=max_attempts,
        samples_per_attempt=samples_per_attempt,
        multiplier_bound=multiplier_bound,
        attempts=tuple(attempts),
        factors=(pair.f1, pair.f2) if pair else None,
        failure_reason=None if pair else "attempt budget exhausted",
    )


@dataclass(frozen=True)
class SuccessRateReport:
    """Single-sample order-recovery rate, empirical and exact, against both
    candidate success bounds phi(r)/(3r) and phi(r)/(3r^2)."""

    n: int
    x: int
    q: int
    r: int
    trials: int
    multiplier_bound: int
    seed: int
    successes: int
    empirical_rate: float
    exact_rate: float
    bound_phi_over_3r: float
    bound_phi_over_3r2: float

    @property
    def checks(self) -> list[Check]:
        return [
            check("exact_rate_vs_phi_over_3r", self.exact_rate, ">=", self.bound_phi_over_3r),
            check("exact_rate_vs_phi_over_3r2", self.exact_rate, ">=", self.bound_phi_over_3r2),
        ]

    def to_json_dict(self) -> dict:
        return asdict(self)


def success_rate_estimate(
    instance: ProblemInstance,
    trials: int = 10_000,
    multiplier_bound: int = 1,
    seed: int = 0,
) -> SuccessRateReport:
    """Fraction of single-sample runs whose c recovers a verified order.

    It reads only `ColumnSampler.table()`, whose row-major cells are the
    outcome table `dist` in order, and runs no pipeline. The trials are the
    outcomes `sample_outcomes(dist, trials, seed)` draws, counted per c (on
    which success depends) against the cdf at each c's last cell. The exact
    rate sums the c-marginal, ascending, over the c `recoverable_controls`
    marks. Each c's mass adds its cells in ascending y, as `marginal` does,
    and adding a 0.0 cell is exact, so both equal the table's bit for bit."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    _require_budgets(multiplier_bound=multiplier_bound)
    table = ColumnSampler(instance).table()
    q, m = table.shape
    c_probs = np.zeros(q)
    for column in table.T:
        c_probs += column
    kept = np.flatnonzero(c_probs)
    succeeding = recoverable_controls(q, instance.x, instance.n, multiplier_bound)[kept]
    exact_rate = sequential_sum(c_probs[kept][succeeding])
    block_ends = np.cumsum(table.ravel())[kept * m + m - 1]
    per_c = _draws_per_block(block_ends, np.random.default_rng(seed).random(trials))
    successes = int(per_c[succeeding].sum())
    r = multiplicative_order(instance.x, instance.n)
    phi_r = euler_phi(r)

    return SuccessRateReport(
        n=instance.n,
        x=instance.x,
        q=instance.q,
        r=r,
        trials=trials,
        multiplier_bound=multiplier_bound,
        seed=seed,
        successes=successes,
        empirical_rate=successes / trials if trials else 0.0,
        exact_rate=float(exact_rate),
        bound_phi_over_3r=phi_r / (3.0 * r),
        bound_phi_over_3r2=phi_r / (3.0 * r * r),
    )
