"""Seeded sampling, order recovery, the factoring driver, and success rates.

Sampling consumes the exact outcome distribution through an inverse CDF over
its ascending outcome table; identical seeds give identical samples. The driver
draws the base x and the measurement samples from one generator, with the x
draw preceding each order-finding attempt, so whole runs replay exactly from
(n, seed, budgets).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .checks import Check, check
from .distributions import (
    OutcomeDistribution,
    marginal,
    measurement_distribution,
    sequential_sum,
)
from .errors import UnsuitableInputError
from .numtheory import (
    FactorPair,
    euler_phi,
    factor_from_order,
    gcd,
    mod_pow,
    multiplicative_order,
    order_recovery_steps,
    prime_factors,
    recoverable_controls,
)
from .pipeline import run_pipeline
from .registers import DEFAULT_QUBIT_CAP, SPARSE, ProblemInstance


def sample_outcomes(
    dist: OutcomeDistribution, count: int, seed: int
) -> list[tuple[int, ...]]:
    """Draw `count` i.i.d. outcomes by inverse CDF over ascending outcome order."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return []
    return dist.outcome_tuples(_draw_indices(dist.cdf, count, seed))


def _draw_indices(cdf: np.ndarray, count: int, seed: int | np.random.Generator) -> np.ndarray:
    """Positions of `count` i.i.d. inverse-CDF draws from one generator: a
    new one seeded by `seed`, or `seed` itself when it is a Generator."""
    rng = np.random.default_rng(seed)
    picks = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(picks, len(cdf) - 1, out=picks)


def _minimal_verified_order(x: int, n: int, candidate: int) -> int:
    """Smallest divisor d of candidate with x^d = 1 (mod n). The order divides
    every such d, so dividing out each prime p while x^(d/p) = 1 still holds
    leaves exactly the order when candidate is verified, and candidate otherwise."""
    d = candidate
    for p, _ in prime_factors(candidate):
        while d % p == 0 and mod_pow(x, d // p, n) == 1:
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


def _find_order_with_rng(
    instance: ProblemInstance,
    dist: OutcomeDistribution,
    max_samples: int,
    multiplier_bound: int,
    rng,
    seed: int | None,
) -> tuple[int | None, RunTrace]:
    attempts = []
    order = None
    for attempt in range(1, max_samples + 1):
        outcome = dist.outcome_tuples(_draw_indices(dist.cdf, 1, rng))[0]
        c, ys = outcome[0], outcome[1:]
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
                ys=ys,
                convergents=tuple(convergents),
                candidates=tuple(CandidateCheck(*check) for check in checks),
                raw_candidate=raw,
                order=reduced,
            )
        )
        if reduced is not None:
            order = reduced
            break
    trace = RunTrace(
        n=instance.n,
        x=instance.x,
        q=instance.q,
        s=instance.s,
        ell=dist.layout.ell,
        seed=seed,
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
    return order, trace


def _require_budgets(**budgets: int) -> None:
    """Reject a budget below 1, under which gcd shortcuts alone could drive a run."""
    for name, value in budgets.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def find_order(
    instance: ProblemInstance,
    max_samples: int = 32,
    multiplier_bound: int = 1,
    seed: int = 0,
) -> tuple[int | None, RunTrace]:
    """Sample measurement outcomes until one recovers a verified order.

    A verified candidate is reduced to the smallest verified divisor, so the
    returned order always equals the true multiplicative order.
    """
    _require_budgets(max_samples=max_samples, multiplier_bound=multiplier_bound)
    dist = measurement_distribution(run_pipeline(instance))
    rng = np.random.default_rng(seed)
    return _find_order_with_rng(instance, dist, max_samples, multiplier_bound, rng, seed)


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


def screen_factoring_input(n: int) -> None:
    """Reject n the order-finding reduction cannot handle, naming the reason."""
    if n < 3:
        raise UnsuitableInputError(n, "must be at least 3")
    if n % 2 == 0:
        raise UnsuitableInputError(n, "even")
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
    backend: str = SPARSE,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[FactorPair | None, FactorTrace]:
    """Factor an odd composite non-prime-power n by repeated order finding.

    Each attempt draws x from the run's generator (before any sampling), takes
    the gcd shortcut when x shares a factor with n, and otherwise runs order
    finding followed by the gcd(x^(r/2) -+ 1, n) split. Attempts with an odd
    order or x^(r/2) = -1 (mod n) are retried with a fresh x.
    """
    _require_budgets(max_attempts=max_attempts, samples_per_attempt=samples_per_attempt,
                     multiplier_bound=multiplier_bound)
    screen_factoring_input(n)
    rng = np.random.default_rng(seed)
    dist_cache: dict[int, OutcomeDistribution] = {}
    attempts: list[FactorAttempt] = []
    pair = None
    for attempt in range(1, max_attempts + 1):
        x = int(rng.integers(2, n - 1, endpoint=True))
        g = gcd(x, n)
        if g > 1:
            pair = FactorPair.of(n, g, n // g)
            attempts.append(
                FactorAttempt(attempt, x, g, "gcd shortcut", (pair.f1, pair.f2), None)
            )
            break
        instance = ProblemInstance.create(n, x)
        if x not in dist_cache:
            dist_cache[x] = measurement_distribution(
                run_pipeline(instance, ell=1, backend=backend, qubit_cap=qubit_cap)
            )
        order, trace = _find_order_with_rng(
            instance, dist_cache[x], samples_per_attempt, multiplier_bound, rng, None
        )
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

    The trials are the outcomes `sample_outcomes(dist, trials, seed)` draws:
    one generator seeded by `seed`, one inverse-CDF pass, so the estimate
    for a seed counts the successes in exactly that sample. The exact rate
    sums the control-register marginal, in ascending c, over the c values
    the rounding rule succeeds on; `recoverable_controls` finds those for
    every c in one array pass, with no per-c call.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    _require_budgets(multiplier_bound=multiplier_bound)
    dist = measurement_distribution(run_pipeline(instance))
    r = multiplicative_order(instance.x, instance.n)
    phi_r = euler_phi(r)

    c_marginal = marginal(dist, (1,))
    succeeding = recoverable_controls(instance.q, instance.x, instance.n, multiplier_bound)
    exact_rate = sequential_sum(c_marginal.probs[succeeding[c_marginal.index]])

    hits = succeeding[dist.register(1)]
    successes = int(hits[_draw_indices(dist.cdf, trials, seed)].sum())

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
