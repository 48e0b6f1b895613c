"""Seeded sampling, order recovery, the factoring driver, and success rates.

Sampling consumes the exact outcome distribution through an inverse CDF over
ascending outcome order; identical seeds give identical samples. The driver
draws the base x and the measurement samples from one generator, with the x
draw preceding each order-finding attempt, so whole runs replay exactly from
(n, seed, budgets).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

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
    is_prime,
    mod_pow,
    multiplicative_order,
    order_recovery_steps,
    prime_power_base,
    recover_order_from_sample,
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
    return dist.outcome_tuples(dist.order[_draw_indices(dist.cdf, count, seed)])


def _draw_indices(cdf: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Positions of `count` i.i.d. inverse-CDF draws from one generator."""
    rng = np.random.default_rng(seed)
    picks = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(picks, len(cdf) - 1, out=picks)


def _draw_outcome(dist: OutcomeDistribution, rng) -> tuple[int, ...]:
    pick = int(np.searchsorted(dist.cdf, rng.random(), side="right"))
    return dist.outcome_tuples([dist.order[min(pick, dist.cdf.size - 1)]])[0]


def _minimal_verified_order(x: int, n: int, candidate: int) -> int:
    """Smallest divisor d of candidate with x^d = 1 (mod n)."""
    divisors = []
    i = 1
    while i * i <= candidate:
        if candidate % i == 0:
            divisors.append(i)
            divisors.append(candidate // i)
        i += 1
    for d in sorted(divisors):
        if mod_pow(x, d, n) == 1:
            return d
    return candidate


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

    @property
    def used_multiplier_above_one(self) -> bool:
        return any(c.verified and c.multiplier > 1 for c in self.candidates)


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
    attempts: tuple[OrderAttempt, ...]

    @property
    def used_multiplier_above_one(self) -> bool:
        return any(a.used_multiplier_above_one for a in self.attempts)

    def to_json_dict(self) -> dict:
        document = asdict(self)
        attempts = document.pop("attempts")
        return {**document, "used_multiplier_above_one": self.used_multiplier_above_one,
                "attempts": attempts}


def _find_order_with_rng(
    instance: ProblemInstance,
    dist: OutcomeDistribution,
    max_samples: int,
    multiplier_bound: int,
    rng,
    seed: int | None,
    ell: int,
) -> tuple[int | None, RunTrace]:
    attempts = []
    order = None
    for attempt in range(1, max_samples + 1):
        outcome = _draw_outcome(dist, rng)
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
                convergents=tuple((f.numerator, f.denominator) for f in convergents),
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
        ell=ell,
        seed=seed,
        multiplier_bound=multiplier_bound,
        max_samples=max_samples,
        attempts=tuple(attempts),
        order=order,
        failure_reason=None if order is not None else "sample budget exhausted",
    )
    return order, trace


def find_order(
    instance: ProblemInstance,
    max_samples: int = 32,
    multiplier_bound: int = 1,
    seed: int = 0,
    ell: int = 1,
    backend: str = SPARSE,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[int | None, RunTrace]:
    """Sample measurement outcomes until one recovers a verified order.

    A verified candidate is reduced to the smallest verified divisor, so the
    returned order always equals the true multiplicative order.
    """
    dist = measurement_distribution(
        run_pipeline(instance, ell=ell, backend=backend, qubit_cap=qubit_cap)
    )
    rng = np.random.default_rng(seed)
    return _find_order_with_rng(
        instance, dist, max_samples, multiplier_bound, rng, seed, ell
    )


@dataclass(frozen=True)
class FactorAttempt:
    attempt: int
    x: int
    gcd_shortcut: int | None
    outcome: str
    factors: tuple[int, int] | None
    order_trace: RunTrace | None

    def to_json_dict(self) -> dict:
        trace = self.order_trace.to_json_dict() if self.order_trace else None
        return {**asdict(self), "order_trace": trace}


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

    def to_json_dict(self) -> dict:
        return {**asdict(self), "attempts": [a.to_json_dict() for a in self.attempts]}


def screen_factoring_input(n: int) -> None:
    """Reject n the order-finding reduction cannot handle, naming the reason."""
    if n < 3:
        raise UnsuitableInputError(n, "must be at least 3")
    if n % 2 == 0:
        raise UnsuitableInputError(n, "even")
    if is_prime(n):
        raise UnsuitableInputError(n, "prime")
    base = prime_power_base(n)
    if base is not None:
        raise UnsuitableInputError(n, f"prime power {base}^k")


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
    screen_factoring_input(n)
    rng = np.random.default_rng(seed)
    dist_cache: dict[int, OutcomeDistribution] = {}
    attempts: list[FactorAttempt] = []
    for attempt in range(1, max_attempts + 1):
        x = int(rng.integers(2, n - 1, endpoint=True))
        g = gcd(x, n)
        if g > 1:
            pair = FactorPair.of(n, g, n // g)
            attempts.append(
                FactorAttempt(attempt, x, g, "gcd shortcut", (pair.f1, pair.f2), None)
            )
            return pair, _factor_trace(
                n, seed, max_attempts, samples_per_attempt, multiplier_bound, attempts,
                pair, None,
            )
        instance = ProblemInstance.create(n, x)
        if x not in dist_cache:
            dist_cache[x] = measurement_distribution(
                run_pipeline(instance, ell=1, backend=backend, qubit_cap=qubit_cap)
            )
        order, trace = _find_order_with_rng(
            instance, dist_cache[x], samples_per_attempt, multiplier_bound, rng,
            None, 1,
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
        return pair, _factor_trace(
            n, seed, max_attempts, samples_per_attempt, multiplier_bound, attempts,
            pair, None,
        )
    return None, _factor_trace(
        n, seed, max_attempts, samples_per_attempt, multiplier_bound, attempts,
        None, "attempt budget exhausted",
    )


def _factor_trace(
    n, seed, max_attempts, samples_per_attempt, multiplier_bound, attempts, pair, failure
) -> FactorTrace:
    return FactorTrace(
        n=n,
        seed=seed,
        max_attempts=max_attempts,
        samples_per_attempt=samples_per_attempt,
        multiplier_bound=multiplier_bound,
        attempts=tuple(attempts),
        factors=(pair.f1, pair.f2) if pair else None,
        failure_reason=failure,
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
    def clears_phi_over_3r(self) -> bool:
        return self.exact_rate >= self.bound_phi_over_3r

    @property
    def clears_phi_over_3r2(self) -> bool:
        return self.exact_rate >= self.bound_phi_over_3r2

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "clears_phi_over_3r": self.clears_phi_over_3r,
            "clears_phi_over_3r2": self.clears_phi_over_3r2,
        }


def success_rate_estimate(
    instance: ProblemInstance,
    trials: int = 10_000,
    multiplier_bound: int = 1,
    seed: int = 0,
    backend: str = SPARSE,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> SuccessRateReport:
    """Fraction of single-sample runs whose c recovers a verified order.

    The trials are the outcomes `sample_outcomes(dist, trials, seed)` draws:
    one generator seeded by `seed`, one inverse-CDF pass, so the estimate
    for a seed counts the successes in exactly that sample. The exact rate
    sums the control-register marginal, in ascending c, over the c values
    the rounding rule succeeds on.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    dist = measurement_distribution(
        run_pipeline(instance, ell=1, backend=backend, qubit_cap=qubit_cap)
    )
    r = multiplicative_order(instance.x, instance.n)
    phi_r = euler_phi(r)

    c_marginal = marginal(dist, (1,))
    succeeding = np.zeros(instance.q, dtype=bool)
    succeeding[c_marginal.index] = [
        recover_order_from_sample(c, instance.q, instance.x, instance.n, multiplier_bound)
        is not None
        for c in c_marginal.index.tolist()
    ]
    exact_rate = sequential_sum(c_marginal.probs[succeeding[c_marginal.index]])

    hits = succeeding[dist.register(1, dist.order)]
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
