import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from shorsim import orderfinding
from shorsim.distributions import marginal, measurement_distribution, sequential_sum
from shorsim.errors import UnsuitableInputError
from shorsim.numtheory import multiplicative_order, prime_factors, recover_order_from_sample
from shorsim.orderfinding import (
    factor,
    find_order,
    sample_outcomes,
    screen_factoring_input,
    success_rate_estimate,
)
from shorsim.pipeline import run_pipeline
from shorsim.registers import ProblemInstance

INST_15_7 = ProblemInstance.create(15, 7)

# Odd composite non-prime-power n <= 63, each with every 5th coprime base.
RATE_CASES = [
    (n, x)
    for n in range(9, 64, 2)
    if len(prime_factors(n)) > 1
    for x in [x for x in range(2, n) if math.gcd(x, n) == 1][::5]
]


@pytest.fixture(scope="module")
def dist_15_7():
    return measurement_distribution(run_pipeline(INST_15_7, ell=1))


class TestSampling:
    def test_zero_count(self, dist_15_7):
        assert sample_outcomes(dist_15_7, 0, seed=1) == []

    def test_determinism(self, dist_15_7):
        a = sample_outcomes(dist_15_7, 1000, seed=99)
        b = sample_outcomes(dist_15_7, 1000, seed=99)
        assert a == b
        c = sample_outcomes(dist_15_7, 1000, seed=100)
        assert a != c

    def test_empirical_control_marginal(self, dist_15_7):
        samples = sample_outcomes(dist_15_7, 10**6, seed=5)
        frac = sum(1 for outcome in samples if outcome[0] == 64) / len(samples)
        assert abs(frac - 0.25) <= 0.002

    def test_outcomes_come_from_support(self, dist_15_7):
        for outcome in sample_outcomes(dist_15_7, 500, seed=11):
            assert outcome in dist_15_7.entries


class TestFindOrder:
    def test_recovers_true_order(self):
        order, trace = find_order(INST_15_7, max_samples=32, multiplier_bound=1, seed=7)
        assert order == 4
        assert trace.order == 4
        assert trace.failure_reason is None

    def test_order_two_base(self):
        inst = ProblemInstance.create(15, 14)
        order, _ = find_order(inst, seed=3)
        assert order == 2

    def test_expected_two_samples_at_unit_bound(self):
        counts = []
        for seed in range(30):
            order, trace = find_order(
                INST_15_7, max_samples=64, multiplier_bound=1, seed=seed
            )
            assert order == 4
            counts.append(len(trace.attempts))
        mean = sum(counts) / len(counts)
        assert 1.2 <= mean <= 3.2  # geometric with success probability 1/2

    def test_multiplier_fixup_is_flagged(self):
        # seed 0 draws c = 128 first; its convergent denominator 2 is a proper
        # divisor of r and only the multiple 2*2 verifies.
        order, trace = find_order(INST_15_7, max_samples=5, multiplier_bound=2, seed=0)
        assert order == 4
        assert trace.attempts[0].c == 128
        assert trace.used_multiplier_above_one is True
        assert asdict(trace)["used_multiplier_above_one"] is True

    def test_returned_orders_match_oracle(self):
        for n in (15, 21, 35):
            for x in range(2, n):
                if math.gcd(x, n) != 1:
                    continue
                inst = ProblemInstance.create(n, x)
                order, _ = find_order(inst, max_samples=64, multiplier_bound=8, seed=13)
                if order is not None:
                    assert order == multiplicative_order(x, n)

    @pytest.mark.parametrize("n", [15, 21, 33, 45, 63])
    def test_order_reduction_is_the_smallest_verified_divisor(self, n):
        for x in range(2, n):
            if math.gcd(x, n) != 1:
                continue
            for candidate in range(1, 2 * n):
                verified = [
                    d for d in range(1, candidate + 1)
                    if candidate % d == 0 and pow(x, d, n) == 1
                ]
                expected = verified[0] if verified else candidate
                assert orderfinding._minimal_verified_order(x, n, candidate) == expected

    def test_trace_is_deterministic(self):
        _, t1 = find_order(INST_15_7, max_samples=16, multiplier_bound=2, seed=21)
        _, t2 = find_order(INST_15_7, max_samples=16, multiplier_bound=2, seed=21)
        assert json.dumps(asdict(t1)) == json.dumps(asdict(t2))


class TestFactor:
    @pytest.mark.parametrize("n,expected", [(15, (3, 5)), (21, (3, 7)), (35, (5, 7))])
    def test_known_semiprimes(self, n, expected):
        pair, trace = factor(n, seed=1)
        assert pair is not None
        assert (pair.f1, pair.f2) == expected
        assert pair.f1 * pair.f2 == n
        assert trace.factors == expected

    def test_seed_determinism(self):
        _, t1 = factor(21, seed=9)
        _, t2 = factor(21, seed=9)
        assert json.dumps(asdict(t1)) == json.dumps(asdict(t2))

    def test_screening(self):
        with pytest.raises(UnsuitableInputError, match="even"):
            factor(14)
        with pytest.raises(UnsuitableInputError, match="prime power"):
            factor(9)
        with pytest.raises(UnsuitableInputError, match="prime"):
            factor(17)
        screen_factoring_input(15)  # no error

    def test_screening_reasons_match_brute_force(self):
        for n in range(3, 400, 2):
            divisors = [d for d in range(2, n) if n % d == 0]
            smallest = divisors[0] if divisors else n
            power = smallest
            while power < n:
                power *= smallest
            if not divisors:
                expected = "prime"
            elif power == n:
                expected = f"prime power {smallest}^k"
            else:
                screen_factoring_input(n)
                continue
            with pytest.raises(UnsuitableInputError) as caught:
                screen_factoring_input(n)
            assert caught.value.reason == expected, n

    def test_factors_across_seeds(self):
        for seed in range(8):
            pair, _ = factor(15, seed=seed)
            assert pair is not None
            assert {pair.f1, pair.f2} == {3, 5}


class TestSuccessRate:
    def test_exact_rate_and_bounds(self):
        report = success_rate_estimate(INST_15_7, trials=100, multiplier_bound=1, seed=1)
        assert report.exact_rate == pytest.approx(0.5, abs=1e-12)
        assert report.bound_phi_over_3r == pytest.approx(1 / 6)
        assert report.bound_phi_over_3r2 == pytest.approx(1 / 24)
        assert [(c.name, c.value, c.bound, c.passed) for c in report.checks] == [
            ("exact_rate_vs_phi_over_3r", report.exact_rate, report.bound_phi_over_3r, True),
            ("exact_rate_vs_phi_over_3r2", report.exact_rate, report.bound_phi_over_3r2, True),
        ]

    def test_empirical_converges(self):
        report = success_rate_estimate(
            INST_15_7, trials=10_000, multiplier_bound=1, seed=42
        )
        # 3-sigma binomial window around the exact rate 1/2
        sigma = math.sqrt(0.25 / report.trials)
        assert abs(report.empirical_rate - 0.5) <= 3 * sigma

    def test_trialwise_seeding_is_stable(self):
        a = success_rate_estimate(INST_15_7, trials=500, multiplier_bound=1, seed=3)
        b = success_rate_estimate(INST_15_7, trials=500, multiplier_bound=1, seed=3)
        assert a.successes == b.successes

    def test_json_fields(self):
        doc = success_rate_estimate(
            INST_15_7, trials=10, multiplier_bound=1, seed=0
        ).to_json_dict()
        assert {"empirical_rate", "exact_rate", "bound_phi_over_3r"} <= set(doc)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            success_rate_estimate(INST_15_7, trials=-5)

    def test_zero_trials(self):
        report = success_rate_estimate(INST_15_7, trials=0)
        assert report.successes == 0
        assert report.empirical_rate == 0.0
        assert report.exact_rate == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n, x", [(15, 7), (35, 2)])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_trials_are_the_sample_outcomes_stream(self, n, x, seed):
        # successes counts exactly the recovering c values among the outcomes
        # sample_outcomes draws for the same seed.
        instance = ProblemInstance.create(n, x)
        dist = measurement_distribution(run_pipeline(instance, ell=1))
        trials = 3000
        expected = sum(
            recover_order_from_sample(c, instance.q, x, n, 1) is not None
            for c, _ in sample_outcomes(dist, trials, seed=seed)
        )
        report = success_rate_estimate(instance, trials=trials, multiplier_bound=1, seed=seed)
        assert report.successes == expected
        assert report.empirical_rate == expected / trials


    @pytest.mark.parametrize("n, x", RATE_CASES, ids=[f"{n}-{x}" for n, x in RATE_CASES])
    def test_exact_rate_equals_per_c_loop(self, n, x):
        # The oracle is the per-c loop the one-pass mask replaced: one scalar
        # rounding-rule call per control value, then the same ascending sum.
        instance = ProblemInstance.create(n, x)
        c_marginal = marginal(measurement_distribution(run_pipeline(instance, ell=1)), (1,))
        for bound in (1, 8):
            succeeding = np.zeros(instance.q, dtype=bool)
            succeeding[c_marginal.index] = [
                recover_order_from_sample(c, instance.q, x, n, bound) is not None
                for c in c_marginal.index.tolist()
            ]
            expected = sequential_sum(c_marginal.probs[succeeding[c_marginal.index]])
            report = success_rate_estimate(instance, trials=0, multiplier_bound=bound)
            assert report.exact_rate == expected

    def test_no_per_c_call_to_the_scalar_rule(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("scalar rounding rule called per control value")

        for name in ("recover_order_from_sample", "order_recovery_steps"):
            monkeypatch.setattr(orderfinding, name, refuse, raising=False)
        report = success_rate_estimate(INST_15_7, trials=10, multiplier_bound=1)
        assert report.exact_rate == pytest.approx(0.5, abs=1e-12)


# A budget of 0 lets no order finding happen: before it was rejected,
# factor(35, seed=1, samples_per_attempt=0) returned 5 * 7 from gcd shortcuts
# alone.
@pytest.mark.parametrize(
    "run, budget",
    [
        (lambda **kw: factor(35, seed=1, **kw), "max_attempts"),
        (lambda **kw: factor(35, seed=1, **kw), "samples_per_attempt"),
        (lambda **kw: factor(35, seed=1, **kw), "multiplier_bound"),
        (lambda **kw: find_order(INST_15_7, seed=1, **kw), "max_samples"),
        (lambda **kw: find_order(INST_15_7, seed=1, **kw), "multiplier_bound"),
        (lambda **kw: success_rate_estimate(INST_15_7, trials=10, **kw), "multiplier_bound"),
    ],
    ids=[
        "factor-max_attempts",
        "factor-samples_per_attempt",
        "factor-multiplier_bound",
        "find_order-max_samples",
        "find_order-multiplier_bound",
        "success_rate_estimate-multiplier_bound",
    ],
)
def test_budget_below_one_is_rejected(run, budget):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{budget} must be at least 1, got {value}"):
            run(**{budget: value})
