import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from shorsim import _kernels, distributions, orderfinding, pipeline, registers
from shorsim.distributions import marginal, measurement_distribution, sequential_sum
from shorsim.errors import CapacityError, NormalizationError, UnsuitableInputError
from shorsim.numtheory import (
    multiplicative_order,
    prime_factors,
    recover_order_from_sample,
    recoverable_controls,
)
from shorsim.orderfinding import (
    factor,
    find_order,
    sample_outcomes,
    screen_factoring_input,
    success_rate_estimate,
)
from shorsim.pipeline import run_pipeline
from shorsim.registers import DEFAULT_QUBIT_CAP, ProblemInstance
from tracing import traced_peak

INST_15_7 = ProblemInstance.create(15, 7)

# Odd composite non-prime-power n <= 63, and each with every 5th coprime base.
FACTORABLE = [n for n in range(9, 64, 2) if len(prime_factors(n)) > 1]
RATE_CASES = [
    (n, x)
    for n in FACTORABLE
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
        # c = 128 has the convergent denominator 2, a proper divisor of r, and
        # only the multiple 2*2 verifies; the first seed that draws it first.
        for seed in range(64):
            order, trace = find_order(INST_15_7, max_samples=5, multiplier_bound=2, seed=seed)
            if trace.attempts[0].c == 128:
                break
        else:
            pytest.fail("no seed in 0-63 draws c = 128 first")
        assert order == 4
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

    def test_order_finding_builds_no_outcome_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("order finding built the q·r outcome table")

        monkeypatch.setattr(pipeline, "run_pipeline", refuse)
        monkeypatch.setattr(distributions, "measurement_distribution", refuse)
        assert find_order(INST_15_7, seed=7)[0] == 4
        assert factor(35, seed=1)[0] is not None

    def test_trace_is_deterministic(self):
        _, t1 = find_order(INST_15_7, max_samples=16, multiplier_bound=2, seed=21)
        _, t2 = find_order(INST_15_7, max_samples=16, multiplier_bound=2, seed=21)
        assert json.dumps(asdict(t1)) == json.dumps(asdict(t2))

    def test_a_generator_seed_draws_its_stream_and_records_no_seed(self):
        # An int seeds a new generator; a Generator is drawn from as it is,
        # so the driver's attempts share its stream, and the trace records
        # no seed for it.
        order, seeded = find_order(INST_15_7, max_samples=16, multiplier_bound=2, seed=21)
        rng = np.random.default_rng(21)
        order_rng, drawn = find_order(INST_15_7, max_samples=16, multiplier_bound=2, seed=rng)
        assert seeded.seed == 21 and drawn.seed is None
        assert order_rng == order
        assert drawn.attempts == seeded.attempts
        assert rng.random() != np.random.default_rng(21).random()

    def test_factor_attempts_are_find_order_on_the_run_generator(self):
        # Replay factor(35, seed=1) from its generator: each attempt's x draw,
        # then find_order on the same stream.
        _, trace = factor(35, seed=1, samples_per_attempt=4, multiplier_bound=2)
        rng = np.random.default_rng(1)
        for attempt in trace.attempts:
            assert int(rng.integers(2, 34, endpoint=True)) == attempt.x
            if attempt.order_trace is not None:
                _, replayed = find_order(ProblemInstance(35, attempt.x), 4, 2, rng)
                assert replayed == attempt.order_trace


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

    @pytest.mark.parametrize("n, qubit_cap", [(400000000000063, DEFAULT_QUBIT_CAP), (10007, 10)])
    def test_cap_is_checked_before_trial_division(self, monkeypatch, n, qubit_cap):
        # 400000000000063 is a prime that trial division takes seconds to
        # find, and its layout exceeds the 63-bit packed index; 10007 is a
        # prime whose 2^27-entry sampler exceeds a cap of 2^10.
        def no_trial_division(m):
            raise AssertionError(f"trial division of {m}")

        monkeypatch.setattr(orderfinding, "prime_factors", no_trial_division)
        with pytest.raises(CapacityError):
            factor(n, qubit_cap=qubit_cap)

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

    def test_every_attempt_outcome_is_reached(self):
        # With one sample per base and no multiples, every way an attempt can
        # end shows up within a few seeds of n = 21.
        outcomes = {
            attempt.outcome
            for seed in range(40)
            for attempt in factor(21, seed=seed, samples_per_attempt=1,
                                  multiplier_bound=1)[1].attempts
        }
        assert outcomes == {"gcd shortcut", "no order recovered", "odd order",
                            "trivial square root", "factored"}

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


def _outcome_table_oracle(instance, bound, seed, trials):
    """(successes, exact_rate) as read from the packed outcome table: the
    control marginal, each c's last row located in the table, its cdf there."""
    dist = measurement_distribution(run_pipeline(instance))
    c_marginal = marginal(dist, (1,))
    succeeding = recoverable_controls(instance.q, instance.x, instance.n, bound)[c_marginal.index]
    exact_rate = sequential_sum(c_marginal.probs[succeeding])
    last_rows = np.searchsorted(dist.index, (c_marginal.index + 1) * dist.layout.right_dim) - 1
    per_c = orderfinding._draws_per_block(
        dist.cdf[last_rows], np.random.default_rng(seed).random(trials)
    )
    return int(per_c[succeeding].sum()), exact_rate


class TestSuccessRateFromTheColumnTable:
    @pytest.mark.parametrize("n", FACTORABLE)
    def test_equals_the_outcome_table_route(self, n):
        # Every coprime base; one seed, bound 1.
        for x in (x for x in range(2, n) if math.gcd(x, n) == 1):
            instance = ProblemInstance(n, x)
            successes, exact_rate = _outcome_table_oracle(instance, 1, 0, 5000)
            report = success_rate_estimate(instance, trials=5000, multiplier_bound=1, seed=0)
            assert (report.successes, report.exact_rate) == (successes, exact_rate), (n, x)

    def test_runs_no_pipeline(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the success rate ran the pipeline")

        monkeypatch.setattr(pipeline, "run_pipeline", refuse)
        monkeypatch.setattr(distributions, "measurement_distribution", refuse)
        report = success_rate_estimate(ProblemInstance(35, 2), trials=1000, seed=4)
        assert report.exact_rate == _outcome_table_oracle(ProblemInstance(35, 2), 1, 4, 1000)[1]

    def test_refused_where_the_sparse_state_is(self, monkeypatch):
        # s + L = 18 + 9 = 27 qubits, above the default cap of 26.
        def refuse(*args):
            raise AssertionError("the table was transformed despite the cap")

        monkeypatch.setattr(_kernels, "dft_columns", refuse)
        with pytest.raises(CapacityError, match=r"sparse state needs up to 2\^27 amplitudes"):
            success_rate_estimate(ProblemInstance(363, 2), trials=10)

    def test_one_transform_buffer(self):
        # The table takes the FFT's buffer, which is its input: about 1.4
        # times the complex (q, m) matrix's bytes, 2.1 with the FFT's output
        # and `np.abs`'s array beside it.
        inst = ProblemInstance(55, 18)
        _, peak = traced_peak(lambda: success_rate_estimate(inst, trials=20000))
        assert peak < 1.6 * 16 * inst.q * multiplicative_order(inst.x, inst.n)

    def test_table_norm_is_checked(self, monkeypatch):
        dft_columns = _kernels.dft_columns
        monkeypatch.setattr(_kernels, "dft_columns", lambda cols: dft_columns(cols) * 1.01)
        with pytest.raises(NormalizationError, match="not 1 within"):
            success_rate_estimate(INST_15_7, trials=10)


class TestColumnSampler:
    @pytest.mark.parametrize("n", FACTORABLE)
    def test_columns_are_the_full_table(self, n):
        # Column y of every y the fan-out writes, stacked, is the one-register
        # table bit for bit: the same outcomes and the same probabilities.
        for x in (x for x in range(2, n) if math.gcd(x, n) == 1):
            instance = ProblemInstance(n, x)
            dist = measurement_distribution(run_pipeline(instance, ell=1))
            sampler = orderfinding.ColumnSampler(instance)
            ys = np.unique(sampler.y_of_a).tolist()
            columns = [sampler.column(y) for y in ys]
            index = np.concatenate([cs * dist.layout.right_dim + y
                                    for y, (cs, _) in zip(ys, columns)])
            probs = np.concatenate([p for _, p in columns])
            order = np.argsort(index)
            assert np.array_equal(index[order], dist.index), (n, x)
            assert np.array_equal(probs[order], dist.probs), (n, x)

    @pytest.mark.parametrize("cells", [1, 7, registers.COMPACT_CELLS])
    def test_probabilities_squared_into_the_transform_buffer(self, monkeypatch, cells):
        # Whatever the block size, each block's floats land on amplitudes
        # already read, bit for bit |amplitude|**2 of a separate transform.
        monkeypatch.setattr(registers, "COMPACT_CELLS", cells)
        sampler = orderfinding.ColumnSampler(ProblemInstance(21, 2))
        ys = np.unique(sampler.y_of_a)
        cols = np.zeros((sampler.q, ys.size), dtype=np.complex128)
        cols[np.arange(sampler.q), np.searchsorted(ys, sampler.y_of_a)] = 1 / np.sqrt(sampler.q)
        expected = np.abs(np.fft.ifft(cols, axis=0, norm="ortho")) ** 2
        assert sampler._columns(ys).tobytes() == expected.tobytes()
        assert sampler._columns(ys[2:3]).tobytes() == expected[:, 2:3].tobytes()

    def test_table_takes_the_transform_buffer(self):
        # The probabilities are squared into the FFT's buffer, its input, and
        # it is shrunk to them: about 1.3 times the complex (q, m) matrix's
        # bytes, 2.1 with the FFT's output and `np.abs`'s array beside it.
        sampler = orderfinding.ColumnSampler(ProblemInstance(55, 18))
        table, peak = traced_peak(sampler.table)
        assert peak < 1.5 * 2 * table.nbytes

    def test_find_order_refuses_arrays_beyond_the_qubit_cap(self, monkeypatch):
        # INST_15_7 has s = 8: refused under a cap of 7 before the map is built.
        def refuse(*args):
            raise AssertionError("length-q map built despite the cap")

        monkeypatch.setattr(orderfinding, "mod_pow_range", refuse)
        with pytest.raises(CapacityError, match=r"length-2\^8 arrays, cap is 2\^7"):
            find_order(INST_15_7, seed=1, qubit_cap=7)

    def test_y_draws_follow_the_y_marginal(self):
        sampler = orderfinding.ColumnSampler(ProblemInstance(35, 2))
        rng = np.random.default_rng(3)
        ys = [sampler.draw(rng)[1] for _ in range(4000)]
        expected = np.bincount(sampler.y_of_a, minlength=35) / sampler.q
        observed = np.bincount(ys, minlength=35) / len(ys)
        # r = 12 values of about 1/12 each; 5 standard errors is about 0.022.
        assert np.max(np.abs(observed - expected)) <= 0.025

    def test_c_draws_come_from_the_column(self):
        sampler = orderfinding.ColumnSampler(INST_15_7)
        rng = np.random.default_rng(0)
        # r = 4 divides q = 256: each column is c in {0, 64, 128, 192} at 1/16 each.
        draws = [sampler.draw(rng) for _ in range(2000)]
        assert {y for _, y in draws} == {1, 7, 4, 13}
        counts = np.bincount([c // 64 for c, _ in draws if c % 64 == 0], minlength=4)
        assert counts.sum() == len(draws)
        assert np.all(np.abs(counts / len(draws) - 0.25) <= 0.05)


def _per_draw_counts(block_ends, draws):
    """The per-draw oracle: each draw located by `searchsorted(side="right")`
    and clipped to the last block, as `_draw_indices` does."""
    picks = np.minimum(np.searchsorted(block_ends, draws, side="right"), len(block_ends) - 1)
    return np.bincount(picks, minlength=len(block_ends))


class TestDrawsPerBlock:
    ENDS = np.array([0.25, 0.5, 0.75, 0.9999999999999998])

    @pytest.mark.parametrize(
        "draws, expected",
        [
            # A draw equal to a block's end counts for the next block.
            ([0.0, 0.25, 0.5, 0.75], [1, 1, 1, 1]),
            ([0.2499999999999999, 0.25], [1, 1, 0, 0]),
            # At or beyond the last end: the last block.
            ([0.9999999999999998, 0.9999999999999999], [0, 0, 0, 2]),
            ([0.8, 0.1, 0.6, 0.3, 0.1], [2, 1, 1, 1]),
            ([], [0, 0, 0, 0]),
        ],
    )
    def test_hand_built_draws(self, draws, expected):
        draws = np.array(draws, dtype=np.float64)
        counts = orderfinding._draws_per_block(self.ENDS, draws)
        assert counts.tolist() == expected
        assert counts.tolist() == _per_draw_counts(self.ENDS, draws).tolist()

    @pytest.mark.parametrize("n, x", RATE_CASES, ids=[f"{n}-{x}" for n, x in RATE_CASES])
    def test_successes_equal_the_per_draw_count(self, n, x):
        # The oracle is the per-draw lookup the per-c count replaced: every
        # draw located in the q·r cdf, then its c looked up in the success mask.
        instance = ProblemInstance(n, x)
        dist = measurement_distribution(run_pipeline(instance, ell=1))
        hits = recoverable_controls(instance.q, x, n, 1)[dist.register(1)]
        for seed in range(5):
            expected = int(hits[orderfinding._draw_indices(dist.cdf, 20_000, seed)].sum())
            report = success_rate_estimate(instance, trials=20_000, multiplier_bound=1, seed=seed)
            assert report.successes == expected, seed


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
