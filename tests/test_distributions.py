import csv
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import as_dict
from tracing import traced_peak
from shorsim import distributions, pipeline
from shorsim.cli import format_json
from shorsim.distributions import (
    OutcomeDistribution,
    analytic_joint_probability,
    conditional,
    marginal,
    measurement_distribution,
    multi_register_audit,
    shor_bound_report,
)
from shorsim.errors import (
    ConditioningError,
    ConsumedStateError,
    NormalizationError,
    RangeError,
)
from shorsim.numtheory import euler_phi, multiplicative_order, prime_factors
from shorsim.pipeline import run_pipeline
from shorsim.registers import DENSE, SPARSE, ProblemInstance, RegisterLayout, StateVector

INST_15_7 = ProblemInstance.create(15, 7)
INST_21_2 = ProblemInstance.create(21, 2)


@pytest.fixture(scope="module")
def dist_15_7():
    return measurement_distribution(run_pipeline(INST_15_7, ell=1))


@pytest.fixture(scope="module")
def dist_15_7_ell2():
    return measurement_distribution(run_pipeline(INST_15_7, ell=2))


@pytest.fixture(scope="module")
def dist_21_2():
    return measurement_distribution(run_pipeline(INST_21_2, ell=1))


class TestMeasurementDistribution:
    def test_known_probabilities(self, dist_15_7):
        table = as_dict(dist_15_7)
        assert table[(64, 1)] == pytest.approx(1 / 16, abs=1e-12)
        # alternating geometric sum cancels exactly
        assert table.get((32, 1), 0.0) <= 1e-20
        assert dist_15_7.total() == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_are_valid(self, dist_21_2):
        assert dist_21_2.total() == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in dist_21_2.entries.values())

    def test_support_is_powers_of_base(self, dist_21_2):
        residues = {pow(2, k, 21) for k in range(multiplicative_order(2, 21))}
        assert {y for (_, y) in dist_21_2.entries} <= residues

    def test_rejects_unnormalized_state(self):
        layout = INST_15_7.layout(1)
        bad = StateVector.from_arrays(layout, SPARSE, [0], [0.5])
        with pytest.raises(NormalizationError):
            measurement_distribution(bad)

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_rejects_a_nan_amplitude(self, backend):
        state = run_pipeline(INST_15_7, ell=1, backend=backend)
        index, amps = state.nonzero_arrays()
        amps = amps.copy()
        amps[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            StateVector.from_arrays(state.layout, backend, index, amps)

    @pytest.mark.parametrize("n, x", [(35, 2), (99, 73)])
    def test_squares_in_place_and_shares_the_state_index(self, n, x):
        # The probabilities take the amplitudes' buffer, shrunk to half its
        # bytes: no second array for the square and, where the floor omits
        # nothing, no copied index or probs. (tracemalloc counts the shrunk
        # buffer as new, since it was allocated before tracing began.)
        state = run_pipeline(ProblemInstance(n, x), qft="gates")
        index, amps = state.nonzero_arrays()
        expected = (np.abs(amps) ** 2).tobytes()
        nbytes, buffer = amps.nbytes, id(amps)
        del amps
        dist, peak = traced_peak(lambda: measurement_distribution(state))
        assert peak < 0.8 * nbytes
        assert dist.index.size == index.size
        assert np.shares_memory(dist.index, index)
        assert id(dist.probs.base) == buffer
        assert dist.probs.tobytes() == expected

    def test_a_measured_state_raises_on_every_read(self, tmp_path):
        state = run_pipeline(INST_15_7, ell=2)
        measurement_distribution(state)
        for read in (
            state.nonzero_arrays,
            state.nonzero_count,
            lambda: state.data,
            lambda: state.dump(tmp_path / "state.txt"),
            state.densify,
            lambda: measurement_distribution(state),
        ):
            with pytest.raises(ConsumedStateError, match="consumed"):
                read()
        assert not (tmp_path / "state.txt").exists()

    def test_arrays_held_elsewhere_keep_their_bytes(self):
        # A dense state's densify twin shares its pair, and a caller may keep
        # the arrays it handed from_arrays: measuring squares into a new
        # array, and those amplitudes stay readable and unchanged.
        state = run_pipeline(INST_21_2, ell=2, backend=DENSE)
        twin = state.densify()
        twin_amps = twin.nonzero_arrays()[1].tobytes()
        dist = measurement_distribution(state)
        assert twin.nonzero_arrays()[1].tobytes() == twin_amps
        assert dist.probs.tobytes() == (np.abs(twin.nonzero_arrays()[1]) ** 2).tobytes()

        index, amps = (array.copy() for array in twin.nonzero_arrays())
        kept = amps.tobytes()
        dist = measurement_distribution(StateVector.from_arrays(twin.layout, SPARSE, index, amps))
        assert amps.tobytes() == kept
        assert dist.probs.base is None
        assert dist.probs.tobytes() == (np.abs(amps) ** 2).tobytes()


# Odd composites that are not prime powers: the inputs order finding factors.
FACTORABLE_N = [n for n in range(9, 151, 2) if len(prime_factors(n)) > 1]

# Dense states of at most 2**20 amplitudes (16 MB) are cheap enough to compare.
DENSE_QUBIT_LIMIT = 20


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_simulation_matches_closed_form_over_many_inputs(data):
    n = data.draw(st.sampled_from(FACTORABLE_N), label="n")
    x = data.draw(st.sampled_from([x for x in range(2, n) if math.gcd(x, n) == 1]), label="x")
    ell = data.draw(st.sampled_from([1, 2]), label="ell")
    inst = ProblemInstance.create(n, x)
    r = multiplicative_order(x, n)
    dist = measurement_distribution(run_pipeline(inst, ell=ell))

    c, *ys = dist.registers()
    assert all(np.array_equal(y, ys[0]) for y in ys[1:])
    exponent = np.full(n, -1)
    exponent[[pow(x, k, n) for k in range(r)]] = np.arange(r)
    k = exponent[ys[0]]
    assert (k >= 0).all()
    # The closed form, memoized per (c, term count): k < q mod r has one more
    # term than the rest, and k = 0 and k = r - 1 stand for the two counts.
    key = c * r + np.where(k < inst.q % r, 0, r - 1)
    keys, row_key = np.unique(key, return_inverse=True)
    closed_form = np.array(
        [analytic_joint_probability(inst, r, kk // r, kk % r) for kk in keys.tolist()]
    )
    assert np.abs(dist.probs - closed_form[row_key]).max() <= 1e-12
    assert abs(math.fsum(dist.probs.tolist()) - 1.0) <= 1e-12

    if inst.s + ell * inst.function_register_width <= DENSE_QUBIT_LIMIT:
        # One ascending order on both backends: the same arrays, bit for bit.
        dense = measurement_distribution(run_pipeline(inst, ell=ell, backend=DENSE))
        assert np.array_equal(dense.index, dist.index)
        assert np.array_equal(dense.probs, dist.probs)


def fsum_result(compute):
    """The bytes of a float result, or the exception's type and message."""
    try:
        return np.float64(compute()).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_total_is_fsum(probs):
    probs = np.asarray(probs, dtype=np.float64)
    table = OutcomeDistribution(RegisterLayout(s=1, L=1, ell=1), (1,), np.arange(probs.size), probs)
    assert fsum_result(table.total) == fsum_result(lambda: math.fsum(probs.tolist()))


SUBNORMAL_MAX = float(np.nextafter(np.finfo(np.float64).tiny, 0.0))
magnitudes = (
    st.sampled_from([0.0, 5e-324, SUBNORMAL_MAX, 1.0])
    | st.floats(5e-324, SUBNORMAL_MAX)
    | st.floats(1e-300, 1e300)
    | st.floats(0.0, 1.0)
)
signed = st.tuples(st.booleans(), magnitudes).map(lambda pair: -pair[1] if pair[0] else pair[1])


class TestExactTotal:
    """`total()` is `math.fsum` over the probabilities, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(signed, max_size=200), block=st.sampled_from([None, 1, 4, 64]))
    def test_equals_fsum(self, values, block):
        # Small blocks and windows (a window of 2 to 128 values, far below the
        # 2^26 at which a slot could lose a bit) take every block boundary.
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(distributions, "_SUM_BLOCK", block)
                patch.setattr(distributions, "_EXACT_WINDOW", 2 * block)
            assert_total_is_fsum(values)

    @pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    def test_block_edges(self, size):
        rng = np.random.default_rng(size)
        assert_total_is_fsum(rng.random(size) / max(size, 1))
        # Every value in one exponent slot, each with all 53 bits set.
        assert_total_is_fsum(np.full(size, np.nextafter(1.0, 0.0)))
        assert_total_is_fsum(np.full(size, np.nextafter(1.0, 0.0)) * (-1.0) ** np.arange(size))

    @pytest.mark.parametrize(
        "values",
        [[math.nan], [0.5, math.inf], [-math.inf, 1.0, 2.0], [math.inf, -math.inf],
         [math.nan, math.inf], [0.25] * 70_000 + [math.inf]],
    )
    def test_non_finite_input(self, values):
        assert_total_is_fsum(values)

    @pytest.mark.parametrize("n,x", [(15, 7), (21, 2), (99, 73), (143, 2)])
    def test_real_tables(self, n, x):
        dist = measurement_distribution(run_pipeline(ProblemInstance.create(n, x), ell=1))
        assert_total_is_fsum(dist.probs)


class TestAnalyticJointProbability:
    def test_examples(self):
        r = 4
        # all 64 phases equal 1
        assert analytic_joint_probability(INST_15_7, r, 64, 0) == pytest.approx(
            1 / 16, abs=1e-15
        )
        # the b-sum telescopes to zero
        assert analytic_joint_probability(INST_15_7, r, 32, 0) == pytest.approx(
            0.0, abs=1e-30
        )
        # zero frequency sums 64 unit terms
        assert analytic_joint_probability(INST_15_7, r, 0, 3) == pytest.approx(
            1 / 16, abs=1e-15
        )

    def test_range_errors(self):
        with pytest.raises(RangeError):
            analytic_joint_probability(INST_15_7, 4, 256, 0)
        with pytest.raises(RangeError):
            analytic_joint_probability(INST_15_7, 4, 0, 4)

    @pytest.mark.parametrize("inst", [INST_15_7, INST_21_2])
    def test_matches_simulation_everywhere(self, inst, dist_15_7, dist_21_2):
        dist = dist_15_7 if inst is INST_15_7 else dist_21_2
        r = multiplicative_order(inst.x, inst.n)
        table = as_dict(dist)
        worst = 0.0
        for c in range(inst.q):
            for k in range(r):
                y = pow(inst.x, k, inst.n)
                diff = abs(
                    table.get((c, y), 0.0)
                    - analytic_joint_probability(inst, r, c, k)
                )
                worst = max(worst, diff)
        assert worst <= 1e-12

    def test_total_mass_is_one(self):
        for inst in (INST_15_7, INST_21_2):
            r = multiplicative_order(inst.x, inst.n)
            total = sum(
                analytic_joint_probability(inst, r, c, k)
                for c in range(inst.q)
                for k in range(r)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestMarginalConditional:
    def test_control_marginal(self, dist_15_7):
        m = marginal(dist_15_7, (1,))
        assert as_dict(m)[(64,)] == pytest.approx(1 / 4, abs=1e-12)

    def test_keep_everything_is_identity(self, dist_15_7):
        m = marginal(dist_15_7, (1, 2))
        assert m.entries == dist_15_7.entries

    def test_function_marginal_uniform(self, dist_15_7):
        m = marginal(dist_15_7, (2,))
        for k in range(4):
            y = pow(7, k, 15)
            assert as_dict(m)[(y,)] == pytest.approx(1 / 4, abs=1e-12)

    def test_empty_keep_rejected(self, dist_15_7):
        with pytest.raises(RangeError):
            marginal(dist_15_7, ())

    def test_perfect_correlation_under_conditioning(self, dist_15_7_ell2):
        cond = conditional(dist_15_7_ell2, {2: 1})
        second = as_dict(marginal(cond, (3,)))
        assert second[(1,)] == pytest.approx(1.0, abs=1e-12)
        assert second.get((7,), 0.0) == 0.0

    def test_full_outcome_conditioning_is_point_mass(self, dist_15_7):
        cond = conditional(dist_15_7, {1: 64, 2: 1})
        assert cond.entries == {(64, 1): 1.0}

    def test_zero_probability_event_rejected(self, dist_15_7):
        with pytest.raises(ConditioningError):
            conditional(dist_15_7, {1: 3})

    def test_chain_rule(self, dist_21_2):
        # P(A | B) * P(B) = P(A and B), within accumulation tolerance
        given_mass = as_dict(marginal(dist_21_2, (2,)))[(1,)]
        cond = conditional(dist_21_2, {2: 1})
        joint = as_dict(dist_21_2)
        for outcome, p_cond in cond.entries.items():
            assert p_cond * given_mass == pytest.approx(joint.get(outcome, 0.0), abs=1e-14)


class TestBoundReport:
    def test_n15_rows(self):
        report = shor_bound_report(INST_15_7)
        assert report.r == 4
        assert [row.c for row in report.rows] == [0, 64, 128, 192]
        assert report.good_c_count == report.r
        for row in report.rows:
            assert row.p_min == pytest.approx(1 / 16, abs=1e-12)
            assert row.p_min >= 4 / (math.pi**2 * 16) - 1e-12
        (floor,) = report.checks
        assert (floor.name, floor.relation, floor.passed) == ("good_c_probability_floor", ">", True)
        assert floor.value == min(row.p_min for row in report.rows)
        assert floor.bound == report.bound_1_over_3r2

    def test_n15_success_mass(self):
        report = shor_bound_report(INST_15_7)
        coprime_rows = [row for row in report.rows if row.gcd_d_r == 1]
        assert [row.c for row in coprime_rows] == [64, 192]
        assert report.success_mass == pytest.approx(0.5, abs=1e-12)
        assert report.success_mass >= report.success_bound_phi_over_3r  # 1/6
        assert report.success_mass >= report.success_bound_phi_over_3r2  # 1/24

    def test_n21_rows(self):
        report = shor_bound_report(INST_21_2)
        assert report.r == 6
        assert report.good_c_count == 6
        assert sorted(row.d for row in report.rows) == [0, 1, 2, 3, 4, 5]
        floor = 1 / (3 * 36)
        for row in report.rows:
            assert row.p_min > floor
        assert all(c.passed for c in report.checks)

    def test_phi_matches_oracle(self):
        for inst in (INST_15_7, INST_21_2):
            report = shor_bound_report(inst)
            assert report.phi_r == euler_phi(report.r)
            assert report.coprime_good_c_count == report.phi_r

    def test_row_count_equals_order(self):
        for n, x in [(15, 2), (15, 4), (21, 5), (33, 2), (35, 2), (39, 2)]:
            report = shor_bound_report(ProblemInstance.create(n, x))
            assert report.good_c_count == report.r

    @pytest.mark.parametrize("n, x", [(15, 7), (21, 2), (35, 2), (55, 3), (91, 5), (143, 2)])
    def test_good_c_equal_scalar_residue_scan(self, n, x):
        inst = ProblemInstance.create(n, x)
        r = multiplicative_order(x, n)
        expected = []
        for c in range(inst.q):
            v = (r * c) % inst.q
            residue = v - inst.q if 2 * v > inst.q else v
            if 2 * abs(residue) <= r:
                expected.append((c, residue))
        rows = shor_bound_report(inst).rows
        assert [(row.c, row.residue) for row in rows] == expected
        assert all(type(row.c) is int and type(row.residue) is int for row in rows)

    def test_report_grows_as_r(self):
        # Two floats per good c: at r = 2052 the JSON is under 1 MB, where r
        # probabilities per row made it about 142 MB.
        report = shor_bound_report(ProblemInstance(2053, 2))
        assert report.r == 2052
        assert len(format_json(report)) < 1_000_000

    @pytest.mark.parametrize("n, x", [(15, 7), (21, 2), (1031, 2), (2053, 2)])
    def test_two_values_per_row_carry_every_k(self, n, x):
        # Each row's two values are the closed form at k = 0 and k = r - 1,
        # bit for bit; the success mass is within 1e-15 of `math.fsum` over
        # the r values per coprime row that the rows held up to schema 2
        # (q mod r copies of the first, then the last). (15, 7) has q mod r = 0.
        inst = ProblemInstance(n, x)
        report = shor_bound_report(inst)
        r, rho = report.r, report.q_mod_r
        assert rho == inst.q % r
        held = []
        for row in report.rows:
            assert row.p_first == analytic_joint_probability(inst, r, row.c, 0)
            assert row.p_last == analytic_joint_probability(inst, r, row.c, r - 1)
            assert row.p_min == min(row.p_first, row.p_last)
            if row.gcd_d_r == 1:
                held += [row.p_first] * rho + [row.p_last] * (r - rho)
        assert report.success_mass == pytest.approx(math.fsum(held), rel=1e-15, abs=0)

    @pytest.mark.parametrize("n, x", [(15, 7), (21, 2), (35, 2), (55, 3)])
    def test_closed_form_reads_k_only_through_its_term_count(self, n, x):
        # k < q mod r has ceil(q/r) terms, every other k floor(q/r): the
        # report evaluates each row at k = 0 and k = r - 1 alone.
        inst = ProblemInstance.create(n, x)
        r = multiplicative_order(x, n)
        classes = [0 if k < inst.q % r else r - 1 for k in range(r)]
        for c in range(inst.q):
            got = [analytic_joint_probability(inst, r, c, k) for k in range(r)]
            want = [analytic_joint_probability(inst, r, c, k) for k in classes]
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_report_allocates_no_length_q_array(self):
        inst = ProblemInstance(4095, 2)  # q = 2^24, r = 12
        report, peak = traced_peak(lambda: shor_bound_report(inst))
        assert report.good_c_count == 12
        assert peak < 1 << 20

    def test_json_round_trip_fields(self):
        doc = asdict(shor_bound_report(INST_15_7))
        assert "schema_version" not in doc and "all_clear" not in doc
        assert len(doc["rows"]) == doc["good_c_count"]
        assert all("margin_vs_4_over_pi2_r2" in row for row in doc["rows"])


class TestUniformSupportWhenOrderDivides:
    @pytest.mark.parametrize("x", [2, 7, 8, 13])
    def test_equal_split(self, x):
        inst = ProblemInstance.create(15, x)
        r = multiplicative_order(x, 15)
        dist = measurement_distribution(run_pipeline(inst, ell=1))
        report = shor_bound_report(inst)
        good = [row.c for row in report.rows]
        control = as_dict(marginal(dist, (1,)))
        table = as_dict(dist)
        for c in good:
            assert control.get((c,), 0.0) == pytest.approx(1 / r, abs=1e-12)
            for k in range(r):
                y = pow(x, k, 15)
                assert table.get((c, y), 0.0) == pytest.approx(
                    1 / r**2, abs=1e-12
                )
        assert len(dist.entries) == r * r


def audit(inst, ell):
    """The audit of the default pipeline's ell-register table against its one-register one."""
    single = measurement_distribution(run_pipeline(inst, ell=1))
    multi = measurement_distribution(run_pipeline(inst, ell=ell))
    return multi_register_audit(inst, single, multi)


class TestAudit:
    @pytest.mark.parametrize("inst,ell", [(INST_15_7, 2), (INST_15_7, 3), (INST_21_2, 2)])
    def test_claims(self, inst, ell):
        report = audit(inst, ell)
        assert report.equal_outcome_discrepancy <= 1e-12
        assert report.unequal_register_mass <= 1e-12
        assert [(c.name, c.passed) for c in report.checks] == [
            ("equal_outcome_discrepancy", True),
            ("unequal_register_mass", True),
        ]

    def test_conditional_alternative_scales_by_order(self):
        # With a uniform function-register marginal the conditional reading is
        # exactly r times the joint one.
        report = audit(INST_15_7, 2)
        assert report.modal_conditional_probability == pytest.approx(
            report.r * report.modal_joint_probability, abs=1e-12
        )

    @pytest.mark.parametrize("table", ["clean", "register 2 writes x^(a+1)", "tied maximum"])
    def test_modal_conditional_is_the_conditional_tables_entry(self, monkeypatch, table):
        # The audit divides the modal joint probability by its conditioning
        # event's mass itself; that must be `conditional`'s entry bit for bit.
        if table == "tied maximum":
            # (2, 4, 4) ties (0, 1, 1) and wins as the last; its event also
            # holds (3, 4, 4) but not (5, 4, 7).
            layout = INST_15_7.layout(ell=2)
            rows = [((0, 1, 1), 0.3), ((1, 1, 1), 0.1), ((2, 4, 4), 0.3),
                    ((3, 4, 4), 0.2), ((5, 4, 7), 0.1)]
            index = np.array([layout.pack_index(c, ys) for (c, *ys), _ in rows])
            probs = np.array([p for _, p in rows])
            multi = OutcomeDistribution(layout, (1, 2, 3), index, probs)
        else:
            if table != "clean":
                fanout = pipeline.apply_modexp_fanout

                def faulty(state, instance):
                    index, amps = fanout(state, instance).nonzero_arrays()
                    a = index >> (2 * state.layout.L)
                    shifted = np.array([pow(instance.x, v + 1, instance.n) for v in a.tolist()])
                    index = index - (index & (state.layout.function_dim - 1)) + shifted
                    return StateVector.from_arrays(state.layout, state.backend, index, amps)

                monkeypatch.setattr(pipeline, "apply_modexp_fanout", faulty)
            multi = measurement_distribution(run_pipeline(INST_15_7, ell=2))
        single = measurement_distribution(run_pipeline(INST_15_7, ell=1))
        report = multi_register_audit(INST_15_7, single, multi)
        assert (report.unequal_register_mass > 0.0) == (table != "clean")
        given = {2: report.modal_outcome[1], 3: report.modal_outcome[2]}
        expected = conditional(multi, given).entries[report.modal_outcome]
        assert report.modal_conditional_probability == expected
        if table == "tied maximum":
            assert report.modal_outcome == (2, 4, 4)
            assert expected == 0.3 / (0.3 + 0.2)

    def test_requires_two_registers(self, dist_15_7, dist_15_7_ell2):
        dist_21_2_ell2 = measurement_distribution(run_pipeline(INST_21_2, ell=2))
        for single, multi in [
            (dist_15_7, dist_15_7),
            (dist_15_7_ell2, dist_15_7_ell2),
            (dist_15_7_ell2, dist_15_7),
            (dist_15_7, dist_21_2_ell2),
        ]:
            with pytest.raises(ValueError, match="one-register and an ell >= 2 table"):
                multi_register_audit(INST_15_7, single, multi)

    def test_moved_equal_outcome_fails_only_its_check(self, dist_15_7, dist_15_7_ell2):
        # Move the probability of one residue outcome (c, x^k) of the
        # one-register table by delta: the discrepancy is that delta.
        delta = 1e-9
        probs = dist_15_7.probs.copy()
        probs[0] += delta
        moved = OutcomeDistribution(dist_15_7.layout, dist_15_7.positions, dist_15_7.index, probs)
        report = multi_register_audit(INST_15_7, moved, dist_15_7_ell2)
        assert abs(report.equal_outcome_discrepancy - delta) <= 1e-15
        assert [(c.name, c.passed) for c in report.checks] == [
            ("equal_outcome_discrepancy", False),
            ("unequal_register_mass", True),
        ]

    def test_register_columns_are_made_one_at_a_time(self):
        # One register column beside the unequal mask, and keys paired with
        # the one-register table by blocks: about 2.8 times the ell-register
        # table's probability bytes, 14 with every register column and the
        # sorted concatenation of both tables' keys.
        inst = ProblemInstance(99, 73)
        single = measurement_distribution(run_pipeline(inst))
        multi = measurement_distribution(run_pipeline(inst, ell=3))
        report, peak = traced_peak(lambda: multi_register_audit(inst, single, multi))
        assert report.equal_outcome_discrepancy <= 1e-12
        assert peak < 4 * multi.probs.nbytes

    def test_json_fields(self):
        # Measurements only: the verdicts live in `checks`.
        doc = asdict(audit(INST_15_7, 2))
        assert list(doc) == [
            "n", "x", "q", "r", "ell", "equal_outcome_discrepancy", "unequal_register_mass",
            "modal_outcome", "modal_joint_probability", "modal_conditional_probability",
        ]


class TestCsvExport:
    def test_seventeen_digit_round_trip(self, tmp_path, dist_21_2):
        path = tmp_path / "dist.csv"
        dist_21_2.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "y1", "probability"]
        parsed = {
            (int(c), int(y)): float(p) for c, y, p in rows[1:]
        }
        assert len(parsed) == len(dist_21_2.entries)
        for outcome, prob in dist_21_2.entries.items():
            assert parsed[outcome] == prob  # %.17g round-trips doubles exactly

    def test_register_columns_are_written_by_blocks(self, tmp_path):
        # Each block unpacks its own register values, so no full-length c or
        # y column is made: about 1.7 times the probabilities' bytes, all of
        # it the per-file tables and per-block temporaries (5.0 with both
        # columns).
        dist = measurement_distribution(run_pipeline(ProblemInstance(99, 73)))
        _, peak = traced_peak(lambda: dist.write_csv(tmp_path / "dist.csv"))
        assert peak < 2.5 * dist.probs.nbytes
