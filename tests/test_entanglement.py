import math

import numpy as np
import pytest

from oracles import as_dict, pack
from tracing import traced_peak
from shorsim.distributions import marginal, measurement_distribution
from shorsim.entanglement import (
    SchmidtSpectrum,
    qft_locality_check,
    register_correlation,
    schmidt_spectrum,
    spectra_deviation,
    von_neumann_entropy,
)
from shorsim import entanglement, pipeline
from shorsim.errors import CapacityError, RangeError
from shorsim.numtheory import multiplicative_order
from shorsim.pipeline import apply_modexp_fanout, init_uniform, run_pipeline
from shorsim.registers import DENSE, SPARSE, ProblemInstance, RegisterLayout, StateVector

INST_15_7 = ProblemInstance.create(15, 7)
INST_21_2 = ProblemInstance.create(21, 2)


def pre_transform_state(inst, ell=1):
    return apply_modexp_fanout(init_uniform(inst, ell=ell), inst)


class TestSchmidtSpectrum:
    def test_product_state_has_rank_one(self):
        layout = RegisterLayout(s=1, L=1, ell=1)
        state = StateVector.from_arrays(layout, SPARSE, [pack(layout, 0, 0)], [1.0])
        spectrum = schmidt_spectrum(state, cut_after=1)
        assert spectrum.eigenvalues == pytest.approx((1.0,), abs=1e-12)

    def test_epr_pair(self):
        # (|01> + |10>) / sqrt(2), cut between the qubits
        layout = RegisterLayout(s=1, L=1, ell=1)
        amp = complex(1 / np.sqrt(2))
        state = StateVector.from_arrays(
            layout, SPARSE, [pack(layout, 0, 1), pack(layout, 1, 0)], [amp, amp]
        )
        spectrum = schmidt_spectrum(state, cut_after=1)
        assert spectrum.eigenvalues == pytest.approx((0.5, 0.5), abs=1e-12)
        assert von_neumann_entropy(spectrum) == pytest.approx(1.0, abs=1e-12)

    def test_pipeline_state_residue_classes(self):
        spectrum = schmidt_spectrum(pre_transform_state(INST_15_7), cut_after=1)
        assert spectrum.eigenvalues == pytest.approx((0.25,) * 4, abs=1e-12)
        assert von_neumann_entropy(spectrum) == pytest.approx(2.0, abs=1e-12)

    def test_eigenvalues_sum_to_one(self):
        for inst, ell in [(INST_15_7, 1), (INST_15_7, 2), (INST_21_2, 1)]:
            spectrum = schmidt_spectrum(pre_transform_state(inst, ell), cut_after=1)
            assert sum(spectrum.eigenvalues) == pytest.approx(1.0, abs=1e-10)
            assert all(0.0 <= v <= 1.0 for v in spectrum.eigenvalues)

    @pytest.mark.parametrize("backend", [SPARSE, DENSE])
    @pytest.mark.parametrize(
        "inst,ell",
        [(INST_15_7, 1), (INST_15_7, 2), (INST_15_7, 3), (INST_21_2, 1), (INST_21_2, 2)],
    )
    def test_matches_svd_of_full_matrix(self, inst, ell, backend):
        # Oracle: squared singular values of the full left x right amplitude
        # matrix, zero rows and columns included.
        states = pipeline.pre_measurement_states(inst, ell=ell, backend=backend)
        for state in states:
            layout = state.layout
            full = np.zeros(layout.dim, dtype=np.complex128)
            index, amps = state.nonzero_arrays()
            full[index] = amps
            for cut in range(1, ell + 1):
                left_dim = layout.q << ((cut - 1) * layout.L)
                singular = np.linalg.svd(full.reshape(left_dim, -1), compute_uv=False)
                expected = singular**2
                got = schmidt_spectrum(state, cut_after=cut).eigenvalues
                assert np.max(np.abs(np.array(got) - expected[: len(got)])) <= 1e-12
                assert np.all(expected[len(got):] <= 1e-12)

    def test_positions_are_freed_before_the_gram_product(self):
        # The amplitude matrix and its conjugate, each the size of the state's
        # amplitudes, with no state-length position array beside them: about
        # 2.55 times the amplitude bytes, 3.05 while the row and column
        # positions stayed.
        state = run_pipeline(ProblemInstance(99, 73))
        amps_bytes = state.nonzero_arrays()[1].nbytes
        spectrum, peak = traced_peak(lambda: schmidt_spectrum(state, cut_after=1))
        assert spectrum.rank() == multiplicative_order(73, 99)
        assert peak < 2.8 * amps_bytes

    def test_side_cap_counts_occupied_values(self, monkeypatch):
        # Full dims 256 x 16, but only 4 columns are occupied.
        state = pre_transform_state(INST_15_7)
        monkeypatch.setattr(entanglement, "DEFAULT_SIDE_CAP", 4)
        assert schmidt_spectrum(state, cut_after=1).rank() == 4
        monkeypatch.setattr(entanglement, "DEFAULT_SIDE_CAP", 3)
        with pytest.raises(CapacityError):
            schmidt_spectrum(state, cut_after=1)

    def test_cut_out_of_range(self):
        state = pre_transform_state(INST_15_7, ell=1)
        with pytest.raises(RangeError):
            schmidt_spectrum(state, cut_after=0)
        with pytest.raises(RangeError):
            schmidt_spectrum(state, cut_after=2)


class TestEntropy:
    def test_trivial_values(self):
        assert von_neumann_entropy(SchmidtSpectrum(1, (1.0,))) == 0.0
        assert von_neumann_entropy(SchmidtSpectrum(1, (0.5, 0.5))) == pytest.approx(1.0)

    def test_divisible_order_entropy_is_log2_r(self):
        for x in (2, 4, 7, 8, 11, 13, 14):
            inst = ProblemInstance.create(15, x)
            r = multiplicative_order(x, 15)
            spectrum = schmidt_spectrum(pre_transform_state(inst), cut_after=1)
            assert von_neumann_entropy(spectrum) == pytest.approx(
                math.log2(r), abs=1e-10
            )

    def test_non_divisible_order_entropy(self):
        # r does not divide q: eigenvalues are the residue-class sizes over q.
        inst = INST_21_2
        r = multiplicative_order(inst.x, inst.n)
        counts = [len(range(k, inst.q, r)) for k in range(r)]
        expected = -sum(m / inst.q * math.log2(m / inst.q) for m in counts)
        spectrum = schmidt_spectrum(pre_transform_state(inst), cut_after=1)
        assert von_neumann_entropy(spectrum) == pytest.approx(expected, abs=1e-10)
        assert sorted(spectrum.eigenvalues, reverse=True) == pytest.approx(
            sorted((m / inst.q for m in counts), reverse=True), abs=1e-12
        )

    def test_entropy_bounds(self):
        for inst, ell in [(INST_15_7, 2), (INST_21_2, 1)]:
            spectrum = schmidt_spectrum(pre_transform_state(inst, ell), cut_after=1)
            entropy = von_neumann_entropy(spectrum)
            layout = inst.layout(ell)
            assert 0.0 <= entropy <= min(layout.s, layout.ell * layout.L)


class TestLocality:
    @pytest.mark.parametrize(
        "inst,ell", [(INST_15_7, 1), (INST_15_7, 2), (INST_21_2, 1)]
    )
    def test_transform_leaves_cut_spectrum_unchanged(self, inst, ell):
        report = qft_locality_check(inst, *pipeline.pre_measurement_states(inst, ell=ell))
        assert report.max_deviation <= 1e-10
        assert [(c.name, c.passed) for c in report.checks] == [
            ("control_cut_spectrum_deviation", True)
        ]
        assert report.entropy_before_bits == pytest.approx(
            report.entropy_after_bits, abs=1e-10
        )

    def test_checks_the_transform_named_by_qft(self, monkeypatch):
        gates = pipeline.apply_qft_register1_gates

        def faulty(state):
            # Scale one function-register column after the transform and
            # renormalise: the control | function spectrum changes.
            out = gates(state)
            index, amps = out.nonzero_arrays()
            amps = amps * np.where(index % out.layout.right_dim == 1, 1.01, 1.0)
            amps /= math.sqrt(np.vdot(amps, amps).real)
            return StateVector.from_arrays(out.layout, out.backend, index, amps)

        monkeypatch.setattr(pipeline, "apply_qft_register1_gates", faulty)
        verdicts = {}
        for qft in ("gates", "direct"):
            states = pipeline.pre_measurement_states(INST_15_7, qft=qft)
            report = qft_locality_check(INST_15_7, *states)
            verdicts[qft] = [(c.name, c.passed) for c in report.checks]
        assert verdicts == {
            "gates": [("control_cut_spectrum_deviation", False)],
            "direct": [("control_cut_spectrum_deviation", True)],
        }

    def test_deviation_helper(self):
        a = SchmidtSpectrum(1, (0.6, 0.4))
        b = SchmidtSpectrum(1, (0.5, 0.3, 0.2))
        assert spectra_deviation(a, b) == pytest.approx(0.2)
        # Each eigenvalue pair differs exactly as in float arithmetic.
        assert spectra_deviation(a, b) == max(0.6 - 0.5, abs(0.4 - 0.3), 0.2)
        empty = SchmidtSpectrum(1, ())
        assert spectra_deviation(empty, empty) == 0.0
        assert spectra_deviation(empty, b) == 0.5


@pytest.fixture(scope="module")
def dist_ell2():
    return measurement_distribution(run_pipeline(INST_15_7, ell=2))


class TestCorrelation:

    def test_perfect_correlation(self, dist_ell2):
        report = register_correlation(dist_ell2, 2, 3)
        assert report.p_equal == pytest.approx(1.0, abs=1e-12)
        assert report.p_unequal <= 1e-12

    def test_contingency_diagonal(self, dist_ell2):
        report = register_correlation(dist_ell2, 2, 3)
        diagonal = {yi: p for yi, yj, p in report.table if yi == yj}
        residues = {pow(7, k, 15) for k in range(4)}
        assert set(diagonal) == residues
        for value in diagonal.values():
            assert value == pytest.approx(0.25, abs=1e-12)

    def test_single_register_marginals_identical(self, dist_ell2):
        first = as_dict(marginal(dist_ell2, (2,)))
        second = as_dict(marginal(dist_ell2, (3,)))
        outcomes = first.keys() | second.keys()
        worst = max(abs(first.get(o, 0.0) - second.get(o, 0.0)) for o in outcomes)
        assert worst <= 1e-12

    @pytest.mark.parametrize("n, x, ell", [(15, 7, 3), (21, 2, 3), (33, 5, 4)])
    def test_function_register_table_gives_the_full_tables_reports(self, n, x, ell):
        # `entanglement` hands every pair the marginal over the function
        # registers; each of its sums runs in the full table's order.
        full = measurement_distribution(run_pipeline(ProblemInstance.create(n, x), ell=ell))
        functions = marginal(full, range(2, ell + 2))
        for i in range(2, ell + 1):
            for j in range(i + 1, ell + 2):
                assert repr(register_correlation(functions, i, j)) == repr(
                    register_correlation(full, i, j)
                )

    def test_rejects_bad_positions(self, dist_ell2):
        with pytest.raises(RangeError):
            register_correlation(dist_ell2, 2, 2)
        with pytest.raises(RangeError):
            register_correlation(dist_ell2, 1, 2)
