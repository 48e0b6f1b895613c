import numpy as np
import pytest

import oracles
from oracles import as_dict, scatter
from tracing import traced_peak
from shorsim import _kernels, numtheory, pipeline
from shorsim.distributions import marginal, measurement_distribution
from shorsim.errors import CapacityError, StageOrderError
from shorsim.pipeline import (
    apply_modexp_fanout,
    apply_qft_register1_direct,
    apply_qft_register1_gates,
    init_uniform,
    linearity_check,
    pre_measurement_states,
    run_pipeline,
)
from shorsim.registers import (
    DENSE,
    SPARSE,
    SPARSE_AMPLITUDE_FLOOR,
    ProblemInstance,
    RegisterLayout,
    StateVector,
)

INST_15_7 = ProblemInstance.create(15, 7)
INST_21_2 = ProblemInstance.create(21, 2)


def amplitude(state, index):
    """The amplitude a state holds at one packed index, 0 where it stores none."""
    stored, amps = state.nonzero_arrays()
    k = int(np.searchsorted(stored, index))
    return complex(amps[k]) if k < stored.size and stored[k] == index else 0j


def norm_squared(state):
    amps = state.nonzero_arrays()[1]
    return float(np.vdot(amps, amps).real)


class TestInitUniform:
    @pytest.mark.parametrize("ell", [1, 2])
    def test_uniform_support(self, ell):
        state = init_uniform(INST_15_7, ell=ell)
        assert state.nonzero_count() == 256
        index, amps = state.nonzero_arrays()
        assert np.all(np.abs(np.abs(amps) - 1 / 16) <= 1e-15)
        assert np.all(index % state.layout.right_dim == 0)
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)

    def test_capacity_refused_before_allocating(self):
        # q = 2^25: the q-entry index and amplitude arrays alone take 768 MB.
        inst = ProblemInstance.create(5001, 2)

        def refused():
            with pytest.raises(CapacityError, match=r"sparse state needs up to 2\^38"):
                init_uniform(inst)

        _, peak = traced_peak(refused)
        assert peak < 8 << 20


class TestFanout:
    def test_branch_lands_on_power(self):
        state = apply_modexp_fanout(init_uniform(INST_15_7, ell=1), INST_15_7)
        layout = state.layout
        # 7^2 mod 15 = 4
        assert amplitude(state, layout.pack_index(2, [4])) == pytest.approx(1 / 16)
        assert amplitude(state, layout.pack_index(2, [0])) == 0

    def test_two_register_branch(self):
        state = apply_modexp_fanout(init_uniform(INST_15_7, ell=2), INST_15_7)
        layout = state.layout
        assert amplitude(state, layout.pack_index(0, [1, 1])) == pytest.approx(1 / 16)

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_permutation_on_support(self, backend):
        before = init_uniform(INST_15_7, ell=1, backend=backend)
        after = apply_modexp_fanout(before, INST_15_7)
        assert after.nonzero_count() == before.nonzero_count() == 256
        before_mags = np.sort(np.abs(before.nonzero_arrays()[1]))
        after_mags = np.sort(np.abs(after.nonzero_arrays()[1]))
        assert np.allclose(before_mags, after_mags)

    def test_function_register_holds_every_power(self, monkeypatch):
        # One array modular exponentiation, not a scalar pow per amplitude:
        # mod_pow_range doubles, so it takes one pow per bit of q.
        calls = []

        def counted_pow(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(pipeline, "pow", counted_pow, raising=False)
        monkeypatch.setattr(numtheory, "pow", counted_pow, raising=False)
        state = apply_modexp_fanout(init_uniform(INST_21_2, ell=2), INST_21_2)
        assert 0 < len(calls) <= INST_21_2.s
        index, _ = state.nonzero_arrays()
        a, ykey = np.divmod(index, state.layout.right_dim)
        y1, y2 = np.divmod(ykey, 1 << state.layout.L)
        expected = [pow(2, v, 21) for v in a.tolist()]
        assert y1.tolist() == y2.tolist() == expected

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_stage_order_enforced(self, backend):
        state = apply_modexp_fanout(init_uniform(INST_15_7, backend=backend), INST_15_7)
        with pytest.raises(StageOrderError):
            apply_modexp_fanout(state, INST_15_7)


class TestDirectTransform:
    def test_no_fanout_concentrates_at_zero(self):
        # Without the fan-out the control register is a flat superposition,
        # which transforms to a point mass at c = 0.
        state = apply_qft_register1_direct(init_uniform(INST_15_7, ell=1))
        layout = state.layout
        assert abs(amplitude(state, layout.pack_index(0, [0]))) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)

    def test_known_amplitude(self):
        state = run_pipeline(INST_15_7, ell=1)
        layout = state.layout
        amp = amplitude(state, layout.pack_index(64, [1]))
        assert abs(amp) ** 2 == pytest.approx(1 / 16, abs=1e-12)

    @pytest.mark.parametrize("inst", [INST_15_7, INST_21_2])
    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_norm_conserved(self, inst, backend):
        before = apply_modexp_fanout(init_uniform(inst, ell=1, backend=backend), inst)
        after = apply_qft_register1_direct(before)
        assert abs(norm_squared(after) - norm_squared(before)) <= 1e-12

    def test_fft_writes_into_the_gathered_matrix(self):
        # The FFT writes into the (q, m) matrix it is handed, so one complex
        # (q, m) buffer is alive through the transform: about 1.8 times its
        # bytes over the whole pipeline, 2.2 with the FFT's own output.
        inst = ProblemInstance(99, 73)
        m = np.unique(numtheory.mod_pow_range(inst.x, inst.q, inst.n)).size
        _, peak = traced_peak(lambda: run_pipeline(inst))
        assert peak < 2.0 * 16 * inst.q * m


class TestGateTransform:
    def test_single_qubit_hadamard(self):
        layout = RegisterLayout(s=1, L=1, ell=1)
        state = StateVector.from_arrays(layout, DENSE, [layout.pack_index(0, [0])], [1.0])
        out = apply_qft_register1_gates(state)
        assert amplitude(out, layout.pack_index(0, [0])) == pytest.approx(1 / np.sqrt(2))
        assert amplitude(out, layout.pack_index(1, [0])) == pytest.approx(1 / np.sqrt(2))

    def test_three_qubit_column(self):
        layout = RegisterLayout(s=3, L=1, ell=1)
        state = StateVector.from_arrays(layout, DENSE, [layout.pack_index(1, [0])], [1.0])
        out = apply_qft_register1_gates(state)
        for c in range(8):
            expected = np.exp(2j * np.pi * c / 8) / np.sqrt(8)
            assert amplitude(out, layout.pack_index(c, [0])) == pytest.approx(
                expected, abs=1e-14
            )

    @pytest.mark.parametrize("inst", [INST_15_7, INST_21_2])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_matches_direct_on_pipeline(self, inst, ell):
        direct = run_pipeline(inst, ell=ell, backend=DENSE, qft="direct")
        gates = run_pipeline(inst, ell=ell, backend=DENSE, qft="gates")
        assert np.max(np.abs(scatter(direct) - scatter(gates))) <= 1e-10

    def test_sparse_input_round_trips(self):
        direct = run_pipeline(INST_15_7, ell=1, backend=SPARSE, qft="direct")
        gates = run_pipeline(INST_15_7, ell=1, backend=SPARSE, qft="gates")
        assert gates.backend == SPARSE
        indices = set(direct.nonzero_arrays()[0].tolist()) | set(
            gates.nonzero_arrays()[0].tolist()
        )
        worst = max(abs(amplitude(direct, i) - amplitude(gates, i)) for i in indices)
        assert worst <= 1e-10

    @pytest.mark.parametrize("n, x", [(35, 2), (99, 73)])
    def test_input_matrix_freed_before_the_state_is_built(self, n, x):
        # The (q, m) input, the kernel's output, the packed indices and the
        # state's copy (the sparse floor drops a few cells here) used to be
        # alive at once, about 4.2 times the output's amplitude bytes; with
        # the input freed first the peak is about 3.2 times. The gate kernel,
        # because numpy's FFT allocates its own buffers differently by version.
        inst = ProblemInstance(n, x)
        fanned = apply_modexp_fanout(init_uniform(inst), inst)
        out, peak = traced_peak(lambda: apply_qft_register1_gates(fanned))
        assert peak < 3.5 * out.nonzero_arrays()[1].nbytes

    def test_kernel_output_becomes_the_state_in_place(self):
        # `from_columns` compacts the kept cells within the kernel's output
        # and writes their packed indices once, so neither a (q, m) index
        # array nor a copy of the cells is alive beside the output: about 2.5
        # times the output's amplitude bytes (3.2 with them).
        inst = ProblemInstance(99, 73)
        fanned = apply_modexp_fanout(init_uniform(inst), inst)
        out, peak = traced_peak(lambda: apply_qft_register1_gates(fanned))
        assert peak < 2.8 * out.nonzero_arrays()[1].nbytes


class TestGateColumnRoute:
    """The gate circuit over the occupied columns against the same circuit over
    the whole dense (q, right_dim) matrix, bit for bit."""

    @staticmethod
    def full_matrix_reference(state):
        layout = state.layout
        mat = scatter(state).reshape(layout.q, layout.right_dim)
        return _kernels.qft_gates(mat, layout.s).ravel()

    @pytest.mark.parametrize(
        "inst, ell",
        [(INST_15_7, 1), (INST_15_7, 2), (INST_15_7, 3), (INST_21_2, 1), (INST_21_2, 2)],
    )
    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_pipeline_state(self, inst, ell, backend):
        state = apply_modexp_fanout(init_uniform(inst, ell=ell, backend=backend), inst)
        expected = self.full_matrix_reference(state)
        if backend == SPARSE:
            # Sparse storage keeps only amplitudes above the floor.
            expected[np.abs(expected) <= SPARSE_AMPLITUDE_FLOOR] = 0
        assert np.array_equal(scatter(apply_qft_register1_gates(state)), expected)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_every_column_occupied(self, s):
        layout = RegisterLayout(s=s, L=2, ell=1)
        rng = np.random.default_rng(s)
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        amps /= np.linalg.norm(amps)
        index = np.arange(layout.dim, dtype=np.int64)
        state = StateVector.from_arrays(layout, DENSE, index, amps)
        expected = self.full_matrix_reference(state)
        assert np.array_equal(scatter(apply_qft_register1_gates(state)), expected)


class TestBackendsAgreeAtEveryStage:
    """Each stage on each backend against the full-space oracle."""

    @pytest.mark.parametrize(
        "inst, ell",
        [(INST_15_7, 1), (INST_15_7, 2), (INST_15_7, 3), (INST_21_2, 1), (INST_21_2, 2)],
    )
    def test_sparse_state_equals_dense_state(self, inst, ell):
        expected = oracles.initial_state(inst.n, ell)
        sparse = init_uniform(inst, ell=ell, backend=SPARSE)
        dense = init_uniform(inst, ell=ell, backend=DENSE)
        assert np.array_equal(scatter(sparse), expected.ravel())
        assert np.array_equal(scatter(dense), expected.ravel())
        expected = oracles.fanout(expected, inst.n, inst.x)
        sparse = apply_modexp_fanout(sparse, inst)
        dense = apply_modexp_fanout(dense, inst)
        assert np.array_equal(scatter(sparse), expected.ravel())
        assert np.array_equal(scatter(dense), expected.ravel())
        expected = oracles.transform(expected)
        sparse = apply_qft_register1_direct(sparse)
        dense = apply_qft_register1_direct(dense)
        assert np.max(np.abs(scatter(sparse) - expected.ravel())) <= 1e-15
        assert np.max(np.abs(scatter(dense) - expected.ravel())) <= 1e-15
        assert np.all(np.abs(sparse.nonzero_arrays()[1]) > SPARSE_AMPLITUDE_FLOOR)


class TestTransformDispatch:
    @pytest.mark.parametrize("stages", [run_pipeline, pre_measurement_states])
    @pytest.mark.parametrize("qft", ["fft", "bogus"])
    def test_unknown_qft_is_rejected(self, stages, qft):
        with pytest.raises(ValueError, match="unknown qft"):
            stages(INST_15_7, qft=qft)


class TestTransformLocality:
    @pytest.mark.parametrize("ell", [1, 2])
    def test_function_register_marginal_unchanged(self, ell):
        before = apply_modexp_fanout(init_uniform(INST_15_7, ell=ell), INST_15_7)
        after = apply_qft_register1_direct(before)
        positions = tuple(range(2, ell + 2))
        m_before = as_dict(marginal(measurement_distribution(before), positions))
        m_after = as_dict(marginal(measurement_distribution(after), positions))
        outcomes = m_before.keys() | m_after.keys()
        worst = max(abs(m_before.get(o, 0.0) - m_after.get(o, 0.0)) for o in outcomes)
        assert worst <= 1e-12


class TestFullPipeline:
    def test_divisible_order_gives_flat_spectrum(self):
        dist = measurement_distribution(run_pipeline(INST_15_7, ell=1))
        assert len(dist.entries) == 16
        assert all(p == pytest.approx(1 / 16, abs=1e-12) for p in dist.entries.values())

    def test_control_marginal_independent_of_ell(self):
        m1 = as_dict(marginal(measurement_distribution(run_pipeline(INST_15_7, ell=1)), (1,)))
        m2 = as_dict(marginal(measurement_distribution(run_pipeline(INST_15_7, ell=2)), (1,)))
        worst = max(abs(m1.get(o, 0.0) - m2.get(o, 0.0)) for o in m1.keys() | m2.keys())
        assert worst <= 1e-12

    def test_distribution_normalized(self):
        dist = measurement_distribution(run_pipeline(INST_21_2, ell=1))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("inst", [INST_15_7, INST_21_2])
    def test_backend_equivalence(self, inst):
        expected = np.abs(oracles.final_state(inst.n, inst.x)) ** 2
        for backend in (DENSE, SPARSE):
            dist = measurement_distribution(run_pipeline(inst, ell=1, backend=backend))
            assert oracles.total_variation(expected, dist) <= 1e-12


class TestLinearity:
    def test_single_branch(self):
        report = linearity_check(INST_15_7, [0])
        assert report.max_discrepancy == 0.0
        assert [(c.name, c.passed) for c in report.checks] == [
            ("fanout_linearity_discrepancy", True)
        ]

    def test_full_range(self):
        report = linearity_check(INST_15_7, range(256))
        assert report.max_discrepancy <= 1e-12

    def test_two_branches(self):
        report = linearity_check(INST_15_7, [3, 200])
        assert report.max_discrepancy <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            linearity_check(INST_15_7, [256])
        with pytest.raises(ValueError):
            linearity_check(INST_15_7, [])
