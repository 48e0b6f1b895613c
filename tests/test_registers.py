import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shorsim

from shorsim.distributions import analytic_joint_probability, measurement_distribution
from shorsim.errors import CapacityError, NotCoprimeError, RangeError
from shorsim.numtheory import mod_pow, multiplicative_order
from shorsim.pipeline import apply_modexp_fanout, init_uniform, run_pipeline
from shorsim.registers import (
    DENSE,
    SPARSE,
    ProblemInstance,
    RegisterLayout,
    StateVector,
    choose_modulus_power,
)


def _closed_form_miss(inst, state):
    """Largest |p_simulated - p_analytic| over the outcomes of `state`."""
    r = multiplicative_order(inst.x, inst.n)
    exponent = {mod_pow(inst.x, k, inst.n): k for k in range(r)}
    dist = measurement_distribution(state)
    return max(
        abs(p - analytic_joint_probability(inst, r, c, exponent[ys[0]]))
        for (c, *ys), p in zip(dist.outcome_tuples(), dist.probs.tolist())
    )


class TestChooseModulusPower:
    def test_examples(self):
        assert choose_modulus_power(15) == (256, 8)
        assert choose_modulus_power(21) == (512, 9)
        assert choose_modulus_power(35) == (2048, 11)

    def test_window_invariant(self):
        for n in range(3, 500):
            q, s = choose_modulus_power(n)
            assert q == 1 << s
            assert n * n <= q < 2 * n * n


class TestProblemInstance:
    def test_create(self):
        inst = ProblemInstance.create(15, 7)
        assert (inst.q, inst.s) == (256, 8)
        assert inst.function_register_width == 4

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            ProblemInstance.create(15, 1)
        with pytest.raises(ValueError):
            ProblemInstance.create(15, 15)
        with pytest.raises(NotCoprimeError):
            ProblemInstance.create(15, 6)

    def test_rejects_inconsistent_q(self):
        with pytest.raises(ValueError):
            ProblemInstance(n=15, x=7, q=255, s=8)
        with pytest.raises(ValueError):
            ProblemInstance(n=15, x=7, q=128, s=7)


class TestPacking:
    def test_examples(self):
        layout2 = RegisterLayout(s=8, L=4, ell=2)
        assert layout2.pack_index(0, [0, 0]) == 0
        layout1 = RegisterLayout(s=8, L=4, ell=1)
        assert layout1.pack_index(1, [0]) == 16
        assert layout2.pack_index(3, [7, 2]) == 3 * 256 + 7 * 16 + 2

    def test_range_errors(self):
        layout = RegisterLayout(s=4, L=3, ell=2)
        with pytest.raises(RangeError):
            layout.pack_index(16, [0, 0])
        with pytest.raises(RangeError):
            layout.pack_index(0, [8, 0])
        with pytest.raises(RangeError):
            layout.pack_index(0, [0])
        with pytest.raises(RangeError):
            layout.unpack_index(layout.dim)

    @given(st.integers(min_value=0, max_value=(1 << 14) - 1))
    def test_round_trip(self, index):
        layout = RegisterLayout(s=6, L=4, ell=2)
        a, ys = layout.unpack_index(index)
        assert layout.pack_index(a, ys) == index

    def test_round_trip_exhaustive_small(self):
        layout = RegisterLayout(s=3, L=2, ell=2)
        seen = set()
        for index in range(layout.dim):
            a, ys = layout.unpack_index(index)
            assert layout.pack_index(a, ys) == index
            seen.add((a, ys))
        assert len(seen) == layout.dim


class TestCapacity:
    def test_layout_cap(self):
        layout = RegisterLayout(s=20, L=4, ell=2)  # 28 qubits > default 26
        with pytest.raises(CapacityError):
            StateVector.zeros(layout, DENSE)
        sparse = StateVector(layout, SPARSE, {0: 1.0 + 0j})
        with pytest.raises(CapacityError):
            sparse.densify()

    def test_cap_override(self):
        layout = RegisterLayout(s=20, L=4, ell=2, qubit_cap=28)
        assert layout.total_qubits == 28

    def test_sparse_layout_counts_one_function_register(self):
        # A sparse state holds at most q * 2**L entries: s + L = 24 qubits.
        layout = RegisterLayout(s=20, L=4, ell=2)
        assert StateVector.zeros(layout, SPARSE).nonzero_count() == 0

    def test_sparse_state_over_cap(self):
        layout = RegisterLayout(s=20, L=7, ell=1)  # s + L = 27 > default 26
        with pytest.raises(CapacityError):
            StateVector.zeros(layout, SPARSE)
        raised = RegisterLayout(s=20, L=7, ell=1, qubit_cap=27)
        assert StateVector.zeros(raised, SPARSE).nonzero_count() == 0

    def test_packed_index_must_fit_int64(self):
        with pytest.raises(CapacityError):
            RegisterLayout(s=11, L=6, ell=9)  # 65 bits


class TestStateVector:
    def test_norms(self):
        inst = ProblemInstance.create(15, 7)
        state = init_uniform(inst, ell=1, backend=SPARSE)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)
        zeros = StateVector.zeros(inst.layout(1), SPARSE)
        assert zeros.norm_squared() == 0.0

    def test_dense_sparse_norm_agree(self):
        inst = ProblemInstance.create(21, 2)
        dense = run_pipeline(inst, ell=1, backend=DENSE)
        sparse = run_pipeline(inst, ell=1, backend=SPARSE)
        assert abs(dense.norm_squared() - sparse.norm_squared()) <= 1e-12
        assert abs(dense.norm_squared() - 1.0) <= 1e-12

    def test_densify_basis_state(self):
        layout = RegisterLayout(s=2, L=1, ell=1)
        sparse = StateVector(layout, SPARSE, {0: 1.0 + 0j})
        dense = sparse.densify()
        expected = np.zeros(8, dtype=np.complex128)
        expected[0] = 1.0
        assert np.array_equal(dense.data, expected)

    def test_densify_sparsify_round_trip(self):
        rng = np.random.default_rng(3)
        layout = RegisterLayout(s=4, L=2, ell=1)
        amplitudes = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        amplitudes /= np.linalg.norm(amplitudes)
        dense = StateVector(layout, DENSE, amplitudes.astype(np.complex128))
        back = dense.sparsify().densify()
        assert np.max(np.abs(back.data - dense.data)) <= 1e-15

    def test_from_arrays(self):
        layout = RegisterLayout(s=2, L=1, ell=1)
        index = np.array([5, 1, 3], dtype=np.int64)
        amps = np.array([0.6, 1e-16, 0.8j], dtype=np.complex128)
        # Both backends read back ascending; sparse storage drops the amplitude at the floor.
        sparse = StateVector.from_arrays(layout, SPARSE, index, amps)
        assert [a.tolist() for a in sparse.nonzero_arrays()] == [[3, 5], [0.8j, 0.6 + 0j]]
        dense = StateVector.from_arrays(layout, DENSE, index, amps)
        assert [a.tolist() for a in dense.nonzero_arrays()] == [
            [1, 3, 5], [1e-16 + 0j, 0.8j, 0.6 + 0j]
        ]
        for state in (sparse, dense):
            assert state.amplitude(3) == 0.8j
            assert state.amplitude(4) == 0
        # A repeated index is refused, not resolved to one of its amplitudes.
        for backend in (SPARSE, DENSE):
            with pytest.raises(ValueError, match="repeats an index"):
                StateVector.from_arrays(layout, backend, [3, 3], [0.6, 0.8])

    def test_sparse_data_written_out_of_order_reads_ascending(self):
        inst = ProblemInstance.create(15, 7)
        state = run_pipeline(inst, ell=2)
        # A sparse state hands out its one stored pair, which nobody may write.
        index, amps = state.nonzero_arrays()
        again = state.nonzero_arrays()
        assert again[0] is index and again[1] is amps
        for array in (index, amps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert _closed_form_miss(inst, state) <= 1e-12

        # A fault injected into a stage can rewrite `data` in any order;
        # readers still see the entries ascending.
        items = reversed(state.data.items())
        faulty = StateVector(state.layout, SPARSE, {i ^ 1: v for i, v in items})
        assert list(faulty.data) != sorted(faulty.data)
        index, amps = faulty.nonzero_arrays()
        assert np.all(np.diff(index) > 0)
        assert list(zip(index.tolist(), amps.tolist())) == sorted(faulty.data.items())

        # The benchmark's transform fault edits `data` in place: scale the
        # column of the first entry, then renormalise. The edits stick, so the
        # distribution misses the closed form.
        out = state
        right = out.layout.right_dim
        column = next(iter(out.data)) % right
        for index in out.data:
            if index % right == column:
                out.data[index] *= 1.01
        norm = sum(abs(v) ** 2 for v in out.data.values()) ** 0.5
        for index in out.data:
            out.data[index] /= norm
        assert _closed_form_miss(inst, out) > 1e-12

    def test_zeros_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            StateVector.zeros(RegisterLayout(s=2, L=1, ell=1), "foo")

    def test_pre_transform_support_counts(self):
        inst = ProblemInstance.create(15, 7)
        state = apply_modexp_fanout(init_uniform(inst, ell=2, backend=DENSE), inst)
        assert state.data.size == 65536
        assert state.nonzero_count() == 256
        magnitudes = set(np.abs(state.nonzero_arrays()[1]).tolist())
        assert all(abs(m - 1 / 16) <= 1e-15 for m in magnitudes)


class TestSnapshots:
    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_round_trip(self, tmp_path, backend):
        inst = ProblemInstance.create(15, 7)
        state = run_pipeline(inst, ell=1, backend=backend)
        path = tmp_path / "state.txt"
        state.dump(path)
        loaded = StateVector.load(path)
        assert loaded.backend == backend
        assert loaded.layout.s == state.layout.s
        assert loaded.layout.L == state.layout.L
        assert loaded.layout.ell == state.layout.ell
        for index, amp in zip(*(a.tolist() for a in state.nonzero_arrays())):
            assert loaded.amplitude(index) == pytest.approx(amp, abs=1e-16)
        assert loaded.nonzero_count() == state.nonzero_count()

    def test_unknown_backend_in_header_is_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("4 4 1 fooback\n0 1 0\n")
        with pytest.raises(ValueError, match="unknown backend"):
            StateVector.load(path)

    # A snapshot is input from outside the program; each defect below is on
    # a layout of 2**(2 + 1) = 8 amplitudes and is the only defect in its file.
    @staticmethod
    def _load(tmp_path, backend, lines):
        path = tmp_path / "state.txt"
        path.write_text("\n".join([f"2 1 1 {backend}", *lines]) + "\n")
        return StateVector.load(path)

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("index", [999, 8, -3])
    def test_index_outside_layout_is_rejected(self, tmp_path, backend, index):
        with pytest.raises(ValueError, match="outside"):
            self._load(tmp_path, backend, [f"{index} 1 0"])

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_duplicate_index_is_rejected(self, tmp_path, backend):
        with pytest.raises(ValueError, match="repeats"):
            self._load(tmp_path, backend, ["3 0.6 0", "3 0.8 0"])

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_is_rejected(self, tmp_path, backend, value):
        with pytest.raises(ValueError, match="non-finite"):
            self._load(tmp_path, backend, ["0 1 0", f"1 0 {value}"])

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("lines", [["0 0.5 0"], ["0 1 0", "5 1e-6 0"], []])
    def test_norm_off_one_is_rejected(self, tmp_path, backend, lines):
        with pytest.raises(ValueError, match="norm"):
            self._load(tmp_path, backend, lines)

    def test_cap_below_the_header_layout_is_refused(self, tmp_path):
        # 2**(3 + 2*1) = 32 dense amplitudes against a cap of 2**4.
        path = tmp_path / "state.txt"
        path.write_text("3 2 1 dense\n0 1 0\n")
        with pytest.raises(CapacityError):
            StateVector.load(path, qubit_cap=4)
        assert StateVector.load(path, qubit_cap=5).layout.qubit_cap == 5

    def test_capacity_is_refused_before_the_body_is_read(self, tmp_path):
        # 2**(30 + 4) dense amplitudes; the line after the header is never parsed.
        path = tmp_path / "state.txt"
        path.write_text("30 4 1 dense\nzero 1 0\n")
        with pytest.raises(CapacityError):
            StateVector.load(path)

    def test_valid_hand_written_snapshot_loads(self, tmp_path):
        state = self._load(tmp_path, SPARSE, ["1 0.6 0", "6 0 0.8"])
        assert state.amplitude(6) == 0.8j
        assert state.nonzero_count() == 2


def test_only_registers_touches_state_storage():
    # The storage format (a flat array, or the ascending (index, amps) pair
    # with its on-demand dict view `data`) and the choice between the two
    # are known to registers.py alone: every other module goes through
    # nonzero_arrays / from_arrays, passes a backend on without comparing it,
    # and never converts a state to the other storage.
    storage_attrs = {"data", "densify", "sparsify", "control_matrix"}
    offenders = []
    for path in sorted(Path(shorsim.__file__).parent.glob("*.py")):
        if path.name == "registers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in storage_attrs:
                offenders.append(f"{path.name}:{node.lineno}:{node.attr}")
            elif isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "backend"
                for sub in ast.walk(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}:backend comparison")
    assert offenders == []
