import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shorsim

from shorsim.errors import CapacityError, NotCoprimeError, RangeError
from shorsim.pipeline import apply_modexp_fanout, init_uniform, run_pipeline
from shorsim.registers import (
    DENSE,
    SPARSE,
    ProblemInstance,
    RegisterLayout,
    StateVector,
    choose_modulus_power,
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
        # Sparse storage keeps the order given and drops the amplitude at the floor.
        sparse = StateVector.from_arrays(layout, SPARSE, index, amps)
        assert list(sparse.nonzero_items()) == [(5, 0.6 + 0j), (3, 0.8j)]
        dense = StateVector.from_arrays(layout, DENSE, index, amps)
        assert list(dense.nonzero_items()) == [(1, 1e-16 + 0j), (3, 0.8j), (5, 0.6 + 0j)]

    def test_zeros_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            StateVector.zeros(RegisterLayout(s=2, L=1, ell=1), "foo")

    def test_pre_transform_support_counts(self):
        inst = ProblemInstance.create(15, 7)
        state = apply_modexp_fanout(init_uniform(inst, ell=2, backend=DENSE), inst)
        assert state.data.size == 65536
        assert state.nonzero_count() == 256
        magnitudes = {abs(amp) for _, amp in state.nonzero_items()}
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
        for index, amp in state.nonzero_items():
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

    def test_valid_hand_written_snapshot_loads(self, tmp_path):
        state = self._load(tmp_path, SPARSE, ["1 0.6 0", "6 0 0.8"])
        assert state.amplitude(6) == 0.8j
        assert state.nonzero_count() == 2


def test_only_registers_touches_state_storage():
    # The storage format (flat array or dict) is known to registers.py alone;
    # every other module goes through nonzero_arrays / from_arrays.
    offenders = []
    for path in sorted(Path(shorsim.__file__).parent.glob("*.py")):
        if path.name == "registers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "data":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
