import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shorsim
from oracles import scatter
from shorsim import registers
from tracing import traced_peak

from shorsim.distributions import analytic_joint_probability, measurement_distribution
from shorsim.errors import CapacityError, NotCoprimeError
from shorsim.numtheory import multiplicative_order
from shorsim.pipeline import apply_modexp_fanout, init_uniform, run_pipeline
from shorsim.registers import (
    DENSE,
    SPARSE,
    SPARSE_AMPLITUDE_FLOOR,
    ProblemInstance,
    RegisterLayout,
    StateVector,
    choose_modulus_power,
    max_abs_difference,
)


def _amplitude(state, index):
    """The amplitude a state holds at one packed index, 0 where it stores none."""
    stored, amps = state.nonzero_arrays()
    k = int(np.searchsorted(stored, index))
    return complex(amps[k]) if k < stored.size and stored[k] == index else 0j


def _norm_squared(state):
    amps = state.nonzero_arrays()[1]
    return float(np.vdot(amps, amps).real)


def _empty(layout, backend):
    """A state that stores no amplitude."""
    return StateVector.from_arrays(
        layout, backend, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128)
    )


def _closed_form_miss(inst, state):
    """Largest |p_simulated - p_analytic| over the outcomes of `state`."""
    r = multiplicative_order(inst.x, inst.n)
    exponent = {pow(inst.x, k, inst.n): k for k in range(r)}
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

    def test_q_is_the_power_of_two_in_n_squared_to_twice_that(self):
        for n in range(3, 300, 2):
            inst = ProblemInstance.create(n, 2)
            assert inst.q == 1 << inst.s
            assert n * n <= inst.q < 2 * n * n

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            ProblemInstance.create(15, 1)
        with pytest.raises(ValueError):
            ProblemInstance.create(15, 15)
        with pytest.raises(NotCoprimeError):
            ProblemInstance.create(15, 6)


class TestCapacity:
    def test_layout_cap(self):
        # One rule on both backends, s + L qubits whatever ell is: 20 + 2*4 =
        # 28 qubits as a flat vector, above the default 26, is within it.
        layout = RegisterLayout(s=20, L=4, ell=2)
        assert _empty(layout, DENSE).nonzero_count() == 0
        assert StateVector(layout, SPARSE, {0: 1.0 + 0j}).densify().nonzero_count() == 1
        over = RegisterLayout(s=20, L=7, ell=1)  # s + L = 27 > default 26
        with pytest.raises(CapacityError, match=r"dense state needs up to 2\^27 amplitudes"):
            _empty(over, DENSE)
        sparse = StateVector(over, SPARSE, {0: 1.0 + 0j})
        with pytest.raises(CapacityError):
            sparse.densify()

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_more_entries_than_the_cap_are_refused_before_copying(self, backend):
        # s + L = 3 qubits fit a cap of 2**3; nine entries do not.
        layout = RegisterLayout(s=2, L=1, ell=3, qubit_cap=3)

        class Uncopyable:
            def __len__(self):
                return 9

            def __array__(self, *args, **kwargs):
                raise AssertionError("from_arrays copied the entries")

        with pytest.raises(CapacityError):
            StateVector.from_arrays(layout, backend, Uncopyable(), Uncopyable())
        state = StateVector.from_arrays(layout, backend, np.arange(8), np.full(8, 8**-0.5))
        assert state.nonzero_count() == 8

    def test_cap_override(self):
        layout = RegisterLayout(s=20, L=4, ell=2, qubit_cap=28)
        assert layout.total_qubits == 28

    def test_sparse_layout_counts_one_function_register(self):
        # A sparse state holds at most q * 2**L entries: s + L = 24 qubits.
        layout = RegisterLayout(s=20, L=4, ell=2)
        assert _empty(layout, SPARSE).nonzero_count() == 0

    def test_sparse_state_over_cap(self):
        layout = RegisterLayout(s=20, L=7, ell=1)  # s + L = 27 > default 26
        with pytest.raises(CapacityError):
            _empty(layout, SPARSE)
        raised = RegisterLayout(s=20, L=7, ell=1, qubit_cap=27)
        assert _empty(raised, SPARSE).nonzero_count() == 0

    def test_packed_index_must_fit_int64(self):
        with pytest.raises(CapacityError):
            RegisterLayout(s=11, L=6, ell=9)  # 65 bits


class TestStateVector:
    def test_norms(self):
        inst = ProblemInstance.create(15, 7)
        state = init_uniform(inst, ell=1, backend=SPARSE)
        assert _norm_squared(state) == pytest.approx(1.0, abs=1e-12)
        zeros = _empty(inst.layout(1), SPARSE)
        assert _norm_squared(zeros) == 0.0

    def test_dense_sparse_norm_agree(self):
        inst = ProblemInstance.create(21, 2)
        dense = run_pipeline(inst, ell=1, backend=DENSE)
        sparse = run_pipeline(inst, ell=1, backend=SPARSE)
        assert abs(_norm_squared(dense) - _norm_squared(sparse)) <= 1e-12
        assert abs(_norm_squared(dense) - 1.0) <= 1e-12

    def test_densify_basis_state(self):
        layout = RegisterLayout(s=2, L=1, ell=1)
        sparse = StateVector(layout, SPARSE, {0: 1.0 + 0j})
        dense = sparse.densify()
        expected = np.zeros(8, dtype=np.complex128)
        expected[0] = 1.0
        assert np.array_equal(scatter(dense), expected)

    def test_densify_sparsify_round_trip(self):
        rng = np.random.default_rng(3)
        layout = RegisterLayout(s=4, L=2, ell=1)
        amplitudes = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        amplitudes /= np.linalg.norm(amplitudes)
        dense = StateVector.from_arrays(layout, DENSE, np.arange(layout.dim), amplitudes)
        back = dense.sparsify().densify()
        assert np.max(np.abs(scatter(back) - scatter(dense))) <= 1e-15

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
            assert _amplitude(state, 3) == 0.8j
            assert _amplitude(state, 4) == 0
        # A repeated index is refused, not resolved to one of its amplitudes.
        for backend in (SPARSE, DENSE):
            with pytest.raises(ValueError, match="repeats an index"):
                StateVector.from_arrays(layout, backend, [3, 3], [0.6, 0.8])

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_from_arrays_keeps_what_it_drops_nothing_from(self, backend):
        layout = RegisterLayout(s=2, L=1, ell=1)
        index = np.array([1, 3, 5], dtype=np.int64)
        amps = np.array([0.6, 0.8j, 1e-3], dtype=np.complex128)
        state = StateVector.from_arrays(layout, backend, index, amps)
        held_index, held_amps = state.nonzero_arrays()
        assert held_index is index and held_amps is amps
        assert not index.flags.writeable and not amps.flags.writeable

    @pytest.mark.parametrize(
        "backend, dropped", [(DENSE, 0.0), (SPARSE, 0.0), (SPARSE, 1e-16)]
    )
    def test_from_arrays_copies_where_it_drops(self, backend, dropped):
        layout = RegisterLayout(s=2, L=1, ell=1)
        index = np.array([1, 3, 5], dtype=np.int64)
        amps = np.array([0.6, dropped, 0.8j], dtype=np.complex128)
        state = StateVector.from_arrays(layout, backend, index, amps)
        held_index, held_amps = state.nonzero_arrays()
        assert held_index.tolist() == [1, 5] and held_amps.tolist() == [0.6, 0.8j]
        assert not np.shares_memory(held_index, index)
        assert not np.shares_memory(held_amps, amps)
        assert index.tolist() == [1, 3, 5] and amps.tolist() == [0.6, dropped, 0.8j]
        assert index.flags.writeable and amps.flags.writeable

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_from_arrays_sorts_a_copy(self, backend):
        layout = RegisterLayout(s=2, L=1, ell=1)
        index = np.array([5, 1, 3], dtype=np.int64)
        amps = np.array([0.6, 0.8j, 1e-3], dtype=np.complex128)
        state = StateVector.from_arrays(layout, backend, index, amps)
        held_index, held_amps = state.nonzero_arrays()
        assert held_index.tolist() == [1, 3, 5] and held_amps.tolist() == [0.8j, 1e-3, 0.6]
        assert not np.shares_memory(held_index, index)
        assert not np.shares_memory(held_amps, amps)
        assert index.tolist() == [5, 1, 3] and amps.tolist() == [0.6, 0.8j, 1e-3]
        assert index.flags.writeable and amps.flags.writeable

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("index", [[-1], [0, -1], [8], [3, 8], [1 << 40]])
    def test_from_arrays_refuses_an_index_outside_the_layout(self, backend, index):
        # 2**(2 + 1) = 8 amplitudes: -1 would wrap to the last one in a flat
        # array, 8 would be past its end.
        layout = RegisterLayout(s=2, L=1, ell=1)
        amps = np.full(len(index), 0.5)
        with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
            StateVector.from_arrays(layout, backend, index, amps)

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_from_arrays_refuses_a_non_finite_amplitude(self, backend, bad):
        layout = RegisterLayout(s=2, L=1, ell=1)
        with pytest.raises(ValueError, match="non-finite"):
            StateVector.from_arrays(layout, backend, [1, 6], [0.6, bad])

    @pytest.mark.parametrize(
        "index, amps",
        [
            ([0, 1, 2], [1.0]),
            ([0], [0.6, 0.8]),
            (np.array([[1], [5]]), [0.6, 0.8]),
            ([[1, 5]], [[0.6, 0.8]]),
        ],
    )
    def test_from_arrays_refuses_arrays_not_1d_of_one_length(self, index, amps):
        layout = RegisterLayout(s=2, L=1, ell=1)
        with pytest.raises(ValueError, match="1-D index and amplitude arrays of one length"):
            StateVector.from_arrays(layout, SPARSE, index, amps)

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("index", [-1, 8, 1 << 40])
    def test_a_dict_index_outside_the_layout_is_refused_at_reading(self, backend, index):
        # 8 amplitudes: index 8 was stored, and measured as outcome (0, 0).
        layout = RegisterLayout(s=2, L=1, ell=1)
        built = StateVector(layout, backend, {index: 1.0})
        edited = StateVector.from_arrays(layout, backend, [1], [1.0])
        edited.data[index] = 0.0
        for state in (built, edited):
            with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
                state.nonzero_arrays()
            with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
                measurement_distribution(state)

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_a_non_finite_dict_entry_is_refused_at_reading(self, backend, bad):
        layout = RegisterLayout(s=2, L=1, ell=1)
        built = StateVector(layout, backend, {1: 0.6, 6: bad})
        edited = StateVector.from_arrays(layout, backend, [1, 6], [0.6, 0.8])
        edited.data[6] = bad
        for state in (built, edited):
            with pytest.raises(ValueError, match="non-finite"):
                state.nonzero_arrays()

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_a_dict_over_the_cap_is_refused_at_reading(self, backend):
        # s + L = 3 qubits fit a cap of 2**3; nine entries do not, nor does
        # any state on the same layout under a cap of 2**2.
        entries = {i: 1 / 3 for i in range(9)}
        over = StateVector(RegisterLayout(s=2, L=1, ell=3, qubit_cap=3), backend, entries)
        with pytest.raises(CapacityError):
            over.nonzero_arrays()
        small_cap = RegisterLayout(s=2, L=1, ell=1, qubit_cap=2)
        with pytest.raises(CapacityError):
            StateVector(small_cap, backend, {i: 8**-0.5 for i in range(8)}).nonzero_arrays()

    def test_sparse_dict_entries_at_the_floor_are_dropped_on_reading(self):
        layout = RegisterLayout(s=2, L=1, ell=1)
        entries = {5: 0.6, 1: SPARSE_AMPLITUDE_FLOOR, 3: 1e-30j, 6: 0.8}
        sparse = StateVector(layout, SPARSE, dict(entries))
        assert [a.tolist() for a in sparse.nonzero_arrays()] == [[5, 6], [0.6, 0.8]]
        # The dict keeps what the read drops; dense storage keeps all four.
        assert sparse.data == entries
        dense = StateVector(layout, DENSE, dict(entries))
        assert dense.nonzero_arrays()[0].tolist() == [1, 3, 5, 6]

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
        # readers still see the entries ascending. Measuring consumed the
        # state above, so the faults edit a second run.
        state = run_pipeline(inst, ell=2)
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
            _empty(RegisterLayout(s=2, L=1, ell=1), "foo")

    def test_pre_transform_support_counts(self):
        inst = ProblemInstance.create(15, 7)
        state = apply_modexp_fanout(init_uniform(inst, ell=2, backend=DENSE), inst)
        assert scatter(state).size == 65536
        assert state.nonzero_count() == 256
        magnitudes = set(np.abs(state.nonzero_arrays()[1]).tolist())
        assert all(abs(m - 1 / 16) <= 1e-15 for m in magnitudes)

    def test_the_constructor_takes_a_dict_on_both_backends(self):
        layout = RegisterLayout(s=2, L=1, ell=1)
        for backend in (DENSE, SPARSE):
            state = StateVector(layout, backend, {5: 0.6 + 0j, 1: 0.8j})
            assert [a.tolist() for a in state.nonzero_arrays()] == [[1, 5], [0.8j, 0.6 + 0j]]
        with pytest.raises(ValueError, match="unknown backend"):
            StateVector(layout, "foo", {})

    def test_densify_of_a_dense_state_shares_its_pair(self):
        inst = ProblemInstance.create(15, 7)
        dense = run_pipeline(inst, ell=1, backend=DENSE)
        copy = dense.densify()
        # The copy holds the same read-only (index, amps) arrays, not copies of them.
        for mine, theirs in zip(copy.nonzero_arrays(), dense.nonzero_arrays()):
            assert mine is theirs

    def test_dense_data_is_the_dict_of_its_pair_built_once(self):
        inst = ProblemInstance.create(21, 2)
        state = run_pipeline(inst, ell=2, backend=DENSE)
        index, amps = state.nonzero_arrays()
        view = state.data
        assert view == dict(zip(index.tolist(), amps.tolist()))
        assert state.data is view
        # The dict is from then on the storage: an edit sticks.
        view[int(index[0])] = 0.5
        assert _amplitude(state, int(index[0])) == 0.5

    def test_dense_pipeline_never_allocates_the_flat_array(self):
        # n = 35, ell = 2 spans 2**(11 + 2*6) amplitudes, 134 MB as a flat
        # complex128 array; its support holds at most 2048 * 12 of them. numpy
        # reports its buffers to tracemalloc.
        _, peak = traced_peak(
            lambda: run_pipeline(ProblemInstance(35, 3), ell=2, backend=DENSE, qft="gates")
        )
        assert peak < 16 * 2**20


# Amplitudes a dense state may be handed: exact zeros of both signs, which it
# must not record, subnormals and values at or below the sparse floor, which it
# must, and ordinary values.
_DENSE_AMPLITUDE_PARTS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, SPARSE_AMPLITUDE_FLOOR, 1e-16, -0.25, 0.6]
) | st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_support_is_the_scan_of_its_array(data):
    layout = RegisterLayout(s=data.draw(st.integers(1, 4)), L=data.draw(st.integers(1, 3)), ell=1)
    index = data.draw(
        st.lists(st.integers(0, layout.dim - 1), unique=True, max_size=layout.dim), label="index"
    )
    amps = [
        complex(data.draw(_DENSE_AMPLITUDE_PARTS), data.draw(_DENSE_AMPLITUDE_PARTS))
        for _ in index
    ]
    index = np.array(index, dtype=np.int64)
    state = StateVector.from_arrays(layout, DENSE, index, amps)
    array = np.zeros(layout.dim, dtype=np.complex128)
    array[index] = amps
    support, values = state.nonzero_arrays()
    scanned = np.flatnonzero(array != 0)
    assert support.dtype == np.int64 and np.array_equal(support, scanned)
    assert values.tobytes() == array[scanned].tobytes()
    assert state.nonzero_count() == scanned.size
    assert not support.flags.writeable and not values.flags.writeable


def _column_matrix(case: str) -> np.ndarray:
    """An (8, 3) matrix for a (s=3, L=2) layout: random amplitudes with the
    cells of `case` replaced."""
    rng = np.random.default_rng(7)
    cols = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    flat = cols.reshape(-1)
    if case == "some_dropped":
        # Dropped on both backends, then below the sparse floor only.
        flat[[0, 4, 5, 11, 23]] = [0.0, -0.0, complex(0.0, -0.0), 0.0, 0.0]
        flat[[1, 12, 13]] = [1e-16, 1e-300j, SPARSE_AMPLITUDE_FLOOR]
    elif case == "all_but_one_dropped":
        kept = flat[14]
        flat[:] = 0.0
        flat[14] = kept
    elif case == "exact_zeros":
        # Dense keeps every nonzero cell, subnormals too, and drops exact zeros.
        flat[::2] = [0.0, -0.0, complex(-0.0, 0.0), 5e-324, 0.0, -5e-324j] * 2
    return cols


class TestFromColumns:
    """`from_columns` consumes a (q, m) matrix and builds, bit for bit, the
    state `from_arrays` builds from its packed indices and flattened cells."""

    LAYOUT = RegisterLayout(s=3, L=2, ell=1)
    YKEYS = np.array([0, 2, 3], dtype=np.int64)

    def expected(self, backend, cols):
        index = np.arange(self.LAYOUT.q)[:, None] * self.LAYOUT.right_dim + self.YKEYS
        return StateVector.from_arrays(self.LAYOUT, backend, index.ravel(), cols.ravel().copy())

    # Row blocks of one row (3 cells), of two rows, and of the whole matrix.
    @pytest.mark.parametrize("cells", [1, 6, registers.COMPACT_CELLS])
    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize(
        "case", ["nothing_dropped", "some_dropped", "all_but_one_dropped", "exact_zeros"]
    )
    def test_equals_from_arrays(self, monkeypatch, case, backend, cells):
        monkeypatch.setattr(registers, "COMPACT_CELLS", cells)
        cols = _column_matrix(case)
        expected = self.expected(backend, cols)
        state = StateVector.from_columns(self.LAYOUT, backend, self.YKEYS, cols)
        assert state.backend == backend
        for held, wanted in zip(state.nonzero_arrays(), expected.nonzero_arrays()):
            assert held.dtype == wanted.dtype and held.tobytes() == wanted.tobytes()
            assert not held.flags.writeable
            # No dropped tail: each array owns a buffer of its entries alone.
            assert held.base is None and held.flags.owndata
        if case == "nothing_dropped":
            assert state.nonzero_count() == cols.size

    def test_consumes_the_buffer_that_owns_the_matrix(self):
        # Both kernels return the owning (q, m) matrix they were handed.
        cols = _column_matrix("some_dropped")
        assert cols.flags.owndata
        state = StateVector.from_columns(self.LAYOUT, SPARSE, self.YKEYS, cols)
        assert state.nonzero_arrays()[1] is cols
        assert cols.shape == (state.nonzero_count(),)

    @pytest.mark.parametrize(
        "layout", ["fortran", "read_only", "part_of_a_wider_matrix", "reshaped_view"]
    )
    def test_copies_a_matrix_it_cannot_own(self, layout):
        matrix = _column_matrix("some_dropped")
        if layout == "fortran":
            cols = np.asfortranarray(matrix)
        elif layout == "read_only":
            cols = matrix.copy()
            cols.flags.writeable = False
        elif layout == "part_of_a_wider_matrix":
            cols = np.concatenate([matrix, matrix], axis=1)[:, :3]
        else:
            # A reshaped view of an owning buffer.
            cols = matrix.reshape(-1).copy().reshape(8, 3)
        before = cols.copy()
        state = StateVector.from_columns(self.LAYOUT, SPARSE, self.YKEYS, cols)
        assert np.array_equal(cols, before)
        expected = self.expected(SPARSE, matrix)
        for held, wanted in zip(state.nonzero_arrays(), expected.nonzero_arrays()):
            assert held.tobytes() == wanted.tobytes()

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    @pytest.mark.parametrize("cell", [0, 13, 23])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_refuses_a_non_finite_amplitude(self, monkeypatch, backend, cell, bad):
        monkeypatch.setattr(registers, "COMPACT_CELLS", 6)
        cols = _column_matrix("some_dropped")
        cols.reshape(-1)[cell] = bad
        with pytest.raises(ValueError, match="non-finite"):
            StateVector.from_columns(self.LAYOUT, backend, self.YKEYS, cols)

    @pytest.mark.parametrize(
        "ykeys, shape",
        [([0, 2, 3], (8, 2)), ([0, 2, 3], (4, 3)), ([0, 3, 2], (8, 3)), ([0, 2, 4], (8, 3)),
         ([-1, 2, 3], (8, 3)), ([2, 2, 3], (8, 3))],
    )
    def test_refuses_a_matrix_that_does_not_fit_the_keys(self, ykeys, shape):
        with pytest.raises(ValueError, match="column"):
            StateVector.from_columns(
                self.LAYOUT, SPARSE, np.array(ykeys), np.ones(shape, dtype=np.complex128)
            )


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
            assert _amplitude(loaded, index) == pytest.approx(amp, abs=1e-16)
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

    @pytest.mark.parametrize("backend", [DENSE, SPARSE])
    def test_more_lines_than_the_cap_are_refused(self, tmp_path, backend):
        # s + L = 3 qubits fit a cap of 2**3, but 32 unit-norm entries do not;
        # the lines after the ninth are never parsed.
        path = tmp_path / "state.txt"
        lines = [f"{i} {32 ** -0.5!r} 0" for i in range(32)]
        path.write_text("\n".join([f"2 1 3 {backend}", *lines]) + "\n")
        with pytest.raises(CapacityError):
            StateVector.load(path, qubit_cap=3)
        assert StateVector.load(path, qubit_cap=5).nonzero_count() == 32
        path.write_text("\n".join([f"2 1 3 {backend}", *lines[:9], "zero 1 0"]) + "\n")
        with pytest.raises(CapacityError):
            StateVector.load(path, qubit_cap=3)

    def test_valid_hand_written_snapshot_loads(self, tmp_path):
        state = self._load(tmp_path, SPARSE, ["1 0.6 0", "6 0 0.8"])
        assert _amplitude(state, 6) == 0.8j
        assert state.nonzero_count() == 2


def _table(keys, values, dtype=np.float64):
    return np.array(keys, dtype=np.int64), np.array(values, dtype=dtype)


class TestMaxAbsDifference:
    def test_shared_keys(self):
        a, b = _table([1, 4], [0.5, 0.25]), _table([1, 4], [0.5, 0.75])
        assert max_abs_difference(*a, *b) == 0.5

    def test_disjoint_keys_read_the_other_side_as_zero(self):
        assert max_abs_difference(*_table([2], [0.25]), *_table([3], [0.5])) == 0.5
        assert max_abs_difference(*_table([2], [0.5]), *_table([3], [0.25])) == 0.5

    def test_unsorted_or_repeated_keys_raise(self):
        good = _table([7, 9], [0.5, 0.125])
        for keys in ([9, 7], [7, 7]):
            bad = _table(keys, [0.25, 0.25])
            with pytest.raises(ValueError, match="ascend without repeats"):
                max_abs_difference(*bad, *good)
            with pytest.raises(ValueError, match="ascend without repeats"):
                max_abs_difference(*good, *bad)

    def test_an_empty_side(self):
        empty = _table([], [])
        assert max_abs_difference(*empty, *_table([5, 6], [-0.5, 0.25])) == 0.5
        assert max_abs_difference(*_table([5], [0.75]), *empty) == 0.75
        assert max_abs_difference(*empty, *empty) == 0.0

    def test_complex_values_compare_by_modulus(self):
        a = _table([0, 1], [0.6 + 0.8j, 1j], np.complex128)
        b = _table([0, 2], [0.0, 0.5], np.complex128)
        assert max_abs_difference(*a, *b) == 1.0
        assert max_abs_difference(*a, *a) == 0.0


def test_only_registers_touches_state_storage():
    # The storage format (the ascending (index, amps) pair, and the dict view
    # that `data` builds on demand) and the choice between the backends are
    # known to registers.py alone: every other module goes through
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
