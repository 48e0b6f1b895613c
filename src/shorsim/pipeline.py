"""Circuit stages: uniform initialization, modular-exponentiation fan-out,
Fourier transform on the control register, and the composed pipeline.

The fan-out is applied as a basis-state permutation on the support using
classical modular exponentiation, which is the mathematically defined map of
the stage; no reversible gate synthesis is attempted. The Fourier transform
uses the exp(+2*pi*i*a*c/q) convention throughout.

Two transform implementations exist: the defining sum evaluated column by
column with an FFT (default) and a gate-level decomposition into Hadamard
stages, conditional phase rotations, and a bit-order reversal, kept as an
independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import StageOrderError
from .numtheory import mod_pow
from .registers import (
    DEFAULT_QUBIT_CAP,
    DENSE,
    SPARSE,
    SPARSE_AMPLITUDE_FLOOR,
    ProblemInstance,
    RegisterLayout,
    StateVector,
)

QFT_DIRECT = "direct"
QFT_GATES = "gates"


def init_uniform(
    instance: ProblemInstance,
    ell: int = 1,
    backend: str = SPARSE,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Uniform superposition over the control register, function registers zeroed."""
    layout = instance.layout(ell=ell, qubit_cap=qubit_cap)
    q = layout.q
    amp = 1.0 / np.sqrt(q)
    state = StateVector.zeros(layout, backend)
    if backend == DENSE:
        mat = state.data.reshape(q, layout.right_dim)
        mat[:, 0] = amp
    else:
        right = layout.right_dim
        state.data.update({a * right: complex(amp) for a in range(q)})
    return state


def _repeated_function_value(layout: RegisterLayout, y: int) -> int:
    """Packed function-register content with every register holding y."""
    packed = 0
    for _ in range(layout.ell):
        packed = (packed << layout.L) | y
    return packed


def apply_modexp_fanout(state: StateVector, instance: ProblemInstance) -> StateVector:
    """Write x^a mod n into every function register, keyed by the control value a.

    Precondition: every nonzero amplitude has all function registers zero.
    The map is a permutation of basis states on the support, so magnitudes
    are unchanged.
    """
    layout = state.layout
    right = layout.right_dim
    out = StateVector.zeros(layout, state.backend)
    if state.backend == DENSE:
        mat = state.data.reshape(layout.q, right)
        if np.any(mat[:, 1:]):
            raise StageOrderError("fan-out requires zeroed function registers")
        out_mat = out.data.reshape(layout.q, right)
        for a in np.nonzero(mat[:, 0])[0]:
            a = int(a)
            y = mod_pow(instance.x, a, instance.n)
            out_mat[a, _repeated_function_value(layout, y)] = mat[a, 0]
    else:
        for index, amp in state.data.items():
            if index % right != 0:
                raise StageOrderError("fan-out requires zeroed function registers")
            a = index // right
            y = mod_pow(instance.x, a, instance.n)
            out.data[a * right + _repeated_function_value(layout, y)] = amp
    return out


def _transform_groups_sparse(state: StateVector) -> StateVector:
    layout = state.layout
    q, right = layout.q, layout.right_dim
    index, amps = state.nonzero_arrays()
    ykeys = index % right
    out = StateVector.zeros(layout, SPARSE)
    # Not np.unique: its first call imports numpy.ma, about 15 ms of start-up.
    for ykey in sorted(set(ykeys.tolist())):
        in_column = ykeys == ykey
        column = _kernels.dft_support(index[in_column] // right, amps[in_column], q)
        cs = np.flatnonzero(np.abs(column) > SPARSE_AMPLITUDE_FLOOR)
        out.data.update(zip((cs * right + ykey).tolist(), column[cs].tolist()))
    return out


def _transform_columns_dense(state: StateVector) -> StateVector:
    layout = state.layout
    q, right = layout.q, layout.right_dim
    mat = state.data.reshape(q, right)
    out = StateVector.zeros(layout, DENSE)
    out_mat = out.data.reshape(q, right)
    for col in range(right):
        support = np.nonzero(mat[:, col])[0].astype(np.int64)
        if support.size == 0:
            continue
        amps = np.ascontiguousarray(mat[support, col])
        out_mat[:, col] = _kernels.dft_support(support, amps, q)
    return out


def apply_qft_register1_direct(state: StateVector) -> StateVector:
    """Fourier transform on the control register, evaluating the defining sum
    for each function-register column with an FFT.

    For each fixed function-register content Y,
    new[(c, Y)] = (1/sqrt(q)) * sum_a exp(2*pi*i*a*c/q) * old[(a, Y)].
    """
    if state.backend == SPARSE:
        return _transform_groups_sparse(state)
    return _transform_columns_dense(state)


def apply_qft_register1_gates(state: StateVector) -> StateVector:
    """Same transform via the gate decomposition (cross-check path).

    Uses s Hadamard stages, s*(s-1)/2 conditional phase rotations, and a
    final bit-order reversal on the control register. Sparse inputs are
    densified for the duration and re-sparsified afterwards.
    """
    layout = state.layout
    dense = state.densify()
    mat = dense.data.reshape(layout.q, layout.right_dim)
    transformed = _kernels.qft_gates(mat, layout.s)
    result = StateVector(layout, DENSE, transformed.reshape(layout.dim))
    if state.backend == SPARSE:
        return result.sparsify()
    return result


def run_pipeline(
    instance: ProblemInstance,
    ell: int = 1,
    backend: str = SPARSE,
    qft: str = QFT_DIRECT,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Initialization, fan-out, then the chosen Fourier transform."""
    state = init_uniform(instance, ell=ell, backend=backend, qubit_cap=qubit_cap)
    state = apply_modexp_fanout(state, instance)
    if qft == QFT_DIRECT:
        return apply_qft_register1_direct(state)
    if qft == QFT_GATES:
        return apply_qft_register1_gates(state)
    raise ValueError(f"unknown qft implementation {qft!r}")


def pre_measurement_states(
    instance: ProblemInstance,
    ell: int = 1,
    backend: str = SPARSE,
    qft: str = QFT_DIRECT,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[StateVector, StateVector]:
    """(state before the transform, state after it); used by the diagnostics."""
    state = init_uniform(instance, ell=ell, backend=backend, qubit_cap=qubit_cap)
    state = apply_modexp_fanout(state, instance)
    if qft == QFT_DIRECT:
        return state, apply_qft_register1_direct(state)
    return state, apply_qft_register1_gates(state)


@dataclass(frozen=True)
class LinearityReport:
    """Comparison of the fan-out applied to a superposition against the
    per-basis-state map assembled term by term."""

    n: int
    x: int
    q: int
    sample_count: int
    max_discrepancy: float
    tolerance: float = 1e-12

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance


def linearity_check(
    instance: ProblemInstance,
    sample_as: Sequence[int] | Iterable[int],
    ell: int = 1,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> LinearityReport:
    """Check that the fan-out acts linearly on a restricted superposition."""
    sample_as = sorted(set(int(a) for a in sample_as))
    if not sample_as:
        raise ValueError("need at least one control value")
    layout = instance.layout(ell=ell, qubit_cap=qubit_cap)
    if sample_as[0] < 0 or sample_as[-1] >= layout.q:
        raise ValueError("control values must lie in [0, q)")
    right = layout.right_dim
    amp = 1.0 / np.sqrt(len(sample_as))

    superposed = StateVector(
        layout, SPARSE, {a * right: complex(amp) for a in sample_as}
    )
    fanned = apply_modexp_fanout(superposed, instance)

    assembled: dict[int, complex] = {}
    for a in sample_as:
        basis = StateVector(layout, SPARSE, {a * right: 1.0 + 0.0j})
        mapped = apply_modexp_fanout(basis, instance)
        for index, value in mapped.data.items():
            assembled[index] = assembled.get(index, 0.0) + amp * value

    indices = set(fanned.data) | set(assembled)
    worst = max(
        abs(fanned.data.get(i, 0.0) - assembled.get(i, 0.0)) for i in indices
    )
    return LinearityReport(
        n=instance.n,
        x=instance.x,
        q=instance.q,
        sample_count=len(sample_as),
        max_discrepancy=float(worst),
    )
