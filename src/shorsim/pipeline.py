"""Circuit stages: uniform initialization, modular-exponentiation fan-out,
Fourier transform on the control register, and the composed pipeline.

Every stage reads its input with `StateVector.nonzero_arrays`, splits each
packed index into the control value and the function-register content with
`divmod(index, right_dim)`, and writes its output with
`StateVector.from_arrays`, so one code path serves both backends. Every stage
writes its packed indices in ascending order, the one order of every state.

The fan-out is applied as a basis-state permutation on the support using
classical modular exponentiation, which is the mathematically defined map of
the stage; no reversible gate synthesis is attempted. The Fourier transform
uses the exp(+2*pi*i*a*c/q) convention throughout.

Both transforms gather the occupied function-register columns into one
matrix, apply a kernel and scatter the result back; they differ only in the
kernel: the defining sum as one batched FFT (default), or the gate-level
circuit of Hadamard stages, conditional phase rotations and a bit-order
reversal, kept as an independent cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .checks import Check, check
from .errors import StageOrderError
from .numtheory import mod_pow_array
from .registers import (
    DEFAULT_QUBIT_CAP,
    SPARSE,
    ProblemInstance,
    RegisterLayout,
    StateVector,
    distinct_positions,
    max_abs_difference,
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
    # Refuse before allocating the q-entry arrays, not after (from_arrays checks too).
    layout.check_capacity(backend)
    q = layout.q
    index = np.arange(q, dtype=np.int64) * layout.right_dim
    amps = np.full(q, 1.0 / np.sqrt(q), dtype=np.complex128)
    return StateVector.from_arrays(layout, backend, index, amps)


def _repeated_function_value(layout: RegisterLayout, y: np.ndarray) -> np.ndarray:
    """Packed function-register contents with every register holding y."""
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
    index, amps = state.nonzero_arrays()
    a, ykey = np.divmod(index, layout.right_dim)
    if np.any(ykey):
        raise StageOrderError("fan-out requires zeroed function registers")
    y = mod_pow_array(instance.x, a, instance.n)
    packed = _repeated_function_value(layout, y)
    return StateVector.from_arrays(layout, state.backend, index + packed, amps)


def _transform_columns(state: StateVector, kernel) -> StateVector:
    """Gather the m occupied function-register contents Y into a (q, m) matrix
    (a column with no amplitude stays zero under the transform), let `kernel`
    transform each column along axis 0, and scatter the result, which is
    ascending in the packed index because c is most significant and Y ascends.
    """
    layout = state.layout
    q, right = layout.q, layout.right_dim
    index, amps = state.nonzero_arrays()
    a, ykey = np.divmod(index, right)
    ykeys, col_of = distinct_positions(ykey)
    cols = np.zeros((q, ykeys.size), dtype=np.complex128)
    cols[a, col_of] = amps
    out_index = np.arange(q, dtype=np.int64)[:, None] * right + ykeys
    out = kernel(cols)
    return StateVector.from_arrays(layout, state.backend, out_index.ravel(), out.ravel())


def apply_qft_register1_direct(state: StateVector) -> StateVector:
    """Fourier transform on the control register: for each function-register content Y,
    new[(c, Y)] = (1/sqrt(q)) * sum_a exp(2*pi*i*a*c/q) * old[(a, Y)], in one batched FFT.
    """
    return _transform_columns(state, _kernels.dft_columns)


def apply_qft_register1_gates(state: StateVector) -> StateVector:
    """Same transform via the gate circuit (cross-check path), applied to the
    (q, m) matrix of occupied columns on either backend."""
    s = state.layout.s
    return _transform_columns(state, lambda cols: _kernels.qft_gates(cols, s))


def _transform(qft: str):
    """The transform stage named by `qft`."""
    if qft == QFT_DIRECT:
        return apply_qft_register1_direct
    if qft == QFT_GATES:
        return apply_qft_register1_gates
    raise ValueError(f"unknown qft implementation {qft!r}")


def run_pipeline(
    instance: ProblemInstance,
    ell: int = 1,
    backend: str = SPARSE,
    qft: str = QFT_DIRECT,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> StateVector:
    """Initialization, fan-out, then the chosen Fourier transform."""
    transform = _transform(qft)
    state = init_uniform(instance, ell=ell, backend=backend, qubit_cap=qubit_cap)
    # Rebinding `state` frees the initial state before the transform runs.
    state = apply_modexp_fanout(state, instance)
    return transform(state)


def pre_measurement_states(
    instance: ProblemInstance,
    ell: int = 1,
    backend: str = SPARSE,
    qft: str = QFT_DIRECT,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> tuple[StateVector, StateVector]:
    """(state before the transform, state after it); used by the diagnostics."""
    transform = _transform(qft)
    state = init_uniform(instance, ell=ell, backend=backend, qubit_cap=qubit_cap)
    state = apply_modexp_fanout(state, instance)
    return state, transform(state)


@dataclass(frozen=True)
class LinearityReport:
    """Comparison of the fan-out applied to a superposition against the
    per-basis-state map assembled term by term."""

    n: int
    x: int
    q: int
    sample_count: int
    max_discrepancy: float

    @property
    def checks(self) -> list[Check]:
        return [check("fanout_linearity_discrepancy", self.max_discrepancy, "<=", 1e-12)]


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
    control = np.array(sample_as, dtype=np.int64) * layout.right_dim
    amp = 1.0 / np.sqrt(len(sample_as))

    superposed = StateVector.from_arrays(
        layout, SPARSE, control, np.full(control.size, amp, dtype=np.complex128)
    )
    fanned_index, fanned_amps = apply_modexp_fanout(superposed, instance).nonzero_arrays()
    # The assembled state: amp times each basis state's image, summed per index.
    indices, terms = [], []
    one = np.ones(1, dtype=np.complex128)
    for k in range(control.size):
        basis = StateVector.from_arrays(layout, SPARSE, control[k : k + 1], one)
        index, value = apply_modexp_fanout(basis, instance).nonzero_arrays()
        indices.append(index)
        terms.append(amp * value)
    worst = max_abs_difference(
        fanned_index, fanned_amps, np.concatenate(indices), np.concatenate(terms)
    )
    return LinearityReport(
        n=instance.n,
        x=instance.x,
        q=instance.q,
        sample_count=len(sample_as),
        max_discrepancy=worst,
    )
