"""Schmidt-spectrum and entropy diagnostics across register cuts.

The spectrum across a cut is computed from the Gram matrix of whichever side
of the bipartition has fewer occupied values; for pipeline states that side
holds at most r values (one per residue class), so the eigenvalue problem is
cheap and numerically stable. A transform that acts entirely on one side of
a cut cannot change that cut's spectrum, which is what the locality check
verifies for the control-register Fourier transform, given the states just
before and just after it. Nothing here runs the circuit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .checks import Check, check
from .distributions import OutcomeDistribution, marginal, sequential_sum
from .errors import CapacityError, RangeError
from .registers import ProblemInstance, StateVector, distinct_positions, max_abs_difference

EIGENVALUE_FLOOR = 1e-14
DEFAULT_SIDE_CAP = 4096


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Non-increasing Schmidt eigenvalues across one register cut.

    cut_after = p means the cut separates registers 1..p from the rest
    (register 1 is the control register).
    """

    cut_after: int
    eigenvalues: tuple[float, ...]

    def rank(self) -> int:
        return len(self.eigenvalues)

    def to_json_dict(self) -> dict:
        return {"cut_after": self.cut_after, "eigenvalues": list(self.eigenvalues)}


def schmidt_spectrum(state: StateVector, cut_after: int) -> SchmidtSpectrum:
    """Eigenvalues of the reduced state across the cut after register `cut_after`.

    The amplitude matrix spans only the occupied rows (left-side contents)
    and occupied columns (right-side contents) of the cut: all-zero rows and
    columns carry no singular value, so the spectrum is that of the full
    left x right matrix, at a cost set by the support rather than the
    register widths.
    """
    layout = state.layout
    if not 1 <= cut_after <= layout.ell:
        raise RangeError(f"cut_after must lie in [1, {layout.ell}], got {cut_after}")
    right_dim = 1 << ((layout.ell - cut_after + 1) * layout.L)
    index, amps = state.nonzero_arrays()
    row_keys, row_of = distinct_positions(index // right_dim)
    col_keys, col_of = distinct_positions(index % right_dim)
    rows, cols = row_keys.size, col_keys.size
    if min(rows, cols) > DEFAULT_SIDE_CAP:
        raise CapacityError(
            f"both sides of the cut exceed {DEFAULT_SIDE_CAP} occupied values "
            f"({rows} rows x {cols} columns)"
        )
    matrix = np.zeros((rows, cols), dtype=np.complex128)
    matrix[row_of, col_of] = amps
    if rows <= cols:
        gram = matrix @ matrix.conj().T
    else:
        gram = matrix.conj().T @ matrix
    eigenvalues = np.linalg.eigvalsh(gram)[::-1]
    kept = tuple(float(v) for v in eigenvalues if v > EIGENVALUE_FLOOR)
    return SchmidtSpectrum(cut_after=cut_after, eigenvalues=kept)


def von_neumann_entropy(spectrum: SchmidtSpectrum) -> float:
    """Entropy of the spectrum in bits, with 0*log(0) = 0."""
    return float(
        -sum(v * math.log2(v) for v in spectrum.eigenvalues if v > 0.0)
    )


@dataclass(frozen=True)
class LocalityReport:
    """Schmidt spectrum across the (control | function registers) cut,
    immediately before and after the Fourier transform."""

    n: int
    x: int
    ell: int
    eigenvalues_before: tuple[float, ...]
    eigenvalues_after: tuple[float, ...]
    max_deviation: float
    entropy_before_bits: float
    entropy_after_bits: float

    @property
    def checks(self) -> list[Check]:
        return [check("control_cut_spectrum_deviation", self.max_deviation, "<=", 1e-10)]


def spectra_deviation(a: SchmidtSpectrum, b: SchmidtSpectrum) -> float:
    """Max difference of descending eigenvalues, padding the shorter with zeros."""
    return max_abs_difference(
        np.arange(a.rank()), np.array(a.eigenvalues, dtype=np.float64),
        np.arange(b.rank()), np.array(b.eigenvalues, dtype=np.float64),
    )


def qft_locality_check(
    instance: ProblemInstance, before: StateVector, after: StateVector
) -> LocalityReport:
    """Compare the (control | function registers) Schmidt spectra of the
    states immediately before and after the transform."""
    spec_before = schmidt_spectrum(before, cut_after=1)
    spec_after = schmidt_spectrum(after, cut_after=1)
    return LocalityReport(
        n=instance.n,
        x=instance.x,
        ell=before.layout.ell,
        eigenvalues_before=spec_before.eigenvalues,
        eigenvalues_after=spec_after.eigenvalues,
        max_deviation=spectra_deviation(spec_before, spec_after),
        entropy_before_bits=von_neumann_entropy(spec_before),
        entropy_after_bits=von_neumann_entropy(spec_after),
    )


@dataclass(frozen=True)
class CorrelationReport:
    """Joint statistics of two function registers."""

    position_i: int
    position_j: int
    p_equal: float
    p_unequal: float
    table: tuple[tuple[int, int, float], ...]

    def to_json_dict(self) -> dict:
        table = [{"yi": yi, "yj": yj, "probability": prob} for yi, yj, prob in self.table]
        return {**asdict(self), "table": table}


def register_correlation(
    dist: OutcomeDistribution, i: int = 2, j: int = 3
) -> CorrelationReport:
    """Contingency table over the values of function registers i and j."""
    if i == j:
        raise RangeError("need two distinct registers")
    if min(i, j) < 2:
        raise RangeError("correlation is defined between function registers (positions >= 2)")
    i, j = sorted((i, j))
    pair = marginal(dist, (i, j))
    yi, yj = pair.registers()
    equal = yi == yj
    return CorrelationReport(
        position_i=i,
        position_j=j,
        p_equal=sequential_sum(pair.probs[equal]),
        p_unequal=sequential_sum(pair.probs[~equal]),
        table=tuple(zip(yi.tolist(), yj.tolist(), pair.probs.tolist())),
    )
