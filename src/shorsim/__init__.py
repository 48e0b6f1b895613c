"""Desk-scale state-vector simulator of quantum order finding with a
configurable number of function registers, paired with exact
measurement-statistics auditing and entanglement diagnostics."""

import ctypes

# glibc's malloc gives each block above its mmap threshold (128 KB at start)
# a mapping of its own, and returns the free top of the heap to the OS once it
# exceeds the trim threshold, so the numpy temporaries of every stage (the
# (q x m) column matrix and its transform, the CSV word chunks, the success
# rate's table) touched fresh zero pages on each call: about 3,500-5,000 minor
# page faults per benchmark pass, against 0-70 with both set. Setting them
# also turns off glibc's dynamic threshold, which never settled at these sizes.
# A block above MMAP_THRESHOLD still gets its own mapping and goes back to the
# OS when freed.
MMAP_THRESHOLD = 8 << 20
TRIM_THRESHOLD = 16 << 20
_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter numbers (malloc.h)
_M_MMAP_THRESHOLD = -3


def _set_malloc_thresholds(libc) -> None:
    """Fix the mmap and trim thresholds through `libc.mallopt`; do nothing
    where the C library has no `mallopt`."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


try:
    _set_malloc_thresholds(ctypes.CDLL(None))
except (OSError, TypeError):  # no C library to open by None (Windows)
    pass

from .checks import Check, check
from .distributions import (
    AuditReport,
    BoundReport,
    OutcomeDistribution,
    analytic_joint_probability,
    conditional,
    marginal,
    measurement_distribution,
    multi_register_audit,
    shor_bound_report,
)
from .entanglement import (
    SchmidtSpectrum,
    qft_locality_check,
    register_correlation,
    schmidt_spectrum,
    von_neumann_entropy,
)
from .errors import (
    CapacityError,
    ConditioningError,
    ConsumedStateError,
    InvalidOrderError,
    NormalizationError,
    NotCoprimeError,
    RangeError,
    ShorSimError,
    StageOrderError,
    UnsuitableInputError,
)
from .numtheory import (
    FactorPair,
    continued_fraction_convergents,
    euler_phi,
    factor_from_order,
    multiplicative_order,
    recover_order_from_sample,
)
from .orderfinding import (
    FactorTrace,
    RunTrace,
    SuccessRateReport,
    factor,
    find_order,
    sample_outcomes,
    success_rate_estimate,
)
from .pipeline import (
    LinearityReport,
    apply_modexp_fanout,
    apply_qft_register1_direct,
    apply_qft_register1_gates,
    init_uniform,
    linearity_check,
    run_pipeline,
)
from .registers import (
    DEFAULT_QUBIT_CAP,
    ProblemInstance,
    RegisterLayout,
    StateVector,
    choose_modulus_power,
)

__version__ = "0.1.0"
