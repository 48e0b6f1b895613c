"""Desk-scale state-vector simulator of quantum order finding with a
configurable number of function registers, paired with exact
measurement-statistics auditing and entanglement diagnostics."""

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
    signed_residue,
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
    InvalidOrderError,
    NormalizationError,
    NotCoprimeError,
    RangeError,
    ShorSimError,
    StageOrderError,
    UndefinedInputError,
    UnsuitableInputError,
)
from .numtheory import (
    FactorPair,
    continued_fraction_convergents,
    euler_phi,
    factor_from_order,
    gcd,
    mod_pow,
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
