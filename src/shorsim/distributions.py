"""Exact measurement statistics and the probability audits.

Two independent routes to the same numbers are kept deliberately separate:
`measurement_distribution` squares the simulated state-vector amplitudes,
while `analytic_joint_probability` evaluates the closed-form geometric-sum
expression for the probability of landing on (c, x^k). Their agreement is a
core acceptance check and neither consults the other.

Register positions are 1-based: position 1 is the control register, positions
2..ell+1 are the function registers, so a full outcome is the tuple
(c, y_1, ..., y_ell).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ConditioningError, NormalizationError, RangeError
from .numtheory import euler_phi, mod_pow, multiplicative_order
from .pipeline import QFT_DIRECT, run_pipeline
from .registers import (
    DEFAULT_QUBIT_CAP,
    SPARSE,
    ProblemInstance,
    RegisterLayout,
    StateVector,
)

SCHEMA_VERSION = 1

# Below this, a probability is reported as exactly zero: it separates
# geometric-sum cancellation from floating-point noise.
PROBABILITY_FLOOR = 1e-20

NORM_TOLERANCE = 1e-12


@dataclass
class OutcomeDistribution:
    """Probability table over measurement outcomes.

    `positions` names the registers each outcome slot refers to; a full
    distribution carries positions (1, 2, ..., ell+1).
    """

    layout: RegisterLayout
    positions: tuple[int, ...]
    entries: dict[tuple[int, ...], float]

    def total(self) -> float:
        return float(sum(self.entries.values()))

    def probability(self, outcome) -> float:
        return self.entries.get(tuple(outcome), 0.0)

    def sorted_items(self) -> list[tuple[tuple[int, ...], float]]:
        """Entries in ascending outcome order (= ascending packed index)."""
        return sorted(self.entries.items())

    def column_names(self) -> list[str]:
        return ["c" if p == 1 else f"y{p - 1}" for p in self.positions]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names() + ["probability"])
            for outcome, prob in self.sorted_items():
                writer.writerow([*outcome, f"{prob:.17g}"])


def measurement_distribution(state: StateVector) -> OutcomeDistribution:
    """Squared-magnitude probabilities of every outcome; entries below
    PROBABILITY_FLOOR are omitted."""
    index, amps = state.nonzero_arrays()
    probs = np.abs(amps) ** 2
    norm = float(probs.sum())
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise NormalizationError(f"state norm is {norm}, not 1 within {NORM_TOLERANCE}")
    kept = probs > PROBABILITY_FLOOR
    index, probs = index[kept], probs[kept]
    layout = state.layout
    registers = layout.registers_of_indices(index)
    outcomes = zip(*(register.tolist() for register in registers))
    entries = dict(zip(outcomes, probs.tolist()))
    positions = tuple(range(1, layout.ell + 2))
    return OutcomeDistribution(layout=layout, positions=positions, entries=entries)


def marginal(dist: OutcomeDistribution, keep) -> OutcomeDistribution:
    """Sum probability over every register position not in `keep`."""
    keep = tuple(sorted(set(int(p) for p in keep)))
    if not keep:
        raise RangeError("must keep at least one register position")
    if not set(keep) <= set(dist.positions):
        raise RangeError(f"positions {keep} not all present in {dist.positions}")
    # itemgetter with one slot returns the bare value; wrap those keys at the end.
    pick = itemgetter(*(dist.positions.index(p) for p in keep))
    entries: dict = {}
    for outcome, prob in dist.entries.items():
        reduced = pick(outcome)
        entries[reduced] = entries.get(reduced, 0.0) + prob
    if len(keep) == 1:
        entries = {(value,): prob for value, prob in entries.items()}
    return OutcomeDistribution(layout=dist.layout, positions=keep, entries=entries)


def conditional(dist: OutcomeDistribution, given: dict[int, int]) -> OutcomeDistribution:
    """Restrict to outcomes matching `given` (position -> value) and renormalize."""
    if not set(given) <= set(dist.positions):
        raise RangeError(f"positions {tuple(given)} not all present in {dist.positions}")
    slots = {dist.positions.index(p): v for p, v in given.items()}
    matching = {
        outcome: prob
        for outcome, prob in dist.entries.items()
        if all(outcome[i] == v for i, v in slots.items())
    }
    mass = sum(matching.values())
    if mass <= 0.0:
        raise ConditioningError(f"conditioning event {given} has zero probability")
    entries = {outcome: prob / mass for outcome, prob in matching.items()}
    return OutcomeDistribution(layout=dist.layout, positions=dist.positions, entries=entries)


def signed_residue(v: int, q: int) -> int:
    """Representative of v mod q in the half-open symmetric range (-q/2, q/2]."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    m = v % q
    if 2 * m > q:
        m -= q
    return m


def analytic_joint_probability(instance: ProblemInstance, r: int, c: int, k: int) -> float:
    """Closed-form probability of observing control value c with function
    registers holding x^k, for a base of multiplicative order r.

    Evaluates |(1/q) * sum_b exp(2*pi*i*(b*r + k)*c/q)|^2 over
    b = 0 .. floor((q-k-1)/r) as a geometric-sum ratio,
    sin^2(pi*M*rc/q) / (q^2 * sin^2(pi*rc/q)) with M the term count,
    switching to the exact branch (M/q)^2 when rc = 0 (mod q). All angle
    reductions happen in integer arithmetic, so no large-argument trig is
    evaluated.
    """
    q = instance.q
    if not 0 <= c < q:
        raise RangeError(f"c={c} outside [0, {q})")
    if not 0 <= k < r:
        raise RangeError(f"k={k} outside [0, r={r})")
    m_terms = (q - k - 1) // r + 1
    t = (r * c) % q
    if t == 0:
        return (m_terms / q) ** 2
    num_t = (m_terms * t) % q
    numerator = math.sin(math.pi * min(num_t, q - num_t) / q) ** 2
    denominator = math.sin(math.pi * min(t, q - t) / q) ** 2
    return numerator / (q * q * denominator)


# ---------------------------------------------------------------------------
# Lower-bound report for the good control values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """One good control value c: |signed_residue(r*c, q)| <= r/2."""

    c: int
    d: int
    residue: int
    gcd_d_r: int
    probabilities: tuple[float, ...]
    p_min: float
    clears_1_over_3r2: bool
    margin_vs_4_over_pi2_r2: float


@dataclass(frozen=True)
class BoundReport:
    """Per-instance check that every good c clears the 1/(3r^2) probability
    floor, with the 4/(pi^2 r^2) margin recorded, plus the aggregate success
    mass against both candidate success bounds."""

    n: int
    x: int
    q: int
    s: int
    r: int
    phi_r: int
    bound_1_over_3r2: float
    bound_4_over_pi2_r2: float
    rows: tuple[BoundRow, ...]
    good_c_count: int
    coprime_good_c_count: int
    success_mass: float
    success_bound_phi_over_3r: float
    success_bound_phi_over_3r2: float
    all_clear: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "x": self.x,
            "q": self.q,
            "s": self.s,
            "r": self.r,
            "phi_r": self.phi_r,
            "bound_1_over_3r2": self.bound_1_over_3r2,
            "bound_4_over_pi2_r2": self.bound_4_over_pi2_r2,
            "good_c_count": self.good_c_count,
            "coprime_good_c_count": self.coprime_good_c_count,
            "success_mass": self.success_mass,
            "success_bound_phi_over_3r": self.success_bound_phi_over_3r,
            "success_bound_phi_over_3r2": self.success_bound_phi_over_3r2,
            "all_clear": self.all_clear,
            "rows": [
                {
                    "c": row.c,
                    "d": row.d,
                    "residue": row.residue,
                    "gcd_d_r": row.gcd_d_r,
                    "probabilities": list(row.probabilities),
                    "p_min": row.p_min,
                    "clears_1_over_3r2": row.clears_1_over_3r2,
                    "margin_vs_4_over_pi2_r2": row.margin_vs_4_over_pi2_r2,
                }
                for row in self.rows
            ],
        }


def shor_bound_report(instance: ProblemInstance) -> BoundReport:
    """Enumerate the good control values and check the probability floor.

    A control value c is good when |signed_residue(r*c, q)| <= r/2; each such
    c rounds r*c/q to a unique d in [0, r). The row records d, gcd(d, r) and
    the analytic probability for every k; the aggregate sums the mass of rows
    with gcd(d, r) = 1 (the ones order recovery can use) over all k.
    """
    n, x, q = instance.n, instance.x, instance.q
    r = multiplicative_order(x, n)
    phi_r = euler_phi(r)
    floor_bound = 1.0 / (3.0 * r * r)
    sine_bound = 4.0 / (math.pi**2 * r * r)
    rows = []
    success_mass = 0.0
    for c in range(q):
        residue = signed_residue(r * c, q)
        if 2 * abs(residue) > r:
            continue
        d = (2 * r * c + q) // (2 * q)
        g = math.gcd(d, r)
        probs = tuple(analytic_joint_probability(instance, r, c, k) for k in range(r))
        p_min = min(probs)
        rows.append(
            BoundRow(
                c=c,
                d=d,
                residue=residue,
                gcd_d_r=g,
                probabilities=probs,
                p_min=p_min,
                clears_1_over_3r2=p_min > floor_bound,
                margin_vs_4_over_pi2_r2=p_min - sine_bound,
            )
        )
        if g == 1:
            success_mass += sum(probs)
    return BoundReport(
        n=n,
        x=x,
        q=q,
        s=instance.s,
        r=r,
        phi_r=phi_r,
        bound_1_over_3r2=floor_bound,
        bound_4_over_pi2_r2=sine_bound,
        rows=tuple(rows),
        good_c_count=len(rows),
        coprime_good_c_count=sum(1 for row in rows if row.gcd_d_r == 1),
        success_mass=success_mass,
        success_bound_phi_over_3r=phi_r / (3.0 * r),
        success_bound_phi_over_3r2=phi_r / (3.0 * r * r),
        all_clear=all(row.clears_1_over_3r2 for row in rows),
    )


# ---------------------------------------------------------------------------
# Multi-register audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Adjudication of the multi-register claims by direct simulation.

    equal_outcome_discrepancy: max over (c, k) of the difference between the
    ell-register joint probability of (c, x^k, ..., x^k) and the two-register
    joint probability of (c, x^k). unequal_register_mass: total probability
    of outcomes whose function registers disagree anywhere.
    """

    n: int
    x: int
    q: int
    r: int
    ell: int
    equal_outcome_discrepancy: float
    unequal_register_mass: float
    modal_outcome: tuple[int, ...]
    modal_joint_probability: float
    modal_conditional_probability: float
    tolerance: float = 1e-12

    @property
    def joint_probabilities_match(self) -> bool:
        return self.equal_outcome_discrepancy <= self.tolerance

    @property
    def registers_perfectly_correlated(self) -> bool:
        return self.unequal_register_mass <= self.tolerance

    @property
    def passed(self) -> bool:
        return self.joint_probabilities_match and self.registers_perfectly_correlated

    @property
    def verdict(self) -> str:
        eq_part = (
            "adding registers leaves the equal-outcome joint probabilities unchanged"
            if self.joint_probabilities_match
            else "equal-outcome joint probabilities differ between register counts"
        )
        mass_part = (
            "outcomes with unequal function registers carry zero probability, so the "
            "function registers are perfectly correlated rather than independent"
            if self.registers_perfectly_correlated
            else "outcomes with unequal function registers carry nonzero probability"
        )
        cond_part = (
            "under the conditional reading, probability of the modal control value given "
            f"its function value is {self.modal_conditional_probability:.6g} versus the "
            f"joint {self.modal_joint_probability:.6g}"
        )
        return f"{eq_part}; {mass_part}; {cond_part}"

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "x": self.x,
            "q": self.q,
            "r": self.r,
            "ell": self.ell,
            "equal_outcome_discrepancy": self.equal_outcome_discrepancy,
            "unequal_register_mass": self.unequal_register_mass,
            "joint_probabilities_match": self.joint_probabilities_match,
            "registers_perfectly_correlated": self.registers_perfectly_correlated,
            "modal_outcome": list(self.modal_outcome),
            "modal_joint_probability": self.modal_joint_probability,
            "modal_conditional_probability": self.modal_conditional_probability,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def multi_register_audit(
    instance: ProblemInstance,
    ell: int = 2,
    backend: str = SPARSE,
    qft: str = QFT_DIRECT,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> AuditReport:
    """Compare the ell-register pipeline against the two-register one, both
    run with the transform named by `qft`.

    Joint probabilities are squared amplitudes of the full state. The
    conditional reading is reported alongside as a labeled alternative,
    computed from the same distribution via `conditional`.
    """
    if ell < 2:
        raise ValueError(f"audit needs at least two function registers, got ell={ell}")
    r = multiplicative_order(instance.x, instance.n)
    dist_single = measurement_distribution(
        run_pipeline(instance, ell=1, backend=backend, qft=qft, qubit_cap=qubit_cap)
    )
    dist_multi = measurement_distribution(
        run_pipeline(instance, ell=ell, backend=backend, qft=qft, qubit_cap=qubit_cap)
    )

    residues = [mod_pow(instance.x, k, instance.n) for k in range(r)]
    worst = 0.0
    for c in range(instance.q):
        for y in residues:
            p_single = dist_single.probability((c, y))
            p_multi = dist_multi.probability((c,) + (y,) * ell)
            worst = max(worst, abs(p_multi - p_single))

    unequal_mass = 0.0
    for outcome, prob in dist_multi.entries.items():
        ys = outcome[1:]
        if any(y != ys[0] for y in ys[1:]):
            unequal_mass += prob

    modal_outcome, modal_joint = max(
        dist_multi.sorted_items(), key=lambda item: (item[1], item[0])
    )
    given = {pos: modal_outcome[pos - 1] for pos in range(2, ell + 2)}
    modal_conditional = marginal(conditional(dist_multi, given), (1,)).probability(
        (modal_outcome[0],)
    )

    return AuditReport(
        n=instance.n,
        x=instance.x,
        q=instance.q,
        r=r,
        ell=ell,
        equal_outcome_discrepancy=float(worst),
        unequal_register_mass=float(unequal_mass),
        modal_outcome=modal_outcome,
        modal_joint_probability=float(modal_joint),
        modal_conditional_probability=float(modal_conditional),
    )
