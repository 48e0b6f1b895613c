"""Exact measurement statistics and the probability audits.

Two independent routes to the same numbers are kept deliberately separate:
`measurement_distribution` squares the simulated state-vector amplitudes,
while `analytic_joint_probability` evaluates the closed-form geometric-sum
expression for the probability of landing on (c, x^k). Their agreement is a
core acceptance check and neither consults the other. Nothing here runs the
circuit: the multi-register audit compares two outcome tables it is handed.

Register positions are 1-based: position 1 is the control register, positions
2..ell+1 are the function registers, so a full outcome is the tuple
(c, y_1, ..., y_ell). Every outcome table is ascending in its packed index,
as every state is, so lookups, the CDF and the CSV use the arrays as stored.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import Check, check
from .errors import ConditioningError, NormalizationError, RangeError
from .numtheory import euler_phi, multiplicative_order
from .registers import (
    NORM_TOLERANCE,
    ProblemInstance,
    RegisterLayout,
    StateVector,
    distinct_positions,
    max_abs_difference,
    write_row_blocks,
)

# Below this, a probability is reported as exactly zero: it separates
# geometric-sum cancellation from floating-point noise.
PROBABILITY_FLOOR = 1e-20

# `exact_sum`: values per `np.bincount` block; values per window, the most a
# slot takes and stays exact; one slot per biased exponent; and the mask that
# clears the low 27 of a double's 52 mantissa bits.
_SUM_BLOCK = 1 << 16
_EXACT_WINDOW = 1 << 26
_EXPONENT_SLOTS = 1 << 11
_HIGH_BITS = ~((1 << 27) - 1)

# A marginal over at most this many bits sums into a dense table; a wider
# one first maps its keys to their distinct values.
MARGINAL_TABLE_BITS = 20


@dataclass(eq=False)
class OutcomeDistribution:
    """Probability table over measurement outcomes, held as two arrays.

    `positions` names the registers each outcome slot refers to; a full
    distribution carries positions (1, 2, ..., ell+1). `index[k]` packs
    outcome k over `positions`, first position most significant (for a full
    distribution, the state's packed index); `probs[k]` is its probability.
    `index` is ascending, and every sum over the table except `total` runs in
    array order.
    """

    layout: RegisterLayout
    positions: tuple[int, ...]
    index: np.ndarray
    probs: np.ndarray

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probability over the outcomes, in array (ascending) order."""
        return np.cumsum(self.probs)

    @property
    def entries(self) -> Mapping:
        """Read-only outcome-tuple -> probability view; builds no dict."""
        return _EntriesView(self)

    def widths(self) -> list[int]:
        return [self.layout.s if p == 1 else self.layout.L for p in self.positions]

    def register(self, position: int, rows=slice(None)) -> np.ndarray:
        """Values of register `position` over the outcomes at `rows`."""
        widths = self.widths()
        slot = self.positions.index(position)
        return (self.index[rows] >> sum(widths[slot + 1 :])) & ((1 << widths[slot]) - 1)

    def registers(self, rows=slice(None)) -> list[np.ndarray]:
        return [self.register(p, rows) for p in self.positions]

    def outcome_tuples(self, rows=slice(None)) -> list[tuple[int, ...]]:
        return list(zip(*(register.tolist() for register in self.registers(rows))))

    def total(self) -> float:
        """Correctly rounded sum of `probs`, whatever their order."""
        return exact_sum(self.probs)

    def column_names(self) -> list[str]:
        return ["c" if p == 1 else f"y{p - 1}" for p in self.positions]

    def write_csv(self, path) -> None:
        """One row per outcome, ascending: `c,y1,...,probability` as the bytes of
        `'%d,...,%d,%.17g\\r\\n' % row` (what `csv.writer` gives for `.17g`
        floats), written by `write_row_blocks`. Each block's register values
        are unpacked from its slice of `index`, so no full-length register
        column exists."""
        fields = [(0, (1 << width) - 1) for width in self.widths()] + [None]
        tails = [","] * len(self.positions) + ["\r\n"]

        def block(start, stop):
            rows = slice(start, stop)
            return [*self.registers(rows), self.probs[rows]]

        with open(path, "wb") as fh:
            fh.write((",".join(self.column_names() + ["probability"]) + "\r\n").encode())
            write_row_blocks(fh, fields, tails, self.index.size, block)


class _EntriesView(Mapping):
    """Mapping view of an OutcomeDistribution, iterating in array order."""

    def __init__(self, dist: OutcomeDistribution):
        self._dist = dist

    def __len__(self) -> int:
        return self._dist.index.size

    def __iter__(self):
        return iter(self._dist.outcome_tuples())

    def __getitem__(self, outcome) -> float:
        dist, outcome, key = self._dist, tuple(outcome), 0
        for value, width in zip(outcome, dist.widths()):
            key = (key << width) | value
        if dist.index.size and 0 <= key < 1 << 63:
            row = min(int(np.searchsorted(dist.index, key)), dist.index.size - 1)
            if dist.outcome_tuples([row])[0] == outcome:
                return float(dist.probs[row])
        raise KeyError(outcome)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, the same rounding as Python's `sum` over the
    array (unlike `np.sum`, which sums pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def exact_sum(values: np.ndarray) -> float:
    """`math.fsum(values.tolist())` bit for bit, without a Python float per value.

    Each value splits exactly into a high part (at most 26 significant bits:
    the value with the low 27 of its 52 mantissa bits cleared) and the
    remainder, and each part is added up per binary exponent with
    `np.bincount`. A slot's parts are all multiples of one power of two and
    below 2^27 of it, so its sum stays exact for up to 2^26 of them;
    `math.fsum` then rounds the exact partial sums once (exponent-indexed
    accumulators as in Zhu & Hayes, ACM TOMS Algorithm 908, 2010). A
    non-finite value, or a slot whose sum overflows, takes `math.fsum` over
    every value."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    partials = []
    for window in range(0, values.size, _EXACT_WINDOW):
        sums = np.zeros((2, _EXPONENT_SLOTS))
        for start in range(window, min(window + _EXACT_WINDOW, values.size), _SUM_BLOCK):
            block = values[start : start + _SUM_BLOCK]
            bits = block.view(np.int64)
            high = (bits & _HIGH_BITS).view(np.float64)
            slot = (bits >> 52) & (_EXPONENT_SLOTS - 1)
            if slot.max() == _EXPONENT_SLOTS - 1:  # NaN or infinity
                return math.fsum(values.tolist())
            sums[0] += np.bincount(slot, weights=high, minlength=_EXPONENT_SLOTS)
            sums[1] += np.bincount(slot, weights=block - high, minlength=_EXPONENT_SLOTS)
        if not np.isfinite(sums).all():
            return math.fsum(values.tolist())
        partials += sums[sums != 0].tolist()
    return math.fsum(partials)


def require_unit_norm(probs: np.ndarray) -> None:
    """Refuse probabilities whose sum is not 1 within NORM_TOLERANCE; a NaN sum fails too."""
    norm = float(probs.sum())
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise NormalizationError(f"state norm is {norm}, not 1 within {NORM_TOLERANCE}")


def measurement_distribution(state: StateVector) -> OutcomeDistribution:
    """Squared-magnitude probabilities of every outcome, ascending like the
    state; entries at or below PROBABILITY_FLOOR are omitted.

    Measuring consumes the state (`StateVector.take_probabilities`): every
    later read of it raises ConsumedStateError. The probabilities, the bits
    of `np.abs(amps) ** 2`, take over the state's amplitude buffer where
    nothing else references it, and are a new array where something does.
    Where the floor omits nothing, the table's `index` is the state's
    read-only index array itself, not a copy."""
    index, probs = state.take_probabilities()
    require_unit_norm(probs)
    kept = probs > PROBABILITY_FLOOR
    if not kept.all():
        index, probs = index[kept], probs[kept]
    positions = tuple(range(1, state.layout.ell + 2))
    return OutcomeDistribution(state.layout, positions, index, probs)


def marginal(dist: OutcomeDistribution, keep) -> OutcomeDistribution:
    """Sum probability over every register position not in `keep`. Each sum
    accumulates in array order (as `np.bincount` does); the result is ascending."""
    keep = tuple(sorted(set(int(p) for p in keep)))
    if not keep:
        raise RangeError("must keep at least one register position")
    if not set(keep) <= set(dist.positions):
        raise RangeError(f"positions {keep} not all present in {dist.positions}")
    widths = dict(zip(dist.positions, dist.widths()))
    keys, bits = 0, 0
    for p in keep:
        keys = (keys << widths[p]) | dist.register(p)
        bits += widths[p]
    if bits <= MARGINAL_TABLE_BITS:
        sums = np.bincount(keys, weights=dist.probs, minlength=1 << bits)
        index = np.flatnonzero(sums)
        probs = sums[index]
    else:
        index, slot = distinct_positions(keys)
        probs = np.bincount(slot, weights=dist.probs, minlength=index.size)
    return OutcomeDistribution(dist.layout, keep, index, probs)


def conditional(dist: OutcomeDistribution, given: dict[int, int]) -> OutcomeDistribution:
    """Restrict to outcomes matching `given` (position -> value) and renormalize."""
    if not set(given) <= set(dist.positions):
        raise RangeError(f"positions {tuple(given)} not all present in {dist.positions}")
    matching = np.ones(dist.index.size, dtype=bool)
    for p, v in given.items():
        matching &= dist.register(p) == v
    probs = dist.probs[matching]
    mass = sequential_sum(probs)
    if mass <= 0.0:
        raise ConditioningError(f"conditioning event {given} has zero probability")
    return OutcomeDistribution(dist.layout, dist.positions, dist.index[matching], probs / mass)


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
    """One good control value c = round(d*q/r), with residue = r*c - d*q, and
    its closed-form probability at (c, x^k): p_first for k < q mod r, p_last
    for the other k."""

    c: int
    d: int
    residue: int
    gcd_d_r: int
    p_first: float
    p_last: float
    p_min: float
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
    q_mod_r: int
    phi_r: int
    bound_1_over_3r2: float
    bound_4_over_pi2_r2: float
    good_c_count: int
    coprime_good_c_count: int
    success_mass: float
    success_bound_phi_over_3r: float
    success_bound_phi_over_3r2: float
    rows: tuple[BoundRow, ...]

    @property
    def checks(self) -> list[Check]:
        """Every good c clears the floor: the least p_min over them exceeds 1/(3r^2)."""
        p_min = min(row.p_min for row in self.rows)
        return [check("good_c_probability_floor", p_min, ">", self.bound_1_over_3r2)]


def shor_bound_report(instance: ProblemInstance) -> BoundReport:
    """Enumerate the good control values and check the probability floor.

    c is good when |r*c - d*q| <= r/2 for an integer d: each d in [0, r) has
    one, c = round(d*q/r) (a tie needs 2^(s+1) | r < q), and d = r gives c = q.
    The row records d, gcd(d, r) and the analytic probability, which reads k
    only through the term count: ceil(q/r) for k < q mod r, else floor(q/r),
    so k = 0 and k = r - 1 give the row's two values. The aggregate sums the
    mass of rows with gcd(d, r) = 1 (the ones order recovery can use) over
    all k: q mod r copies of the first value and r - q mod r of the last.
    """
    n, x, q = instance.n, instance.x, instance.q
    r = multiplicative_order(x, n)
    phi_r = euler_phi(r)
    floor_bound = 1.0 / (3.0 * r * r)
    sine_bound = 4.0 / (math.pi**2 * r * r)
    rho = q % r
    rows = []
    success_mass = 0.0
    for d in range(r):
        c = (2 * d * q + r) // (2 * r)
        g = math.gcd(d, r)
        first = analytic_joint_probability(instance, r, c, 0)
        last = analytic_joint_probability(instance, r, c, r - 1)
        p_min = min(first, last)
        rows.append(
            BoundRow(
                c=c,
                d=d,
                residue=r * c - d * q,
                gcd_d_r=g,
                p_first=first,
                p_last=last,
                p_min=p_min,
                margin_vs_4_over_pi2_r2=p_min - sine_bound,
            )
        )
        if g == 1:
            success_mass += rho * first + (r - rho) * last
    return BoundReport(
        n=n,
        x=x,
        q=q,
        s=instance.s,
        r=r,
        q_mod_r=rho,
        phi_r=phi_r,
        bound_1_over_3r2=floor_bound,
        bound_4_over_pi2_r2=sine_bound,
        rows=tuple(rows),
        good_c_count=len(rows),
        coprime_good_c_count=sum(1 for row in rows if row.gcd_d_r == 1),
        success_mass=success_mass,
        success_bound_phi_over_3r=phi_r / (3.0 * r),
        success_bound_phi_over_3r2=phi_r / (3.0 * r * r),
    )


# ---------------------------------------------------------------------------
# Multi-register audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Adjudication of the multi-register claims on two simulated tables.

    equal_outcome_discrepancy: max over (c, y) of the difference between the
    ell-register joint probability of (c, y, ..., y) and the one-register
    joint probability of (c, y), over every y either table holds.
    unequal_register_mass: total probability of outcomes whose function
    registers disagree anywhere.
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

    @property
    def checks(self) -> list[Check]:
        """Adding registers leaves the equal-outcome joint probabilities
        unchanged, and the function registers never disagree."""
        return [
            check("equal_outcome_discrepancy", self.equal_outcome_discrepancy, "<=", 1e-12),
            check("unequal_register_mass", self.unequal_register_mass, "<=", 1e-12),
        ]


def multi_register_audit(
    instance: ProblemInstance, single: OutcomeDistribution, multi: OutcomeDistribution
) -> AuditReport:
    """Compare the full outcome table of an ell-register run (`multi`, ell >= 2)
    against that of the one-register run (`single`) on the same registers.

    Joint probabilities are the tables' entries. The conditional reading is
    reported alongside as a labeled alternative: the modal outcome's joint
    probability divided by the sequential sum over the outcomes whose function
    registers hold its values, the one division `conditional` makes for that
    entry, so it has the bits of `conditional(multi, given)`'s entry.
    """
    one, many = single.layout, multi.layout
    if not (one.ell == 1 < many.ell and (one.s, one.L) == (many.s, many.L)):
        raise ValueError(
            "audit needs a one-register and an ell >= 2 table on the same registers, "
            f"got {one} and {many}"
        )
    r = multiplicative_order(instance.x, instance.n)
    ell = many.ell

    # Every equal-register outcome (c, y, ..., y) compared as (c, y) with every
    # outcome of the one-register table; an outcome missing from a table has
    # probability 0, so mass either table puts off the residues x^k counts.
    # One register column at a time; (c, y_1) is the index's top bits.
    first = multi.register(2)
    unequal = np.zeros(multi.index.size, dtype=bool)
    for position in range(3, ell + 2):
        unequal |= multi.register(position) != first
    del first
    equal = ~unequal
    worst = max_abs_difference(
        multi.index[equal] >> ((ell - 1) * many.L), multi.probs[equal],
        single.index, single.probs,
    )
    unequal_mass = sequential_sum(multi.probs[unequal])

    # The most probable outcome; ties go to the largest, the last in the table.
    # Its function registers are the index's low ell * L bits. The mask of the
    # rows that share them is made after the pairing and freed at once, so no
    # state-length column sits beside the pairing's arrays.
    modal_joint = multi.probs.max()
    modal = np.flatnonzero(multi.probs == modal_joint)[-1]
    ys = many.right_dim - 1
    given_mass = sequential_sum(multi.probs[(multi.index & ys) == (multi.index[modal] & ys)])

    return AuditReport(
        n=instance.n,
        x=instance.x,
        q=instance.q,
        r=r,
        ell=ell,
        equal_outcome_discrepancy=worst,
        unequal_register_mass=float(unequal_mass),
        modal_outcome=multi.outcome_tuples([modal])[0],
        modal_joint_probability=float(modal_joint),
        modal_conditional_probability=float(modal_joint / given_mass),
    )
