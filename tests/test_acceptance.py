"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance NN] ... PASS/FAIL` line (visible with
`pytest -s` or in captured output), then asserts. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from shorsim.distributions import (
    analytic_joint_probability,
    measurement_distribution,
    multi_register_audit,
    shor_bound_report,
)
from shorsim.entanglement import (
    qft_locality_check,
    schmidt_spectrum,
    von_neumann_entropy,
)
from shorsim.numtheory import mod_pow, multiplicative_order
from shorsim.orderfinding import factor, success_rate_estimate
from shorsim.pipeline import (
    apply_modexp_fanout,
    apply_qft_register1_direct,
    apply_qft_register1_gates,
    init_uniform,
    linearity_check,
    pre_measurement_states,
    run_pipeline,
)
from shorsim.registers import DENSE, SPARSE, ProblemInstance, RegisterLayout, StateVector


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {name} failed ({detail})"


def coprime_bases(n):
    return [x for x in range(2, n) if math.gcd(x, n) == 1]


def tv_distance(dist_a, dist_b):
    outcomes = set(dist_a.entries) | set(dist_b.entries)
    return 0.5 * sum(
        abs(dist_a.probability(o) - dist_b.probability(o)) for o in outcomes
    )


def test_01_analytic_matches_simulation_everywhere():
    started = time.perf_counter()
    worst = 0.0
    for n in (15, 21):
        for x in coprime_bases(n):
            inst = ProblemInstance.create(n, x)
            r = multiplicative_order(x, n)
            dist = measurement_distribution(run_pipeline(inst, ell=1))
            for c in range(inst.q):
                for k in range(r):
                    y = mod_pow(x, k, n)
                    diff = abs(
                        dist.probability((c, y))
                        - analytic_joint_probability(inst, r, c, k)
                    )
                    worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    report(
        1,
        "closed-form vs simulated joint probabilities (n=15, 21, all bases)",
        ok,
        f"max diff {worst:.3e}, {elapsed:.2f}s",
    )


def test_02_exact_distribution_for_15_7():
    inst = ProblemInstance.create(15, 7)
    state = run_pipeline(inst, ell=1, backend=DENSE)
    layout = state.layout
    probabilities = np.abs(state.data) ** 2
    expected = {
        (c, y) for c in (0, 64, 128, 192) for y in (1, 7, 4, 13)
    }
    ok = True
    detail_parts = []
    on_support = []
    for index in range(layout.dim):
        a, ys = layout.unpack_index(index)
        outcome = (a, *ys)
        if outcome in expected:
            on_support.append(probabilities[index])
        elif probabilities[index] > 1e-20:
            ok = False
            detail_parts.append(f"stray mass at {outcome}")
    worst_dev = max(abs(p - 1 / 16) for p in on_support)
    ok = ok and len(on_support) == 16 and worst_dev <= 1e-10
    report(
        2,
        "exact n=15, x=7 outcome table (16 outcomes of 1/16)",
        ok,
        f"max dev from 1/16: {worst_dev:.3e}" + "; ".join(detail_parts),
    )


def test_03_probability_floor_for_good_c():
    started = time.perf_counter()
    worst_margin = float("inf")
    checked = 0
    all_clear = True
    for n in (15, 21, 33, 35, 39):
        for x in coprime_bases(n):
            rep = shor_bound_report(ProblemInstance.create(n, x))
            all_clear = all_clear and all(c.passed for c in rep.checks)
            checked += rep.good_c_count
            for row in rep.rows:
                worst_margin = min(worst_margin, row.margin_vs_4_over_pi2_r2)
    elapsed = time.perf_counter() - started
    ok = all_clear and elapsed < 60.0
    report(
        3,
        "every good c clears 1/(3r^2) for n in {15,21,33,35,39}, all bases",
        ok,
        f"{checked} good c, min margin vs 4/(pi^2 r^2): {worst_margin:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_04_multi_register_audit():
    cases = [(15, 7, 2), (15, 7, 3), (21, 2, 2)]
    worst_eq = 0.0
    worst_mass = 0.0
    for n, x, ell in cases:
        inst = ProblemInstance.create(n, x)
        single = measurement_distribution(run_pipeline(inst, ell=1))
        rep = multi_register_audit(
            inst, single, measurement_distribution(run_pipeline(inst, ell=ell))
        )
        worst_eq = max(worst_eq, rep.equal_outcome_discrepancy)
        worst_mass = max(worst_mass, rep.unequal_register_mass)
    ok = worst_eq <= 1e-12 and worst_mass <= 1e-12
    report(
        4,
        "multi-register audit: joint probabilities match, unequal mass zero",
        ok,
        f"max equal-outcome discrepancy {worst_eq:.3e}, "
        f"max unequal-register mass {worst_mass:.3e}",
    )


def test_05_gate_level_transform_cross_check():
    worst = 0.0
    for s in range(1, 13):
        layout = RegisterLayout(s=s, L=1, ell=1)
        rng = np.random.default_rng(1000 + s)
        data = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        data /= np.linalg.norm(data)
        state = StateVector(layout, DENSE, data.astype(np.complex128))
        direct = apply_qft_register1_direct(state)
        gates = apply_qft_register1_gates(state)
        worst = max(worst, float(np.max(np.abs(direct.data - gates.data))))
    ok = worst <= 1e-10
    report(
        5,
        "gate-level vs direct transform for control widths s = 1..12",
        ok,
        f"max amplitude deviation {worst:.3e}",
    )


ACCEPTANCE_INSTANCES = [
    (15, 7, 1),
    (15, 7, 2),
    (15, 7, 3),
    (21, 2, 1),
    (21, 2, 2),
    (33, 2, 1),
    (35, 2, 1),
    (39, 2, 1),
]


def test_06_backend_equivalence():
    worst = 0.0
    for n, x, ell in ACCEPTANCE_INSTANCES:
        inst = ProblemInstance.create(n, x)
        dense = measurement_distribution(run_pipeline(inst, ell=ell, backend=DENSE))
        sparse = measurement_distribution(run_pipeline(inst, ell=ell, backend=SPARSE))
        worst = max(worst, tv_distance(dense, sparse))
    ok = worst <= 1e-12
    report(
        6,
        "dense and sparse backends agree on every acceptance instance",
        ok,
        f"max total-variation distance {worst:.3e}",
    )


def test_07_transform_locality_and_entropy():
    worst_dev = 0.0
    worst_entropy_err = 0.0
    for n, x, ell in [(15, 7, 1), (15, 7, 2), (21, 2, 1), (35, 2, 1)]:
        inst = ProblemInstance.create(n, x)
        rep = qft_locality_check(inst, *pre_measurement_states(inst, ell=ell))
        worst_dev = max(worst_dev, rep.max_deviation)
    for x in coprime_bases(15):
        inst = ProblemInstance.create(15, x)
        r = multiplicative_order(x, 15)
        assert inst.q % r == 0  # divisible-order cases
        pre = apply_modexp_fanout(init_uniform(inst, ell=1), inst)
        entropy = von_neumann_entropy(schmidt_spectrum(pre, cut_after=1))
        worst_entropy_err = max(worst_entropy_err, abs(entropy - math.log2(r)))
    ok = worst_dev <= 1e-10 and worst_entropy_err <= 1e-10
    report(
        7,
        "transform leaves the control-cut spectrum unchanged; entropy = log2 r",
        ok,
        f"max spectrum deviation {worst_dev:.3e}, "
        f"max entropy error {worst_entropy_err:.3e}",
    )


def test_08_fanout_linearity():
    rep = linearity_check(ProblemInstance.create(15, 7), range(256))
    ok = rep.max_discrepancy <= 1e-12
    report(
        8,
        "superposed fan-out equals per-basis-state assembly over the full range",
        ok,
        f"max discrepancy {rep.max_discrepancy:.3e}",
    )


def test_09_success_rate():
    rep = success_rate_estimate(
        ProblemInstance.create(15, 7), trials=10_000, multiplier_bound=1, seed=42
    )
    ok = (
        0.48 <= rep.empirical_rate <= 0.52
        and abs(rep.exact_rate - 0.5) <= 1e-12
        and rep.exact_rate >= 1 / 6
    )
    report(
        9,
        "single-sample success rate at multiplier bound 1 (n=15, x=7)",
        ok,
        f"empirical {rep.empirical_rate:.4f}, exact {rep.exact_rate:.4f}, "
        f"floor 1/6 = {rep.bound_phi_over_3r:.4f}",
    )


def test_10_end_to_end_factoring():
    expectations = {15: (3, 5), 21: (3, 7), 35: (5, 7)}
    ok = True
    details = []
    for n, expected in expectations.items():
        started = time.perf_counter()
        pair, trace = factor(n, max_attempts=100, seed=1)
        elapsed = time.perf_counter() - started
        got = (pair.f1, pair.f2) if pair else None
        ok = ok and got == expected and len(trace.attempts) <= 100 and elapsed < 30.0
        details.append(f"{n}->{got} in {len(trace.attempts)} attempt(s), {elapsed:.2f}s")
    report(10, "seeded end-to-end factoring", ok, "; ".join(details))
