"""Output checks, run by run.py on the first pass's outputs after the child
has exited, so none of their cost is timed.

Each check returns a list of problems; an empty list means the unit's outputs
are correct. Later passes are checked by comparing their output hashes with
the first pass, which holds because reruns are deterministic.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TOLERANCE = 1e-12
STANDARD_ERRORS = 5


def _read_distribution(path: Path) -> dict[tuple[int, ...], float]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return {tuple(int(v) for v in row[:-1]): float(row[-1]) for row in rows}


def _control_ladder(unit: dict, unit_dir: Path) -> list[str]:
    from shorsim import ProblemInstance, analytic_joint_probability

    n, x, r = (unit["instance"][key] for key in ("n", "x", "r"))
    instance = ProblemInstance.create(n, x)
    exponent = {pow(x, k, n): k for k in range(r)}
    rows = _read_distribution(unit_dir / "distribution" / "distribution.csv")
    problems = []
    worst = 0.0
    for (c, y), p in rows.items():
        if y not in exponent:
            problems.append(f"row ({c}, {y}): {y} is not a power of {x} mod {n}")
            break
        worst = max(worst, abs(p - analytic_joint_probability(instance, r, c, exponent[y])))
    if worst > TOLERANCE:
        problems.append(f"max |p_csv - p_analytic| = {worst:.3e} > {TOLERANCE}")
    total = math.fsum(rows.values())
    if abs(total - 1.0) > TOLERANCE:
        problems.append(f"total probability {total!r} is not 1 within {TOLERANCE}")
    return problems


def _multi_register(unit: dict, unit_dir: Path) -> list[str]:
    dense = _read_distribution(unit_dir / "dense_gates" / "distribution.csv")
    sparse = _read_distribution(unit_dir / "sparse_direct" / "distribution.csv")
    worst = max(abs(dense.get(o, 0.0) - sparse.get(o, 0.0)) for o in dense.keys() | sparse)
    if worst > TOLERANCE:
        return [f"dense/gates and sparse/direct differ by {worst:.3e} > {TOLERANCE}"]
    return []


def _factor_sampling(unit: dict, unit_dir: Path) -> list[str]:
    n = unit["instance"]["n"]
    problems = []
    trace = json.loads((unit_dir / "factor" / "factor_trace.json").read_text())
    factors = trace["report"]["factors"]
    if not factors or not 1 < factors[0] <= factors[1] < n or factors[0] * factors[1] != n:
        problems.append(f"factors {factors} are not a non-trivial split of {n}")
    report = json.loads((unit_dir / "success_rate" / "report.json").read_text())
    exact, empirical = report["exact_rate"], report["empirical_rate"]
    allowed = STANDARD_ERRORS * math.sqrt(exact * (1.0 - exact) / report["trials"])
    if not 0.0 < exact <= 1.0 or abs(empirical - exact) > allowed:
        problems.append(
            f"empirical rate {empirical} vs exact {exact}: more than "
            f"{STANDARD_ERRORS} standard errors ({allowed:.3e}) apart"
        )
    return problems


_CHECKS = {
    "control-ladder": _control_ladder,
    "multi-register": _multi_register,
    "factor-sampling": _factor_sampling,
}


def check_unit(workload: str, unit: dict, unit_dir: Path) -> list[str]:
    """Problems with one unit's outputs; missing or unreadable files are problems too."""
    try:
        return _CHECKS[workload](unit, unit_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
