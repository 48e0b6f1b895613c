"""The one verdict mechanism: every claim a run checks is a `Check`.

A report exposes its claims as a `checks` property, so its JSON payload holds
only measurements; the command writes them to the envelope's `checks` list
and exits 0 iff every one passed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

_HOLDS = {"<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """`value relation bound`, held with `margin` to spare (negative when it failed)."""

    name: str
    value: float
    relation: str
    bound: float
    margin: float
    passed: bool


def check(name: str, value: float, relation: str, bound: float) -> Check:
    """The Check of `value relation bound`, relation one of `<=`, `>`, `>=`. The
    margin is bound - value for `<=` and value - bound otherwise; NaN fails."""
    value, bound = float(value), float(bound)
    margin = bound - value if relation == "<=" else value - bound
    return Check(name, value, relation, bound, margin, _HOLDS[relation](value, bound))
