import math

import numpy as np
import pytest

from shorsim.checks import Check, check


@pytest.mark.parametrize(
    "relation,value,bound,margin,passed",
    [
        ("<=", 0.5, 1.0, 0.5, True),
        ("<=", 1.0, 1.0, 0.0, True),
        ("<=", 1.5, 1.0, -0.5, False),
        (">", 1.5, 1.0, 0.5, True),
        (">", 1.0, 1.0, 0.0, False),
        (">", 0.5, 1.0, -0.5, False),
        (">=", 1.5, 1.0, 0.5, True),
        (">=", 1.0, 1.0, 0.0, True),
        (">=", 0.5, 1.0, -0.5, False),
    ],
)
def test_margin_sign_and_passed(relation, value, bound, margin, passed):
    assert check("claim", value, relation, bound) == Check(
        "claim", value, relation, bound, margin, passed
    )


@pytest.mark.parametrize("relation", ["<=", ">", ">="])
def test_nan_fails(relation):
    for value, bound in ((math.nan, 1.0), (1.0, math.nan)):
        result = check("claim", value, relation, bound)
        assert result.passed is False
        assert math.isnan(result.margin)


def test_numpy_scalars_become_floats():
    result = check("claim", np.float64(0.25), "<=", 1)
    assert type(result.value) is float and type(result.bound) is float
    assert type(result.passed) is bool


def test_unknown_relation_is_refused():
    with pytest.raises(KeyError):
        check("claim", 0.0, "<", 1.0)
