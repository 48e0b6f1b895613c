"""Array-valued outcome tables against the dict-based code they replaced.

The `oracle_*` functions are the per-outcome dict implementations that the
array code in `distributions`, `entanglement`, `orderfinding` and the CLI's
`--top` replaced, kept verbatim in spirit: one Python dict entry per outcome,
summed in dict (= ascending state) order. Every reduction the array code
performs is arranged to add the same floats in the same order, so the
property asserts equality with `==`, not a tolerance. The total is the
exception: both sides take the correctly rounded `math.fsum`, which no
summation order changes.
"""

import heapq
import json
import math
import tempfile
from operator import itemgetter
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from shorsim import distributions
from shorsim.cli import main
from shorsim.distributions import (
    conditional,
    marginal,
    measurement_distribution,
    multi_register_audit,
)
from shorsim.entanglement import register_correlation
from shorsim.numtheory import prime_factors
from shorsim.orderfinding import sample_outcomes
from shorsim.pipeline import run_pipeline
from shorsim.registers import ProblemInstance, distinct_positions

FACTORABLE_N = [n for n in range(9, 151, 2) if len(prime_factors(n)) > 1]


def as_dict(dist) -> dict:
    """The old `OutcomeDistribution.entries`: outcome tuple -> probability, in array order."""
    return dict(zip(dist.outcome_tuples(), dist.probs.tolist()))


def oracle_total(entries):
    return math.fsum(entries.values())


def oracle_marginal(entries, positions, keep):
    pick = itemgetter(*(positions.index(p) for p in keep))
    reduced_entries = {}
    for outcome, prob in entries.items():
        reduced = pick(outcome)
        reduced_entries[reduced] = reduced_entries.get(reduced, 0.0) + prob
    if len(keep) == 1:
        reduced_entries = {(value,): prob for value, prob in reduced_entries.items()}
    return reduced_entries


def oracle_distinct_positions(keys):
    """The set-based `distinct_positions` replaced by a sort and a boundary mask."""
    distinct = np.array(sorted(set(keys.tolist())), dtype=np.int64)
    return distinct, np.searchsorted(distinct, keys)


def oracle_conditional(entries, positions, given_values):
    slots = {positions.index(p): v for p, v in given_values.items()}
    matching = {
        outcome: prob
        for outcome, prob in entries.items()
        if all(outcome[i] == v for i, v in slots.items())
    }
    mass = sum(matching.values())
    return {outcome: prob / mass for outcome, prob in matching.items()}


def oracle_top(entries, top):
    return heapq.nsmallest(top, entries.items(), key=lambda kv: (-kv[1], kv[0]))


def oracle_cdf(entries):
    items = sorted(entries.items())
    return [outcome for outcome, _ in items], np.cumsum([prob for _, prob in items])


def oracle_audit(single, multi):
    """(equal-outcome discrepancy, unequal-register mass, modal outcome, modal joint)."""
    equal = {(outcome[0], outcome[1]): prob for outcome, prob in multi.items()
             if len(set(outcome[1:])) == 1}
    worst = 0.0
    for key in set(single) | set(equal):
        worst = max(worst, abs(equal.get(key, 0.0) - single.get(key, 0.0)))
    unequal_mass = 0.0
    for outcome, prob in multi.items():
        ys = outcome[1:]
        if any(y != ys[0] for y in ys[1:]):
            unequal_mass += prob
    modal_outcome, modal_joint = max(sorted(multi.items()), key=lambda item: (item[1], item[0]))
    return worst, unequal_mass, modal_outcome, modal_joint


def oracle_correlation(entries, positions, i, j):
    pair = oracle_marginal(entries, positions, (i, j))
    p_equal = 0.0
    p_unequal = 0.0
    table = []
    for (yi, yj), prob in sorted(pair.items()):
        table.append((yi, yj, prob))
        if yi == yj:
            p_equal += prob
        else:
            p_unequal += prob
    return float(p_equal), float(p_unequal), tuple(table)


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_array_tables_equal_dict_oracles(data):
    n = data.draw(st.sampled_from(FACTORABLE_N), label="n")
    x = data.draw(st.sampled_from([x for x in range(2, n) if math.gcd(x, n) == 1]), label="x")
    ell = data.draw(st.sampled_from([1, 2, 3]), label="ell")
    instance = ProblemInstance.create(n, x)
    dist = measurement_distribution(run_pipeline(instance, ell=ell))
    entries = as_dict(dist)
    positions = dist.positions

    assert len(dist.entries) == len(entries)
    assert dist.total() == oracle_total(entries)

    extra = data.draw(st.lists(st.integers(-(2**62), 2**62), max_size=40), label="keys")
    # The function-register contents of every outcome, as the transform gathers them.
    keys = np.concatenate([dist.index % dist.layout.right_dim, np.array(extra, dtype=np.int64)])
    for got, expected in zip(distinct_positions(keys), oracle_distinct_positions(keys)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    keep = data.draw(
        st.lists(st.sampled_from(positions), min_size=1, unique=True), label="keep"
    )
    assert as_dict(marginal(dist, keep)) == oracle_marginal(entries, positions, sorted(keep))

    row = data.draw(st.integers(0, dist.index.size - 1), label="row")
    outcome = dist.outcome_tuples([row])[0]
    given_positions = data.draw(
        st.lists(st.sampled_from(positions), min_size=1, unique=True), label="given"
    )
    given_values = {p: outcome[p - 1] for p in given_positions}
    assert as_dict(conditional(dist, given_values)) == oracle_conditional(
        entries, positions, given_values
    )
    assert dist.probability(outcome) == entries[outcome]

    outcomes, cdf = oracle_cdf(entries)
    assert dist.outcome_tuples() == outcomes
    assert np.array_equal(dist.cdf, cdf)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    sampled = sample_outcomes(dist, 64, seed)
    picks = np.minimum(
        np.searchsorted(cdf, np.random.default_rng(seed).random(64), side="right"),
        len(outcomes) - 1,
    )
    assert sampled == [outcomes[i] for i in picks]

    top = data.draw(st.integers(0, 40), label="top")
    with tempfile.TemporaryDirectory() as out:
        argv = ["distribution", "--n", n, "--x", x, "--ell", ell, "--top", top]
        assert main([str(a) for a in argv] + ["--format", "json", "--output-dir", out]) == 0
        report = json.loads((Path(out) / "distribution.json").read_text())["report"]
    assert report["top_outcomes"] == [
        {"outcome": list(o), "probability": p} for o, p in oracle_top(entries, top)
    ]
    assert report["total_probability"] == oracle_total(entries)
    for p, name in enumerate(dist.column_names(), start=1):
        expected = sorted(oracle_marginal(entries, positions, (p,)).items())
        assert report["marginals"][name] == [
            {name[0]: value, "probability": prob} for (value,), prob in expected
        ]

    if ell >= 2:
        i, j = sorted(data.draw(st.permutations(range(2, ell + 2)), label="pair")[:2])
        correlation = register_correlation(dist, i, j)
        assert (correlation.p_equal, correlation.p_unequal, correlation.table) == (
            oracle_correlation(entries, positions, i, j)
        )

        single = measurement_distribution(run_pipeline(instance, ell=1))
        audit = multi_register_audit(instance, single, dist)
        assert (
            audit.equal_outcome_discrepancy,
            audit.unequal_register_mass,
            audit.modal_outcome,
            audit.modal_joint_probability,
        ) == oracle_audit(as_dict(single), entries)


def test_wide_marginals_sum_like_the_dense_table(monkeypatch):
    # Marginals wider than MARGINAL_TABLE_BITS map their keys through
    # distinct_positions instead of a 2**bits table; force that route here.
    dist = measurement_distribution(run_pipeline(ProblemInstance.create(21, 2), ell=2))
    entries = as_dict(dist)
    for keep in ((1,), (3,), (2, 3), (1, 2, 3)):
        table = marginal(dist, keep)
        monkeypatch.setattr(distributions, "MARGINAL_TABLE_BITS", 0)
        wide = marginal(dist, keep)
        monkeypatch.undo()
        assert np.array_equal(wide.index, table.index)
        assert np.array_equal(wide.probs, table.probs)
        assert as_dict(wide) == oracle_marginal(entries, dist.positions, keep)
