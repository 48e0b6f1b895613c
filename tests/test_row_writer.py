"""`registers.write_rows` against Python's `%` formatting.

Every row must be exactly `(sep.join(templates) + end) % row`, with `'%d'`
for an integer column and `'%.17g'` for a float column. The writer formats
in numpy and hands Python only the values it cannot decide, so the cases
below aim at both sides of each decision: the kernel's value range, the
`%g` switch between fixed and exponent notation, exact decimal ties, the
powers of ten where log10 may be off by one, and the chunk boundaries.
"""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shorsim
from shorsim.distributions import measurement_distribution
from shorsim.pipeline import run_pipeline
from shorsim.registers import (
    _FLOAT_WORDS,
    CSV_CHUNK_ROWS,
    ProblemInstance,
    _float_words,
    write_rows,
)


def reference(columns, sep, end) -> bytes:
    columns = [np.asarray(column) for column in columns]
    row = sep.join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + end
    return "".join(row % values for values in zip(*(c.tolist() for c in columns))).encode()


def written(columns, sep, end) -> bytes:
    fh = io.BytesIO()
    write_rows(fh, columns, sep, end)
    return fh.getvalue()


def assert_floats_written_exactly(values):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    lines = written([values], "", "\n").decode().split("\n")[:-1]
    assert lines == ["%.17g" % v for v in values.tolist()]


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def decimal_ties():
    """{m / 2**e: its digits m * 5**e} for odd m, where the exact decimal
    expansion m * 5**e / 10**e has 18 significant digits, the last a 5."""
    ties = {}
    for e in range(2, 26):
        low, high = -(-(10**17) // 5**e), min(10**18 // 5**e, 2**53)
        for m in (low | 1, (low | 1) + 2, (high - 1) | 1, (high // 3) | 1):
            if m < high and len(str(m * 5**e)) == 18:
                ties[math.ldexp(m, -e)] = str(m * 5**e)
    return ties


# The full range, specials included, and the kernel's range twice over.
floats = st.floats(width=64) | st.floats(-10.0, 10.0) | st.floats(1e-25, 1e-3)
integers = st.integers(0, 2**63 - 1) | st.integers(0, 10**5)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kinds=st.lists(st.sampled_from("fi"), min_size=1, max_size=4),
    sep=st.sampled_from([",", " ", ", ", "\t"]),
    end=st.sampled_from(["\n", "\r\n"]),
)
def test_rows_equal_percent_formatting(data, kinds, sep, end):
    rows = data.draw(st.integers(0, 40), label="rows")
    columns = []
    for kind in kinds:
        values = st.lists(floats if kind == "f" else integers, min_size=rows, max_size=rows)
        columns.append(np.array(data.draw(values), dtype=np.float64 if kind == "f" else np.int64))
    assert written(columns, sep, end) == reference(columns, sep, end)


def test_special_values():
    tiny = np.finfo(np.float64).tiny
    assert_floats_written_exactly(
        [0.0, math.inf, math.nan, 5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny,
         np.finfo(np.float64).max]
    )


def test_powers_of_ten_and_their_neighbours():
    exponents = range(-25, 18)
    assert_floats_written_exactly(neighbours([10.0**k for k in exponents]))
    assert_floats_written_exactly(neighbours([float(f"1e{k}") for k in exponents]))


def test_exact_decimal_ties_round_half_to_even():
    ties = decimal_ties()
    # Both sides of the kernel's range; 17th digits of both parities, so
    # half to even rounds some ties down and some up.
    assert min(ties) < 10 < max(ties)
    assert {int(digits[16]) % 2 for digits in ties.values()} == {0, 1}
    assert_floats_written_exactly(list(ties))


def test_notation_switches():
    # %g prints 1e-4 as 0.0001 and 1e-5 as 1.0000000000000001e-05.
    assert_floats_written_exactly(
        neighbours([1.0, 9.999999999999998, 1e-4, 1e-5, 0.5, 0.1, 1 / 3])
        .tolist() + [1.2345e-4, 9.87e-5, 1.5e-5, 9.5e-6, 0.25, 0.0625, 2.0**-60]
    )


@pytest.mark.parametrize("rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
def test_chunk_boundaries(rows):
    rng = np.random.default_rng(rows)
    columns = [
        np.arange(rows, dtype=np.int64),
        rng.integers(0, 2**40, rows),
        rng.random(rows) ** 8,
        rng.standard_normal(rows),
    ]
    assert written(columns, ",", "\r\n") == reference(columns, ",", "\r\n")


def test_integers_of_every_width():
    values = [0, 1, 9, 10, 9999, 10000, 12345678, 10**17, 2**63 - 1]
    columns = [np.array(values, dtype=np.int64), np.array(values[::-1], dtype=np.int64)]
    assert written(columns, " ", "\n") == reference(columns, " ", "\n")


def test_negative_integers():
    columns = [np.array([5, -1, -(2**63), 12, -9999], dtype=np.int64), np.full(5, -0.25)]
    assert written(columns, ",", "\r\n") == reference(columns, ",", "\r\n")


def test_outcome_table_columns():
    # The probabilities and amplitude parts the CLI writes; numpy decides
    # every one of them but the zeros.
    state = run_pipeline(ProblemInstance.create(33, 5), ell=2)
    dist = measurement_distribution(state)
    columns = [*dist.registers(), dist.probs]
    assert written(columns, ",", "\r\n") == reference(columns, ",", "\r\n")
    index, amps = state.nonzero_arrays()
    columns = [index, amps.real, amps.imag]
    assert written(columns, " ", "\n") == reference(columns, " ", "\n")
    for column in (dist.probs, amps.real, amps.imag):
        undecided = _float_words(column, np.empty((column.size, _FLOAT_WORDS), dtype=np.uint32))
        assert np.all(column[undecided] == 0.0)


def test_cli_import_loads_neither_fractions_nor_decimal(tmp_path):
    src = str(Path(shorsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import shorsim.cli"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "shorsim.cli" in imported
    assert not imported & {"fractions", "decimal", "_decimal", "_pydecimal"}

    # Nor does any subcommand load them, numpy.ma, or the undeclared scipy
    # once it runs: each writes the modules it ended with to a file. The
    # `distribution` run is perfbench's warm-up command, so a module it loads
    # (numpy.ma costs about 15 ms) would show in `setup_s`.
    script = (
        "import sys; from shorsim.cli import main; code = main(sys.argv[2:]); "
        "open(sys.argv[1], 'w').write('\\n'.join(sys.modules)); sys.exit(code)"
    )
    runs = {
        "distribution": ["--x", "7"],
        "audit": ["--x", "7"],
        "bound": ["--x", "7"],
        "factor": [],
        "entanglement": ["--x", "7"],
    }
    for command, flags in runs.items():
        listing = tmp_path / f"{command}.modules"
        argv = [command, "--n", "15", *flags, "--output-dir", str(tmp_path / command)]
        subprocess.run(
            [sys.executable, "-c", script, str(listing), *argv],
            capture_output=True,
            env=env,
            check=True,
        )
        loaded = listing.read_text().splitlines()
        assert "shorsim.cli" in loaded
        forbidden = [
            name for name in loaded
            if name.split(".")[0] in {"scipy", "fractions", "decimal", "_decimal", "_pydecimal"}
            or name == "numpy.ma" or name.startswith("numpy.ma.")
        ]
        assert forbidden == [], command
