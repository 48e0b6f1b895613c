"""`registers.write_rows` against Python's `%` formatting.

Every row must be exactly `(sep.join(templates) + end) % row`, with `'%d'`
for an integer column and `'%.17g'` for a float column, and in general each
entry followed by its column's tail. The writer formats in numpy and hands
Python only the values it cannot decide, so the cases below aim at both
sides of each decision: the kernel's value range, the `%g` switch between
fixed and exponent notation, exact decimal ties, the powers of ten where
log10 may be off by one, and the chunk boundaries.

With `json_floats`, the kernel's shortest mode that JSON record rows use,
each float must be `json.dumps(v)`: `repr(v)`, but `NaN` and `Infinity` for
the non-finite values. The cases below aim at the same decisions plus the
mode's choice among the 15-, 16- and 17-digit roundings: powers of two,
values with few significant digits, binary fractions k/q, values where
several 16-digit decimals read back as the double, values that need all 17
digits, and whole numbers.
"""

import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import shorsim
from shorsim import registers
from shorsim.distributions import marginal, measurement_distribution
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


def written(columns, sep, end, json_floats=False) -> bytes:
    fh = io.BytesIO()
    write_rows(fh, columns, [sep] * (len(columns) - 1) + [end], json_floats)
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


# Around the end of the first chunk and of the second.
CHUNK_EDGES = [k * CSV_CHUNK_ROWS + d for k in (1, 2) for d in (-1, 0, 1)]


@pytest.mark.parametrize("rows", [0, 1, *CHUNK_EDGES])
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


@pytest.mark.parametrize("json_floats", [False, True])
@pytest.mark.parametrize("rows", [1, 7, *(edge for edge in CHUNK_EDGES if edge % CSV_CHUNK_ROWS)])
def test_per_column_tails(rows, json_floats):
    # Each entry is followed by its own column's tail, of any length: quotes,
    # `%` (no template sees it) and escaped non-ASCII keys, as JSON rows have.
    rng = np.random.default_rng(rows)
    columns = [
        np.arange(rows, dtype=np.int64) - 3,
        rng.random(rows) ** 8,
        rng.integers(0, 2**40, rows),
        np.where(np.arange(rows) % 5 == 0, math.nan, rng.standard_normal(rows)),
    ]
    tails = [
        ', "100%": ',
        f",\n      {encode_basestring_ascii('ключ-é ✓')}: ",
        ' %d%%s "q" ',
        '\n  },\n  {"c": ',
    ]
    float_text = json.dumps if json_floats else "%.17g".__mod__
    expected = "".join(
        "".join(
            (float_text(value) if type(value) is float else "%d" % value) + tail
            for value, tail in zip(row, tails)
        )
        for row in zip(*(column.tolist() for column in columns))
    )
    fh = io.BytesIO()
    write_rows(fh, columns, tails, json_floats)
    assert fh.getvalue() == expected.encode()


def test_columns_of_unequal_length_are_refused_before_writing():
    fh = io.BytesIO()
    with pytest.raises(ValueError, match="one length"):
        write_rows(fh, [np.arange(3), np.full(2, 0.5)], [",", "\n"])
    assert fh.getvalue() == b""


@pytest.mark.parametrize("dtype", [bool, np.uint64])
def test_columns_not_safely_cast_to_int64_or_float64_are_refused(dtype):
    fh = io.BytesIO()
    with pytest.raises(TypeError):
        write_rows(fh, [np.arange(3), np.ones(3, dtype=dtype)], [",", "\n"])
    assert fh.getvalue() == b""


def gather_path_taken(monkeypatch, columns) -> bool:
    """Write `columns` and check the bytes; whether an integer column took
    the gathered path (`_gathered_words`) rather than `_int_words`."""
    tables = []
    gathered = registers._gathered_words

    def recording(table, column, out):
        tables.append(table)
        return gathered(table, column, out)

    monkeypatch.setattr(registers, "_gathered_words", recording)
    assert written(columns, ",", "\n") == reference(columns, ",", "\n")
    return bool(tables)


@pytest.mark.parametrize(
    "values, gathered",
    [
        (np.arange(100) % 7, True),
        (np.arange(100)[::-1] - 1, False),  # holds -1
        (np.r_[np.arange(99), 99], True),  # largest value one below the row count
        (np.r_[np.arange(99), 100], False),  # equal to the row count
        (np.r_[np.arange(99), 10**6], False),
        (np.zeros(10, dtype=np.int64), True),
        (np.array([0]), True),
        (np.array([1]), False),
        (np.arange(12000)[::-1] % 10001, True),  # one and two words
        (np.arange(CSV_CHUNK_ROWS - 1)[::-1], True),
        (np.arange(CSV_CHUNK_ROWS + 1) % 10007, True),
        (np.r_[np.arange(CSV_CHUNK_ROWS - 1), CSV_CHUNK_ROWS], False),
        (np.array([np.iinfo(np.int64).max, 0, 1]), False),
        (np.array([np.iinfo(np.int64).min, 0, 1]), False),
        (np.array([-5, -1, 0, 3]), False),
    ],
)
def test_integer_column_paths(monkeypatch, values, gathered):
    # Non-negative columns whose largest value is below their row count
    # gather each row's words from one formatted arange; the rest take the
    # per-chunk path. Both must give `%d`.
    values = np.asarray(values, dtype=np.int64)
    columns = [values, np.arange(values.size)[::-1], np.full(values.size, 0.125)]
    assert gather_path_taken(monkeypatch, [values]) is gathered
    assert written(columns, ",", "\r\n") == reference(columns, ",", "\r\n")


def test_negative_integers():
    columns = [np.array([5, -1, -(2**63), 12, -9999], dtype=np.int64), np.full(5, -0.25)]
    assert written(columns, ",", "\r\n") == reference(columns, ",", "\r\n")


def test_outcome_table_columns():
    # The probabilities and amplitude parts the CLI writes; numpy decides
    # every one of them but the zeros.
    state = run_pipeline(ProblemInstance.create(33, 5), ell=2)
    # Read before measuring, which consumes the state.
    index, amps = state.nonzero_arrays()
    dist = measurement_distribution(state)
    columns = [*dist.registers(), dist.probs]
    assert written(columns, ",", "\r\n") == reference(columns, ",", "\r\n")
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


# json.dumps spells the non-finite floats apart from repr.
JSON_SPELLINGS = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def assert_reprs(values) -> float:
    """`write_rows` with `json_floats` writes `repr` of `values` and of their
    negations, in json's spellings; returns the share the kernel's shortest
    mode leaves to Python."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    lines = written([values], "", "\n", json_floats=True).decode().split("\n")[:-1]
    assert [JSON_SPELLINGS.get(line, line) for line in lines] == [repr(v) for v in values.tolist()]
    out = np.empty((values.size, _FLOAT_WORDS), dtype=np.uint32)
    return _float_words(values, out, shortest=True).size / values.size


# Raw 64-bit patterns cover every exponent, specials included; the kernel
# decides only 1e-24 <= |v| < 10, so half the patterns come from that band.
raw_bits = st.integers(0, 2**64 - 1)
band_bits = st.builds(
    lambda exponent, mantissa: (exponent << 52) | mantissa,
    st.integers(1023 - 80, 1023 + 3),
    st.integers(0, 2**52 - 1),
)


@seed(1409_7352)
@settings(max_examples=300, deadline=None)
@given(st.lists(raw_bits | band_bits, min_size=1, max_size=64))
def test_reprs_of_raw_bit_patterns(patterns):
    assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_reprs_of_powers_of_two_and_ten():
    assert_reprs(neighbours([2.0**e for e in range(-90, 6)]))
    assert_reprs(neighbours([10.0**k for k in range(-24, 2)]))
    assert_reprs(neighbours([float(f"1e{k}") for k in range(-24, 2)]))


def test_reprs_of_few_significant_digits():
    rng = np.random.default_rng(17)
    values = []
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, 40)
        exponents = rng.integers(-27, 3, 40) - digits
        values += [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    assert_reprs(neighbours(values))


def test_reprs_of_special_values():
    tiny = np.finfo(np.float64).tiny
    specials = [0.0, math.inf, math.nan, 5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny,
                np.finfo(np.float64).max, 9.999999999999999e-05, 9.999999999999998,
                1e-4, 1e-5, 0.1, 1 / 3, 2 / 3]
    # 0.1's 17-digit rounding is 0.10000000000000001, and 43/256 = 0.16796875
    # is exact in 8 digits: both are their 15-digit rounding.
    short = neighbours([0.1, 43 / 256]).tolist()
    assert_reprs(specials + short + [float(d) for d in range(1, 10)])
    # repr writes a whole number as "d.0", which the kernel leaves to Python.
    assert assert_reprs([2.0, 7.0]) == 1.0


def test_reprs_of_exact_decimal_ties():
    assert_reprs(list(decimal_ties()))


@pytest.mark.parametrize("bits", range(8, 16))
def test_reprs_of_binary_fractions(bits):
    # k/q with q = 2^bits, the probabilities of the y-marginal of small runs.
    q = 1 << bits
    assert_reprs(np.arange(1, q) / q)


def test_reprs_where_several_16_digit_decimals_read_back():
    # In [8, 10) an ulp (2^-49) exceeds the 16-digit step (1e-15), so two
    # 16-digit decimals may read back as v; repr takes the nearer.
    rng = np.random.default_rng(23)
    values = [
        v for v in rng.uniform(8, 10, 4000).tolist()
        if float("%.15g" % v) != v
        and sum(float(f"{m}e-15") == v for m in range(int(v * 1e15) - 2, int(v * 1e15) + 3)) > 1
    ]
    assert len(values) > 100
    assert_reprs(neighbours(values))


def test_reprs_that_need_17_digits():
    rng = np.random.default_rng(29)
    values = 10.0 ** rng.uniform(-24, 1, 4000)
    values = [v for v in values.tolist() if float("%.16g" % v) != v]
    assert len(values) > 100
    assert_reprs(values)


def test_repr_is_the_first_of_three_roundings_that_reads_back():
    # The premise of the shortest mode, with the standard library only: a
    # double's repr is its 15-digit rounding if that reads back as it, else
    # its 16-digit rounding if that does, else its 17-digit rounding.
    rng = random.Random(31)
    checked = 0
    while checked < 20000:
        pattern = (rng.randrange(1023 - 80, 1023 + 4) << 52) | rng.getrandbits(52)
        (v,) = struct.unpack("<d", struct.pack("<Q", pattern))
        if not 1e-24 <= v < 10:
            continue
        texts = ["%.15g" % v, "%.16g" % v, "%.17g" % v]
        assert repr(v) == next(text for text in texts if float(text) == v)
        checked += 1


@pytest.mark.parametrize("n, x", [(33, 17), (55, 19), (77, 8), (99, 73)])
def test_reprs_of_outcome_tables(n, x):
    # Order 10 at q = 2^11 .. 2^14: the outcome probabilities and both
    # marginals. The kernel must decide nearly all of them: a kernel that
    # left every value to Python would still write the right texts.
    dist = measurement_distribution(run_pipeline(ProblemInstance(n, x)))
    for probs in (dist.probs, marginal(dist, (1,)).probs, marginal(dist, (2,)).probs):
        assert assert_reprs(probs) <= 0.01
