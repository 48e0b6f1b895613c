"""`cli.format_json` against the standard library.

Every report file must be exactly `json.dump(document, fh, indent=2)`
followed by a newline. The writer renders each `RecordTable` from its
columns, as `json` would render its rows as dicts, and hands everything else
to `json`; the synthetic documents below mix in values of every kind.
"""

import json
import math

import numpy as np
import pytest

from shorsim.cli import RecordTable, format_json, main


def reference(value) -> str:
    return json.dumps(value, indent=2) + "\n"


COMMANDS = [
    *(["distribution", "--n", n, "--x", x, "--ell", ell]
      for n, x, ell in ((15, 7, 1), (15, 7, 2), (21, 2, 1), (21, 2, 3), (33, 5, 1))),
    ["distribution", "--n", 21, "--x", 2, "--backend", "dense", "--qft", "gates", "--top", 0],
    *(["audit", "--n", n, "--x", x, "--ell", ell]
      for n, x, ell in ((15, 7, 2), (15, 7, 3), (21, 2, 2))),
    *(["bound", "--n", n, "--x", x] for n, x in ((15, 7), (21, 2), (35, 2))),
    *(["entanglement", "--n", n, "--x", x, "--ell", ell]
      for n, x, ell in ((15, 7, 1), (15, 7, 3), (21, 2, 2))),
    *(["factor", "--n", n, "--seed", seed] for n, seed in ((15, 0), (21, 1), (35, 1), (33, 3))),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "_".join(map(str, argv)))
def test_report_files_equal_json_dump(argv, tmp_path):
    assert main([str(a) for a in argv] + ["--output-dir", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("*.json")
    text = path.read_text()
    document = json.loads(text)
    assert format_json(document) + "\n" == reference(document) == text


SYNTHETIC = {
    "bool": True,
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    'escaped "key"\n\t\\': "tab\t, quote \", backslash \\ and  ",
    "non-ascii-ключ-é": "ünïcödé ✓ 😀",
    "empty_list": [],
    "empty_dict": {},
    "nested_lists": [[1, 2], [], [[3.0, [4]]]],
    "tuple": (1, 2.5),
    "ints_next_to_floats": [{"c": 0, "p": 0.5}, {"c": 1, "p": 1}, {"c": 2.0, "p": -0.0}],
    "extreme_numbers": [{"i": 10**30, "f": 1e300, "neg": -5, "tiny": 5e-324, "g": 1e16}],
    "percent_in_keys": [{"100%": 1, "%d": 2.0, "%r%%s": 3}],
    "bool_in_record": [{"c": 0, "ok": True}],
    "nan_in_record": [{"c": 0, "p": 0.1}, {"c": 1, "p": math.nan}],
    "inf_in_record": [{"c": 0, "p": -math.inf}],
    "none_in_record": [{"c": 0, "p": None}],
    "string_in_record": [{"c": 0, "p": "x"}],
    "list_in_record": [{"c": 0, "p": [1]}],
    "numpy_float_in_record": [{"c": 0, "p": np.float64(0.25)}],
    "key_order_differs": [{"c": 0, "p": 0.1}, {"p": 0.2, "c": 1}],
    "key_missing": [{"c": 0}, {"c": 1, "p": 0.2}],
    "record_then_scalar": [{"c": 0}, 3],
    "scalar_then_record": [3, {"c": 0}],
    "empty_record": [{}],
    "non_string_keys": {1: "a", 2.5: "b", None: "c", True: "d"},
    "non_string_record_keys": [{1: 0}, {1: 1}],
    "deep": {"a": {"b": {"c": [{"x": 1, "y": 2.0}], "d": {}}}},
}


@pytest.mark.parametrize(
    "document",
    [
        SYNTHETIC,
        {"only": SYNTHETIC},
        [SYNTHETIC, [SYNTHETIC]],
        [{"a": 1}, {"a": 2.0}],
        [],
        {},
        3.5,
        "text",
        None,
    ],
)
def test_synthetic_documents_equal_json_dump(document):
    assert format_json(document) + "\n" == reference(document)


@pytest.mark.parametrize("key", sorted(SYNTHETIC))
def test_each_synthetic_value_alone(key):
    for wrapped in ({key: SYNTHETIC[key]}, {"outer": {key: SYNTHETIC[key]}}):
        assert format_json(wrapped) + "\n" == reference(wrapped)


def floats(*values):
    return np.array(values, dtype=np.float64)


def ints(*values):
    return np.array(values, dtype=np.int64)


RECORD_TABLES = {
    "empty": RecordTable(("c", "probability"), (ints(), floats())),
    "one_row": RecordTable(("c", "probability"), (ints(7), floats(0.0625))),
    "repeated_bit_patterns": RecordTable(
        ("c", "probability"), (ints(0, 1, 2, 3, 4, 5), floats(0.1, 0.1, 0.25, 0.1, 0.25, 1 / 3))
    ),
    "signed_zeros": RecordTable(("y", "p"), (ints(0, 1, 2, 3), floats(0.0, -0.0, -0.0, 0.0))),
    "edge_floats": RecordTable(
        ("p",), (floats(5e-324, 1e16, 1e-5, 1.0, 1e-4, 123456789.0, -2.5e-310, 1e300),)
    ),
    "int64_extremes": RecordTable(
        ("i", "f"),
        (ints(np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, -5),
         floats(-1.5, 2.0, -0.0, 3e-8, 1e22)),
    ),
    "special_keys": RecordTable(
        ("100%", 'quote "q"', "ключ-é ✓", "%s%%r"),
        (ints(1, 2), floats(0.5, 0.5), ints(-3, 4), floats(1e-5, -1e-5)),
    ),
    "non_finite": RecordTable(
        ("c", "p", "q"),
        (ints(0, 1, 2, 3), floats(math.nan, math.inf, -math.inf, 0.5), floats(1, 2, 3, math.nan)),
    ),
}


def rows_as_dicts(table: RecordTable) -> list[dict]:
    return [dict(zip(table.keys, row)) for row in zip(*(c.tolist() for c in table.columns))]


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("name", sorted(RECORD_TABLES))
def test_record_table_equals_json_dump_of_its_rows(name, depth):
    table = RECORD_TABLES[name]
    document, expected = table, rows_as_dicts(table)
    for _ in range(depth):
        document, expected = {"outer": document}, {"outer": expected}
    assert format_json(document) + "\n" == reference(expected)


def test_record_table_refuses_a_column_json_would_not_write_as_a_number():
    with pytest.raises(TypeError, match="integers or floats"):
        format_json(RecordTable(("ok",), (np.array([True]),)))
