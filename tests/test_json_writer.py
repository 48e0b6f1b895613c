"""`cli.format_json` against the standard library.

Every report file must be exactly `json.dump(document, fh, indent=2)`
followed by a newline. The writer renders strings, numbers, None, bools,
lists, tuples and string-keyed dicts itself, and each `RecordTable` from its
columns, as `json` would render its rows as dicts; it hands everything else
to `json`. The synthetic documents below mix in values of every kind.
"""

import argparse
import functools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from shorsim import (
    ProblemInstance,
    check,
    cli,
    factor,
    measurement_distribution,
    multi_register_audit,
    qft_locality_check,
    register_correlation,
    registers,
    run_pipeline,
    schmidt_spectrum,
    shor_bound_report,
    success_rate_estimate,
)
from shorsim.cli import RecordTable, format_json, main
from shorsim.pipeline import pre_measurement_states
from shorsim.registers import CSV_CHUNK_ROWS
from tracing import traced_peak


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


@functools.cache
def report_of_each_type():
    inst = ProblemInstance(21, 2)
    single = measurement_distribution(run_pipeline(inst, ell=1))
    multi = measurement_distribution(run_pipeline(inst, ell=3))
    before, after = pre_measurement_states(inst, ell=2)
    return {
        "check": check("floor", 0.25, ">", 0.1),
        "audit": multi_register_audit(inst, single, multi),
        "bound": shor_bound_report(inst),
        "factor_trace": factor(35, seed=1)[1],
        "locality": qft_locality_check(inst, before, after),
        "schmidt": schmidt_spectrum(before, cut_after=2),
        "correlation": register_correlation(multi, 2, 4),
        "success_rate": success_rate_estimate(inst, trials=50),
    }


@pytest.mark.parametrize("name", list(report_of_each_type()))
def test_dataclass_renders_as_its_asdict(name):
    report = report_of_each_type()[name]
    assert format_json(report) == format_json(asdict(report)) == reference(asdict(report))[:-1]
    assert format_json([report, {"nested": report}]) == format_json(
        [asdict(report), {"nested": asdict(report)}]
    )


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


def test_record_table_refuses_a_uint64_column():
    # int64 cannot hold every uint64 value, so the writer refuses the column.
    with pytest.raises(TypeError):
        format_json(RecordTable(("c",), (np.array([1, 2], dtype=np.uint64),)))


@pytest.mark.parametrize("lengths", [(2, 1), (0, 1), (1, 0)])
def test_record_table_refuses_columns_of_unequal_length(lengths):
    table = RecordTable(("c", "p"), (np.arange(lengths[0]), np.full(lengths[1], 0.5)))
    with pytest.raises(ValueError, match="one length"):
        format_json({"t": table})


def expanded(value):
    """`value` with every record table replaced by its list of row dicts."""
    if type(value) is RecordTable:
        return rows_as_dicts(value)
    if type(value) in (list, tuple):
        return [expanded(item) for item in value]
    if type(value) is dict:
        return {key: expanded(item) for key, item in value.items()}
    return value


def test_document_of_record_tables_at_several_depths():
    probabilities = RecordTable(
        ("c", "probability"), (ints(0, 1, 2, 3), floats(0.1, 1 / 3, 2.0**-60, 0.30000000000000004))
    )
    document = {
        "empty": RecordTable(("c", "probability"), (ints(), floats())),
        "flags": (True, 1, False, 0, None),
        "big": [10**40, -(10**25), 2**63],
        "ключ ✓": {
            "non_finite": RecordTable(
                ("y", "p"), (ints(0, 1, 2, 3), floats(math.nan, math.inf, -math.inf, -0.0))
            ),
        },
        "tables": [
            RecordTable(("a", "é"), (ints(1, -2, 3), np.array([4, 5, 6], dtype=np.uint16))),
            {"deeper": [probabilities, (probabilities, 2.5)]},
        ],
        "float32": RecordTable(("p",), (np.array([0.1, 0.5], dtype=np.float32),)),
    }
    assert format_json(document) + "\n" == reference(expanded(document))


def counting_float_kernel(monkeypatch) -> list[int]:
    """Patch the float kernel the writer calls; the list collects the size of
    each call's column."""
    calls = []
    kernel = registers._float_words

    def counting(column, out, shortest=False):
        calls.append(column.size)
        return kernel(column, out, shortest)

    monkeypatch.setattr(registers, "_float_words", counting)
    return calls


@pytest.mark.parametrize("k", [1, 2, 6])
def test_each_record_table_makes_its_own_kernel_calls(monkeypatch, k):
    # Every record table goes through `write_rows` alone: one kernel call per
    # float column, in document order, none shared with another table.
    calls = counting_float_kernel(monkeypatch)
    tables = [
        RecordTable((f"y{i}", "probability", "weight"),
                    (ints(*range(i + 3)), np.arange(i + 3) / 7, np.arange(i + 3) / 3))
        for i in range(k)
    ]
    document = {"marginals": {f"y{i}": table for i, table in enumerate(tables)},
                "listed": [tables[0]]}
    assert format_json(document) + "\n" == reference(expanded(document))
    assert calls == [len(table.columns[0]) for table in [*tables, tables[0]] for _ in range(2)]


def test_kernel_calls_are_chunked(monkeypatch):
    calls = counting_float_kernel(monkeypatch)
    rows = CSV_CHUNK_ROWS + 3
    document = {
        "c": RecordTable(("c", "probability"), (np.arange(rows), np.arange(rows) / rows)),
        "y": RecordTable(("y", "probability"), (ints(0, 1, 2, 3, 4), floats(*[0.2] * 5))),
    }
    assert format_json(document) + "\n" == reference(expanded(document))
    assert calls == [CSV_CHUNK_ROWS, 3, 5]


def test_document_without_float_columns_calls_no_kernel(monkeypatch):
    calls = counting_float_kernel(monkeypatch)
    document = {"a": [1, 2.5, "x"], "t": RecordTable(("c",), (ints(1, 2),))}
    assert format_json(document) + "\n" == reference(expanded(document))
    assert calls == []


def table_of(rows: int) -> RecordTable:
    return RecordTable(("c", "probability"), (np.arange(rows), np.arange(rows) / 7))


# Documents for the streamed writer: each record table's rows go straight
# into the file, and the last row's tail, or a table's whole opening text
# where it has no rows, is cut with seek and truncate.
STREAMED = {
    "no_table": {"a": [1, 2.5, "x"], "b": {"c": None, "d": []}},
    "empty_table": {"t": table_of(0)},
    "one_row": {"t": table_of(1)},
    "chunk_rows_minus_one": {"t": table_of(CSV_CHUNK_ROWS - 1)},
    "chunk_rows_plus_one": {"t": table_of(CSV_CHUNK_ROWS + 1), "after": 3},
    "nested_pads": {
        "a": [{"b": table_of(2)}, (table_of(0), [table_of(3), {"c": table_of(0)}], 4.5)],
        "d": {"e": {"f": table_of(1)}},
    },
    "tables_back_to_back": [table_of(0), table_of(2), table_of(0), table_of(1)],
}


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_report_file_equals_format_json(tmp_path, name):
    payload = STREAMED[name]
    args = argparse.Namespace(command="distribution", n=15, output_dir=str(tmp_path))
    path = cli._write_json(args, payload, "report.json", [])
    document = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "distribution",
        "config": vars(args),
        "checks": [],
        "report": payload,
    }
    text = format_json(document) + "\n"
    assert path.read_bytes() == text.encode() == reference(expanded(document)).encode()


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_document_alone_equals_format_json(tmp_path, name):
    # At the top level, a table's cut text is the end of the file.
    document = STREAMED[name]
    values = list(document.values()) if type(document) is dict else list(document)
    for document in [document, *values]:
        path = tmp_path / "document.json"
        with open(path, "wb") as fh:
            cli._write_document(document, fh)
        assert path.read_bytes() == format_json(document).encode()
        assert format_json(document) + "\n" == reference(expanded(document))


def test_distribution_report_is_streamed_into_its_file(monkeypatch, tmp_path):
    # The q-row c marginal goes into the file one chunk of rows at a time,
    # not as a string joined with the rest of the document: about twice the
    # file's size at the peak, most of it the chunk's word matrix (3.8 times
    # while the table's text was held and copied).
    peaks = []
    write_json = cli._write_json

    def traced(*args):
        path, peak = traced_peak(lambda: write_json(*args))
        peaks.append(peak / path.stat().st_size)
        return path

    monkeypatch.setattr(cli, "_write_json", traced)
    argv = ["distribution", "--n", "99", "--x", "73", "--format", "json"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert len(peaks) == 1 and peaks[0] < 2.5
