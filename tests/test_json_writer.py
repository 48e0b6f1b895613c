"""`cli.format_json` against the standard library.

Every report file must be exactly `json.dump(document, fh, indent=2)`
followed by a newline. The writer renders lists of flat int/float records
from a template and must fall back to `json` for anything else, so the
synthetic documents below mix in every value the template cannot take.
"""

import json
import math

import numpy as np
import pytest

from shorsim.cli import _flat_record_values, format_json, main


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


def test_template_renders_only_flat_int_float_records():
    templated = {"ints_next_to_floats", "extreme_numbers", "percent_in_keys"}
    for key, value in SYNTHETIC.items():
        assert (_flat_record_values(value) is not None) == (key in templated), key
