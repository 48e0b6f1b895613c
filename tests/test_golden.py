"""Byte-identity of every report file against checked-in golden outputs.

Each case runs one command line with `--output-dir out` from an empty
working directory, so the `output_dir` recorded in the JSON is the same
everywhere, and compares every file it writes with `tests/golden/<case>/`.
The CSV, state and JSON `report` bytes were written by the code before
outcome tables became arrays; the JSON `config` objects were regenerated when
each subcommand came to record only its own flags, and `total_probability` in
`distribution_21_2_ell{1,2}/distribution.json` (0.9999999999999999 ->
0.9999999999999997) when the total became the correctly rounded `math.fsum`
instead of a left-to-right sum in the order of the table. Every JSON file
was regenerated for schema version 2, when each verdict became a record of
the envelope's `checks` list: the verdict fields left the `report` (`bound`'s
`all_clear` and per-row `clears_1_over_3r2`; the audit's
`joint_probabilities_match`, `registers_perfectly_correlated`, `tolerance`
and `verdict`; the locality `tolerance` and `passed`), and so did the inner
`schema_version`. Every other value kept its bytes, and no CSV or state file
changed. Every JSON file was regenerated again for schema version 3, when
each `bound` row came to hold its two closed-form values (`p_first`,
`p_last`) instead of r probabilities and the report came to record
`q_mod_r`: only the `schema_version` line, the `bound_*` rows and the new
`q_mod_r` line changed, except `success_mass` in `bound_21_2`. It moved by
one ulp (0.22797899717307274 -> 0.22797899717307277, now equal to
`math.fsum` over the r values of each coprime row) when each such row's
mass became q mod r times the first value plus r - q mod r times the last
instead of a left-to-right sum of r values. The `distribution_*_ell2_gates`
cases run the gate-level transform (`--qft gates`), so their snapshots pin
every amplitude bit of that circuit.
Any change in a float's last bit, a row order, the JSON layout or a recorded
flag fails here.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from shorsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{
        f"distribution_{n}_{x}_ell{ell}": ["distribution", "--n", n, "--x", x, "--ell", ell,
                                           "--dump-state"]
        for n, x in ((15, 7), (21, 2))
        for ell in (1, 2)
    },
    **{
        f"distribution_{n}_{x}_ell2_gates": ["distribution", "--n", n, "--x", x, "--ell", 2,
                                             "--dump-state", "--qft", "gates"]
        for n, x in ((15, 7), (21, 2))
    },
    **{
        f"audit_{n}_{x}_ell2": ["audit", "--n", n, "--x", x, "--ell", 2, "--dump-state"]
        for n, x in ((15, 7), (21, 2))
    },
    **{
        f"entanglement_{n}_{x}_ell{ell}": ["entanglement", "--n", n, "--x", x, "--ell", ell,
                                           "--dump-state"]
        for n, x in ((15, 7), (21, 2))
        for ell in (1, 2)
    },
    **{f"bound_{n}_{x}": ["bound", "--n", n, "--x", x] for n, x in ((15, 7), (21, 2))},
    "factor_35_seed1": ["factor", "--n", 35, "--seed", 1],
}


def run_case(argv, cwd: Path) -> dict[str, bytes]:
    """Run one command in `cwd`; returns {file name: bytes} of what it wrote."""
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        assert main([str(a) for a in argv] + ["--output-dir", "out"]) == 0
    finally:
        os.chdir(previous)
    return {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_bytes(name, tmp_path):
    written = run_case(CASES[name], tmp_path)
    golden = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(written) == sorted(golden)
    for filename, content in golden.items():
        assert written[filename] == content, f"{name}/{filename} differs from the golden file"


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("distribution_")))
def test_dense_distribution_matches_the_sparse_golden(name, tmp_path):
    # No golden holds a dense run: dense storage must write the sparse
    # golden's outcome table and report, whatever else it records.
    written = run_case([*CASES[name], "--backend", "dense"], tmp_path)
    golden = GOLDEN / name
    assert written["distribution.csv"] == (golden / "distribution.csv").read_bytes()
    report = json.loads(written["distribution.json"])["report"]
    assert report == json.loads((golden / "distribution.json").read_text())["report"]


if __name__ == "__main__":
    import tempfile

    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            for filename, content in run_case(argv, Path(tmp)).items():
                (target / filename).write_bytes(content)
    sys.exit(0)
