"""Byte-identity of every report file against checked-in golden outputs.

Each case runs one command line with `--output-dir out` from an empty
working directory, so the `output_dir` recorded in the JSON is the same
everywhere, and compares every file it writes with `tests/golden/<case>/`.
The golden files were written by the code before outcome tables became
arrays; any change in a float's last bit, a row order or the JSON layout
fails here.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

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


if __name__ == "__main__":
    import tempfile

    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            for filename, content in run_case(argv, Path(tmp)).items():
                (target / filename).write_bytes(content)
    sys.exit(0)
