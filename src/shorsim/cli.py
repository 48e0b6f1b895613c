"""Command-line front end.

Subcommands map one-to-one onto the analyses: `distribution` (outcome table),
`audit` (multi-register joint-probability audit), `bound` (good-c probability
floor report), `factor` (end-to-end factoring), `entanglement` (Schmidt
spectra, entropies, correlations, transform locality). Each command builds
the circuit it needs through `pipeline`, with the circuit flags, and hands
the analyses the states and tables they check.

Each command returns the claims it checked as `checks.Check` records; each is
printed as one `PASS|FAIL` line and recorded in the JSON envelope's `checks`
list. The exit code is 0 iff the run succeeded and every check passed, so CI
can consume the auditor directly; 1 means a failed check or a failed run (an
error, `factor` finding no factors among them), and 2 is a usage error. All
experiment configuration comes from flags (no environment variables), so a
command line alone reproduces a run.
Each subcommand accepts only the flags it reads, and every JSON report's
`config` records exactly those, resolved.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import distributions, entanglement, orderfinding, pipeline
from .checks import Check
from .errors import ShorSimError, UnsuitableInputError
from .numtheory import gcd, multiplicative_order
from .registers import DEFAULT_QUBIT_CAP, ProblemInstance, distinct_positions

SCHEMA_VERSION = 2


def _at_least(low: int):
    """argparse type: an int no smaller than `low`, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


# Every flag, declared once: destination -> argparse keywords. The option is
# the destination with dashes, `--max-attempts` for `max_attempts`.
_FLAGS = {
    "n": dict(type=int, required=True, help="odd integer defining the run"),
    "x": dict(type=int, default=None, help="base (random coprime draw when omitted)"),
    "ell": dict(type=_at_least(1), default=1, help="number of function registers"),
    "backend": dict(choices=["dense", "sparse"], default="sparse"),
    "qft": dict(choices=["direct", "gates"], default="direct"),
    "seed": dict(type=int, default=0, help="seed for all randomness"),
    "max_attempts": dict(type=_at_least(1), default=100),
    "samples_per_attempt": dict(type=_at_least(1), default=16),
    "multiplier_bound": dict(type=_at_least(1), default=8),
    "qubit_cap": dict(type=int, default=DEFAULT_QUBIT_CAP),
    "output_dir": dict(default=".", help="where result files are written"),
    "format": dict(choices=["json", "csv", "both"], default="both"),
    "dump_state": dict(action="store_true", help="also write the pre-measurement state"),
    "top": dict(type=_at_least(0), default=16, help="outcomes listed in the JSON summary"),
    "trace": dict(action="store_true", help="print the full run trace"),
}

_SIMULATION = ("n", "x", "ell", "backend", "qft", "seed", "qubit_cap", "output_dir")

# Subcommand -> (help, the flags its cmd_* reads, in the order `config` records them).
_SUBCOMMANDS = {
    "distribution": (
        "exact outcome distribution of one run",
        (*_SIMULATION, "format", "dump_state", "top"),
    ),
    "audit": ("multi-register joint-probability audit", (*_SIMULATION, "dump_state")),
    "bound": (
        "probability floor report over the good c values",
        ("n", "x", "seed", "output_dir"),
    ),
    "factor": (
        "end-to-end factoring via order finding",
        ("n", "seed", "max_attempts", "samples_per_attempt", "multiplier_bound", "backend",
         "qubit_cap", "output_dir", "trace"),
    ),
    "entanglement": ("Schmidt spectra, entropies, correlations", (*_SIMULATION, "dump_state")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use. Sharing it is safe:
    `parse_args` returns a fresh namespace on every call, so `_make_instance`
    resolving `args.x` in place never reaches a later command."""
    parser = argparse.ArgumentParser(
        prog="shorsim",
        description="State-vector order-finding simulator and measurement-statistics auditor",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, dests) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for dest in dests:
            keywords = _FLAGS[dest]
            if (command, dest) == ("audit", "ell"):
                # The audit compares ell registers against one.
                keywords = {**keywords, "type": _at_least(2), "default": 2}
            p.add_argument("--" + dest.replace("_", "-"), **keywords)
    return parser


def _resolve_base(n: int, x: int | None, seed: int) -> int:
    """Explicit x (`ProblemInstance` checks it), or a seeded random coprime
    draw from a dedicated generator."""
    if x is not None:
        return x
    rng = np.random.default_rng(seed)
    while True:
        candidate = int(rng.integers(2, n - 1, endpoint=True))
        if gcd(candidate, n) == 1:
            return candidate


def _make_instance(args) -> ProblemInstance:
    """The run's instance. Resolves `args.x` in place, so the recorded config names
    the base that was used."""
    if args.n < 3 or args.n % 2 == 0:
        raise UnsuitableInputError(args.n, "even" if args.n % 2 == 0 else "must be at least 3")
    args.x = _resolve_base(args.n, args.x, args.seed)
    return ProblemInstance.create(args.n, args.x)


def _write_json(args, payload: dict, filename: str, checks: list[Check]) -> Path:
    """Write the report envelope; its `config` is every flag the command parsed."""
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / filename
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": vars(args),
        "checks": [asdict(c) for c in checks],
        "report": payload,
    }
    with open(path, "w") as fh:
        fh.write(format_json(document) + "\n")
    return path


def _verdict(checks: list[Check]) -> int:
    """Print one line per check; the exit code is 0 iff every check passed."""
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.value:.6g} {c.relation} "
              f"{c.bound:.6g} (margin {c.margin:.3g})")
    return 0 if all(c.passed for c in checks) else 1


class RecordTable(NamedTuple):
    """A JSON list of flat records held as columns: row k is
    `{keys[0]: columns[0][k], keys[1]: columns[1][k], ...}`. The columns are
    one-dimensional integer or float numpy arrays of one length."""

    keys: tuple[str, ...]
    columns: tuple[np.ndarray, ...]


def format_json(value, depth: int = 0) -> str:
    """Byte-identical to `json.dumps(value, indent=2)` nested `depth` levels deep,
    where each `RecordTable` stands for its list of row dicts.

    Walks dicts with string keys and renders each record table from its
    columns; everything else goes to `json.dumps`."""
    pad = "  " * depth
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = [f"{json.dumps(k)}: {format_json(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(f"{pad}  {item}" for item in items) + f"\n{pad}}}"
    if type(value) is RecordTable:
        return _format_records(value, pad)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _format_records(table: RecordTable, pad: str) -> str:
    """The table's rows as `json.dumps` lays them out, every row filled into
    one `%s` template."""
    width = len(table.columns)
    rows = len(table.columns[0])
    if rows == 0:
        return "[]"
    cells = [None] * (rows * width)
    for j, column in enumerate(table.columns):
        cells[j::width] = _column_texts(column)
    fields = ",\n".join(f"{pad}    {json.dumps(key).replace('%', '%%')}: %s" for key in table.keys)
    template = f"{{\n{fields}\n{pad}  }}"
    body = f",\n{pad}  ".join([template] * rows) % tuple(cells)
    return f"[\n{pad}  {body}\n{pad}]"


def _column_texts(column: np.ndarray) -> list:
    """What `json.dumps` writes for each value of an integer or float column:
    Python ints for `%s`, or one `repr` per distinct bit pattern of a float
    column (so -0.0 and 0.0 stay apart), `NaN`/`Infinity` as `json` spells them."""
    if column.dtype.kind in "iu":
        return column.tolist()
    if column.dtype.kind != "f":
        raise TypeError(f"a record column must hold integers or floats, not {column.dtype}")
    bits, slot = distinct_positions(column.astype(np.float64, copy=False).view(np.int64))
    values = bits.view(np.float64)
    render = float.__repr__ if np.isfinite(values).all() else json.dumps
    return np.array(list(map(render, values.tolist())), dtype=object)[slot].tolist()


def _maybe_dump_state(args, state) -> None:
    if args.dump_state:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        state.dump(out_dir / "state.txt")


def _top_rows(dist: distributions.OutcomeDistribution, k: int) -> np.ndarray:
    """Rows of the k most probable outcomes, ties in ascending outcome order:
    `np.lexsort((dist.index, -dist.probs))[:k]`, sorting only the rows at or
    above the k-th largest probability."""
    k = min(k, dist.probs.size)
    if k == 0:
        return np.zeros(0, dtype=np.intp)
    cut = np.partition(dist.probs, dist.probs.size - k)[dist.probs.size - k]
    rows = np.flatnonzero(dist.probs >= cut)
    return rows[np.lexsort((dist.index[rows], -dist.probs[rows]))[:k]]


def cmd_distribution(args) -> list[Check]:
    instance = _make_instance(args)
    state = pipeline.run_pipeline(
        instance, ell=args.ell, backend=args.backend, qft=args.qft, qubit_cap=args.qubit_cap
    )
    dist = distributions.measurement_distribution(state)
    total = dist.total()
    _maybe_dump_state(args, state)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format in ("csv", "both"):
        dist.write_csv(out_dir / "distribution.csv")
    if args.format in ("json", "both"):
        top = _top_rows(dist, args.top)
        marginals = {}
        for p, name in enumerate(dist.column_names(), start=1):
            m = distributions.marginal(dist, (p,))
            marginals[name] = RecordTable((name[0], "probability"), (m.index, m.probs))
        summary = {
            "r": multiplicative_order(instance.x, instance.n),
            "outcome_count": dist.index.size,
            "total_probability": total,
            "columns": dist.column_names(),
            "top_outcomes": [
                {"outcome": list(outcome), "probability": prob}
                for outcome, prob in zip(dist.outcome_tuples(top), dist.probs[top].tolist())
            ],
            "marginals": marginals,
        }
        _write_json(args, summary, "distribution.json", [])
    print(
        f"n={instance.n} x={instance.x} q={instance.q} ell={args.ell}: "
        f"{dist.index.size} outcomes, total probability {total:.12f}"
    )
    return []


def cmd_audit(args) -> list[Check]:
    instance = _make_instance(args)
    circuit = dict(backend=args.backend, qft=args.qft, qubit_cap=args.qubit_cap)
    single = distributions.measurement_distribution(
        pipeline.run_pipeline(instance, ell=1, **circuit)
    )
    state = pipeline.run_pipeline(instance, ell=args.ell, **circuit)
    report = distributions.multi_register_audit(
        instance, single, distributions.measurement_distribution(state)
    )
    _maybe_dump_state(args, state)
    _write_json(args, asdict(report), "audit.json", report.checks)
    print(
        f"audit n={report.n} x={report.x} ell={report.ell}: "
        f"equal-outcome discrepancy {report.equal_outcome_discrepancy:.3e}, "
        f"unequal-register mass {report.unequal_register_mass:.3e}"
    )
    return report.checks


def cmd_bound(args) -> list[Check]:
    instance = _make_instance(args)
    report = distributions.shor_bound_report(instance)
    _write_json(args, asdict(report), "bound.json", report.checks)
    print(
        f"bound n={report.n} x={report.x} r={report.r}: {report.good_c_count} good c, "
        f"{report.coprime_good_c_count} with gcd(d, r) = 1, "
        f"success mass {report.success_mass:.6f} "
        f"(bounds {report.success_bound_phi_over_3r:.6f} / "
        f"{report.success_bound_phi_over_3r2:.6f})"
    )
    return report.checks


def cmd_factor(args) -> list[Check]:
    pair, trace = orderfinding.factor(
        args.n,
        max_attempts=args.max_attempts,
        seed=args.seed,
        samples_per_attempt=args.samples_per_attempt,
        multiplier_bound=args.multiplier_bound,
        backend=args.backend,
        qubit_cap=args.qubit_cap,
    )
    document = asdict(trace)
    _write_json(args, document, "factor_trace.json", [])
    if args.trace:
        print(json.dumps(document, indent=2))
    if pair is None:
        raise ShorSimError(f"no factors found for {args.n} within {args.max_attempts} attempts")
    print(f"{args.n} = {pair.f1} × {pair.f2}")
    return []


def cmd_entanglement(args) -> list[Check]:
    instance = _make_instance(args)
    before, after = pipeline.pre_measurement_states(
        instance, ell=args.ell, backend=args.backend, qft=args.qft,
        qubit_cap=args.qubit_cap,
    )
    locality = entanglement.qft_locality_check(instance, before, after)
    _maybe_dump_state(args, after)
    # The locality report already holds the cut-1 spectrum of `before`.
    spectra = [entanglement.SchmidtSpectrum(1, locality.eigenvalues_before)]
    spectra += [
        entanglement.schmidt_spectrum(before, cut_after=cut) for cut in range(2, args.ell + 1)
    ]
    cuts = [
        {**spectrum.to_json_dict(), "entropy_bits": entanglement.von_neumann_entropy(spectrum)}
        for spectrum in spectra
    ]
    correlations = []
    if args.ell >= 2:
        dist = distributions.measurement_distribution(after)
        for i in range(2, args.ell + 1):
            for j in range(i + 1, args.ell + 2):
                correlations.append(
                    entanglement.register_correlation(dist, i, j).to_json_dict()
                )
    payload = {
        "entanglement": {
            "locality": asdict(locality),
            "pre_transform_cuts": cuts,
            "correlations": correlations,
        }
    }
    _write_json(args, payload, "entanglement.json", locality.checks)
    print(
        f"entanglement n={instance.n} x={instance.x} ell={args.ell}: "
        f"entropy {locality.entropy_before_bits:.6f} bits across the control cut, "
        f"transform deviation {locality.max_deviation:.3e}"
    )
    return locality.checks


_COMMANDS = {
    "distribution": cmd_distribution,
    "audit": cmd_audit,
    "bound": cmd_bound,
    "factor": cmd_factor,
    "entanglement": cmd_entanglement,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _verdict(_COMMANDS[args.command](args))
    except (ShorSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
