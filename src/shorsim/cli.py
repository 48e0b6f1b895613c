"""Command-line front end.

Subcommands map one-to-one onto the analyses: `distribution` (outcome table),
`audit` (multi-register joint-probability audit), `bound` (good-c probability
floor report), `factor` (end-to-end factoring), `entanglement` (Schmidt
spectra, entropies, correlations, transform locality). Each command but
`factor` builds the circuit it needs through `pipeline`, with the circuit
flags, and hands the analyses the states and tables they check; `factor`
builds no state, and samples one transformed column at a time.

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
import io
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import distributions, entanglement, orderfinding, pipeline
from .checks import Check
from .errors import ShorSimError, UnsuitableInputError
from .numtheory import multiplicative_order
from .registers import DEFAULT_QUBIT_CAP, ProblemInstance, write_rows

SCHEMA_VERSION = 3


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
    "qubit_cap": dict(type=_at_least(1), default=DEFAULT_QUBIT_CAP),
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
        ("n", "seed", "max_attempts", "samples_per_attempt", "multiplier_bound", "qubit_cap",
         "output_dir", "trace"),
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
        if math.gcd(candidate, n) == 1:
            return candidate


def _make_instance(args) -> ProblemInstance:
    """The run's instance. Resolves `args.x` in place, so the recorded config names
    the base that was used."""
    if args.n < 3 or args.n % 2 == 0:
        raise UnsuitableInputError(args.n, "even" if args.n % 2 == 0 else "must be at least 3")
    args.x = _resolve_base(args.n, args.x, args.seed)
    return ProblemInstance(args.n, args.x)


def _write_json(args, payload, filename: str, checks: list[Check]) -> Path:
    """Write the report envelope; its `config` is every flag the command parsed."""
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / filename
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": vars(args),
        "checks": checks,
        "report": payload,
    }
    with open(path, "wb") as fh:
        _write_document(document, fh)
        fh.write(b"\n")
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


def format_json(value) -> str:
    """Byte-identical to `json.dumps(value, indent=2)`, where each `RecordTable`
    stands for its list of row dicts and each dataclass for its `asdict`: the
    text `_write_document` writes.

    Renders strings, ints, finite floats, None, bools, non-empty lists,
    tuples and dicts with string keys itself, as `json`'s encoder does,
    every record table from its columns, and every dataclass as the dict of
    its fields in order; everything else (an empty container, a dict with a
    non-string key, a non-finite float, a numpy scalar, an unknown type)
    goes to `json.dumps`."""
    fh = io.BytesIO()
    _write_document(value, fh)
    return fh.getvalue().decode("ascii")


def _write_document(value, fh) -> None:
    """Write `format_json(value)` as ASCII bytes to the seekable binary file
    `fh`: each run of consecutive text pieces joined and written once, and
    each record table's rows written by `registers.write_rows` straight into
    the file, so no table's text is held in memory."""
    parts = []
    _render(value, "", parts)
    text = []
    for part in parts:
        if type(part) is str:
            text.append(part)
            continue
        fh.write("".join(text).encode("ascii"))
        text = [_write_records(fh, *part)]
    fh.write("".join(text).encode("ascii"))


def _render(value, pad: str, parts: list) -> None:
    """Append the text of `value`, as `json.dumps(value, indent=2)` writes it
    `pad` deep, to `parts`: strings, and for each record table its opening
    text and then the pair (table, pad), whose rows `_write_document` writes."""
    kind = type(value)
    if kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        parts.append(float.__repr__(value))
    elif value is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if value else "false")
    elif kind is RecordTable:
        parts.append(_records_opening(value, pad))
        parts.append((value, pad))
    elif (kind is list or kind is tuple) and value:
        inner = pad + "  "
        separator = "[\n" + inner
        for item in value:
            parts.append(separator)
            separator = ",\n" + inner
            _render(item, inner, parts)
        parts.append(f"\n{pad}]")
    elif kind is dict and value and all(type(key) is str for key in value):
        inner = pad + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            parts.append(f"{separator}{encode_basestring_ascii(key)}: ")
            separator = ",\n" + inner
            _render(item, inner, parts)
        parts.append(f"\n{pad}}}")
    elif is_dataclass(kind):
        _render({f.name: getattr(value, f.name) for f in fields(value)}, pad, parts)
    else:
        parts.append(json.dumps(value, indent=2).replace("\n", "\n" + pad))


def _record_key(key: str, pad: str) -> str:
    return f"\n{pad}    {encode_basestring_ascii(key)}: "


def _records_opening(table: RecordTable, pad: str) -> str:
    return f"[\n{pad}  {{{_record_key(table.keys[0], pad)}"


def _write_records(fh, table: RecordTable, pad: str) -> str:
    """Write the table's rows as `json.dumps` lays them out, `pad` deep, to
    `fh`, which already ends with the table's opening text; return the text
    that closes the table. `registers.write_rows` writes the rows: each
    column's tail ends its field and opens the next key; the last column's
    tail closes one row and opens the next, and the last row's copy of it is
    cut off. A table of no rows cuts the opening text too and is `[]`."""
    keys = [_record_key(key, pad) for key in table.keys]
    tails = [f",{key}" for key in keys[1:]] + [f"\n{pad}  }},\n{pad}  {{{keys[0]}"]
    start = fh.tell()
    write_rows(fh, table.columns, tails, json_floats=True)
    if fh.tell() == start:
        fh.seek(start - len(_records_opening(table, pad)))
        fh.truncate()
        return "[]"
    fh.seek(-len(tails[-1]), io.SEEK_CUR)
    fh.truncate()
    return f"\n{pad}  }}\n{pad}]"


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
    _maybe_dump_state(args, state)
    # Measuring consumes the state: its probabilities take over the
    # amplitudes' buffer, so one full-size table is alive from here on.
    dist = distributions.measurement_distribution(state)
    del state
    total = dist.total()
    outcome_count = dist.index.size

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
            "outcome_count": outcome_count,
            "total_probability": total,
            "columns": dist.column_names(),
            "top_outcomes": [
                {"outcome": list(outcome), "probability": prob}
                for outcome, prob in zip(dist.outcome_tuples(top), dist.probs[top].tolist())
            ],
            "marginals": marginals,
        }
        # The report holds all it needs of the table.
        del dist
        _write_json(args, summary, "distribution.json", [])
    print(
        f"n={instance.n} x={instance.x} q={instance.q} ell={args.ell}: "
        f"{outcome_count} outcomes, total probability {total:.12f}"
    )
    return []


def cmd_audit(args) -> list[Check]:
    instance = _make_instance(args)
    circuit = dict(backend=args.backend, qft=args.qft, qubit_cap=args.qubit_cap)
    single = distributions.measurement_distribution(
        pipeline.run_pipeline(instance, ell=1, **circuit)
    )
    state = pipeline.run_pipeline(instance, ell=args.ell, **circuit)
    _maybe_dump_state(args, state)
    # Measuring consumes the state, whose amplitudes' buffer the table takes.
    multi = distributions.measurement_distribution(state)
    del state
    report = distributions.multi_register_audit(instance, single, multi)
    _write_json(args, report, "audit.json", report.checks)
    print(
        f"audit n={report.n} x={report.x} ell={report.ell}: "
        f"equal-outcome discrepancy {report.equal_outcome_discrepancy:.3e}, "
        f"unequal-register mass {report.unequal_register_mass:.3e}"
    )
    return report.checks


def cmd_bound(args) -> list[Check]:
    instance = _make_instance(args)
    report = distributions.shor_bound_report(instance)
    _write_json(args, report, "bound.json", report.checks)
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
        qubit_cap=args.qubit_cap,
    )
    _write_json(args, trace, "factor_trace.json", [])
    if args.trace:
        print(format_json(trace))
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
        {**asdict(spectrum), "entropy_bits": entanglement.von_neumann_entropy(spectrum)}
        for spectrum in spectra
    ]
    correlations = []
    if args.ell >= 2:
        table = distributions.measurement_distribution(after)
        dist = distributions.marginal(table, range(2, args.ell + 2))
        for i in range(2, args.ell + 1):
            for j in range(i + 1, args.ell + 2):
                correlations.append(
                    entanglement.register_correlation(dist, i, j).to_json_dict()
                )
    payload = {
        "entanglement": {
            "locality": locality,
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
