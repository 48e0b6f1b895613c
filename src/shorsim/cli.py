"""Command-line front end.

Subcommands map one-to-one onto the analyses: `distribution` (outcome table),
`audit` (multi-register joint-probability audit), `bound` (good-c probability
floor report), `factor` (end-to-end factoring), `entanglement` (Schmidt
spectra, entropies, correlations, transform locality).

Exit codes encode verdicts so CI can consume the auditor directly: 0 means
the run succeeded and every checked claim held, 1 means a failed run or a
failed verdict, 2 is a usage error. All experiment configuration comes from
flags (no environment variables), so a command line alone reproduces a run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import distributions, entanglement, orderfinding, pipeline
from .errors import ShorSimError, UnsuitableInputError
from .numtheory import gcd, multiplicative_order
from .registers import DEFAULT_QUBIT_CAP, ProblemInstance

SCHEMA_VERSION = distributions.SCHEMA_VERSION


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved flags for one run; embedded in every JSON output."""

    command: str
    n: int
    x: int | None
    ell: int
    backend: str
    qft: str
    seed: int
    qubit_cap: int
    output_dir: str
    format: str
    dump_state: bool


def _add_common_flags(parser: argparse.ArgumentParser, with_ell: bool, default_ell: int = 1):
    parser.add_argument("--n", type=int, required=True, help="odd integer defining the run")
    parser.add_argument(
        "--x", type=int, default=None, help="base (random coprime draw when omitted)"
    )
    if with_ell:
        parser.add_argument(
            "--ell", type=int, default=default_ell, help="number of function registers"
        )
    parser.add_argument("--backend", choices=["dense", "sparse"], default="sparse")
    parser.add_argument("--qft", choices=["direct", "gates"], default="direct")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--qubit-cap", type=int, default=DEFAULT_QUBIT_CAP)
    parser.add_argument("--output-dir", default=".", help="where result files are written")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="both")
    parser.add_argument(
        "--dump-state", action="store_true", help="also write the pre-measurement state"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shorsim",
        description="State-vector order-finding simulator and measurement-statistics auditor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distribution", help="exact outcome distribution of one run")
    _add_common_flags(p, with_ell=True, default_ell=1)
    p.add_argument("--top", type=int, default=16, help="outcomes listed in the JSON summary")

    p = sub.add_parser("audit", help="multi-register joint-probability audit")
    _add_common_flags(p, with_ell=True, default_ell=2)

    p = sub.add_parser("bound", help="probability floor report over the good c values")
    _add_common_flags(p, with_ell=False)

    p = sub.add_parser("factor", help="end-to-end factoring via order finding")
    p.add_argument("--n", type=int, required=True, help="odd composite to factor")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=100)
    p.add_argument("--samples-per-attempt", type=int, default=16)
    p.add_argument("--multiplier-bound", type=int, default=8)
    p.add_argument("--backend", choices=["dense", "sparse"], default="sparse")
    p.add_argument("--qubit-cap", type=int, default=DEFAULT_QUBIT_CAP)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    p.add_argument("--trace", action="store_true", help="print the full run trace")

    p = sub.add_parser("entanglement", help="Schmidt spectra, entropies, correlations")
    _add_common_flags(p, with_ell=True, default_ell=1)

    return parser


def _resolve_base(n: int, x: int | None, seed: int) -> int:
    """Explicit x, or a seeded random coprime draw from a dedicated generator."""
    if x is not None:
        if not 1 < x < n:
            raise ValueError(f"x must satisfy 1 < x < n, got x={x}")
        g = gcd(x, n)
        if g != 1:
            raise ValueError(f"x={x} shares factor {g} with n={n}")
        return x
    rng = np.random.default_rng(seed)
    while True:
        candidate = int(rng.integers(2, n - 1, endpoint=True))
        if gcd(candidate, n) == 1:
            return candidate


def _make_instance(args) -> ProblemInstance:
    if args.n < 3 or args.n % 2 == 0:
        raise UnsuitableInputError(args.n, "even" if args.n % 2 == 0 else "must be at least 3")
    x = _resolve_base(args.n, args.x, args.seed)
    return ProblemInstance.create(args.n, x)


def _config_from(args, instance: ProblemInstance | None) -> ExperimentConfig:
    return ExperimentConfig(
        command=args.command,
        n=args.n,
        x=instance.x if instance is not None else None,
        ell=getattr(args, "ell", 1),
        backend=getattr(args, "backend", "sparse"),
        qft=getattr(args, "qft", "direct"),
        seed=args.seed,
        qubit_cap=args.qubit_cap,
        output_dir=args.output_dir,
        format=args.format,
        dump_state=getattr(args, "dump_state", False),
    )


def _write_json(config: ExperimentConfig, payload: dict, filename: str) -> Path:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / filename
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "config": asdict(config),
        "report": payload,
    }
    with open(path, "w") as fh:
        fh.write(format_json(document) + "\n")
    return path


def format_json(value, depth: int = 0) -> str:
    """Byte-identical to `json.dumps(value, indent=2)` nested `depth` levels deep.

    Walks dicts with string keys and renders each non-empty list of flat
    records (same string keys, int or finite float values) from one template;
    everything else goes to `json.dumps`."""
    pad = "  " * depth
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = [f"{json.dumps(k)}: {format_json(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(f"{pad}  {item}" for item in items) + f"\n{pad}}}"
    records = _flat_record_values(value)
    if records is None:
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    keys, values = records
    fields = ",\n".join(f"{pad}    {json.dumps(key).replace('%', '%%')}: %r" for key in keys)
    template = f"{{\n{fields}\n{pad}  }}"
    body = f",\n{pad}  ".join([template] * len(value)) % values
    return f"[\n{pad}  {body}\n{pad}]"


def _flat_record_values(value) -> tuple[tuple[str, ...], tuple] | None:
    """(keys, all values in order) of a list of flat records, else None."""
    if type(value) is not list or not value or type(value[0]) is not dict or not value[0]:
        return None
    keys = tuple(value[0])
    values = []
    for record in value:
        if type(record) is not dict or tuple(record) != keys:
            return None
        values.extend(record.values())
    if not all(type(key) is str for key in keys) or not all(
        type(v) is int or (type(v) is float and math.isfinite(v)) for v in values
    ):
        return None
    return keys, tuple(values)


def _maybe_dump_state(config: ExperimentConfig, state) -> None:
    if config.dump_state:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        state.dump(out_dir / "state.txt")


def cmd_distribution(args) -> int:
    instance = _make_instance(args)
    config = _config_from(args, instance)
    state = pipeline.run_pipeline(
        instance, ell=args.ell, backend=args.backend, qft=args.qft, qubit_cap=args.qubit_cap
    )
    dist = distributions.measurement_distribution(state)
    _maybe_dump_state(config, state)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.format in ("csv", "both"):
        dist.write_csv(out_dir / "distribution.csv")
    if config.format in ("json", "both"):
        top = np.lexsort((dist.index, -dist.probs))[: args.top]
        marginals = {}
        for p, name in enumerate(dist.column_names(), start=1):
            m = distributions.marginal(dist, (p,))
            marginals[name] = [
                {name[0]: value, "probability": prob}
                for value, prob in zip(m.index.tolist(), m.probs.tolist())
            ]
        summary = {
            "r": multiplicative_order(instance.x, instance.n),
            "outcome_count": dist.index.size,
            "total_probability": dist.total(),
            "columns": dist.column_names(),
            "top_outcomes": [
                {"outcome": list(outcome), "probability": prob}
                for outcome, prob in zip(dist.outcome_tuples(top), dist.probs[top].tolist())
            ],
            "marginals": marginals,
        }
        _write_json(config, summary, "distribution.json")
    print(
        f"n={instance.n} x={instance.x} q={instance.q} ell={args.ell}: "
        f"{dist.index.size} outcomes, total probability {dist.total():.12f}"
    )
    return 0


def cmd_audit(args) -> int:
    instance = _make_instance(args)
    config = _config_from(args, instance)
    report = distributions.multi_register_audit(
        instance, ell=args.ell, backend=args.backend, qft=args.qft,
        qubit_cap=args.qubit_cap,
    )
    if config.dump_state:
        state = pipeline.run_pipeline(
            instance, ell=args.ell, backend=args.backend, qft=args.qft,
            qubit_cap=args.qubit_cap,
        )
        _maybe_dump_state(config, state)
    _write_json(config, report.to_json_dict(), "audit.json")
    print(
        f"audit n={report.n} x={report.x} ell={report.ell}: "
        f"equal-outcome discrepancy {report.equal_outcome_discrepancy:.3e}, "
        f"unequal-register mass {report.unequal_register_mass:.3e}"
    )
    print(report.verdict)
    return 0 if report.passed else 1


def cmd_bound(args) -> int:
    instance = _make_instance(args)
    config = _config_from(args, instance)
    report = distributions.shor_bound_report(instance)
    _write_json(config, report.to_json_dict(), "bound.json")
    print(
        f"bound n={report.n} x={report.x} r={report.r}: {report.good_c_count} good c, "
        f"{report.coprime_good_c_count} with gcd(d, r) = 1, "
        f"success mass {report.success_mass:.6f} "
        f"(bounds {report.success_bound_phi_over_3r:.6f} / "
        f"{report.success_bound_phi_over_3r2:.6f})"
    )
    return 0 if report.all_clear else 1


def cmd_factor(args) -> int:
    pair, trace = orderfinding.factor(
        args.n,
        max_attempts=args.max_attempts,
        seed=args.seed,
        samples_per_attempt=args.samples_per_attempt,
        multiplier_bound=args.multiplier_bound,
        backend=args.backend,
        qubit_cap=args.qubit_cap,
    )
    config = _config_from(args, None)
    _write_json(config, trace.to_json_dict(), "factor_trace.json")
    if args.trace:
        print(json.dumps(trace.to_json_dict(), indent=2))
    if pair is None:
        print(f"no factors found for {args.n} within {args.max_attempts} attempts")
        return 1
    print(f"{args.n} = {pair.f1} × {pair.f2}")
    return 0


def cmd_entanglement(args) -> int:
    instance = _make_instance(args)
    config = _config_from(args, instance)
    before, after = pipeline.pre_measurement_states(
        instance, ell=args.ell, backend=args.backend, qft=args.qft,
        qubit_cap=args.qubit_cap,
    )
    locality = entanglement.locality_report(instance, before, after)
    _maybe_dump_state(config, after)
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
            "locality": locality.to_json_dict(),
            "pre_transform_cuts": cuts,
            "correlations": correlations,
        }
    }
    _write_json(config, payload, "entanglement.json")
    print(
        f"entanglement n={instance.n} x={instance.x} ell={args.ell}: "
        f"entropy {locality.entropy_before_bits:.6f} bits across the control cut, "
        f"transform deviation {locality.max_deviation:.3e}"
    )
    return 0 if locality.passed else 1


_COMMANDS = {
    "distribution": cmd_distribution,
    "audit": cmd_audit,
    "bound": cmd_bound,
    "factor": cmd_factor,
    "entanglement": cmd_entanglement,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "audit" and args.ell < 2:
        parser.error("audit requires --ell >= 2")
    if args.command == "distribution" and args.top < 0:
        parser.error("distribution requires --top >= 0")
    try:
        return _COMMANDS[args.command](args)
    except (ShorSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
