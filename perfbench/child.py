"""One workload in a fresh interpreter; started by run.py, never by hand.

    python3 perfbench/child.py SPEC.json

The spec names the units, the measuring time, whether to trace and where to
write. The child imports `shorsim`, runs the warm-up command, then runs the
whole unit list again and again while another pass still fits in the
measuring time (at least once). With tracing on it then runs one more pass
with the layer timers installed. Only the program's own calls are timed:
creating output directories, hashing outputs and reading counts happen
outside the timed region. Outputs of the first pass are kept for run.py to
check; later passes are compared with it by hash and deleted. The result
goes to `result.json` next to the spec.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy
from shorsim import cli, orderfinding, pipeline, registers

import tracer
import workloads


def _call(step: dict, out_dir: Path):
    """Run one step; returns (exit code, returned report or None).

    Functions are looked up on their modules at call time, so the tracer's
    wrappers are the ones called in the traced pass."""
    if "cli" in step:
        try:
            return cli.main([*step["cli"], "--output-dir", str(out_dir)]), None
        except SystemExit as exc:
            return exc.code, None
    spec = step["success_rate"]
    instance = registers.ProblemInstance.create(spec["n"], spec["x"])
    report = orderfinding.success_rate_estimate(
        instance, trials=spec["trials"], multiplier_bound=1, seed=spec["seed"]
    )
    return 0, report


def _hash_tree(root: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:
                hashes[str(path.relative_to(root))] = hashlib.file_digest(fh, "blake2b").hexdigest()
    return hashes


def _record_counts(trace: tracer.Tracer, step: dict, out_dir: Path) -> None:
    """Counts the traced pass reads from what the program wrote or returned."""
    if "cli" in step:
        trace.add("cli.bytes_written", sum(p.stat().st_size for p in out_dir.rglob("*")
                                           if p.is_file()))
    trace_file = out_dir / "factor_trace.json"
    if trace_file.exists():
        for attempt in json.loads(trace_file.read_text())["report"]["attempts"]:
            order_trace = attempt["order_trace"] or {"attempts": []}
            trace.add("orderfinding.samples_drawn", len(order_trace["attempts"]))
            trace.add(
                "orderfinding.orders_recovered",
                sum(a["order"] is not None for a in order_trace["attempts"]),
            )
    report_file = out_dir / "report.json"
    if report_file.exists():
        report = json.loads(report_file.read_text())
        trace.add("orderfinding.samples_drawn", report["trials"])
        trace.add("orderfinding.orders_recovered", report["successes"])


def run_pass(units: list[dict], pass_dir: Path, trace: tracer.Tracer | None = None) -> dict:
    """Run every unit once; returns per-unit timings, exit codes and output hashes."""
    records = []
    for index, unit in enumerate(units):
        unit_dir = pass_dir / f"unit{index}"
        steps = []
        for step in unit["steps"]:
            out_dir = unit_dir / step["name"]
            out_dir.mkdir(parents=True)
            error = None
            rc = None
            report = None
            started = time.perf_counter()
            try:
                rc, report = _call(step, out_dir)
            except Exception:
                error = traceback.format_exc(limit=4)
            seconds = time.perf_counter() - started
            if report is not None:
                (out_dir / "report.json").write_text(json.dumps(report.to_json_dict()))
            if trace is not None:
                _record_counts(trace, step, out_dir)
            steps.append({"name": step["name"], "rc": rc, "error": error, "seconds": seconds})
        records.append(
            {
                "seconds": sum(s["seconds"] for s in steps),
                "steps": steps,
                "hashes": _hash_tree(unit_dir),
            }
        )
    return {"seconds": sum(r["seconds"] for r in records), "units": records}


def _scale_one_column(transform):
    """Fault for the benchmark's own tests, on sparse states: the transform's
    output with the function-register content of its first entry scaled up
    and the state renormalised, so the norm still checks out but the
    probabilities are wrong."""

    def faulty(state):
        out = transform(state)
        right = out.layout.right_dim
        column = next(iter(out.data)) % right
        for index in out.data:
            if index % right == column:
                out.data[index] *= 1.01
        norm = sum(abs(v) ** 2 for v in out.data.values()) ** 0.5
        for index in out.data:
            out.data[index] /= norm
        return out

    return faulty


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    work = Path(spec["work_dir"])
    cli.main([*workloads.WARM_UP, "--output-dir", str(work / "warm-up")])
    if spec["mode"] == "setup":
        return 0

    if spec.get("fault") == "qft_column":
        original = pipeline.apply_qft_register1_direct
        tracer.rebind(original, _scale_one_column(original))

    # Every pass writes to the same relative directory, because reports
    # record their output directory and must hash the same on every pass and
    # in every checkout.
    os.chdir(work)
    units = spec["units"]
    pass_dir = Path("pass")
    passes = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(run_pass(units, pass_dir))
        if len(passes) == 1:
            # Peak memory of one run of every unit; later passes repeat the
            # same work and would add only allocator fragmentation.
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            pass_dir.rename("pass0")
        else:
            shutil.rmtree(pass_dir)
        pass_wall = time.perf_counter() - pass_started
        if spec["trace"] or time.perf_counter() - started + pass_wall > spec["seconds"]:
            break

    result = {"numpy": numpy.__version__, "passes": passes, "maxrss_kb": maxrss_kb}
    if spec["trace"]:
        trace = tracer.Tracer()
        trace.install()
        try:
            result["traced"] = run_pass(units, pass_dir, trace)
        finally:
            trace.uninstall()
        shutil.rmtree(pass_dir)
        result["layers"], result["missing"] = trace.metrics()
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
