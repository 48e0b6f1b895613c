#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of shorsim.

Run from the root of a checkout; `shorsim` is imported from `src/`:

    python3 perfbench/run.py --workload control-ladder --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run of one workload measures, each in a fresh child process:

- set-up (`--trace 0` only): the median over several children of the time to
  start, import `shorsim` and numpy and finish the warm-up command;
- the workload: the child runs the warm-up, then the whole unit list while
  another pass fits in `--seconds` (at least once). With `--trace 1` it runs
  one untraced pass and then one traced pass (see tracer.py).

End-to-end metrics (`--trace 0`): `setup_s` as above; `wall_s`, the sum over
units of each unit's median time over the passes; `slowest_unit_s`, the
largest of those medians; `peak_rss_mb`, the child's `ru_maxrss` at the end
of the first pass, which is the same however many passes fit. Per-layer
metrics (`--trace 1`) come from the traced pass, plus `trace_overhead`
(traced pass time over untraced `wall_s`) and `failed_fraction`.

Outputs are checked after the child exits (see checks.py). A unit fails if a
step exited non-zero, raised, or its outputs failed a check; `failed_fraction`
is failed units over units attempted, on every pass. It is 0 when the
program is correct, so it is printed on every run but not listed as an
end-to-end metric, whose spread is taken as a share of its median. The last
line of standard output is one JSON object: with `--trace 0` it carries the
end-to-end metrics, with `--trace 1` the per-layer ones. `--workload all`
runs every workload both ways.

The program runs one computation at a time and nothing waits in a queue, so
there is no wait-time metric. BLAS threads are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_unit_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**tracer.UNITS, "trace_overhead": "ratio", "failed_fraction": "ratio"}

NO_WAIT_NOTE = (
    "note: the program runs one computation at a time and nothing waits in a queue, "
    "so no wait-time metric is reported"
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARIABLES:
        env[var] = str(nproc())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(spec: dict, timeout: float) -> None:
    work = Path(spec["work_dir"])
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"child did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"child exited with {proc.returncode}:\n{tail}")


def _setup_seconds(work: Path) -> float:
    times = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        _run_child({"mode": "setup", "work_dir": str(work / f"setup{i}")}, timeout=60)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc(),
        "blas_threads": nproc(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            units: list[dict] | None = None, fault: str | None = None) -> dict:
    """Run one workload and check its outputs.

    `units` defaults to the workload's list for `seed`; `fault` names a fault
    for child.py to inject (used by the benchmark's own tests).
    """
    started = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # checks.py reads outputs with shorsim's closed form
    if units is None:
        units = workloads.units(workload, seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        setup_s = None if trace else _setup_seconds(work)
        run_dir = work / "run"
        spec = {
            "mode": "run", "work_dir": str(run_dir), "units": units,
            "seconds": seconds, "trace": trace, "fault": fault,
        }
        _run_child(spec, timeout=RUN_DEADLINE_S - (time.perf_counter() - started))
        result = json.loads((run_dir / "result.json").read_text())
        problems = [
            checks.check_unit(workload, unit, run_dir / "pass0" / f"unit{i}")
            for i, unit in enumerate(units)
        ]
    finally:
        shutil.rmtree(work)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    passes = result["passes"] + ([result["traced"]] if trace else [])
    first = passes[0]["units"]
    failures = []
    for p in passes:
        for i, record in enumerate(p["units"]):
            why = list(problems[i])
            for step in record["steps"]:
                if step["error"]:
                    why.append(f"{step['name']} raised:\n{step['error']}")
                elif step["rc"] != 0:
                    why.append(f"{step['name']} exited {step['rc']}")
            if record["hashes"] != first[i]["hashes"]:
                why.append("outputs differ from the first pass")
            if why:
                failures.append((units[i]["name"], why))
    attempted = sum(len(p["units"]) for p in passes)

    # Each unit's median over the untraced passes resists a burst of load
    # from outside that hits one pass.
    untraced = result["passes"]
    unit_s = [statistics.median(p["units"][i]["seconds"] for p in untraced)
              for i in range(len(units))]
    wall_s = sum(unit_s)
    metrics: dict[str, float] = {}
    if trace:
        metrics.update(result["layers"])
        metrics["trace_overhead"] = result["traced"]["seconds"] / wall_s
        metrics["failed_fraction"] = len(failures) / attempted
        units_of = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = setup_s
        metrics["wall_s"] = wall_s
        metrics["slowest_unit_s"] = max(unit_s)
        metrics["peak_rss_mb"] = result["maxrss_kb"] / 1024
        units_of = END_TO_END_UNITS
    return {
        "workload": workload,
        "environment": environment(seed, result["numpy"]),
        "units": [u["name"] for u in units],
        "passes": len(untraced),
        "failures": failures,
        "failed_fraction": len(failures) / attempted,
        "missing": result.get("missing", []),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }


def print_outcome(outcome: dict, trace: bool) -> None:
    print(f"workload {outcome['workload']} ({'traced' if trace else 'untraced'}), "
          f"{outcome['passes']} untraced pass(es) over {len(outcome['units'])} units:")
    for name in outcome["units"]:
        print(f"  unit {name}")
    print("environment " + json.dumps(outcome["environment"]))
    for name, why in outcome["failures"]:
        print(f"FAILED {name}: " + "; ".join(why))
    for name in outcome["missing"]:
        print(f"missing {name}: a function it is built from does not exist")
    print(NO_WAIT_NOTE)
    for name, metric in outcome["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    if "failed_fraction" not in outcome["metrics"]:
        print(f"  {'failed_fraction':36s} {outcome['failed_fraction']:.6g} ratio")
    print(f"  {outcome['failed']} of {outcome['attempted']} unit runs failed")


def _result_line(outcome: dict) -> str:
    return json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shorsim" / "__init__.py").is_file():
        print(f"error: no shorsim sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print_outcome(outcome, bool(args.trace))
            print(_result_line(outcome))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                outcome = measure(workload, args.seed, args.seconds, trace)
                print_outcome(outcome, trace)
                combined["correct"] &= outcome["correct"]
                combined["attempted"] += outcome["attempted"]
                combined["failed"] += outcome["failed"]
                for name, metric in outcome["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = metric
        print(json.dumps(combined))
        return 0
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
