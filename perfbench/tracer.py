"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each `shorsim` module with timers. It
changes nothing under `src/`: `rebind` replaces a function object in every
`shorsim.*` module that binds it, because several modules import names with
`from ... import`. Each wrapped call is a span; a span's self time is its
duration minus the time covered by wrapped calls made inside it, so nested
layers are not counted twice.

A function that does not exist at the commit under test is skipped, and every
metric built from it is reported as missing rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer (module under shorsim/) -> wrapped public names. `mod_pow` is left
# out on purpose: it runs once per amplitude, so a timer there would cost
# more than the work it measures.
WRAPPED = {
    "pipeline": (
        "init_uniform",
        "apply_modexp_fanout",
        "apply_qft_register1_direct",
        "apply_qft_register1_gates",
        "run_pipeline",
        "pre_measurement_states",
    ),
    "distributions": (
        "measurement_distribution",
        "marginal",
        "conditional",
        "shor_bound_report",
        "multi_register_audit",
    ),
    "entanglement": ("schmidt_spectrum", "qft_locality_check", "register_correlation"),
    "registers": ("StateVector.densify", "StateVector.sparsify"),
    "orderfinding": ("factor", "success_rate_estimate"),
    "numtheory": (
        "multiplicative_order",
        "continued_fraction_convergents",
        "recover_order_from_sample",
        "factor_from_order",
        "euler_phi",
    ),
    "cli": ("main",),
}

# Metric -> wrapped functions whose self time it sums.
SELF_TIME = {
    "pipeline.init_s": ("pipeline.init_uniform",),
    "pipeline.fanout_s": ("pipeline.apply_modexp_fanout",),
    "pipeline.qft_direct_s": ("pipeline.apply_qft_register1_direct",),
    "pipeline.qft_gates_s": ("pipeline.apply_qft_register1_gates",),
    "distributions.extract_s": ("distributions.measurement_distribution",),
    "distributions.marginal_s": ("distributions.marginal", "distributions.conditional"),
    "distributions.bound_s": ("distributions.shor_bound_report",),
    "distributions.audit_self_s": ("distributions.multi_register_audit",),
    "entanglement.schmidt_s": ("entanglement.schmidt_spectrum",),
    "entanglement.locality_self_s": ("entanglement.qft_locality_check",),
    "entanglement.correlation_s": ("entanglement.register_correlation",),
    "registers.densify_s": ("registers.StateVector.densify",),
    "registers.sparsify_s": ("registers.StateVector.sparsify",),
    "orderfinding.factor_self_s": ("orderfinding.factor",),
    "orderfinding.success_rate_self_s": ("orderfinding.success_rate_estimate",),
    "numtheory.busy_s": tuple(f"numtheory.{name}" for name in WRAPPED["numtheory"]),
    "cli.self_s": ("cli.main",),
}

# Metric -> wrapped functions whose calls it counts.
CALLS = {
    "pipeline.runs": ("pipeline.run_pipeline", "pipeline.pre_measurement_states"),
    "entanglement.schmidt_calls": ("entanglement.schmidt_spectrum",),
    "numtheory.calls": SELF_TIME["numtheory.busy_s"],
    "cli.calls": ("cli.main",),
}

# Counts recorded by hooks on return values -> the functions they hook.
HOOKED = {
    "distributions.outcomes": ("distributions.measurement_distribution",),
    "orderfinding.distributions_built": ("distributions.measurement_distribution",),
    "registers.amplitudes_stored": (
        "pipeline.run_pipeline",
        "pipeline.pre_measurement_states",
    ),
}

# Counts the benchmark reads from the program's outputs, not from spans.
FROM_OUTPUTS = (
    "orderfinding.samples_drawn",
    "orderfinding.orders_recovered",
    "cli.bytes_written",
)

UNITS = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in (*CALLS, *HOOKED, *FROM_OUTPUTS)},
    "cli.bytes_written": "bytes",
    "orderfinding.recovery_ratio": "ratio",
    **{f"{layer}.errors": "count" for layer in WRAPPED},
}


def rebind(original, replacement) -> list:
    """Point every `shorsim.*` module attribute bound to `original` at
    `replacement`; returns the (module, name, original) list that undoes it."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "shorsim" or mod_name.startswith("shorsim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _resolve(layer: str, dotted: str):
    """(owner, attribute) of `shorsim.<layer>.<dotted>`, or None if absent."""
    try:
        owner = importlib.import_module(f"shorsim.{layer}")
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _stored_amplitudes(result) -> int:
    states = result if isinstance(result, tuple) else (result,)
    counts = [s.nonzero_count() for s in states if hasattr(s, "nonzero_count")]
    return max(counts, default=0)


class Tracer:
    """Span timers and counters around the wrapped functions of every layer."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = {name: 0 for name in (*HOOKED, *FROM_OUTPUTS)}
        self.errors = {layer: 0 for layer in WRAPPED}
        self.missing: set[str] = set()
        self._stack: list[list] = []  # open spans: [child seconds, layer]
        self._raised: list[BaseException] = []
        self._undo: list = []

    def install(self) -> None:
        hooks = {
            "distributions.measurement_distribution": self._on_distribution,
            "pipeline.run_pipeline": self._on_states,
            "pipeline.pre_measurement_states": self._on_states,
        }
        for layer, names in WRAPPED.items():
            for name in names:
                key = f"{layer}.{name}"
                found = _resolve(layer, name)
                if found is None:
                    self.missing.add(key)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, key, original, hooks.get(key))
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, original))
                else:
                    self._undo.extend(rebind(original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, layer, key, fn, hook):
        self.self_s[key] = 0.0
        self.calls[key] = 0
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not any(exc is seen for seen in self._raised):
                    self._raised.append(exc)
                    self.errors[layer] += 1
                raise
            finally:
                duration = clock() - started
                stack.pop()
                self.self_s[key] += duration - frame[0]
                self.calls[key] += 1
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                # Hook time belongs to no layer: charge it to the enclosing
                # span's children so it is not counted as anyone's self time.
                hook_started = clock()
                hook(result)
                if stack:
                    stack[-1][0] += clock() - hook_started
            return result

        return wrapper

    def _on_distribution(self, dist) -> None:
        self.counts["distributions.outcomes"] += len(dist.entries)
        if any(layer == "orderfinding" for _, layer in self._stack):
            self.counts["orderfinding.distributions_built"] += 1

    def _on_states(self, result) -> None:
        stored = _stored_amplitudes(result)
        if stored > self.counts["registers.amplitudes_stored"]:
            self.counts["registers.amplitudes_stored"] = stored

    def add(self, name: str, value: int) -> None:
        """Add a count read from the program's outputs."""
        self.counts[name] += value

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """(metric -> value, names of metrics whose functions are missing)."""
        values: dict[str, float] = {}
        missing = []
        for table, source in ((SELF_TIME, self.self_s), (CALLS, self.calls)):
            for name, keys in table.items():
                if any(key in self.missing for key in keys):
                    missing.append(name)
                else:
                    values[name] = sum(source[key] for key in keys)
        for name, keys in HOOKED.items():
            if any(key in self.missing for key in keys):
                missing.append(name)
            else:
                values[name] = self.counts[name]
        for name in FROM_OUTPUTS:
            values[name] = self.counts[name]
        samples = values["orderfinding.samples_drawn"]
        values["orderfinding.recovery_ratio"] = (
            values["orderfinding.orders_recovered"] / samples if samples else 0.0
        )
        for layer, count in self.errors.items():
            values[f"{layer}.errors"] = count
        return values, missing
