"""Tracing for ``--trace 1``: spans and counts at puosc's layer boundaries.

The tracer wraps public names from outside the program.  A function is
replaced wherever a puosc module holds it, including the copies other
modules imported by name (``nullspace`` in ``dynamics`` and ``symmetry``);
a class is counted by wrapping its ``__init__``.  Spans (name, start, end,
parent, operation, extra) are kept in memory and written out when the run
ends.  A name that a later refactor removes is reported as unmeasured
(value -1) instead of failing the run.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

from calib import calibrated_ms
from checks import VERIFY_CHECK_IDS

# Span name -> (module, attribute) of each timed public function.
TIMED = {
    "cli.main": ("puosc.cli", "main"),
    "verify.run_verification": ("puosc.verify", "run_verification"),
    "dynamics.integrate": ("puosc.dynamics", "integrate"),
    "dynamics.charge_values": ("puosc.dynamics", "charge_values"),
    "dynamics.structure_discovery": ("puosc.dynamics", "structure_discovery"),
    "linalg.nullspace": ("puosc.linalg", "nullspace"),
    "linalg.inverse": ("puosc.linalg", "inverse"),
    "linalg.expm": ("puosc.linalg", "expm"),
    "symmetry.solve_symmetries": ("puosc.symmetry", "solve_symmetries"),
    "hierarchy.charge_ladder": ("puosc.hierarchy", "charge_ladder"),
    "hierarchy.pd_decompose": ("puosc.hierarchy", "pd_decompose"),
    "transform.build": ("puosc.transform", "build"),
    "transform.flow_preserving_tensor": ("puosc.transform", "flow_preserving_tensor"),
    "transform.pushforward_brackets": ("puosc.transform", "pushforward_brackets"),
}
# Counter name -> (module, class) whose constructions are counted.
COUNTED = {
    "core.quad_hamiltonians_built": ("puosc.core", "QuadHamiltonian"),
    "core.phase_states_built": ("puosc.core", "PhaseState"),
}
# Per-operation time metric -> (span name, unit).
SPAN_TIME_METRICS = {
    "dynamics.charge_values_ms": ("dynamics.charge_values", "ms"),
    "dynamics.structure_discovery_us": ("dynamics.structure_discovery", "us"),
    "linalg.nullspace_us": ("linalg.nullspace", "us"),
    "linalg.inverse_us": ("linalg.inverse", "us"),
    "linalg.expm_us": ("linalg.expm", "us"),
    "symmetry.solve_symmetries_us": ("symmetry.solve_symmetries", "us"),
    "hierarchy.charge_ladder_us": ("hierarchy.charge_ladder", "us"),
    "hierarchy.pd_decompose_us": ("hierarchy.pd_decompose", "us"),
    "transform.build_us": ("transform.build", "us"),
    "transform.flow_preserving_tensor_us": ("transform.flow_preserving_tensor", "us"),
    "transform.pushforward_brackets_us": ("transform.pushforward_brackets", "us"),
}
# Per-operation call-count metric -> span name.
CALL_COUNT_METRICS = {
    "linalg.nullspace.calls": "linalg.nullspace",
    "linalg.inverse.calls": "linalg.inverse",
    "linalg.expm.calls": "linalg.expm",
}
RK4_FIELDS = {"dynamics.rk4_linear_us_per_step": "LinearField",
              "dynamics.rk4_potential_us_per_step": "PotentialField"}
UNMEASURED = -1
_SCALE = {"ms": 1.0, "us": 1000.0}


class Tracer:
    """Wraps puosc's layer boundaries and records spans per operation."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op, extra]
        self.counts = {}         # (op, counter name) -> constructions
        self.op = None           # index of the operation running now
        self.missing = set()     # span or counter names that could not be wrapped
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def install(self) -> None:
        for name, (module, attr) in TIMED.items():
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            self._rebind(original, self._timed(name, original))
        for name, (module, attr) in COUNTED.items():
            cls = getattr(sys.modules.get(module), attr, None)
            init = getattr(cls, "__dict__", {}).get("__init__")
            if init is None:
                self.missing.add(name)
                continue
            self._patches.append((cls, "__init__", init))
            cls.__init__ = self._counted(name, init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _rebind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "puosc" and not module_name.startswith("puosc."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "dynamics.integrate":
                field = args[0] if args else kwargs.get("field")
                span[5] = (type(field).__name__, len(result.times) - 1)
            return result
        return wrapper

    def _counted(self, name, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            key = (self.op, name)
            counts[key] = counts.get(key, 0) + 1
            return init(*args, **kwargs)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "extra": extra}) + "\n")


def span_seconds(start: float, end: float, slices: list) -> float:
    """Wall seconds of a span less the kernel slices that ran inside it."""
    return end - start - sum(s for t, s in slices if start <= t < end)


def layer_metrics(tracer: Tracer, kernels: dict, slices: dict) -> dict:
    """Per-layer metrics from the spans of the traced operations.

    ``kernels`` maps each traced operation to its reference-kernel estimate,
    which calibrates that operation's spans, and ``slices`` to the kernel
    slices that ran inside it, whose time no span is charged.  Times are
    medians over operations; counts come from operation 0, whose inputs
    depend on the seed alone, so they repeat exactly for a seed.
    """
    ops = sorted(kernels)
    per_op = {op: {} for op in ops}       # op -> span name -> wall seconds
    steps = {op: {} for op in ops}        # op -> field kind -> (wall seconds, steps)
    calls = {op: {} for op in ops}
    cli_self = {op: 0.0 for op in ops}
    for name, start, end, parent, op, extra in tracer.spans:
        if op not in per_op:
            continue
        seconds = span_seconds(start, end, slices.get(op, []))
        per_op[op][name] = per_op[op].get(name, 0.0) + seconds
        calls[op][name] = calls[op].get(name, 0) + 1
        if extra is not None:
            wall, n = steps[op].get(extra[0], (0.0, 0))
            steps[op][extra[0]] = (wall + seconds, n + extra[1])
        if name == "cli.main":
            cli_self[op] += seconds
        elif parent is not None and tracer.spans[parent][0] == "cli.main":
            cli_self[op] -= seconds

    def med_ms(seconds_of):
        return statistics.median(calibrated_ms(seconds_of(op), kernels[op]) for op in ops)

    out = {}
    for metric, (span, unit) in SPAN_TIME_METRICS.items():
        out[metric] = (UNMEASURED if span in tracer.missing
                       else med_ms(lambda op: per_op[op].get(span, 0.0)) * _SCALE[unit])
    for metric, span in CALL_COUNT_METRICS.items():
        out[metric] = UNMEASURED if span in tracer.missing else calls[ops[0]].get(span, 0)
    for metric, kind in RK4_FIELDS.items():
        per_step = []
        for op in ops:
            wall, n = steps[op].get(kind, (0.0, 0))
            if n:
                per_step.append(calibrated_ms(wall, kernels[op]) * 1000.0 / n)
        out[metric] = (UNMEASURED if "dynamics.integrate" in tracer.missing
                       else statistics.median(per_step) if per_step else 0.0)
    out["dynamics.rk4_steps"] = (UNMEASURED if "dynamics.integrate" in tracer.missing
                                 else sum(n for _, n in steps[ops[0]].values()))
    out["cli.self_ms"] = UNMEASURED if "cli.main" in tracer.missing else med_ms(cli_self.get)
    for name in COUNTED:
        out[name] = UNMEASURED if name in tracer.missing else tracer.counts.get((ops[0], name), 0)
    return out


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {metric: unit for metric, (_, unit) in SPAN_TIME_METRICS.items()}
    units.update({metric: "us" for metric in RK4_FIELDS})
    units.update({metric: "count" for metric in CALL_COUNT_METRICS})
    units.update({metric: "count" for metric in COUNTED})
    units.update({"dynamics.rk4_steps": "count", "cli.self_ms": "ms",
                  "cli.output_bytes": "bytes", "setup.import_numpy_ms": "ms",
                  "setup.import_puosc_ms": "ms", "trace.overhead_ms": "ms"})
    units.update({f"verify.check_ms.{check_id}": "ms" for check_id in VERIFY_CHECK_IDS})
    return units


def replay_verify_checks(params, seed: int, report_checks: list) -> dict | None:
    """Wall seconds of each ``verify.CHECKS`` entry, run in order with one
    generator seeded as ``run_verification`` seeds it.

    Returns None when the registry is gone.  Raises ValueError when its
    entries no longer have the (id, anchor, check) shape or the replayed
    results differ from the report that ``puosc verify`` wrote for the same
    seed, since the timings would then describe other work.
    """
    registry = getattr(sys.modules.get("puosc.verify"), "CHECKS", None)
    if registry is None:
        return None
    rng = np.random.default_rng(seed)
    times, replayed = {}, []
    try:
        for check_id, anchor, fn in registry:
            t0 = time.perf_counter()
            passed, residual, samples = fn(params, rng, 1e-9)
            times[check_id] = time.perf_counter() - t0
            replayed.append({"id": check_id, "anchor": anchor, "pass": bool(passed),
                             "residual": float(residual), "samples": int(samples)})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"verify.CHECKS has changed shape: {exc}") from None
    if replayed != report_checks:
        raise ValueError(f"replaying verify.CHECKS at seed {seed} does not reproduce the report")
    return times
