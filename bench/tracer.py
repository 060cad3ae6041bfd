"""Per-layer tracing from outside the program.

The tracer replaces each traced function in every ``kerrsqueezer`` module
namespace that holds a reference to it (``scenarios.extract_cascade_result``
as well as ``cascade.extract_cascade_result``), so no file of the program
changes.  Spans carry a name, start, end, parent id and the id of the root
span (one ``cli.main`` call) they belong to; they are kept in memory and
written out when the run ends.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = ("cli", "scenarios", "cascade", "cavity", "phasematch", "states", "detection")


@dataclass(frozen=True)
class Target:
    """One traced function: span name, owning module and attribute path."""

    name: str
    module: str
    attr: str  # "func" or "Class.method"
    # Count calls through the owning module's reference only, with no span.
    count_only: bool = False


def _propagate_hook(tracer, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["cascade.rk4_steps"] += int(bound.arguments["steps"])
    p_in = np.asarray(bound.arguments["state"].power, dtype=float)
    p_out = np.asarray(result.power, dtype=float)
    drift = float(np.max(np.abs(p_out - p_in) / np.where(p_in > 0, p_in, 1.0)))
    tracer.maxima["cascade.max_power_drift"] = max(
        tracer.maxima.get("cascade.max_power_drift", 0.0), drift)


def _branches_hook(tracer, fn, args, kwargs, result):
    tracer.counts["cavity.branches_found"] += len(result)
    if len(result) >= 3:
        tracer.counts["cavity.multi_branch_points"] += 1


def _trace_hook(tracer, fn, args, kwargs, result):
    tracer.counts["detection.trace_samples"] += len(result.time)


HOOKS = {
    "cascade.propagate": _propagate_hook,
    "cavity.steady_state_branches": _branches_hook,
    "detection.simulate_tomography_trace": _trace_hook,
}


def _t(name, module, attr=None, **kw):
    return Target(name, f"kerrsqueezer.{module}", attr or name.rsplit(".", 1)[-1], **kw)


TARGETS = (
    _t("cli.main", "cli"),
    _t("cli.load_config", "scenarios", "load_config"),
    _t("scenarios.run_scenario", "scenarios"),
    _t("scenarios.validate_config", "scenarios"),
    _t("scenarios.locked_circulating_power", "scenarios"),
    _t("scenarios.writer.table", "scenarios", "RunWriter.table"),
    _t("scenarios.writer.report", "scenarios", "RunWriter.report"),
    _t("scenarios.writer.text", "scenarios", "RunWriter.text"),
    _t("scenarios.writer.manifest", "scenarios", "RunWriter.manifest"),
    _t("cascade.propagate", "cascade"),
    _t("cascade.extract_cascade_result", "cascade"),
    _t("cascade.fictitious_mirror", "cascade"),
    _t("cavity.scan_profile", "cavity"),
    _t("cavity.steady_state_branches", "cavity"),
    _t("cavity.make_operating_point", "cavity"),
    _t("cavity.squeezing_spectrum", "cavity"),
    _t("cavity.sideband_comb_map", "cavity"),
    # brentq is scipy's; only the cavity module's reference is counted, and
    # without a span, so its time stays in steady_state_branches.
    _t("cavity.brentq", "cavity", count_only=True),
    _t("phasematch.delta_k", "phasematch"),
    _t("phasematch.shg_efficiency", "phasematch"),
    _t("phasematch.calibrate_from_extrema", "phasematch"),
    _t("phasematch.find_conversion_extrema", "phasematch"),
    _t("phasematch.conversion_sweep", "phasematch"),
    _t("states.infer.loss_only", "states", "infer_loss_only"),
    _t("states.infer.phase_noise", "states", "infer_phase_noise"),
    _t("states.channels.pure_squeezed", "states", "pure_squeezed"),
    _t("states.channels.apply_loss", "states", "apply_loss"),
    _t("states.channels.dephase", "states", "dephase"),
    _t("states.channels.apply_phase_jitter", "states", "apply_phase_jitter"),
    _t("detection.simulate_tomography_trace", "detection"),
    _t("detection.fit_quadrature_ellipse", "detection"),
    _t("detection.total_efficiency", "detection"),
    _t("detection.omc_sideband_transfer", "detection"),
)


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, parent, name, start, end, root)
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.originals: dict[str, Callable] = {}  # span name -> original function
        self._root = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        hook = HOOKS.get(name)
        counts, stack, spans, clock = self.counts, self._stack, self.spans, time.perf_counter

        if target.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._root = sid
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self._root))
            if hook is not None:
                try:
                    hook(self, fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # The program changed shape; the counter just stays short.
                    counts[f"{name}.hook_errors"] += 1
            return result
        return traced

    def install(self) -> "Tracer":
        program = [m for k, m in sys.modules.items()
                   if m is not None and (k == "kerrsqueezer" or k.startswith("kerrsqueezer."))]
        for target in self.targets:
            owner = sys.modules.get(target.module)
            if owner is None:
                continue
            holder, attr = owner, target.attr
            if "." in attr:
                cls_name, attr = attr.split(".")
                holder = getattr(owner, cls_name, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                continue  # removed from the program: it reports zero calls
            self.originals[target.name] = original
            wrapper = self._wrap(target, original)
            if holder is not owner or target.count_only:
                places = [(holder, attr)]
            else:
                places = [(mod, key) for mod in program
                          for key, value in list(vars(mod).items()) if value is original]
            for obj, key in places:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)
        return self

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, call in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, parent, name, start, end, call in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        for name, n in self.counts.items():
            if name in self.originals and name not in out:
                out[name]["calls"] = n
        return out

    def group(self, prefix: str) -> tuple[int, float]:
        """Calls and inclusive seconds of spans named ``prefix`` or below it.

        A span whose parent is in the same group is counted as a call but
        not timed again, so nested calls inside the group count once.
        """
        def inside(name):
            return name == prefix or name.startswith(prefix + ".")
        names = {sid: name for sid, _, name, _, _, _ in self.spans}
        calls, seconds = 0, 0.0
        for sid, parent, name, start, end, call in self.spans:
            if inside(name):
                calls += 1
                if parent < 0 or not inside(names[parent]):
                    seconds += end - start
        return calls, seconds

    def layer_self_seconds(self) -> dict[str, float]:
        summary = self.summary()
        out = {layer: 0.0 for layer in LAYERS}
        for name, row in summary.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "root"],
                                 "counts": dict(self.counts), "maxima": self.maxima}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
