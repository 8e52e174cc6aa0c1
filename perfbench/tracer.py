"""In-memory span tracing of arraycal's public functions, from outside the package.

A ``Tracer`` replaces each traced function at every module attribute (or class
attribute) under ``arraycal`` that holds it, so calls made through any import
path open a span.  Spans carry (name, start, end, parent, error) and stay in
memory until the caller writes them out.  ``restore()`` (or leaving the
``with`` block) puts every original object back.

Names missing from the package under test are reported in ``absent`` instead
of raising, so the benchmark keeps working when a later commit removes or
renames a function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

# module -> traced functions; "Class.method" names patch the class attribute.
TARGETS = {
    "model": ("gen_impairments", "gen_channel"),
    "grouping": ("make_scheme",),
    "airlink": ("default_pilots", "PilotSet.validate", "simulate_exchange",
                "simulate_noncoherent"),
    "stacking": ("check_identifiability", "build_stacked", "build_stacked_noncoherent"),
    "estimators": ("ls_estimate", "aml_estimate", "rogalin_estimate", "rogalin_gram",
                   "argos_estimate", "daisy_chain_estimate", "avalanche_estimate"),
    "crb": ("context_from_model", "build_h_composite", "build_f_composite",
            "stack_observations", "crb_f", "crb_f_known_h"),
    "bench": ("parse_config", "run_experiment", "emit_csv"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, None at top level
    error: bool = False


def array_bytes(obj) -> int:
    """Computed bytes of the ndarrays an object holds (attributes, one level of
    list/tuple/dict nesting)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        return 0
    total = 0
    for v in fields.values():
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (list, tuple)):
            total += sum(x.nbytes for x in v if isinstance(x, np.ndarray))
        elif isinstance(v, dict):
            total += sum(x.nbytes for x in v.values() if isinstance(x, np.ndarray))
    return total


def _observe(counts: dict, name: str, result) -> None:
    """Counts read from return values, keyed '<traced name>.<count>'."""
    def add(key, value):
        counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    if name == "airlink.simulate_exchange":
        add("blocks", len(getattr(result, "blocks", ())))
    elif name == "stacking.build_stacked":
        add("rows", int(getattr(result, "rows", 0)))
        add("bytes", array_bytes(result))
    elif name == "crb.context_from_model":
        add("bytes", array_bytes(result))
    elif name in ("estimators.aml_estimate", "estimators.ls_estimate"):
        add("iterations", int(getattr(result, "iterations", 0)))
        add("converged", int(bool(getattr(result, "converged", False))))


class Tracer:
    """Wrap every name in TRACED while active; collect spans and counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []          # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else None))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx].error = True
                raise
            finally:
                spans[idx].end = clock()
                stack.pop()
            _observe(counts, name, result)
            return result

        return traced

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        importlib.import_module("arraycal")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "arraycal" or k.startswith("arraycal."))]
        for name in TRACED:
            mod_name, _, attr = name.partition(".")
            try:
                owner = importlib.import_module(f"arraycal.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, key, original, wrapper) -> None:
        if any(o is owner and k == key for o, k, _ in self._patches):
            return
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], counts: dict, absent, wall_s: float,
                  trials: int) -> dict:
    """Per-function and per-module metrics, normalised per trial.

    ``wall_s`` is the traced wall time the spans were recorded in; module
    shares are taken against it.
    """
    selfs = self_times(spans)
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    incl_s = dict.fromkeys(TRACED, 0.0)
    errors = dict.fromkeys(TARGETS, 0)
    for span, st in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += st
        incl_s[span.name] += span.end - span.start
        errors[span.name.partition(".")[0]] += span.error

    per = 1.0 / trials
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.self_s"] = self_s[name] * per
    for mod, fns in TARGETS.items():
        mod_self = sum(self_s[f"{mod}.{fn}"] for fn in fns)
        out[f"{mod}.self_s"] = mod_self * per
        out[f"{mod}.share"] = mod_self / wall_s if wall_s > 0 else 0.0
        out[f"{mod}.errors"] = errors[mod] * per

    def ratio(num, den):
        return num / den if den else 0.0

    aml, ls = "estimators.aml_estimate", "estimators.ls_estimate"
    out["airlink.simulate_exchange.blocks"] = counts.get(
        "airlink.simulate_exchange.blocks", 0) * per
    out["stacking.build_stacked.rows"] = counts.get("stacking.build_stacked.rows", 0) * per
    out["stacking.build_stacked.bytes"] = counts.get("stacking.build_stacked.bytes", 0) * per
    out["crb.context_from_model.bytes"] = counts.get("crb.context_from_model.bytes", 0) * per
    out[f"{aml}.iterations"] = ratio(counts.get(f"{aml}.iterations", 0), calls[aml])
    out[f"{aml}.s_per_iter"] = ratio(incl_s[aml], counts.get(f"{aml}.iterations", 0))
    out[f"{aml}.converged_frac"] = ratio(counts.get(f"{aml}.converged", 0), calls[aml])
    out[f"{ls}.converged_frac"] = ratio(counts.get(f"{ls}.converged", 0), calls[ls])
    out["trace.absent"] = float(len(absent))
    return out
