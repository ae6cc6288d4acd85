"""Span recording around the program's layer boundaries, from outside.

The benchmark never edits the program.  ``install`` replaces the module
attributes through which the program calls from one layer into the next
with thin wrappers that record a span per call (name, start, end, parent
span, operation id, thread), and ``uninstall`` puts the originals back.
Spans stay in memory until the run ends; ``layer_metrics`` reduces them
to the per-layer numbers and ``write_jsonl`` saves them.

A span's parent is the innermost open span of the same thread, so self
time (duration minus the time covered by children) is exact within a
thread.  Worker threads of ``cli gridsearch`` start with no open span;
their spans are tied to the operation through the shared operation id.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from srlssvm import cli, data, kernels, losses, model, solver


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    thread: int
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _features(x):
    return getattr(x, "features", x)


def _gram_attrs(args, kwargs, result):
    X = _features(args[1])
    Z = _features(args[2]) if len(args) > 2 and args[2] is not None else X
    n, l = np.shape(X)
    return {"n": n, "r": np.shape(Z)[0], "l": l}


def _factor_attrs(args, kwargs, result):
    X = np.ascontiguousarray(_features(args[0]), dtype=float)
    spec = args[1]
    digest = hashlib.blake2b(X.tobytes(), digest_size=16).hexdigest()
    first = result.trace_history[0] if result.trace_history else 0.0
    return {
        "m": result.m,
        "pivots": result.r,
        "key": f"{digest}:{spec.family}:{spec.sigma!r}:{args[2]}",
        "residual_ratio": result.residual_trace / first if first else 0.0,
    }


def _step_attrs(args, kwargs, result):
    return {"support": result.support_size}


def _train_attrs(args, kwargs, result):
    return {"converged": bool(result[1].converged)}


# (owner, attribute, span name, attrs) for every call boundary wrapped.
# Owners are the modules (or class) the caller looks the name up in.
BOUNDARIES = (
    (kernels, "kernel_column", "kernels.column", None),
    (model, "gram", "kernels.gram", _gram_attrs),
    (solver, "pivoted_cholesky", "lowrank.factor", _factor_attrs),
    (solver, "precompute", "solver.precompute", None),
    (solver, "cccp_step", "solver.cccp_step", _step_attrs),
    (losses, "gamma", "losses.gamma", None),
    (solver, "train", "solver.train", _train_attrs),
    (solver, "train_annealed", "solver.train", _train_attrs),
    (cli, "train", "cli.train", _train_attrs),
    (cli, "evaluate", "cli.evaluate", None),
    (model, "evaluate", "model.evaluate", None),
    (model, "predict_raw", "model.predict", None),
    (model, "load", "model.load", None),
    (data, "parse_sparse_text", "data.parse", None),
    (data.Dataset, "take", "data.take", None),
    (data, "inject_label_outliers", "data.inject", None),
)


# per-layer metric -> unit; "/op" means a total over the traced operations
# divided by their number
LAYER_UNITS = {
    "kernels.column_calls": "calls/op",
    "kernels.column_s": "s/op",
    "kernels.gram_calls": "calls/op",
    "kernels.gram_s": "s/op",
    "kernels.gram_bytes_computed": "bytes/op",
    "lowrank.factor_calls": "calls/op",
    "lowrank.factor_self_s": "s/op",
    "lowrank.pivots": "pivots/op",
    "lowrank.factor_bytes_computed": "bytes/op",
    "lowrank.factor_unique_ratio": "ratio",
    "lowrank.residual_trace_ratio": "ratio",
    "solver.precompute_s": "s/op",
    "solver.cccp_steps": "steps/op",
    "solver.cccp_step_ms": "ms",
    "solver.cccp_s": "s/op",
    "solver.support_size_mean": "rows",
    "solver.nonconverged": "fits/op",
    "losses.gamma_calls": "calls/op",
    "losses.gamma_s": "s/op",
    "model.evaluate_s": "s/op",
    "model.predict_calls": "calls/op",
    "model.load_s": "s",
    "data.parse_s": "s/op",
    "data.take_s": "s/op",
    "data.inject_s": "s",
    "cli.fits": "fits/op",
    "cli.workers": "threads",
    "cli.parallel_efficiency": "ratio",
    "trace.op_p50_ms": "ms",
    "trace.untraced_op_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, self.op, threading.get_ident(),
                                       name, start, end, {"error": True}))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            self.spans.append(Span(sid, parent, self.op, threading.get_ident(),
                                   name, start, end, extra))
            return result
        return traced

    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name, attrs in BOUNDARIES:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "op": s.op,
                                     "thread": s.thread, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by same-thread children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    return {s.id: s.seconds - covered[s.id] for s in spans}


def layer_metrics(spans: list[Span], op_walls: dict[int, float],
                  configured_workers: int) -> dict[str, float]:
    """Per-layer metrics, each a total over the traced operations divided
    by their number, except where the name says mean, ratio or efficiency.

    ``op_walls`` maps each traced operation id to its wall seconds.
    Calls that raised are left out.  Ratios with an empty base read 0.
    """
    n_ops = max(1, len(op_walls))
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.op in op_walls and "error" not in s.attrs:
            by_name[s.name].append(s)
    selfs = self_seconds(spans)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def per_op(x):
        return x / n_ops

    columns = by_name["kernels.column"]
    grams = by_name["kernels.gram"]
    factors = by_name["lowrank.factor"]
    steps = by_name["solver.cccp_step"]
    fits = by_name["solver.train"] + by_name["cli.train"]
    cli_fits = by_name["cli.train"]
    children = defaultdict(float)
    for name in ("lowrank.factor", "solver.precompute"):
        for s in by_name[name]:
            children[s.parent] += s.seconds
    cccp_s = sum(f.seconds - children[f.id] for f in fits)

    distinct = defaultdict(set)
    for f in factors:
        distinct[f.op].add(f.attrs["key"])
    n_distinct = sum(len(keys) for keys in distinct.values())

    cli_busy = total("cli.train") + total("cli.evaluate")
    cli_ops = {s.op for s in cli_fits}
    cli_wall = sum(op_walls[op] for op in cli_ops)
    workers_seen = defaultdict(set)
    for s in cli_fits:
        workers_seen[s.op].add(s.thread)

    return {
        "kernels.column_calls": per_op(len(columns)),
        "kernels.column_s": per_op(total("kernels.column")),
        "kernels.gram_calls": per_op(len(grams)),
        "kernels.gram_s": per_op(total("kernels.gram")),
        "kernels.gram_bytes_computed": per_op(sum(
            8.0 * s.attrs["n"] * s.attrs["r"] * s.attrs["l"] for s in grams)),
        "lowrank.factor_calls": per_op(len(factors)),
        "lowrank.factor_self_s": per_op(sum(selfs[s.id] for s in factors)),
        "lowrank.pivots": per_op(sum(s.attrs["pivots"] for s in factors)),
        "lowrank.factor_bytes_computed": per_op(sum(
            8.0 * s.attrs["m"] * s.attrs["pivots"] for s in factors)),
        "lowrank.factor_unique_ratio": n_distinct / len(factors) if factors else 0.0,
        "lowrank.residual_trace_ratio": float(np.mean(
            [s.attrs["residual_ratio"] for s in factors])) if factors else 0.0,
        "solver.precompute_s": per_op(total("solver.precompute")),
        "solver.cccp_steps": per_op(len(steps)),
        "solver.cccp_step_ms": 1e3 * total("solver.cccp_step") / len(steps) if steps else 0.0,
        "solver.cccp_s": per_op(cccp_s),
        "solver.support_size_mean": float(np.mean(
            [s.attrs["support"] for s in steps])) if steps else 0.0,
        "solver.nonconverged": per_op(sum(not s.attrs["converged"] for s in fits)),
        "losses.gamma_calls": per_op(len(by_name["losses.gamma"])),
        "losses.gamma_s": per_op(total("losses.gamma")),
        "model.evaluate_s": per_op(total("model.evaluate") + total("cli.evaluate")),
        "model.predict_calls": per_op(len(by_name["model.predict"])),
        "data.parse_s": per_op(total("data.parse")),
        "data.take_s": per_op(total("data.take")),
        "cli.fits": per_op(len(cli_fits)),
        "cli.workers": float(np.mean([len(t) for t in workers_seen.values()]))
        if workers_seen else 0.0,
        "cli.parallel_efficiency": cli_busy / (configured_workers * cli_wall)
        if cli_wall else 0.0,
    }
