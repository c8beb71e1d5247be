"""Outside-in span tracing of a fracflow child process.

``Tracer.install`` replaces the public functions of each fracflow module
with timing wrappers before ``fracflow.cli.main`` runs; no source file of
the package is edited.  A function imported by name into several modules
(``from .functionals import energy_values``) is replaced in every module
that holds it, so calls from ``flow``, ``variational`` and ``cli`` are all
seen.

Spans stay in memory as ``[name, start, end, parent, thread, attrs]`` and
are written out once, when the run ends.  ``layer_metrics`` turns the
spans of one run into the per-layer metrics; ``self_times`` derives each
span's self time from the parent links.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time

_FUNCTIONALS = ("energy_values", "gradient_values", "report")
_VERIFY = ("check_energy_inequality", "check_well_invariance", "check_decay",
           "check_blowup")


def _n_of_values(args, result):
    return {"n": len(args[1])}


def _n_of_state(args, result):
    return {"n": args[0].grid.n}


def _step_attrs(args, result):
    return {"iters": result.iterations, "converged": bool(result.converged)}


def _flow_attrs(args, result):
    return {"accepted": len(result.rows) - 1}


def _grid_attrs(args, result):
    return {"bytes": int(result.W.nbytes + result.T.nbytes)}


def _one_row(args, result):
    return {"rows": 1}


def _trace_rows(args, result):
    return {"rows": len(args[1].rows)}


# (module, attribute path, span name, attrs(args, result) or None).  Counts
# ride on the spans as attributes, so nothing shared between threads is
# updated in place.
TARGETS = [
    ("fracflow.grid", "build_grid", "grid.build_grid", _grid_attrs),
    ("fracflow.functionals", "energy_values", "functionals.energy_values", _n_of_values),
    ("fracflow.functionals", "gradient_values", "functionals.gradient_values", _n_of_values),
    ("fracflow.functionals", "report", "functionals.report", _n_of_state),
    ("fracflow.flow", "run_flow", "flow.run_flow", _flow_attrs),
    ("fracflow.flow", "step_proximal", "flow.step_proximal", _step_attrs),
    ("fracflow.variational", "estimate_well_depth", "variational.estimate_well_depth", None),
    *[("fracflow.verify", name, f"verify.{name}", None) for name in _VERIFY],
    ("fracflow.cli", "TraceCsvSink.__init__", "cli.io.TraceCsvSink.__init__", None),
    ("fracflow.cli", "TraceCsvSink.__call__", "cli.io.TraceCsvSink.__call__", _one_row),
    ("fracflow.cli", "TraceCsvSink.close", "cli.io.TraceCsvSink.close", None),
    ("fracflow.cli", "write_trace_csv", "cli.io.write_trace_csv", _trace_rows),
    ("fracflow.cli", "write_report", "cli.io.write_report", None),
]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self._local = threading.local()
        self._replaced: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, clock(), 0.0, stack[-1] if stack else None,
                   threading.get_ident(), None]
            # list.append is atomic, so worker threads may record concurrently
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec[5] = attrs(args, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Replace every target in each fracflow module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "fracflow" or key.startswith("fracflow.")]
        for module_name, path, span_name, attrs in TARGETS:
            owner = sys.modules[module_name]
            *prefix, attr = path.split(".")
            for part in prefix:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(span_name, original, attrs)
            holders = [owner] if prefix else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._replaced.append((holder, attr, original))
                setattr(holder, attr, traced)

    def uninstall(self):
        """Put back every attribute ``install`` replaced."""
        while self._replaced:
            holder, attr, original = self._replaced.pop()
            setattr(holder, attr, original)

    def records(self) -> list[dict]:
        """Spans as dicts with integer parent indices and thread ordinals."""
        index = {id(rec): k for k, rec in enumerate(self.spans)}
        threads: dict[int, int] = {}
        out = []
        for name, start, end, parent, thread, attrs in self.spans:
            out.append({
                "name": name, "start": start, "end": end,
                "parent": None if parent is None else index[id(parent)],
                "run": self.run_id,
                "thread": threads.setdefault(thread, len(threads)),
                **(attrs or {}),
            })
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# analysis of written spans


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered(children.get(k, []), s["start"], s["end"])
        for k, s in enumerate(spans)
    ]


def has_ancestor(spans: list[dict], k: int, name: str) -> bool:
    parent = spans[k]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (see perfbench/README.md)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(k)

    def dur(k):
        return spans[k]["end"] - spans[k]["start"]

    def calls(name):
        return len(by_name.get(name, []))

    def total(name, of=dur):
        return sum(of(k) for k in by_name.get(name, []))

    def self_of(k):
        return selfs[k]

    def attr_sum(name, key):
        return sum(spans[k].get(key, 0) for k in by_name.get(name, []))

    m: dict[str, float] = {}
    builds = [dur(k) for k in by_name.get("grid.build_grid", [])]
    m["grid.build_s"] = statistics.median(builds) if builds else 0.0
    m["grid.weight_bytes"] = max(
        (spans[k]["bytes"] for k in by_name.get("grid.build_grid", [])), default=0)

    pair_terms = 0
    kernel_threads = set()
    for fn in _FUNCTIONALS:
        name = f"functionals.{fn}"
        n_calls = calls(name)
        m[f"{name}.calls"] = n_calls
        m[f"{name}.self_s"] = total(name, self_of)
        m[f"{name}.us_per_call"] = _ratio(total(name) * 1e6, n_calls)
        for k in by_name.get(name, []):
            pair_terms += spans[k]["n"] ** 2
            kernel_threads.add(spans[k]["thread"])
    m["functionals.pair_terms"] = pair_terms

    steps = by_name.get("flow.step_proximal", [])
    n_steps = len(steps)
    step_ms = [dur(k) * 1e3 for k in steps]
    accepted = attr_sum("flow.run_flow", "accepted")
    inner = attr_sum("flow.step_proximal", "iters")
    step_evals = sum(
        1 for fn in ("energy_values", "gradient_values")
        for k in by_name.get(f"functionals.{fn}", [])
        if has_ancestor(spans, k, "flow.step_proximal")
    )
    m["flow.run_flow.self_s"] = total("flow.run_flow", self_of)
    m["flow.step_proximal.calls"] = n_steps
    m["flow.step_proximal.self_s"] = total("flow.step_proximal", self_of)
    m["flow.step_proximal.p50_ms"] = _percentile(step_ms, 50)
    m["flow.step_proximal.p99_ms"] = _percentile(step_ms, 99)
    m["flow.steps_accepted"] = accepted
    m["flow.accept_frac"] = _ratio(accepted, n_steps)
    m["flow.inner_iters"] = inner
    m["flow.inner_iters_per_step"] = _ratio(inner, n_steps)
    m["flow.converged_frac"] = _ratio(attr_sum("flow.step_proximal", "converged"), n_steps)
    m["flow.evals_per_step"] = _ratio(step_evals, n_steps)

    name = "variational.estimate_well_depth"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.s"] = total(name)
    m[f"{name}.self_s"] = total(name, self_of)

    m["verify.checks_s"] = sum(total(f"verify.{fn}") for fn in _VERIFY)

    io = [n for n in by_name if n.startswith("cli.io.")]
    m["cli.io_s"] = sum(total(n) for n in io)
    m["cli.rows_written"] = sum(attr_sum(n, "rows") for n in io)
    m["cli.threads"] = len(kernel_threads)
    return m
