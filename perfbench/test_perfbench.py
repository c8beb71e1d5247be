"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench -q

They are not part of the package's test suite (``testpaths`` names only
``tests/``).
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import Tracer, covered, has_ancestor, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, large_initial_values  # noqa: E402

# sha256 of the flow-large u0 file for seed 3, sample 0, as first generated
PINNED_U0_SHA256 = "36d8d21f6fefd382a276a0fbe3c8849da993102b35829fdf8679d779e320be73"


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": 0, "thread": 0, **attrs}


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.1, 0.3), (0.2, 0.4), (0.6, 0.7)], 0.0, 1.0) == pytest.approx(0.4)
    assert covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)
    assert covered([(0.5, 0.5), (2.0, 3.0)], 0.0, 1.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 9.0, parent=0),
        span("leaf", 2.0, 3.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 4.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    # children recorded by two threads under one parent may overlap
    spans = [span("p", 0.0, 4.0), span("c", 1.0, 3.0, parent=0),
             span("c", 2.0, 3.5, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_parent_links_follow_the_call_stack():
    tracer = Tracer(run_id=7)
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert inner(0) == 1
    recs = tracer.records()
    assert [(r["name"], r["parent"]) for r in recs] == [
        ("outer", None), ("inner", 0), ("inner", 0), ("inner", None)]
    assert {r["run"] for r in recs} == {7}
    assert all(r["start"] <= r["end"] for r in recs)
    assert has_ancestor(recs, 1, "outer") and not has_ancestor(recs, 3, "outer")


def test_span_ends_when_the_call_raises():
    tracer = Tracer(run_id=0)

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("fail", fail)()
    after = tracer.wrap("after", lambda: None)
    after()
    recs = tracer.records()
    assert recs[0]["end"] >= recs[0]["start"] > 0.0
    assert recs[1]["parent"] is None


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span("flow.run_flow", 0.0, 10.0, accepted=1),
        span("flow.step_proximal", 1.0, 4.0, parent=0, iters=3, converged=True),
        span("functionals.energy_values", 1.5, 2.0, parent=1, n=4),
        span("functionals.gradient_values", 2.0, 3.0, parent=1, n=4),
        span("flow.step_proximal", 5.0, 6.0, parent=0, iters=1, converged=False),
        span("functionals.report", 7.0, 7.5, parent=0, n=4),
        span("cli.io.TraceCsvSink.__call__", 8.0, 8.25, parent=0, rows=1),
    ]
    m = layer_metrics(spans)
    assert m["flow.run_flow.self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5 - 0.25)
    assert m["flow.step_proximal.self_s"] == pytest.approx(1.5 + 1.0)
    assert m["flow.step_proximal.calls"] == 2
    assert m["flow.steps_accepted"] == 1
    assert m["flow.accept_frac"] == 0.5
    assert m["flow.inner_iters"] == 4
    assert m["flow.converged_frac"] == 0.5
    assert m["flow.evals_per_step"] == 1.0
    assert m["functionals.pair_terms"] == 3 * 16
    assert m["functionals.energy_values.us_per_call"] == pytest.approx(5e5)
    assert m["cli.io_s"] == pytest.approx(0.25)
    assert m["cli.rows_written"] == 1
    assert m["cli.threads"] == 1


def test_install_wraps_names_in_every_importing_module():
    import fracflow
    import fracflow.cli
    import fracflow.flow
    import fracflow.functionals
    import fracflow.variational

    modules = (fracflow, fracflow.cli, fracflow.flow, fracflow.functionals,
               fracflow.variational)
    names = ("energy_values", "gradient_values", "report", "run_flow",
             "estimate_well_depth", "build_grid")
    originals = {(m, n): getattr(m, n) for m in modules for n in names if hasattr(m, n)}
    sink_call = fracflow.cli.TraceCsvSink.__call__
    tracer = Tracer(run_id=0)
    tracer.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name).__wrapped__ is original, f"{module.__name__}.{name}"
        assert fracflow.flow.energy_values is fracflow.variational.energy_values
        assert fracflow.cli.TraceCsvSink.__call__.__wrapped__ is sink_call
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert fracflow.cli.TraceCsvSink.__call__ is sink_call


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    workload = WORKLOADS[name]
    snapshots = []
    for attempt in ("a", "b"):
        work = tmp_path / attempt
        argvs = [workload.prepare(work, seed=3, sample=k) for k in range(2)]
        files = {p.name: p.read_bytes().replace(str(work).encode(), b"WORK")
                 for p in sorted(work.iterdir())}
        snapshots.append(([argv[0] for argv in argvs], files))
    assert snapshots[0] == snapshots[1]


def test_flow_large_inputs_are_pinned_and_vary_by_seed_and_sample():
    first = large_initial_values(seed=3, sample=0)
    digest = hashlib.sha256("".join(f"{x!r}\n" for x in first).encode()).hexdigest()
    assert digest == PINNED_U0_SHA256
    assert large_initial_values(seed=3, sample=1) != first
    assert large_initial_values(seed=4, sample=0) != first


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(spec["paths"]) == {HERE.name}
