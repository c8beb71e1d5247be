"""fracflow benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh child process
(``perfbench/child.py``) running one ``fracflow`` subcommand on inputs
generated from ``--seed`` into ``.perfbench_work/``.  Children run one
after another until ``--seconds`` have been spent; each child's outputs are
checked against the workload's gate.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (which alternates untraced and traced children,
so the tracing overhead is measured in the same run).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS  # noqa: E402

# a child that takes longer is killed and counted as failed
CHILD_TIMEOUT_S = 120.0
# samples per run even when one sample outlasts --seconds
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "grid.build_s": "s",
    "grid.weight_bytes": "bytes",
    **{f"functionals.{fn}.{key}": unit
       for fn in ("energy_values", "gradient_values", "report")
       for key, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))},
    "functionals.pair_terms": "count",
    "flow.run_flow.self_s": "s",
    "flow.step_proximal.calls": "count",
    "flow.step_proximal.self_s": "s",
    "flow.step_proximal.p50_ms": "ms",
    "flow.step_proximal.p99_ms": "ms",
    "flow.steps_accepted": "count",
    "flow.accept_frac": "ratio",
    "flow.inner_iters": "count",
    "flow.inner_iters_per_step": "count",
    "flow.converged_frac": "ratio",
    "flow.evals_per_step": "count",
    "variational.estimate_well_depth.calls": "count",
    "variational.estimate_well_depth.s": "s",
    "variational.estimate_well_depth.self_s": "s",
    "verify.checks_s": "s",
    "cli.io_s": "s",
    "cli.rows_written": "count",
    "cli.cpu_s": "s",
    "cli.threads": "count",
    "trace.overhead_s": "s",
}


def child_env(fracflow_threads: int | None) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("FRACFLOW_THREADS", None)
    if fracflow_threads is not None:
        env["FRACFLOW_THREADS"] = str(fracflow_threads)
    return env


@dataclass
class Sample:
    """Measurements of one child process."""

    out: Path
    spans: Path | None
    rc: int | None = None
    wall_s: float = 0.0
    setup_s: float | None = None
    peak_rss_mib: float = 0.0
    cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)


def run_child(work: Path, argv: list[str], env: dict[str, str], k: int,
              traced: bool) -> Sample:
    """Run sample ``k`` of fracflow ``argv`` in a fresh child process."""
    out = work / f"out-{k}"
    shutil.rmtree(out, ignore_errors=True)
    timing = work / f"timing-{k}.json"
    timing.unlink(missing_ok=True)
    sample = Sample(out, work / f"spans-{k}.json" if traced else None)
    cmd = [sys.executable, str(HERE / "child.py"), str(timing)]
    if traced:
        cmd += ["--spans", str(sample.spans), "--run-id", str(k)]
    cmd += ["--", *argv, "--out", str(out)]
    with open(work / f"child-{k}.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = sample.rc = os.waitstatus_to_exitcode(status)
    sample.wall_s = end - start
    sample.peak_rss_mib = usage.ru_maxrss / 1024.0
    sample.cpu_s = usage.ru_utime + usage.ru_stime
    if timing.is_file():
        sample.setup_s = json.loads(timing.read_text())["setup_done"] - start
    return sample


def gate(workload, samples: list[Sample], cache: dict):
    for s in samples:
        if s.rc != 0:
            s.errors.append(f"exit code {s.rc}, expected 0")
            continue
        if s.setup_s is None:
            s.errors.append("child wrote no timing")
        try:
            s.errors += workload.check(s.out, cache)
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            s.errors.append(f"unreadable output: {exc!r}")


def run_record(args, workload) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    thread_env = {k: v for k, v in child_env(workload.fracflow_threads).items()
                  if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRACFLOW_THREADS")}
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": commit, "child_thread_env": thread_env,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracflow" / "cli.py").is_file():
        print(f"error: no fracflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    work = Path(".perfbench_work") / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(workload.fracflow_threads)
    record = run_record(args, workload)
    (work / "run_record.json").write_text(json.dumps(record, indent=1) + "\n")

    # compile the package's bytecode and warm the page cache, untimed
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import fracflow.cli"],
        cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print("error: fracflow does not import", file=sys.stderr)
        return 2

    samples: list[Sample] = []
    begin = time.monotonic()
    while True:
        k = len(samples)
        # a traced sample reruns the inputs of the untraced one before it
        traced = bool(args.trace) and k % 2 == 1
        argv = workload.prepare(work, args.seed, k // 2 if args.trace else k)
        samples.append(run_child(work, argv, env, k, traced))
        n_traced = sum(s.spans is not None for s in samples)
        enough = len(samples) >= MIN_SAMPLES and (
            not args.trace or n_traced >= MIN_TRACED_SAMPLES)
        elapsed = time.monotonic() - begin
        typical = statistics.median(s.wall_s for s in samples)
        if enough and elapsed + typical > args.seconds:
            break

    gate(workload, samples, cache={})
    failed = [s for s in samples if s.errors]
    for k, s in enumerate(samples):
        for err in s.errors:
            print(f"sample {k} failed: {err}", file=sys.stderr)
    good = [s for s in samples if not s.errors]
    plain = [s for s in good if s.spans is None]

    metrics: dict[str, dict] = {}
    if plain and not args.trace:
        for name, unit in END_TO_END.items():
            metrics[name] = _metric(statistics.median(getattr(s, name) for s in plain), unit)
    traced_samples = [s for s in good if s.spans is not None]
    if args.trace and plain and traced_samples:
        from tracer import layer_metrics

        per_run = []
        for s in traced_samples:
            per_run.append(layer_metrics(json.loads(s.spans.read_text())))
        for name in per_run[0]:
            metrics[name] = _metric(statistics.median(m[name] for m in per_run),
                                    PER_LAYER[name])
        metrics["cli.cpu_s"] = _metric(statistics.median(s.cpu_s for s in plain), "s")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(s.wall_s for s in traced_samples)
            - statistics.median(s.wall_s for s in plain), "s")

    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} traced={len(traced_samples)} "
          f"fail_frac={len(failed) / len(samples):.4g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    line = json.dumps(result)
    (work / "results.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
