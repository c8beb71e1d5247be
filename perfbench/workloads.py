"""The four benchmark workloads: configs, seeded inputs and output gates.

Each workload is one ``fracflow`` subcommand on a config the benchmark
writes.  ``--seed`` is passed to every subcommand as ``--seed`` (it sets
``ic.seed`` and ``welldepth.seed``).  ``flow-large`` also draws the initial
state of each sample from the seed and the sample's index, so one run
covers several inputs; ``flow-small`` and ``threshold`` use bump data, so
there the seed reaches only the well-depth sampler (``flow-small``) or
nothing at all (``threshold``).

The reference values below were recorded at the commit that introduced
the benchmark.  Tolerances were set by running each workload with the
inner solver tightened and loosened (``flow.inner_tol`` 1e-10 and 1e-6,
``flow.inner_max_iters`` 5000, ``welldepth.descent_iters`` 1000), which
moved no gated value beyond 6e-6 of the decay slope, and with the pair
weights scaled by 1.1 and by 2, which moved d-hat by a factor of 3 or
more, the decay slope by 5e-3 (at 2x) and the threshold bracket by one
bracket width (at 2x).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# flow-small: the README run
SMALL_SLOPE = -1.0479448060837004
SMALL_SLOPE_TOL = 2e-3
SMALL_D_HAT = 1.6478907666583417e19
# welldepth at s=0.5, p=2.5, n=256; every sampler seed reaches the same minimizer
WELL_D_HAT = 6423161658010624.0
D_HAT_RTOL = 1e-2
# threshold: the bracket bisected to 5% width; a result must overlap it
THRESHOLD_BRACKET = (9.29248046875, 9.7802734375)
# flow-large: agreement with the implicit Euler oracle (oracle.py)
ORACLE_RTOL = 1e-5
ORACLE_E0_RTOL = 1e-9

LARGE_N = 1024
LARGE_MODES = 6


def _config(**entries: str) -> str:
    return "".join(f"{key}={value}\n" for key, value in entries.items())


def _flow_small_config(work: Path, seed: int, sample: int) -> str:
    return _config(**{
        "model.s": "0.5", "model.p": "3", "model.a": "0", "model.b": "1",
        "model.n": "128", "flow.dt0": "0.1", "flow.t_end": "1000",
        "flow.dt_min": "1e-9", "flow.blowup_threshold": "1e6",
        "flow.inner_tol": "1e-8", "ic.kind": "bump", "ic.amplitude": "0.1",
        "checks": "energy_inequality,well_invariance,decay", "output_dir": "out",
    })


def large_initial_values(seed: int, sample: int) -> list[float]:
    """Smooth u0 on (0, 1): sine modes 1..6 with coefficients U(-1, 1) / k^2."""
    rng = random.Random(f"{seed}:{sample}")
    coeffs = [rng.uniform(-1.0, 1.0) / k**2 for k in range(1, LARGE_MODES + 1)]
    return [
        sum(c * math.sin(k * math.pi * (i + 0.5) / LARGE_N)
            for k, c in enumerate(coeffs, start=1))
        for i in range(LARGE_N)
    ]


def _flow_large_config(work: Path, seed: int, sample: int) -> str:
    u0 = work / f"u0-{sample}.txt"
    u0.write_text("".join(f"{x!r}\n" for x in large_initial_values(seed, sample)),
                  encoding="utf-8")
    return _config(**{
        "model.s": "0.4", "model.p": "2", "model.a": "0", "model.b": "1",
        "model.n": str(LARGE_N), "flow.dt0": "1e-3", "flow.t_end": "0.02",
        "ic.kind": "file", "ic.path": str(u0), "ic.amplitude": "1",
        "welldepth.d_hat": "1", "checks": "energy_inequality",
    })


def _welldepth_config(work: Path, seed: int, sample: int) -> str:
    return _config(**{
        "model.s": "0.5", "model.p": "2.5", "model.a": "0", "model.b": "1",
        "model.n": "256",
    })


def _threshold_config(work: Path, seed: int, sample: int) -> str:
    # the BASE config of tests/test_cli.py plus the bisection bracket
    return _config(**{
        "model.s": "0.5", "model.p": "3", "model.a": "0", "model.b": "20",
        "model.n": "16", "flow.dt0": "1e-4", "flow.t_end": "1.0",
        "flow.dt_min": "1e-15", "flow.blowup_threshold": "1e7",
        "flow.inner_tol": "1e-8", "ic.kind": "bump", "ic.amplitude": "1.0",
        "threshold.alpha_lo": "1", "threshold.alpha_hi": "1000",
        "threshold.tol": "0.05",
    })


# ---------------------------------------------------------------------------
# output gates: each returns a list of failure reasons, empty when correct


def read_report(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


def _expect(errors: list[str], rep: dict[str, str], key: str, value: str):
    if rep.get(key) != value:
        errors.append(f"{key}={rep.get(key)!r}, expected {value!r}")


def _close(errors: list[str], name: str, got: float, ref: float, rtol: float):
    if not abs(got - ref) <= rtol * abs(ref):
        errors.append(f"{name}={got!r} not within {rtol:g} of {ref!r}")


def _check_flow_small(out: Path, cache: dict) -> list[str]:
    errors: list[str] = []
    rep = read_report(out / "summary.report")
    _expect(errors, rep, "classify.result", "InsideWell")
    _expect(errors, rep, "run.verdict", "ReachedHorizon")
    for check in ("energy_inequality", "well_invariance", "decay"):
        _expect(errors, rep, f"check.{check}.passed", "true")
    slope = float(rep.get("check.decay.slope_fit", "nan"))
    if not abs(slope - SMALL_SLOPE) <= SMALL_SLOPE_TOL:
        errors.append(f"decay slope {slope!r} not within {SMALL_SLOPE_TOL} of {SMALL_SLOPE}")
    _close(errors, "classify.d_hat", float(rep.get("classify.d_hat", "nan")),
           SMALL_D_HAT, D_HAT_RTOL)
    return errors


def read_trace(path: Path) -> list[dict[str, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _check_flow_large(out: Path, cache: dict) -> list[str]:
    errors: list[str] = []
    rep = read_report(out / "summary.report")
    _expect(errors, rep, "run.verdict", "ReachedHorizon")
    _expect(errors, rep, "check.energy_inequality.passed", "true")
    rows = read_trace(out / "trace.csv")
    key = (rep["config.ic.path"], tuple(row["dt"] for row in rows[1:]))
    if key not in cache:
        cache[key] = _oracle_final(Path(key[0]), key[1])
    e0, e_end, l2_end = cache[key]
    _close(errors, "initial energy", rows[0]["energy"], e0, ORACLE_E0_RTOL)
    _close(errors, "final energy", rows[-1]["energy"], e_end, ORACLE_RTOL)
    _close(errors, "final l2", rows[-1]["l2"], l2_end, ORACLE_RTOL)
    _close(errors, "run.final.energy", float(rep["run.final.energy"]), e_end, ORACLE_RTOL)
    return errors


def _oracle_final(u0_path: Path, dts: tuple[float, ...]) -> tuple[float, float, float]:
    """Energy of u0, and energy and l2 norm after replaying ``dts``."""
    import numpy as np
    from fracflow import ModelParams, build_grid
    from oracle import P2Oracle

    grid = build_grid(ModelParams(s=0.4, p=2.0, a=0.0, b=1.0, n=LARGE_N))
    oracle = P2Oracle(grid.W, grid.T, grid.h)
    u0 = np.loadtxt(u0_path)
    u = oracle.replay(u0, list(dts))
    return oracle.energy(u0), oracle.energy(u), float(np.sqrt(grid.h * u @ u))


def _check_welldepth(out: Path, cache: dict) -> list[str]:
    errors: list[str] = []
    rep = read_report(out / "welldepth.report")
    _close(errors, "welldepth.d_hat", float(rep.get("welldepth.d_hat", "nan")),
           WELL_D_HAT, D_HAT_RTOL)
    rows = (out / "minimizer.csv").read_text(encoding="utf-8").count("\n") - 1
    if rows != 256:
        errors.append(f"minimizer.csv has {rows} rows, expected 256")
    return errors


def _check_threshold(out: Path, cache: dict) -> list[str]:
    errors: list[str] = []
    rep = read_report(out / "threshold.report")
    lo = float(rep.get("threshold.alpha_lo", "nan"))
    hi = float(rep.get("threshold.alpha_hi", "nan"))
    ref_lo, ref_hi = THRESHOLD_BRACKET
    if not (lo < ref_hi and hi > ref_lo):
        errors.append(f"bracket [{lo!r}, {hi!r}] misses [{ref_lo}, {ref_hi}]")
    if not hi - lo <= 0.05 * hi:
        errors.append(f"bracket [{lo!r}, {hi!r}] wider than 5%")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    write_config: Callable[[Path, int, int], str]
    check: Callable[[Path, dict], list[str]]
    fracflow_threads: int | None = None

    def prepare(self, work: Path, seed: int, sample: int) -> list[str]:
        """Write one sample's config and inputs into ``work``; return the
        subcommand argv (without ``--out``)."""
        work.mkdir(parents=True, exist_ok=True)
        cfg = work / f"run-{sample}.cfg"
        cfg.write_text(self.write_config(work, seed, sample), encoding="utf-8")
        return [self.command, "--config", str(cfg), "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload("flow-small", "flow", _flow_small_config, _check_flow_small),
    Workload("flow-large", "flow", _flow_large_config, _check_flow_large),
    Workload("welldepth", "welldepth", _welldepth_config, _check_welldepth,
             fracflow_threads=2),
    Workload("threshold", "threshold", _threshold_config, _check_threshold),
)}
