"""Command-line harness: experiments as subcommands over key=value configs.

Config files are flat UTF-8 text, one ``dotted.key=value`` entry per line,
with ``#`` comments.  All floating-point output is printed with 17
significant digits, so identical configs and seeds reproduce byte-identical
CSV and report files.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 configuration
error (including checks that are undefined for the instance), 3 numerical
or resource failure (non-finite values, step collapse, out of memory).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import (
    ConfigError,
    HypothesisNotMet,
    InvalidInstance,
    NotInX0,
    NumericalFailure,
    SamplerFailure,
    StepCollapse,
    UnsupportedRegime,
)
from .flow import EXPLICIT, PROXIMAL, FlowConfig, FlowTrace, TraceRow, Verdict, run_flow
from .functionals import GridFunction
from .grid import Grid, ModelParams, build_grid
from .variational import (
    DESCENT_ITERS,
    SAMPLES,
    WellClassification,
    _critical_scale,
    _j_closed,
    _i_closed,
    _ray_scalars,
    _report_in_x0,
    _require_in_x0,
    _sample_ray,
    bump_profile,
    classify,
    estimate_well_depth,
    growth_exponent_gamma,
    random_profile,
    sine_profile,
)
from . import verify
from .verify import field_lines, fmt

TRACE_HEADER = "t,dt,l2,lp_p,seminorm_p,log_int,energy,nehari,dissipation"

CHECK_NAMES = ("energy_inequality", "well_invariance", "decay", "blowup")

IC_KINDS = ("bump", "sine", "random", "file")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    amplitude: float
    mode: int = 1
    seed: int = 0
    path: str | None = None


@dataclass(frozen=True)
class WellDepthOptions:
    samples: int = SAMPLES
    seed: int = 0
    num_seeds: int = 5
    descent_iters: int = DESCENT_ITERS
    d_hat: float | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")
        if self.descent_iters < 0:
            raise ValueError("descent_iters must be >= 0")
        # on the Nehari set E = P/p^2 > 0, so a well depth is positive
        if self.d_hat is not None and not 0.0 < self.d_hat < math.inf:
            raise ValueError("d_hat must be positive and finite")


@dataclass(frozen=True)
class FiberOptions:
    lambda_min: float | None = None
    lambda_max: float | None = None
    count: int = 121


@dataclass(frozen=True)
class ThresholdOptions:
    alpha_lo: float | None = None
    alpha_hi: float | None = None
    tol: float = 0.01

    def __post_init__(self):
        # the bisection stops at width tol * alpha_hi: tol <= 0 never stops
        # it and tol = nan skips it
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.alpha_lo is not None and self.alpha_hi is not None:
            if not 0.0 < self.alpha_lo < self.alpha_hi < math.inf:
                raise ValueError("need 0 < threshold.alpha_lo < threshold.alpha_hi < inf")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    flow: FlowConfig = field(default_factory=FlowConfig)
    ic: InitialSpec | None = None
    output_dir: str = "out"
    checks: tuple[str, ...] = ()
    welldepth: WellDepthOptions = field(default_factory=WellDepthOptions)
    fiber: FiberOptions = field(default_factory=FiberOptions)
    threshold: ThresholdOptions = field(default_factory=ThresholdOptions)
    golden: dict[str, float] = field(default_factory=dict)


def _parse_entries(path: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        entries[key] = (value, lineno)
    return entries


# config key prefix -> the dataclass whose fields the section's keys name;
# a field's type fixes how its value parses and a field without a default
# is a required key
_SECTIONS = {
    "model": ModelParams,
    "flow": FlowConfig,
    "ic": InitialSpec,
    "welldepth": WellDepthOptions,
    "fiber": FiberOptions,
    "threshold": ThresholdOptions,
}


def _key_types() -> dict[str, type]:
    types = {"output_dir": str, "checks": str,
             "golden.d_hat": float, "golden.threshold": float}
    for section, cls in _SECTIONS.items():
        for name, hint in get_type_hints(cls).items():
            kind = next((k for k in (int, float) if hint in (k, k | None)), str)
            types[f"{section}.{name}"] = kind
    return types


_KEY_TYPES = _key_types()


class _Entries:
    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries
        for key, (_, lineno) in entries.items():
            if key not in _KEY_TYPES:
                raise ConfigError(f"unknown key {key!r}", lineno)

    def get(self, key: str, default=None):
        if key not in self.entries:
            return default
        value, lineno = self.entries[key]
        try:
            return _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}", lineno) from exc

    def values(self, section: str) -> dict:
        """Parsed values of the keys present under ``section.``."""
        return {key.partition(".")[2]: self.get(key)
                for key in self.entries if key.startswith(section + ".")}

    def build(self, section: str):
        """The section's dataclass from the keys present; the rest default."""
        cls = _SECTIONS[section]
        for f in fields(cls):
            key = f"{section}.{f.name}"
            required = f.default is MISSING and f.default_factory is MISSING
            if required and key not in self.entries:
                raise ConfigError(f"missing required key {key!r}")
        try:
            return cls(**self.values(section))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _checks(names) -> tuple[str, ...]:
    for name in names:
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return tuple(names)


def load_config(path: str, need_ic: bool = True) -> RunConfig:
    """Parse and validate a config file into a typed RunConfig."""
    ent = _Entries(_parse_entries(path))
    model = ent.build("model")
    flow_cfg = ent.build("flow")

    ic = None
    if need_ic:
        ic = ent.build("ic")
        if ic.kind not in IC_KINDS:
            raise ConfigError(f"ic.kind must be one of {IC_KINDS}, got {ic.kind!r}")
        if ic.amplitude == 0.0 or not math.isfinite(ic.amplitude):
            raise ConfigError("ic.amplitude must be finite and nonzero")
        if ic.kind == "file":
            if ic.path is None:
                raise ConfigError("ic.kind=file requires ic.path")
            if not Path(ic.path).is_file():
                raise ConfigError(f"ic.path does not exist: {ic.path}")

    names = (name.strip() for name in ent.get("checks", "").split(","))
    return RunConfig(
        model=model,
        flow=flow_cfg,
        ic=ic,
        output_dir=ent.get("output_dir", RunConfig.output_dir),
        checks=_checks([name for name in names if name]),
        welldepth=ent.build("welldepth"),
        fiber=ent.build("fiber"),
        threshold=ent.build("threshold"),
        golden=ent.values("golden"),
    )


# ---------------------------------------------------------------------------
# initial data


def initial_condition(grid: Grid, spec: InitialSpec) -> GridFunction:
    """Build u0 from its spec: bump, sine mode, seeded random field, or file."""
    if spec.kind == "bump":
        base = bump_profile(grid)
    elif spec.kind == "sine":
        base = sine_profile(grid, spec.mode)
    elif spec.kind == "random":
        base = random_profile(grid, spec.seed)
    elif spec.kind == "file":
        values = []
        with open(spec.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(float(line))
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value in {spec.path}: {line!r}", lineno
                    ) from exc
        if len(values) != grid.n:
            raise ConfigError(
                f"{spec.path} holds {len(values)} values, grid needs {grid.n}"
            )
        base = GridFunction(grid, np.array(values))
    else:
        raise ConfigError(f"unknown ic.kind {spec.kind!r}")
    u0 = base.scaled(spec.amplitude)
    if not np.all(np.isfinite(u0.values)):
        raise ConfigError("initial data holds non-finite values")
    return u0


# ---------------------------------------------------------------------------
# output helpers


def _row_line(row: TraceRow) -> str:
    r = row.report
    fields = (row.t, row.dt, r.l2, r.lp_p, r.seminorm_p, r.log_int,
              r.energy, r.nehari, row.dissipation)
    return ",".join(fmt(x) for x in fields)


class TraceCsvSink:
    """Streams accepted rows into an open CSV file as they arrive."""

    def __init__(self, path: Path):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(TRACE_HEADER + "\n")
        self._fh.flush()

    def __call__(self, row: TraceRow):
        self._fh.write(_row_line(row) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def write_trace_csv(path: Path, trace: FlowTrace):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace.rows:
            fh.write(_row_line(row) + "\n")


def write_report(path: Path, lines: list[str]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _config_echo(cfg: RunConfig) -> list[str]:
    lines = field_lines("config.model", cfg.model) + field_lines("config.flow", cfg.flow)
    if cfg.ic is not None:
        lines += field_lines("config.ic", cfg.ic)
    return lines


def _resolve_d_hat(cfg: RunConfig, grid: Grid) -> float:
    if cfg.welldepth.d_hat is not None:
        return cfg.welldepth.d_hat
    estimate = estimate_well_depth(
        grid,
        count=cfg.welldepth.samples,
        seed=cfg.welldepth.seed,
        descent_iters=cfg.welldepth.descent_iters,
    )
    return estimate.d_hat


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override if override is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_energy(cfg: RunConfig, out: Path) -> int:
    grid = build_grid(cfg.model)
    u0 = initial_condition(grid, cfg.ic)
    rep = _report_in_x0(u0)
    d_hat = _resolve_d_hat(cfg, grid)
    verdict = classify(u0, d_hat)
    lines = _config_echo(cfg)
    lines += field_lines("energy", rep)
    lines.append(f"classify.d_hat={fmt(d_hat)}")
    lines.append(f"classify.result={verdict.value}")
    write_report(out / "energy.report", lines)
    for line in lines:
        print(line)
    return 0


def cmd_fiber(cfg: RunConfig, out: Path) -> int:
    grid = build_grid(cfg.model)
    u0 = initial_condition(grid, cfg.ic)
    try:
        ray = _ray_scalars(u0)
        star = _critical_scale(*ray)
    except NotInX0 as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:
        raise ConfigError(
            "the critical scale of this state is not representable; "
            "rescale the initial data"
        ) from exc
    lam_min = cfg.fiber.lambda_min if cfg.fiber.lambda_min is not None else star * 1e-2
    lam_max = cfg.fiber.lambda_max if cfg.fiber.lambda_max is not None else star * 1e2
    p = cfg.model.p
    try:
        profile = _sample_ray(ray, p, lam_min, lam_max, cfg.fiber.count)
    except ValueError as exc:
        raise ConfigError(f"fiber scan: {exc}") from exc

    lambdas = list(profile.lambdas)
    j_vals = list(profile.j_values)
    i_vals = list(profile.i_values)
    # splice the critical scale into the sampled grid and mark its row
    star_row = None
    if lam_min <= star <= lam_max:
        pos = int(np.searchsorted(profile.lambdas, star))
        at = np.array([star])
        lambdas.insert(pos, star)
        j_vals.insert(pos, float(_j_closed(*ray, p, at)[0]))
        i_vals.insert(pos, float(_i_closed(*ray, p, at)[0]))
        star_row = pos

    path = out / "fiber.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lambda,j,i,is_star\n")
        for k, (lam, j, i) in enumerate(zip(lambdas, j_vals, i_vals)):
            mark = 1 if k == star_row else 0
            fh.write(f"{fmt(lam)},{fmt(j)},{fmt(i)},{mark}\n")
    print(f"lambda_star={fmt(star)}")
    print(f"wrote {path}")
    return 0


def _run_checks(cfg: RunConfig, trace: FlowTrace,
                classification: WellClassification,
                d_hat: float) -> tuple[list[str], bool]:
    lines: list[str] = []
    all_passed = True
    for name in cfg.checks:
        if name == "energy_inequality":
            result = verify.check_energy_inequality(trace)
            passed = result.passed
        elif name == "well_invariance":
            # undefined on the Nehari set and near the well depth: passes
            result = passed = (
                classification not in (WellClassification.INSIDE_WELL,
                                       WellClassification.EXTERIOR)
                or verify.check_well_invariance(trace, classification, d_hat))
        else:
            check = verify.check_decay if name == "decay" else verify.check_blowup
            try:
                result = check(trace, cfg.model)
            except (UnsupportedRegime, HypothesisNotMet):
                raise
            except ValueError as exc:
                # the trace cannot carry this check (wrong verdict, too few rows)
                lines.append(f"check.{name}.passed=false")
                lines.append(f"check.{name}.reason={exc}")
                all_passed = False
                continue
            passed = result.passed
        lines += verify.report_lines(name, result)
        all_passed &= passed
    return lines, all_passed


def cmd_flow(cfg: RunConfig, out: Path) -> int:
    grid = build_grid(cfg.model)
    u0 = initial_condition(grid, cfg.ic)
    _require_in_x0(u0)
    d_hat = _resolve_d_hat(cfg, grid)
    classification = classify(u0, d_hat)
    sink = TraceCsvSink(out / "trace.csv")
    try:
        trace = run_flow(u0, cfg.flow, on_row=sink)
    finally:
        sink.close()

    check_lines, all_passed = _run_checks(cfg, trace, classification, d_hat)
    lines = _config_echo(cfg)
    lines += [
        f"classify.d_hat={fmt(d_hat)}",
        f"classify.result={classification.value}",
        f"run.verdict={trace.verdict.value}",
        f"run.t_event={fmt(trace.t_event)}",
        f"run.rows={len(trace.rows)}",
    ]
    lines += check_lines
    if "d_hat" in cfg.golden:
        lines.append(f"golden.d_hat.delta={fmt(d_hat - cfg.golden['d_hat'])}")
    lines += field_lines("run.final", trace.rows[-1].report)
    write_report(out / "summary.report", lines)
    for line in lines:
        print(line)
    return 0 if all_passed else 1


def cmd_welldepth(cfg: RunConfig, out: Path) -> int:
    grid = build_grid(cfg.model)
    opts = cfg.welldepth
    seeds = [opts.seed + k for k in range(opts.num_seeds)]

    def estimate(seed: int):
        return estimate_well_depth(
            grid, count=opts.samples, seed=seed, descent_iters=opts.descent_iters
        )

    workers = os.environ.get("FRACFLOW_THREADS")
    try:
        max_workers = max(1, int(workers)) if workers else min(4, os.cpu_count() or 1)
    except ValueError as exc:
        raise ConfigError(f"FRACFLOW_THREADS must be an integer, got {workers!r}") from exc
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        estimates = list(pool.map(estimate, seeds))

    d_hats = [e.d_hat for e in estimates]
    best = estimates[int(np.argmin(d_hats))]
    spread = (max(d_hats) - min(d_hats)) / min(d_hats) if min(d_hats) > 0 else float("inf")
    gamma, rho, theta = growth_exponent_gamma(cfg.model)

    lines = _config_echo(cfg)
    for seed, e in zip(seeds, estimates):
        lines.append(f"welldepth.seed{seed}.d_hat={fmt(e.d_hat)}")
    lines += [
        f"welldepth.d_hat={fmt(best.d_hat)}",
        f"welldepth.spread={fmt(spread)}",
        f"welldepth.residual_I={fmt(best.residual_I)}",
        f"welldepth.sampler_seed={best.sampler_seed}",
        f"welldepth.gamma={fmt(gamma)}",
        f"welldepth.rho={fmt(rho)}",
        f"welldepth.theta={fmt(theta)}",
    ]
    if "d_hat" in cfg.golden:
        lines.append(f"golden.d_hat.delta={fmt(best.d_hat - cfg.golden['d_hat'])}")
    write_report(out / "welldepth.report", lines)

    with open(out / "minimizer.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,u\n")
        for x, v in zip(grid.centers, best.minimizer.values):
            fh.write(f"{fmt(x)},{fmt(v)}\n")
    for line in lines:
        print(line)
    return 0


def cmd_threshold(cfg: RunConfig, out: Path) -> int:
    opts = cfg.threshold
    if opts.alpha_lo is None or opts.alpha_hi is None:
        raise ConfigError("threshold.alpha_lo and threshold.alpha_hi are required")

    grid = build_grid(cfg.model)

    def outcome(amplitude: float) -> FlowTrace:
        spec = replace(cfg.ic, amplitude=amplitude)
        return run_flow(initial_condition(grid, spec), cfg.flow)

    lo, hi = opts.alpha_lo, opts.alpha_hi
    trace_lo = outcome(lo)
    if trace_lo.verdict == Verdict.BLOW_UP:
        raise ConfigError(f"alpha_lo={fmt(lo)} already blows up; bracket invalid")
    trace_hi = outcome(hi)
    if trace_hi.verdict != Verdict.BLOW_UP:
        raise ConfigError(f"alpha_hi={fmt(hi)} does not blow up; bracket invalid")

    while hi - lo > opts.tol * hi:
        mid = 0.5 * (lo + hi)
        trace_mid = outcome(mid)
        if trace_mid.verdict == Verdict.BLOW_UP:
            hi, trace_hi = mid, trace_mid
        else:
            lo, trace_lo = mid, trace_mid

    write_trace_csv(out / "trace_lo.csv", trace_lo)
    write_trace_csv(out / "trace_hi.csv", trace_hi)
    lines = _config_echo(cfg)
    lines += [
        f"threshold.alpha_lo={fmt(lo)}",
        f"threshold.alpha_hi={fmt(hi)}",
        f"threshold.width={fmt(hi - lo)}",
    ]
    if "threshold" in cfg.golden:
        mid = 0.5 * (lo + hi)
        lines.append(f"golden.threshold.delta={fmt(mid - cfg.golden['threshold'])}")
    write_report(out / "threshold.report", lines)
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.integrator is not None:
        try:
            cfg = replace(cfg, flow=replace(cfg.flow, integrator=args.integrator))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if args.seed is not None:
        ic = None if cfg.ic is None else replace(cfg.ic, seed=args.seed)
        cfg = replace(cfg, ic=ic, welldepth=replace(cfg.welldepth, seed=args.seed))
    if args.check:
        cfg = replace(cfg, checks=_checks(args.check))
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracflow",
        description="Nonlocal p-Laplacian flows with logarithmic nonlinearity: "
                    "energy reports, fibering scans, dissipative runs, well-depth "
                    "estimates, and blow-up threshold searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "energy": "report the diagnostics of u0 and classify it against the well depth",
        "fiber": "write the ray-energy profile j(lambda) and I(lambda u) as CSV",
        "flow": "integrate the flow, stream the trace CSV, and run requested checks",
        "welldepth": "estimate the well depth across sampler seeds",
        "threshold": "bisect the amplitude between decay and blow-up outcomes",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override ic.seed and welldepth.seed")
        sp.add_argument("--check", action="append", default=None, metavar="NAME",
                        help="verify check to run (repeatable); overrides config")
        sp.add_argument("--integrator", default=None,
                        help=f"{PROXIMAL} or {EXPLICIT}")
    return parser


_COMMANDS = {
    "energy": (cmd_energy, True),
    "fiber": (cmd_fiber, True),
    "flow": (cmd_flow, True),
    "welldepth": (cmd_welldepth, False),
    "threshold": (cmd_threshold, True),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command, need_ic = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, need_ic=need_ic)
        cfg = _apply_overrides(cfg, args)
        out = _out_dir(cfg, args.out)
        return command(cfg, out)
    except (ConfigError, InvalidInstance, UnsupportedRegime,
            HypothesisNotMet, NotInX0) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, StepCollapse, SamplerFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource failure: {exc or 'out of memory'}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
