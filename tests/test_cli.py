"""Command-line harness: config parsing, subcommands, exit codes, determinism."""

from dataclasses import replace

import numpy as np
import pytest

import fracflow.cli
from fracflow import ConfigError, ModelParams, build_grid, bump_profile, energy, lambda_star
from fracflow.cli import initial_condition, InitialSpec, load_config, main

# wide domain: moderate amplitudes, fast runs
BASE = """
model.s=0.5
model.p=3
model.a=0
model.b=20
model.n=16
flow.dt0=1e-4
flow.t_end=1.0
flow.dt_min=1e-15
flow.blowup_threshold=1e7
flow.inner_tol=1e-8
ic.kind=bump
ic.amplitude=1.0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE))
    assert cfg.model == ModelParams(s=0.5, p=3.0, a=0.0, b=20.0, n=16)
    assert cfg.flow.dt0 == 1e-4
    assert cfg.ic.kind == "bump"
    assert cfg.checks == ()


def test_unknown_key_reports_line(tmp_path):
    path = write_config(tmp_path, BASE + "model.zz=1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "model.zz" in str(err.value)
    assert "line" in str(err.value)


def test_bad_value_reports_line(tmp_path):
    path = write_config(tmp_path, BASE.replace("model.n=16", "model.n=many"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "model.n" in str(err.value)


def test_missing_required_key(tmp_path):
    path = write_config(tmp_path, BASE.replace("model.s=0.5\n", ""))
    with pytest.raises(ConfigError):
        load_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "model.s=0.6\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("amplitude", ["0", "nan", "inf"])
def test_zero_amplitude_rejected(tmp_path, amplitude):
    path = write_config(tmp_path, BASE.replace("ic.amplitude=1.0", f"ic.amplitude={amplitude}"))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["energy", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("entry", [
    "flow.t_end=nan",
    "flow.t_end=inf",
    "flow.inner_tol=-1",
    "flow.inner_tol=0",
    "flow.inner_tol=nan",
    "flow.inner_tol=inf",
    "flow.inner_max_iters=0",
])
def test_invalid_flow_value_rejected(tmp_path, entry):
    # rejected while loading, before any flow starts (t_end nan/inf would hang it)
    key = entry.partition("=")[0]
    text = "\n".join(line for line in BASE.splitlines() if not line.startswith(key + "="))
    path = write_config(tmp_path, text + "\n" + entry + "\n")
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("entry", [
    "welldepth.num_seeds=0",
    "welldepth.samples=0",
    "welldepth.descent_iters=-1",
])
def test_invalid_welldepth_value_rejected(tmp_path, monkeypatch, entry):
    # rejected while loading, before any estimate starts
    def never(*args, **kwargs):
        raise AssertionError("estimate started")

    monkeypatch.setattr(fracflow.cli, "estimate_well_depth", never)
    path = write_config(tmp_path, BASE + entry + "\n")
    with pytest.raises(ConfigError):
        load_config(path, need_ic=False)
    assert main(["welldepth", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("entry", [
    "threshold.tol=0",
    "threshold.tol=-1",
    "threshold.tol=nan",
    "threshold.tol=inf",
    "threshold.alpha_lo=nan",
    "threshold.alpha_hi=inf",
    "threshold.alpha_lo=0",
    "threshold.alpha_lo=5000",
])
def test_invalid_threshold_value_rejected(tmp_path, monkeypatch, entry):
    # rejected while loading, before any bisection flow starts (tol <= 0
    # would never end it, tol = nan would skip it)
    def never(*args, **kwargs):
        raise AssertionError("flow started")

    monkeypatch.setattr(fracflow.cli, "run_flow", never)
    bracket = {"threshold.alpha_lo": "1", "threshold.alpha_hi": "1000"}
    key, _, value = entry.partition("=")
    bracket[key] = value
    text = BASE + "".join(f"{k}={v}\n" for k, v in bracket.items())
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["threshold", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_nonfinite_ic_file_rejected(tmp_path):
    data = tmp_path / "u0.txt"
    data.write_text("1.0\n" * 15 + "nan\n", encoding="utf-8")
    text = BASE.replace("ic.kind=bump", f"ic.kind=file\nic.path={data}")
    path = write_config(tmp_path, text)
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        initial_condition(build_grid(cfg.model), cfg.ic)
    assert main(["energy", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_missing_ic_file_rejected(tmp_path):
    text = BASE.replace("ic.kind=bump", "ic.kind=file\nic.path=/nonexistent/u0.txt")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))


def test_unknown_check_rejected(tmp_path):
    path = write_config(tmp_path, BASE + "checks=energy_inequality,typo\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_comments_and_blanks_ignored(tmp_path):
    path = write_config(tmp_path, "# header\n\n" + BASE + "\n# trailing\n")
    assert load_config(path).model.n == 16


# ---------------------------------------------------------------------------
# initial data


def test_initial_condition_kinds():
    grid = build_grid(ModelParams(s=0.5, p=3.0, a=0.0, b=20.0, n=16))
    bump = initial_condition(grid, InitialSpec(kind="bump", amplitude=2.0))
    xi = 2.0 * (grid.centers - 0.0) / 20.0 - 1.0
    expected = 2.0 * np.exp(-1.0 / (1.0 - xi**2))
    assert np.allclose(bump.values, expected, rtol=1e-14)
    sine = initial_condition(grid, InitialSpec(kind="sine", amplitude=1.0, mode=2))
    assert np.max(np.abs(sine.values)) <= 1.0
    rand1 = initial_condition(grid, InitialSpec(kind="random", amplitude=1.0, seed=9))
    rand2 = initial_condition(grid, InitialSpec(kind="random", amplitude=1.0, seed=9))
    assert np.array_equal(rand1.values, rand2.values)
    rand3 = initial_condition(grid, InitialSpec(kind="random", amplitude=1.0, seed=10))
    assert not np.array_equal(rand1.values, rand3.values)


def test_initial_condition_from_file(tmp_path):
    grid = build_grid(ModelParams(s=0.5, p=3.0, a=0.0, b=20.0, n=4))
    path = tmp_path / "u0.txt"
    path.write_text("1.0\n-2.0\n# comment\n0.5\n3.25\n", encoding="utf-8")
    u = initial_condition(grid, InitialSpec(kind="file", amplitude=2.0, path=str(path)))
    assert np.array_equal(u.values, [2.0, -4.0, 1.0, 6.5])
    short = tmp_path / "short.txt"
    short.write_text("1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        initial_condition(grid, InitialSpec(kind="file", amplitude=1.0, path=str(short)))


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_cmd_energy_writes_report(tmp_path):
    cfg = write_config(tmp_path, BASE + "welldepth.samples=24\nwelldepth.descent_iters=50\n")
    out = tmp_path / "out"
    assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "energy.report").read_text()
    assert "classify.result=InsideWell" in text
    assert "energy.l2=" in text


def test_cmd_energy_amplitude_past_star_is_exterior(tmp_path):
    # past the Nehari scale the ray energy is negative
    cfg = write_config(
        tmp_path,
        BASE.replace("ic.amplitude=1.0", "ic.amplitude=1000")
        + "welldepth.samples=24\nwelldepth.descent_iters=50\n",
    )
    out = tmp_path / "out"
    assert main(["energy", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "energy.report").read_text()
    assert "classify.result=Exterior" in text


def test_cmd_fiber_profile(tmp_path):
    cfg = write_config(tmp_path, BASE + "fiber.lambda_min=1.0\nfiber.lambda_max=100\nfiber.count=33\n")
    out = tmp_path / "out"
    assert main(["fiber", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "fiber.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,j,i,is_star"
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    grid = build_grid(ModelParams(s=0.5, p=3.0, a=0.0, b=20.0, n=16))
    u0 = bump_profile(grid)
    # first sampled scale is exactly 1, so j(1) must equal the plain energy
    assert rows[0][0] == 1.0
    assert rows[0][1] == pytest.approx(energy(u0), rel=1e-12)
    star = lambda_star(u0)
    star_rows = [r for r in rows if r[3] == 1.0]
    assert len(star_rows) == 1
    assert star_rows[0][0] == pytest.approx(star, rel=1e-12)
    assert abs(star_rows[0][2]) <= 1e-8 * (1.0 + star**3)
    # the rate functional changes sign exactly once along the scan
    signs = np.sign([r[2] for r in rows if r[3] == 0.0])
    assert np.count_nonzero(np.diff(signs)) == 1


def test_cmd_flow_passes_energy_check(tmp_path):
    cfg = write_config(tmp_path, BASE + "checks=energy_inequality\n")
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.report").read_text()
    assert "run.verdict=ReachedHorizon" in summary
    assert "check.energy_inequality.passed=true" in summary
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "t,dt,l2,lp_p,seminorm_p,log_int,energy,nehari,dissipation"
    assert len(trace) > 10


def test_cmd_flow_decay_check_on_blowup_run_fails(tmp_path):
    text = BASE.replace("ic.amplitude=1.0", "ic.amplitude=1000")
    text = text.replace("flow.dt0=1e-4", "flow.dt0=1e-5")
    cfg = write_config(tmp_path, text + "checks=decay\n")
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 1
    summary = (out / "summary.report").read_text()
    assert "run.verdict=BlowUp" in summary
    assert "check.decay.passed=false" in summary


def test_cmd_flow_p2_decay_check_unsupported(tmp_path):
    text = BASE.replace("model.p=3", "model.p=2")
    cfg = write_config(tmp_path, text + "checks=decay\n")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cmd_flow_blowup_check_requires_nonpositive_energy(tmp_path):
    # amplitude 1 keeps the initial energy positive: hypothesis violated
    text = BASE.replace("flow.blowup_threshold=1e7", "flow.blowup_threshold=1.2")
    cfg = write_config(tmp_path, text + "checks=blowup\n")
    rc = main(["flow", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc in (1, 2)  # verdict mismatch (1) or hypothesis-not-met (2)


def test_cmd_flow_step_collapse_exits_3(tmp_path):
    text = BASE + "checks=\n"
    text = text.replace("flow.dt_min=1e-15", "flow.dt_min=9e-5")
    text = text.replace("flow.inner_tol=1e-8", "flow.inner_tol=1e-14")
    cfg = write_config(tmp_path, text)
    rc = main(["flow", "--config", cfg, "--out", str(tmp_path / "o"),
               "--integrator", "explicit-adaptive"])
    assert rc == 3
    # the aborted run still leaves the streamed rows behind
    trace = (tmp_path / "o" / "trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("t,dt,")
    assert len(trace) >= 2


def test_cmd_fiber_rejects_zero_state(tmp_path):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("0\n" * 16, encoding="utf-8")
    text = BASE.replace("ic.kind=bump", f"ic.kind=file\nic.path={zeros}")
    cfg = write_config(tmp_path, text)
    assert main(["fiber", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


_SMALL_SAMPLER = "welldepth.samples=24\nwelldepth.num_seeds=2\nwelldepth.descent_iters=50\n"


_ARTIFACTS = {
    "energy": {"energy.report"},
    "fiber": {"fiber.csv"},
    "flow": {"trace.csv", "summary.report"},
    "welldepth": {"welldepth.report", "minimizer.csv"},
    "threshold": {"trace_lo.csv", "trace_hi.csv", "threshold.report"},
}


@pytest.mark.parametrize("command", sorted(_ARTIFACTS))
def test_cmd_flow_deterministic_output(tmp_path, command):
    artifacts = _ARTIFACTS[command]
    text = BASE.replace("ic.kind=bump", "ic.kind=random").replace(
        "flow.t_end=1.0", "flow.t_end=0.1") + _SMALL_SAMPLER + (
        "checks=energy_inequality\nic.seed=5\n"
        "threshold.alpha_lo=1\nthreshold.alpha_hi=1000\nthreshold.tol=0.2\n"
    )
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out1)]) == 0
    assert main([command, "--config", cfg, "--out", str(out2)]) == 0
    assert {p.name for p in out1.iterdir()} == artifacts
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("kind", ["random", "file"])
def test_config_echo_roundtrip(tmp_path, kind):
    # the config.* lines of a report load back to the same model, flow and ic
    data = tmp_path / "u0.txt"
    data.write_text("0.5\n" * 16, encoding="utf-8")
    ic = f"ic.kind=file\nic.path={data}" if kind == "file" else "ic.kind=random\nic.seed=11"
    text = BASE.replace("ic.kind=bump", ic) + (
        "ic.mode=3\nflow.inner_max_iters=77\nwelldepth.d_hat=5\n")
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["flow", "--config", cfg_path, "--out", str(out),
                 "--integrator", "explicit-adaptive"]) == 0
    echo = [line.removeprefix("config.")
            for line in (out / "summary.report").read_text().splitlines()
            if line.startswith("config.")]
    assert any(line.startswith("flow.dt_min=") for line in echo)
    back = load_config(write_config(tmp_path, "\n".join(echo) + "\n", "echo.cfg"))
    cfg = load_config(cfg_path)
    assert back.model == cfg.model
    assert back.flow == replace(cfg.flow, integrator="explicit-adaptive")
    assert back.ic == cfg.ic


def test_bad_thread_count_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACFLOW_THREADS", "abc")
    cfg = write_config(tmp_path, BASE + _SMALL_SAMPLER)
    assert main(["welldepth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_memory_error_exits_3(tmp_path, monkeypatch):
    def exhausted(params):
        raise MemoryError("cannot allocate the pair weights")

    monkeypatch.setattr(fracflow.cli, "build_grid", exhausted)
    cfg = write_config(tmp_path, BASE)
    assert main(["energy", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_cmd_fiber_bad_scan_rejected(tmp_path):
    cfg = write_config(tmp_path, BASE + "fiber.count=5\n")
    assert main(["fiber", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cmd_welldepth(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACFLOW_THREADS", "2")
    cfg = write_config(
        tmp_path,
        BASE + "welldepth.samples=24\nwelldepth.num_seeds=3\nwelldepth.descent_iters=80\n",
    )
    out = tmp_path / "out"
    assert main(["welldepth", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "welldepth.report").read_text()
    assert "welldepth.d_hat=" in text
    assert "welldepth.spread=" in text
    assert "welldepth.gamma=" in text
    mini = (out / "minimizer.csv").read_text().strip().splitlines()
    assert mini[0] == "x,u"
    assert len(mini) == 17


def test_cmd_threshold_bisection(tmp_path):
    cfg = write_config(
        tmp_path,
        BASE + "threshold.alpha_lo=1.0\nthreshold.alpha_hi=1000\nthreshold.tol=0.05\n"
        + "golden.threshold=60\n",
    )
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    report = dict(
        line.split("=", 1) for line in (out / "threshold.report").read_text().splitlines()
    )
    lo = float(report["threshold.alpha_lo"])
    hi = float(report["threshold.alpha_hi"])
    assert 1.0 <= lo < hi <= 1000.0
    assert hi - lo <= 0.05 * hi
    assert "golden.threshold.delta" in report
    assert (out / "trace_lo.csv").exists() and (out / "trace_hi.csv").exists()


def test_cmd_threshold_degenerate_bracket(tmp_path):
    cfg = write_config(tmp_path, BASE + "threshold.alpha_lo=5\nthreshold.alpha_hi=5\n")
    assert main(["threshold", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cmd_threshold_invalid_bracket(tmp_path):
    # both ends decay: precondition violated
    cfg = write_config(tmp_path, BASE + "threshold.alpha_lo=0.5\nthreshold.alpha_hi=1.0\n")
    assert main(["threshold", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_missing_config_file(tmp_path):
    assert main(["energy", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_seed_override(tmp_path):
    text = BASE.replace("ic.kind=bump", "ic.kind=random")
    cfg = write_config(tmp_path, text + "checks=\nic.seed=1\n")
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["flow", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["flow", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert main(["flow", "--config", cfg, "--out", str(out3), "--seed", "8"]) == 0
    a = (out1 / "trace.csv").read_bytes()
    assert a == (out2 / "trace.csv").read_bytes()
    assert a != (out3 / "trace.csv").read_bytes()
