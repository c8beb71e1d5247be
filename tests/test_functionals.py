"""Functionals: brute-force oracles, exact identities, gradient consistency."""

import math

import numpy as np
import pytest

from fracflow import (
    GridFunction,
    InstanceMismatch,
    ModelParams,
    build_grid,
    energy,
    frac_p_laplacian,
    full_gradient,
    k_form,
    l2_inner,
    l2_norm,
    log_integral,
    lp_norm_p,
    nehari,
    report,
    seminorm_p,
)
from conftest import random_state

# ---------------------------------------------------------------------------
# oracles: plain python loops, no shared code with the implementation


def seminorm_brute(u):
    g, p = u.grid, u.grid.params.p
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                total += g.W[i, j] * abs(u.values[i] - u.values[j]) ** p
        total += g.T[i] * abs(u.values[i]) ** p
    return total


def kform_brute(u, v):
    g, p = u.grid, u.grid.params.p
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                d = u.values[i] - u.values[j]
                total += g.W[i, j] * abs(d) ** (p - 2) * d * (v.values[i] - v.values[j])
        ui = u.values[i]
        total += g.T[i] * abs(ui) ** (p - 2) * ui * v.values[i]
    return total


def lpq_brute(u, q):
    return u.grid.h * sum(abs(x) ** q for x in u.values)


def logint_brute(u):
    p = u.grid.params.p
    total = 0.0
    for x in u.values:
        if x != 0.0:
            total += abs(x) ** p * math.log(abs(x))
    return u.grid.h * total


def directional_derivative(u, v, eps):
    plus = energy(GridFunction(u.grid, u.values + eps * v.values))
    minus = energy(GridFunction(u.grid, u.values - eps * v.values))
    return (plus - minus) / (2.0 * eps)


def fd_matches(u, v, target, scale):
    """Best central-difference match over a small step sweep."""
    best = math.inf
    for eps in (1e-4, 1e-5, 1e-6):
        fd = directional_derivative(u, v, eps)
        best = min(best, abs(fd - target))
    return best <= 1e-6 * scale


# ---------------------------------------------------------------------------
# seminorm and K-form


def test_seminorm_zero_function(grid_n16):
    assert seminorm_p(GridFunction(grid_n16, np.zeros(16))) == 0.0


@pytest.mark.parametrize("c", [1.0, -2.5, 0.3])
def test_seminorm_constant_only_tail(grid_n16, c):
    g = grid_n16
    u = GridFunction(g, np.full(g.n, c))
    expected = abs(c) ** g.params.p * g.T.sum()
    assert seminorm_p(u) == pytest.approx(expected, rel=1e-14)


def test_seminorm_matches_brute_force(grid_n3):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = random_state(grid_n3, rng)
        assert seminorm_p(u) == pytest.approx(seminorm_brute(u), rel=1e-12)


def test_kform_diagonal_is_seminorm(grid_n16):
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = random_state(grid_n16, rng, scale=2.0)
        assert k_form(u, u) == pytest.approx(seminorm_p(u), rel=1e-12)


def test_kform_zero_second_argument(grid_n16):
    rng = np.random.default_rng(5)
    u = random_state(grid_n16, rng)
    z = GridFunction(grid_n16, np.zeros(16))
    assert k_form(u, z) == 0.0


def test_kform_matches_brute_force(grid_n3):
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = random_state(grid_n3, rng)
        v = random_state(grid_n3, rng)
        assert k_form(u, v) == pytest.approx(kform_brute(u, v), rel=1e-12, abs=1e-14)


def test_kform_monotone(grid_n32):
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = random_state(grid_n32, rng)
        v = random_state(grid_n32, rng)
        w = GridFunction(grid_n32, u.values - v.values)
        gap = k_form(u, w) - k_form(v, w)
        assert gap >= -1e-12 * (1.0 + abs(k_form(u, w)))


def test_kform_hoelder_bound(grid_n32):
    p = grid_n32.params.p
    rng = np.random.default_rng(29)
    for _ in range(10):
        u = random_state(grid_n32, rng)
        v = random_state(grid_n32, rng)
        bound = seminorm_p(u) ** ((p - 1) / p) * seminorm_p(v) ** (1 / p)
        assert abs(k_form(u, v)) <= bound * (1.0 + 1e-12)


def test_kform_rejects_mismatched_grids(grid_n16, grid_n32):
    u = GridFunction(grid_n16, np.ones(16))
    v = GridFunction(grid_n32, np.ones(32))
    with pytest.raises(InstanceMismatch):
        k_form(u, v)


# ---------------------------------------------------------------------------
# fractional p-Laplacian


def test_fpl_zero(grid_n16):
    z = GridFunction(grid_n16, np.zeros(16))
    assert np.all(frac_p_laplacian(z).values == 0.0)


def test_fpl_euler_identity(grid_n32):
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = random_state(grid_n32, rng)
        g = frac_p_laplacian(u)
        assert l2_inner(g, u) == pytest.approx(seminorm_p(u), rel=1e-12)


def test_fpl_pairs_with_kform(grid_n16):
    rng = np.random.default_rng(37)
    u = random_state(grid_n16, rng)
    g = frac_p_laplacian(u)
    for _ in range(5):
        v = random_state(grid_n16, rng)
        assert l2_inner(g, v) == pytest.approx(k_form(u, v), rel=1e-12, abs=1e-14)


def test_fpl_is_gradient_of_seminorm_potential():
    grid = build_grid(ModelParams(s=0.6, p=3.0, a=0.0, b=1.0, n=32))
    p = grid.params.p
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = random_state(grid, rng)
        v = random_state(grid, rng)
        target = l2_inner(frac_p_laplacian(u), v)

        def phi(vals):
            return seminorm_p(GridFunction(grid, vals)) / p

        best = math.inf
        for eps in (1e-4, 1e-5, 1e-6):
            fd = (phi(u.values + eps * v.values) - phi(u.values - eps * v.values)) / (2 * eps)
            best = min(best, abs(fd - target))
        assert best <= 1e-6 * (1.0 + abs(target))


# ---------------------------------------------------------------------------
# norms and the logarithmic integral


def test_lp_norms_of_unit_constant(grid_n16):
    u = GridFunction(grid_n16, np.ones(16))
    for q in (1.0, 2.0, 2.7, 4.0):
        assert lp_norm_p(u, q) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_power_example():
    g = build_grid(ModelParams(s=0.3, p=2.0, a=0.0, b=1.0, n=10))
    u = GridFunction(g, np.full(10, 2.0))
    assert lp_norm_p(u, 3.0) == pytest.approx(8.0, rel=1e-14)


def test_lp_norm_rejects_bad_exponent(grid_n16):
    u = GridFunction(grid_n16, np.ones(16))
    with pytest.raises(ValueError):
        lp_norm_p(u, 0.5)


def test_norms_match_brute_force(grid_n3):
    rng = np.random.default_rng(43)
    u = random_state(grid_n3, rng)
    for q in (1.0, 2.0, 3.5):
        assert lp_norm_p(u, q) == pytest.approx(lpq_brute(u, q), rel=1e-13)
    assert l2_norm(u) == pytest.approx(math.sqrt(lpq_brute(u, 2.0)), rel=1e-13)


def test_log_integral_of_one_is_zero(grid_n16):
    assert log_integral(GridFunction(grid_n16, np.ones(16))) == 0.0


def test_log_integral_of_e():
    g = build_grid(ModelParams(s=0.3, p=3.0, a=0.0, b=1.0, n=8))
    u = GridFunction(g, np.full(8, math.e))
    assert log_integral(u) == pytest.approx(math.e**3, rel=1e-13)


def test_log_integral_matches_brute_force(grid_n3):
    rng = np.random.default_rng(47)
    for _ in range(5):
        u = random_state(grid_n3, rng, scale=3.0)
        assert log_integral(u) == pytest.approx(logint_brute(u), rel=1e-12, abs=1e-15)


def test_log_integral_handles_zeros(grid_n16):
    vals = np.zeros(16)
    vals[3] = 2.0
    u = GridFunction(grid_n16, vals)
    assert np.isfinite(log_integral(u))


@pytest.mark.parametrize("rho", [0.1, 0.5, 1.0])
def test_log_inequality(grid_n32, rho):
    rng = np.random.default_rng(53)
    for _ in range(25):
        u = random_state(grid_n32, rng, scale=5.0)
        p = grid_n32.params.p
        assert log_integral(u) <= lp_norm_p(u, p + rho) / rho + 1e-14


# ---------------------------------------------------------------------------
# energy, Nehari, and the full gradient


def test_energy_nehari_identity(grid_n32):
    p = grid_n32.params.p
    rng = np.random.default_rng(59)
    for _ in range(50):
        u = random_state(grid_n32, rng, scale=2.0)
        r = report(u)
        scale = (abs(r.seminorm_p) + abs(r.lp_p) + abs(r.log_int)) / p + r.lp_p / p**2
        lhs = r.energy
        rhs = r.nehari / p + r.lp_p / p**2
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)
        assert r.nehari == r.seminorm_p + r.lp_p - r.log_int


def test_report_of_unit_constant():
    g = build_grid(ModelParams(s=0.3, p=3.0, a=0.0, b=1.0, n=12))
    u = GridFunction(g, np.ones(12))
    r = report(u)
    p = 3.0
    assert r.nehari == pytest.approx(g.T.sum() + 1.0, rel=1e-13)
    assert r.energy == pytest.approx(r.nehari / p + 1.0 / p**2, rel=1e-13)


def test_energy_wrappers_agree(grid_n16):
    rng = np.random.default_rng(61)
    u = random_state(grid_n16, rng)
    r = report(u)
    assert energy(u) == pytest.approx(r.energy, rel=1e-15)
    assert nehari(u) == pytest.approx(r.nehari, rel=1e-15)


def test_seminorm_homogeneity(grid_n16):
    p = grid_n16.params.p
    rng = np.random.default_rng(67)
    u = random_state(grid_n16, rng)
    for lam in (0.5, 2.0, 7.3):
        assert seminorm_p(u.scaled(lam)) == pytest.approx(
            lam**p * seminorm_p(u), rel=1e-12
        )


def test_full_gradient_of_unit_constant():
    g = build_grid(ModelParams(s=0.3, p=3.0, a=0.0, b=1.0, n=12))
    u = GridFunction(g, np.ones(12))
    expected = frac_p_laplacian(u).values + 1.0
    assert np.allclose(full_gradient(u).values, expected, rtol=1e-14)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_full_gradient_finite_difference(p):
    grid = build_grid(ModelParams(s=0.5, p=p, a=0.0, b=1.0, n=32))
    rng = np.random.default_rng(71)
    for _ in range(5):
        u = random_state(grid, rng)
        v = random_state(grid, rng)
        target = l2_inner(full_gradient(u), v)
        assert fd_matches(u, v, target, 1.0 + abs(target))


def test_gradient_vanishes_at_ground_state():
    # the well-depth minimizer is a critical point of the energy
    from fracflow import estimate_well_depth, l2_norm as _l2

    grid = build_grid(ModelParams(s=0.3, p=2.0, a=0.0, b=1.0, n=32))
    est = estimate_well_depth(grid, count=24, seed=1, descent_iters=2000, grad_tol=1e-10)
    g = full_gradient(est.minimizer)
    e = energy(est.minimizer)
    assert _l2(g) <= 1e-8 * (1.0 + abs(e))


# ---------------------------------------------------------------------------
# one-pass evaluator


def _per_functional(grid, v, w):
    """S, P, L, energy, gradient, fractional p-Laplacian and K(v, w) with
    one difference matrix per functional, in the floating-point order the
    evaluator and the public functionals must reproduce."""
    from fracflow.functionals import _abs_pow, _log_abs, _sign_pow

    p, q, h = grid.params.p, grid.params.p - 1.0, grid.h
    s = float(np.sum(grid.W * _abs_pow(v[:, None] - v[None, :], p))
              + np.sum(grid.T * _abs_pow(v, p)))
    pp = float(h * np.sum(_abs_pow(v, p)))
    li = float(h * np.sum(_abs_pow(v, p) * _log_abs(v)))
    e = s / p + pp / p - li / p + pp / (p * p)
    odd = _sign_pow(v[:, None] - v[None, :], q)
    fpl = (2.0 * np.sum(grid.W * odd, axis=1) + grid.T * _sign_pow(v, q)) / h
    kform = float(np.sum(grid.W * odd * (w[:, None] - w[None, :]))
                  + np.sum(grid.T * _sign_pow(v, q) * w))
    return s, pp, li, e, fpl + _sign_pow(v, q) * (1.0 - _log_abs(v)), fpl, kform


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("amplitude", [1.0, 1e7])
def test_evaluation_bitwise_equals_public_functionals(p, amplitude):
    from fracflow.functionals import _Evaluation, energy_values, gradient_values

    grid = build_grid(ModelParams(s=0.3, p=p, a=0.0, b=1.0, n=16))
    rng = np.random.default_rng(83)
    vals = amplitude * rng.uniform(-1.0, 1.0, grid.n)
    vals[[0, 5, 6]] = 0.0            # zero cells
    vals[9] = vals[10] = vals[11]    # equal neighbours
    other = rng.uniform(-1.0, 1.0, grid.n)
    u, w = GridFunction(grid, vals), GridFunction(grid, other)
    ev = _Evaluation(grid, vals)
    r = report(u)
    s, e, grad = ev.seminorm_p, ev.energy, ev.gradient()
    s_ref, pp, li, e_ref, grad_ref, fpl, kform = _per_functional(grid, vals, other)
    # the evaluator and every public functional agree bitwise at every p
    assert (ev.lp_p, ev.log_int) == (pp, li)
    assert ev.nehari == s + pp - li
    assert (r.seminorm_p, r.lp_p, r.log_int, r.energy) == (s, pp, li, e)
    assert ev.report() == r
    assert seminorm_p(u) == s
    assert nehari(u) == s + pp - li
    assert log_integral(u) == li
    assert lp_norm_p(u, p) == pp
    assert energy(u) == e
    assert energy_values(grid, vals) == e
    assert np.array_equal(gradient_values(grid, vals), grad)
    assert np.array_equal(full_gradient(u).values, grad)
    assert ev.gradient() is grad
    # the K-form and the p-Laplacian stay dense at every p
    assert np.array_equal(frac_p_laplacian(u).values, fpl)
    assert k_form(u, w) == kform
    if p == 2.0:
        # one matrix-vector product: equal to the dense reference to rounding
        _assert_near_reference(ev, r, (s_ref, pp, li, e_ref, grad_ref))
    else:
        assert (s, e) == (s_ref, e_ref)
        assert np.array_equal(grad, grad_ref)


def _assert_near_reference(ev, r, ref):
    """S, E and the report within 1e-12 relative, the gradient within 1e-11
    of the reference's max-norm."""
    s, pp, li, e, grad = ref
    assert ev.seminorm_p == pytest.approx(s, rel=1e-12, abs=0.0)
    assert ev.energy == pytest.approx(e, rel=1e-12, abs=0.0)
    assert r == ev.report()
    assert (r.lp_p, r.log_int) == (pp, li)
    assert r.nehari == pytest.approx(s + pp - li, rel=1e-12, abs=0.0)
    err = np.max(np.abs(ev.gradient() - grad))
    assert err <= 1e-11 * np.max(np.abs(grad))


def _profile(grid, kind, amplitude):
    """A smooth two-mode profile or seeded white noise, with zero cells."""
    n = grid.n
    if kind == "smooth":
        x = (grid.centers - grid.params.a) / grid.params.measure
        vals = np.sin(np.pi * x) + 0.3 * np.sin(3.0 * np.pi * x)
    else:
        vals = np.random.default_rng(89).uniform(-1.0, 1.0, n)
    vals[[0, n // 3, n // 3 + 1]] = 0.0
    return amplitude * vals


@pytest.mark.parametrize("s,b,n", [(0.3, 1.0, 16), (0.3, 20.0, 24), (0.4, 1.0, 1024)])
@pytest.mark.parametrize("kind", ["smooth", "rough"])
@pytest.mark.parametrize("amplitude", [1.0, 1e7])
def test_linear_pair_path_matches_dense_reference(s, b, n, kind, amplitude):
    # at p = 2 no difference matrix is formed; gate that path against the
    # dense one-functional-at-a-time reference
    from fracflow.functionals import _Evaluation, gradient_values

    grid = build_grid(ModelParams(s=s, p=2.0, a=0.0, b=b, n=n))
    vals = _profile(grid, kind, amplitude)
    s_ref, pp, li, e_ref, grad_ref, _, _ = _per_functional(grid, vals, vals)
    ev = _Evaluation(grid, vals)
    _assert_near_reference(ev, report(GridFunction(grid, vals)),
                           (s_ref, pp, li, e_ref, grad_ref))
    assert np.array_equal(gradient_values(grid, vals), ev.gradient())
