"""Fibering maps, Nehari projection, well depth, classification."""

import numpy as np
import pytest

from fracflow import (
    GridFunction,
    ModelParams,
    NotInX0,
    SamplerFailure,
    WellClassification,
    bump_profile,
    classify,
    energy,
    estimate_well_depth,
    fibering_profile,
    growth_exponent_gamma,
    lambda_star,
    lp_norm_p,
    nehari,
    project_nehari,
    report,
    seminorm_p,
    trial_functions,
)
from conftest import moderate_state, random_state

# ---------------------------------------------------------------------------
# oracle: bisection on the ray sign change, independent of the closed form


def lambda_star_bisect(u, lo=1e-3, hi=1e3, rel_tol=1e-12):
    def sign_fn(lam):
        return nehari(u.scaled(lam))

    f_lo, f_hi = sign_fn(lo), sign_fn(hi)
    assert f_lo > 0.0 > f_hi, "bracket does not straddle the crossing"
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if sign_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# lambda_star


def test_lambda_star_matches_bisection(grid_n16):
    rng = np.random.default_rng(101)
    for _ in range(5):
        u = moderate_state(grid_n16, rng)
        star = lambda_star(u)
        assert 1e-3 < star < 1e3
        assert star == pytest.approx(lambda_star_bisect(u), rel=1e-8)


def test_lambda_star_on_projected_point_is_one(grid_n16):
    rng = np.random.default_rng(103)
    for _ in range(10):
        u = moderate_state(grid_n16, rng)
        w = project_nehari(u)
        assert lambda_star(w) == pytest.approx(1.0, abs=1e-8)


def test_lambda_star_scale_covariance(grid_n16):
    rng = np.random.default_rng(107)
    u = random_state(grid_n16, rng)
    star = lambda_star(u)
    for c in (0.5, 2.0, 11.0):
        assert lambda_star(u.scaled(c)) == pytest.approx(star / c, rel=1e-12)


def test_lambda_star_rejects_zero(grid_n16):
    with pytest.raises(NotInX0):
        lambda_star(GridFunction(grid_n16, np.zeros(16)))


def test_classify_rejects_zero(grid_n16):
    # the Nehari set excludes 0, so the zero state is not OnNehari
    with pytest.raises(NotInX0):
        classify(GridFunction(grid_n16, np.zeros(16)), 1.0)


def test_lambda_star_unique_sign_change(grid_n16):
    # samples with |I| at rounding scale carry no sign information
    rng = np.random.default_rng(109)
    p = grid_n16.params.p
    for _ in range(5):
        u = moderate_state(grid_n16, rng)
        s = seminorm_p(u)
        star = lambda_star(u)
        profile = fibering_profile(u, star * 1e-3, star * 1e3, 601)
        tol = 1e-12 * (1.0 + s) * profile.lambdas**p
        signs = np.sign(profile.i_values)
        signs = signs[np.abs(profile.i_values) > tol]
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips == 1


# ---------------------------------------------------------------------------
# fibering profiles


def test_fibering_j_at_one_is_energy(grid_n16):
    rng = np.random.default_rng(113)
    u = moderate_state(grid_n16, rng)
    profile = fibering_profile(u, 1.0, 10.0, 16)
    assert profile.j_values[0] == pytest.approx(energy(u), rel=1e-12)


def test_fibering_peak_at_lambda_star(grid_n16):
    rng = np.random.default_rng(127)
    for _ in range(5):
        u = moderate_state(grid_n16, rng)
        star = lambda_star(u)
        profile = fibering_profile(u, star / 50.0, star * 50.0, 257)
        peak = int(np.argmax(profile.j_values))
        nearest = int(np.argmin(np.abs(profile.lambdas - star)))
        assert abs(peak - nearest) <= 1


def test_fibering_sign_pattern(grid_n16):
    rng = np.random.default_rng(131)
    u = moderate_state(grid_n16, rng)
    star = lambda_star(u)
    profile = fibering_profile(u, star / 100.0, star * 100.0, 200)
    below = profile.lambdas < star
    above = profile.lambdas > star
    tol = 1e-12 * (1.0 + seminorm_p(u))
    assert np.all(profile.i_values[below] > -tol)
    assert np.all(profile.i_values[above] < tol)


def test_fibering_asymptotics(grid_n16):
    rng = np.random.default_rng(137)
    u = moderate_state(grid_n16, rng)
    star = lambda_star(u)
    profile = fibering_profile(u, star * 1e-6, star * 1e3, 129)
    assert abs(profile.j_values[0]) <= 1e-3 * abs(profile.j_values).max()
    assert profile.j_values[-1] < profile.j_values[-2] < 0.0


def test_fibering_radial_derivative_identity(grid_n16):
    # I(lam u) equals lam * j'(lam), checked by central differences of j;
    # the tolerance scales with the ray magnitude since both sides vanish
    # to rounding at the crossing itself
    rng = np.random.default_rng(139)
    u = moderate_state(grid_n16, rng)
    r = report(u)
    star = lambda_star(u)
    for lam in np.geomspace(star / 4.0, star * 4.0, 5):
        eps = 1e-6 * lam
        prof = fibering_profile(u, lam - eps, lam + eps, 16)
        j_prime = (prof.j_values[-1] - prof.j_values[0]) / (prof.lambdas[-1] - prof.lambdas[0])
        i_val = nehari(u.scaled(lam))
        scale = lam ** grid_n16.params.p * (
            r.seminorm_p + r.lp_p * (1.0 + abs(np.log(lam))) + abs(r.log_int)
        )
        assert abs(i_val - lam * j_prime) <= 1e-5 * scale


def test_fibering_validates_arguments(grid_n16):
    u = GridFunction(grid_n16, np.ones(16))
    with pytest.raises(ValueError):
        fibering_profile(u, 2.0, 1.0, 32)
    with pytest.raises(ValueError):
        fibering_profile(u, 0.1, 1.0, 8)


# ---------------------------------------------------------------------------
# projection


def test_projection_lands_on_nehari(grid_n32):
    rng = np.random.default_rng(149)
    for _ in range(10):
        u = moderate_state(grid_n32, rng)
        w = project_nehari(u)
        assert abs(nehari(w)) <= 1e-8 * (1.0 + seminorm_p(w))


def test_nehari_energy_identity(grid_n32):
    p = grid_n32.params.p
    rng = np.random.default_rng(151)
    for _ in range(10):
        w = project_nehari(moderate_state(grid_n32, rng))
        assert energy(w) == pytest.approx(lp_norm_p(w, p) / p**2, rel=1e-8)


# ---------------------------------------------------------------------------
# well depth


def test_single_ray_estimate(grid_n32):
    u = bump_profile(grid_n32)
    est = estimate_well_depth(grid_n32, trials=[u], descent_iters=0)
    assert est.d_hat == pytest.approx(energy(project_nehari(u)), rel=1e-12)


def test_estimate_ray_invariance(grid_n32):
    trials = [bump_profile(grid_n32), bump_profile(grid_n32, 0.4, 0.3)]
    scaled = [u.scaled(3.7) for u in trials]
    a = estimate_well_depth(grid_n32, trials=trials, descent_iters=0)
    b = estimate_well_depth(grid_n32, trials=scaled, descent_iters=0)
    assert a.d_hat == pytest.approx(b.d_hat, rel=1e-10)


def test_estimate_bounds_every_explored_ray(grid_n32):
    trials = list(trial_functions(grid_n32, 24, seed=5))
    est = estimate_well_depth(grid_n32, trials=trials, descent_iters=150)
    for u in trials:
        r = report(u)
        if abs(r.nehari / r.lp_p) > 80.0:
            continue  # ray skipped by the estimator: not representable
        assert est.d_hat <= energy(project_nehari(u)) * (1.0 + 1e-12)


def test_estimate_invariants(grid_n32):
    p = grid_n32.params.p
    est = estimate_well_depth(grid_n32, count=32, seed=2)
    assert est.d_hat > 0.0
    assert est.d_hat == pytest.approx(energy(est.minimizer), rel=1e-12)
    assert est.d_hat == pytest.approx(lp_norm_p(est.minimizer, p) / p**2, rel=1e-8)
    assert est.residual_I <= 1e-8 * (1.0 + seminorm_p(est.minimizer))
    assert est.sampler_seed == 2


def test_descent_never_increases(grid_n32):
    coarse = estimate_well_depth(grid_n32, count=16, seed=3, descent_iters=0)
    refined = estimate_well_depth(grid_n32, count=16, seed=3, descent_iters=200)
    assert refined.d_hat <= coarse.d_hat * (1.0 + 1e-12)


def test_sampler_failure_on_degenerate_trials(grid_n32):
    zeros = [GridFunction(grid_n32, np.zeros(32))]
    with pytest.raises(SamplerFailure):
        estimate_well_depth(grid_n32, trials=zeros)
    with pytest.raises(SamplerFailure):
        list(trial_functions(grid_n32, 0, seed=0))


# ---------------------------------------------------------------------------
# classification


@pytest.fixture(scope="module")
def well_n32(grid_n32):
    return estimate_well_depth(grid_n32, count=48, seed=0, descent_iters=300)


def test_classify_small_bump_inside(grid_n32, well_n32):
    u0 = bump_profile(grid_n32).scaled(0.1)
    r = report(u0)
    assert r.nehari > 0.0 and r.energy < well_n32.d_hat
    assert classify(u0, well_n32.d_hat) == WellClassification.INSIDE_WELL


def test_classify_scaled_past_star_is_exterior(grid_n32, well_n32):
    # ten-fold past the crossing the ray energy has gone negative, so the
    # state is exterior beyond any doubt about the estimated depth
    rng = np.random.default_rng(157)
    u = moderate_state(grid_n32, rng)
    big = u.scaled(10.0 * lambda_star(u))
    assert nehari(big) < 0.0
    assert energy(big) < 0.0
    assert classify(big, well_n32.d_hat) == WellClassification.EXTERIOR


def test_classify_projection_on_nehari(grid_n32, well_n32):
    rng = np.random.default_rng(163)
    w = project_nehari(moderate_state(grid_n32, rng))
    assert classify(w, well_n32.d_hat) == WellClassification.ON_NEHARI


def test_classify_indeterminate_near_depth(grid_n32, well_n32):
    # scale the minimizer slightly off the Nehari set: energy stays within
    # the margin of d_hat, so no side may be claimed
    u = well_n32.minimizer.scaled(1.001)
    assert classify(u, well_n32.d_hat) == WellClassification.INDETERMINATE


def test_gamma_metadata():
    gamma, rho, theta = growth_exponent_gamma(ModelParams(0.5, 3.0, 0.0, 1.0, 4))
    assert gamma > 1.0
    assert rho == 0.5
    assert 0.0 < theta < 1.0
