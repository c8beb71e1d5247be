"""Grid construction: closed-form weights against quadrature oracles."""

import numpy as np
import pytest
from scipy import integrate

from fracflow import InvalidInstance, ModelParams, build_grid

# ---------------------------------------------------------------------------
# oracles


def adjacent_weight_quadrature(h, sp):
    """Adaptive 2D quadrature of the kernel over one adjacent cell pair.

    After shifting both cells to the origin the pair integral is
    int_0^h int_0^h (x + y)^(-1-sp) dx dy; the integrand is singular only
    at the shared corner and integrable for sp < 1.
    """
    val, _ = integrate.dblquad(
        lambda y, x: (x + y) ** (-1.0 - sp), 0.0, h, 0.0, h,
        epsabs=1e-12, epsrel=1e-12,
    )
    return val


def tail_weight_quadrature(params, i):
    """Adaptive 1D quadrature of the exact exterior antiderivative over cell i,
    doubled for the two orderings of the pair (x, y)."""
    sp = params.sp
    lo = params.a + i * params.h
    hi = lo + params.h

    def inner(x):
        return ((x - params.a) ** (-sp) + (params.b - x) ** (-sp)) / sp

    val, _ = integrate.quad(inner, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0 * val


def continuum_seminorm_quadrature(params, profile):
    """Adaptive quadrature of the full double integral of the kernel against
    a smooth profile extended by zero.

    The pair part is integrated over the triangle y > x (and doubled), so
    the diagonal becomes an integrable endpoint singularity instead of an
    interior one; both exterior tails are added via the closed inner
    antiderivative.
    """
    sp, p = params.sp, params.p

    def half_pair(x):
        def f(y):
            return abs(profile(x) - profile(y)) ** p / (y - x) ** (1.0 + sp)

        val, _ = integrate.quad(f, x, params.b, epsabs=1e-10, epsrel=1e-10, limit=200)
        return val

    pair, _ = integrate.quad(half_pair, params.a, params.b,
                             epsabs=1e-8, epsrel=1e-8, limit=200)

    def tail_integrand(x):
        inner = ((x - params.a) ** (-sp) + (params.b - x) ** (-sp)) / sp
        return abs(profile(x)) ** p * inner

    tail, _ = integrate.quad(
        tail_integrand, params.a, params.b, epsabs=1e-10, epsrel=1e-10, limit=200
    )
    return 2.0 * pair + 2.0 * tail


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(s=0.0, p=2.0, a=0.0, b=1.0, n=4),
        dict(s=1.0, p=2.0, a=0.0, b=1.0, n=4),
        dict(s=0.5, p=1.5, a=0.0, b=1.0, n=4),
        dict(s=0.5, p=2.0, a=1.0, b=0.0, n=4),
        dict(s=0.5, p=2.0, a=0.0, b=1.0, n=1),
        dict(s=float("nan"), p=2.0, a=0.0, b=1.0, n=4),
        # weights that are not finite floats: the adjacent weight
        # h**(1 - sp) overflows a Python float; only the tail weights overflow
        dict(s=0.5, p=300.0, a=0.0, b=1.0, n=128),
        dict(s=0.9, p=230.0, a=0.0, b=1.0, n=16),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(InvalidInstance):
        build_grid(ModelParams(**kwargs))


# ---------------------------------------------------------------------------
# structure


@pytest.mark.parametrize("s,p,n", [(0.4, 2.0, 8), (0.25, 3.0, 12), (0.5, 3.0, 9)])
def test_weight_matrix_structure(s, p, n):
    g = build_grid(ModelParams(s=s, p=p, a=-1.0, b=2.0, n=n))
    assert np.array_equal(g.W, g.W.T)
    assert np.all(np.diag(g.W) == 0.0)
    assert np.all(g.W >= 0.0)
    assert np.all(g.T > 0.0)
    assert np.all(np.isfinite(g.W)) and np.all(np.isfinite(g.T))
    assert np.array_equal(g.D, 2.0 * g.W.sum(axis=1) + g.T)
    assert not g.D.flags.writeable


def test_far_field_is_midpoint_formula():
    # h = 1/4 and gap 2h, so the entry is h^2 / (2h)^(1+sp) = 1/4 at sp = 1
    g = build_grid(ModelParams(s=0.5, p=2.0, a=0.0, b=1.0, n=4))
    h = g.h
    assert g.W[0, 2] == pytest.approx(h**2 / (2 * h) ** 2, rel=1e-15)
    for i in range(g.n):
        for j in range(g.n):
            if abs(i - j) >= 2:
                gap = abs(g.centers[i] - g.centers[j])
                assert g.W[i, j] == pytest.approx(
                    h**2 / gap ** (1.0 + g.params.sp), rel=1e-14
                )


def test_weights_decrease_away_from_diagonal():
    g = build_grid(ModelParams(s=0.45, p=2.0, a=0.0, b=1.0, n=24))
    for i in range(g.n):
        offs = np.arange(1, g.n - i)
        row = g.W[i, i + 1:]
        assert np.all(np.diff(row) < 0.0), f"row {i} not decreasing"
        assert len(row) == len(offs)


# ---------------------------------------------------------------------------
# closed forms against quadrature


def test_adjacent_weight_closed_form():
    # h = 1, sp = 0.5: (2 - 2^0.5) / 0.25, frozen from the quadrature oracle
    g = build_grid(ModelParams(s=0.25, p=2.0, a=0.0, b=2.0, n=2))
    assert g.W[0, 1] == pytest.approx(2.3431457505076194, rel=1e-12)
    assert g.W[0, 1] == pytest.approx(adjacent_weight_quadrature(1.0, 0.5), rel=1e-8)


@pytest.mark.parametrize("s,p,n", [(0.25, 2.0, 2), (0.3, 2.0, 5), (0.2, 4.0, 4)])
def test_adjacent_weight_matches_quadrature(s, p, n):
    prm = ModelParams(s=s, p=p, a=0.0, b=1.0, n=n)
    g = build_grid(prm)
    oracle = adjacent_weight_quadrature(prm.h, prm.sp)
    for i in range(n - 1):
        assert g.W[i, i + 1] == pytest.approx(oracle, rel=1e-8)


def test_tail_weights_match_quadrature():
    prm = ModelParams(s=0.25, p=2.0, a=0.0, b=1.0, n=2)
    g = build_grid(prm)
    # closed form for this instance: 2 * (sqrt(2) + 2 - sqrt(2)) / 0.5 = 8
    assert g.T[0] == pytest.approx(8.0, rel=1e-12)
    for i in range(prm.n):
        assert g.T[i] == pytest.approx(tail_weight_quadrature(prm, i), rel=1e-8)


@pytest.mark.parametrize("s,p,n", [(0.3, 2.0, 5), (0.2, 3.0, 4)])
def test_tail_weights_match_quadrature_various(s, p, n):
    prm = ModelParams(s=s, p=p, a=-0.5, b=1.5, n=n)
    g = build_grid(prm)
    for i in range(n):
        assert g.T[i] == pytest.approx(tail_weight_quadrature(prm, i), rel=1e-8)


def test_surrogate_regime_finite_positive():
    # s*p >= 1: exact pair/tail integrals diverge, surrogate weights must
    # still be finite, positive, and monotone
    for s, p in [(0.5, 2.0), (0.5, 3.0), (0.7, 4.0)]:
        g = build_grid(ModelParams(s=s, p=p, a=0.0, b=1.0, n=16))
        assert np.all(np.isfinite(g.W)) and np.all(g.W >= 0.0)
        assert np.all(g.T > 0.0) and np.all(np.isfinite(g.T))
        row = g.W[3, 4:]
        assert np.all(np.diff(row) < 0.0)


# ---------------------------------------------------------------------------
# consistency under refinement


def test_refinement_block_sums():
    # each coarse pair weight should match the sum of its four fine children
    prm = ModelParams(s=0.4, p=2.0, a=0.0, b=1.0, n=16)
    coarse = build_grid(prm)
    fine = build_grid(ModelParams(s=0.4, p=2.0, a=0.0, b=1.0, n=32))
    rng = np.random.default_rng(7)
    pairs = set()
    while len(pairs) < 4:
        i, j = rng.integers(0, 16, size=2)
        if abs(i - j) >= 2:
            pairs.add((int(i), int(j)))
    for i, j in pairs:
        block = fine.W[2 * i:2 * i + 2, 2 * j:2 * j + 2].sum()
        assert block == pytest.approx(coarse.W[i, j], rel=0.05)


def test_discrete_seminorm_converges_to_continuum():
    prm = ModelParams(s=0.4, p=2.0, a=0.0, b=1.0, n=512)
    g = build_grid(prm)

    def profile(x):
        xi = 2.0 * x - 1.0
        if abs(xi) >= 1.0:
            return 0.0
        return np.exp(-1.0 / (1.0 - xi * xi))

    u = np.array([profile(x) for x in g.centers])
    d = u[:, None] - u[None, :]
    discrete = np.sum(g.W * np.abs(d) ** prm.p) + np.sum(g.T * np.abs(u) ** prm.p)
    continuum = continuum_seminorm_quadrature(prm, profile)
    assert discrete == pytest.approx(continuum, rel=0.02)
