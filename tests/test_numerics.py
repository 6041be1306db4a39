"""The numpy-only kernels against the scipy formulas they replaced.

Densities and KL distances use each ``GaussianParams``'s cached inverse
Cholesky factor; the references below are the triangular solves of
``scipy.linalg.solve_triangular``. The posterior uses ``detector.logistic``;
the reference is ``scipy.special.expit``. The detection path itself loads no
scipy (``test_pipeline.TestCli``); its tests may.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import expit

from shmseq.detector import (
    LOG_2PI,
    PD_FLOOR,
    GaussianParams,
    _factor,
    log_density,
    log_density_many,
    logistic,
)
from shmseq.errors import NotPositiveDefinite
from shmseq.localization import kl_gaussian

# (condition number of the covariance, its smallest eigenvalue, bound);
# the last case sits just above the positive-definiteness floor
CONDITIONING = [
    (1.0, 1.0, 1e-12),
    (1e3, 1e-2, 1e-12),
    (1e6, 1e-3, 1e-12),
    (1e9, 1.5 * PD_FLOOR, 1e-10),
]


def conditioned(rng, m, cond, smallest) -> GaussianParams:
    """A random mean and a covariance with eigenvalues log-spaced over [smallest, smallest*cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eig = smallest * np.logspace(0.0, math.log10(cond), m) if m > 1 else np.array([smallest])
    return GaussianParams(rng.standard_normal(m), (q * eig) @ q.T)


def reference_log_density(p: GaussianParams, xs: np.ndarray):
    """(log densities by triangular solve, the summed magnitudes of their terms)."""
    z = solve_triangular(p.chol, (xs - p.mean).T, lower=True, check_finite=False)
    quad = np.sum(z * z, axis=0)
    return -0.5 * (p.dim * LOG_2PI + p.log_det + quad), 0.5 * (p.dim * LOG_2PI + abs(p.log_det) + quad)


def reference_kl(f: GaussianParams, g: GaussianParams):
    """(D(f || g) by triangular solves, the summed magnitudes of its terms)."""
    a = solve_triangular(g.chol, f.chol, lower=True)
    z = solve_triangular(g.chol, g.mean - f.mean, lower=True)
    spread = float(np.sum(a * a)) + float(z @ z)
    kl = max(0.5 * (spread - f.dim + (g.log_det - f.log_det)), 0.0)
    return kl, 0.5 * (spread + f.dim + abs(g.log_det) + abs(f.log_det))


class TestLogistic:
    GRID = [math.inf, -math.inf, math.nan, 0.0, 709.78, -709.78, 709.79, -709.79,
            745.0, -745.0, 800.0, -800.0]

    @pytest.mark.parametrize("r", GRID)
    def test_within_one_ulp_of_expit(self, r):
        want = float(expit(r))
        got = logistic(r)
        assert isinstance(got, float)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) <= math.ulp(want)

    def test_ends(self):
        assert logistic(-math.inf) == 0.0 and logistic(-709.79) == 0.0  # e^-r overflows
        assert 0.0 < logistic(-709.78) < 1e-300
        assert logistic(math.inf) == 1.0 and logistic(0.0) == 0.5

    def test_random_log_odds(self):
        rs = np.random.default_rng(0).uniform(-800.0, 800.0, 2000)
        got = np.array([logistic(float(r)) for r in rs])
        want = expit(rs)
        assert np.all(np.abs(got - want) <= np.spacing(want))


@pytest.mark.parametrize("cond, smallest, bound", CONDITIONING)
@pytest.mark.parametrize("m", [1, 2, 7, 12])
class TestAgainstTriangularSolves:
    """Errors are relative to the summed magnitudes of the formula's terms.

    A log density or KL distance can cancel to near 0 whatever the kernel, so
    its own size is no scale for the round-off of the terms it is made of.
    """

    def test_log_density(self, m, cond, smallest, bound):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = conditioned(rng, m, cond, smallest)
            near = g.mean + 3.0 * rng.standard_normal((20, m)) @ g.chol.T
            far = rng.standard_normal((20, m))
            for xs in (near, far):
                want, scale = reference_log_density(g, xs)
                assert np.all(np.abs(log_density_many(g, xs) - want) <= bound * scale)
                one = np.array([log_density(g, x) for x in xs])
                assert np.all(np.abs(one - want) <= bound * scale)

    def test_kl(self, m, cond, smallest, bound):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            f, g = conditioned(rng, m, cond, smallest), conditioned(rng, m, cond, smallest)
            want, scale = reference_kl(f, g)
            assert abs(kl_gaussian(f, g) - want) <= bound * scale


def test_inverse_factor_is_cached_and_fails_closed():
    g = GaussianParams([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(g.chol_inv @ g.chol, np.eye(2), rtol=0.0, atol=1e-15)
    chol, chol_inv, log_det = _factor(g.cov)
    assert np.array_equal(chol, g.chol) and np.array_equal(chol_inv, g.chol_inv)
    assert log_det == g.log_det
    with pytest.raises(NotPositiveDefinite):
        _factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
