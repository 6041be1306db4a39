"""Tests for the sequential Bayesian change detector."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import shmseq
from shmseq.detector import (
    DetectorState,
    GaussianParams,
    GeometricPrior,
    detect,
    expected_delay,
    log_density,
    log_density_many,
    update,
)
from shmseq.errors import DegenerateDelay, DimensionMismatch, NonFiniteSignal, NotPositiveDefinite

from helpers import brute_posterior, naive_logpdf, random_spd


def run_stream(xs, g, f, prior):
    state = DetectorState()
    for x in xs:
        state = update(state, np.atleast_1d(x), g, f, prior)
    return state


class TestGaussianParams:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            GaussianParams([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_eigenvalue_floor(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianParams([0.0], [[1e-12]])
        GaussianParams([0.0], [[1e-8]])  # above the floor

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="distribution parameters must be finite"):
            GaussianParams([np.nan, 0.0], np.eye(2))

    def test_src_builds_every_instance_through_its_constructor(self):
        src = Path(shmseq.__file__).parent
        assert [p.name for p in sorted(src.glob("*.py")) if "object.__new__" in p.read_text()] == []

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianParams([0.0, 1.0], [[1.0]])
        g = GaussianParams([0.0, 1.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            log_density(g, np.zeros(3))

    def test_dimension_mismatch_of_many_points(self):
        g = GaussianParams([0.0, 1.0], np.eye(2))
        with pytest.raises(DimensionMismatch, match="points have dimension 3, expected 2"):
            log_density_many(g, np.zeros((4, 3)))


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        g = GaussianParams([0.0], [[1.0]])
        assert abs(log_density(g, [0.0]) - (-0.9189385)) < 1e-7

    def test_bivariate_at_mean(self):
        g = GaussianParams([3.0, -1.0], np.eye(2))
        assert abs(log_density(g, [3.0, -1.0]) - (-1.8378771)) < 1e-7

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_formula(self, seed):
        rng = np.random.default_rng(seed)
        g = GaussianParams(rng.normal(size=3), random_spd(rng, 3))
        x = rng.normal(size=3)
        assert abs(log_density(g, x) - naive_logpdf(x, g.mean, g.cov)[0]) < 1e-10


class TestPriors:
    def test_geometric_domain(self):
        with pytest.raises(ValueError):
            GeometricPrior(0.0)
        with pytest.raises(ValueError):
            GeometricPrior(1.0)

    def test_geometric_values(self):
        p = GeometricPrior(0.2)
        ks = np.arange(1, 6)
        assert np.allclose(p.mass(ks), 0.2 * 0.8 ** (ks - 1))
        assert np.isclose(p.tail(5), 0.8**5)
        assert np.isclose(p.cdf(5), 1 - 0.8**5)


class TestUpdate:
    def test_identical_distributions_give_prior_mass_at_first_step(self):
        rho = 0.3
        g = GaussianParams([0.0], [[1.0]])
        state = update(DetectorState(), [0.7], g, g, GeometricPrior(rho))
        assert abs(state.posterior - rho) < 1e-12

    def test_identical_distributions_track_prior_cdf(self):
        """With f = g the likelihoods cancel and the posterior is the prior CDF."""
        rho = 0.07
        g = GaussianParams([1.0, 0.0], np.eye(2) * 2.0)
        prior = GeometricPrior(rho)
        rng = np.random.default_rng(0)
        state = DetectorState()
        for n in range(1, 30):
            state = update(state, rng.normal(size=2), g, g, prior)
            assert abs(state.posterior - (1 - (1 - rho) ** n)) < 1e-10

    def test_scalar_three_step_brute_force(self):
        """Explicit-number scalar case against linear-domain enumeration."""
        g = GaussianParams([0.2], [[1.3]])
        f = GaussianParams([1.1], [[0.6]])
        prior = GeometricPrior(0.15)
        xs = [0.3, -0.2, 1.4]
        state = DetectorState()
        for i, x in enumerate(xs, 1):
            state = update(state, [x], g, f, prior)
            oracle = brute_posterior(
                np.asarray(xs[:i]).reshape(-1, 1), [0.2], [[1.3]], [1.1], [[0.6]], 0.15
            )
            assert abs(state.posterior - oracle) < 1e-12

    @pytest.mark.parametrize(
        "seed, m, null",
        [pytest.param(seed, m, False, id=f"{seed}-{m}") for seed in range(10) for m in (1, 3)]
        + [pytest.param(seed, 3, True, id=f"null{seed}-3") for seed in range(3)],
    )
    def test_recursion_matches_enumeration(self, seed, m, null):
        """Null cases (rho = 1e-5, pure-g data) reach tiny posteriors and are compared relatively."""
        rng = np.random.default_rng(seed)
        g = GaussianParams(rng.normal(size=m), random_spd(rng, m))
        f = GaussianParams(rng.normal(size=m), random_spd(rng, m))
        if null:
            prior = GeometricPrior(1e-5)
            xs = rng.multivariate_normal(g.mean, g.cov, size=10)
        else:
            prior = GeometricPrior(float(rng.uniform(0.05, 0.5)))
            lam = int(rng.integers(1, 11))
            xs = np.vstack(
                [
                    rng.multivariate_normal(g.mean, g.cov, size=lam - 1).reshape(lam - 1, m),
                    rng.multivariate_normal(f.mean, f.cov, size=10 - lam + 1),
                ]
            )
        state = DetectorState()
        for n in range(10):
            state = update(state, xs[n], g, f, prior)
            oracle = brute_posterior(xs[: n + 1], g.mean, g.cov, f.mean, f.cov, prior.rho)
            tol = 1e-10 * oracle if null else 1e-9
            assert abs(state.posterior - oracle) <= tol

    def test_posterior_affine_invariance(self):
        """Likelihood ratios survive any shared invertible affine map."""
        rng = np.random.default_rng(5)
        m = 3
        g = GaussianParams(rng.normal(size=m), random_spd(rng, m))
        f = GaussianParams(rng.normal(size=m), random_spd(rng, m))
        prior = GeometricPrior(0.1)
        xs = rng.multivariate_normal(f.mean, f.cov, size=8)
        a = random_spd(rng, m) + np.eye(m)  # invertible, well conditioned
        b = rng.normal(size=m)
        g2 = GaussianParams(a @ g.mean + b, a @ g.cov @ a.T)
        f2 = GaussianParams(a @ f.mean + b, a @ f.cov @ a.T)
        s1 = run_stream(xs, g, f, prior)
        s2 = run_stream(xs @ a.T + b, g2, f2, prior)
        assert abs(s1.posterior - s2.posterior) < 1e-8

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_sample_rejected_naming_its_step(self, bad):
        g = GaussianParams(np.zeros(2), np.eye(2))
        f = GaussianParams(np.ones(2), np.eye(2))
        state = run_stream(np.zeros((3, 2)), g, f, GeometricPrior(0.1))
        before = (state.step, state.log_odds, state.detection_time)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(NonFiniteSignal, match=r"^step 4: 1 of 2 features are nan or inf$"):
                update(state, [0.5, bad], g, f, GeometricPrior(0.1))
        assert (state.step, state.log_odds, state.detection_time) == before


class TestDetect:
    def test_first_crossing_and_latch(self):
        state = DetectorState()
        # posteriors 0.1, 0.5, 1 - 1e-5 (the threshold itself), 0.3, 1 - 1e-6
        trajectory = [math.log(p / (1 - p)) for p in (0.1, 0.5, 0.3, 1 - 1e-6)]
        trajectory.insert(2, math.log((1 - 1e-5) / 1e-5))
        taus = []
        for i, r in enumerate(trajectory, 1):
            state.step = i
            state.log_odds = r
            taus.append(detect(state, 1e-5))
        assert taus == [None, None, 3, 3, 3]

    def test_no_crossing(self):
        state = DetectorState(step=10, log_odds=0.0)
        assert detect(state, 1e-5) is None

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            detect(DetectorState(), 0.0)
        with pytest.raises(ValueError):
            detect(DetectorState(), 1.0)

    def test_monte_carlo_fast_detection(self):
        """Strong separation: posterior passes 0.999 within 20 steps almost surely."""
        kl = 5.0
        g = GaussianParams([0.0], [[1.0]])
        f = GaussianParams([math.sqrt(2 * kl)], [[1.0]])
        prior = GeometricPrior(1e-3)
        hits = 0
        trials = 1000
        for seed in range(trials):
            rng = np.random.default_rng(700_000 + seed)
            state = DetectorState()
            for _ in range(20):
                state = update(state, [rng.normal(f.mean[0], 1.0)], g, f, prior)
                if state.posterior > 0.999:
                    hits += 1
                    break
        assert hits >= 0.99 * trials


class TestExpectedDelay:
    def test_alpha_one_gives_zero(self):
        assert expected_delay(1.0, 0.5, 2.0) == 0.0

    def test_monotone_in_divergence(self):
        delays = [expected_delay(1e-3, 0.01, kl) for kl in (0.5, 1.0, 2.0, 8.0, 100.0)]
        assert all(a > b for a, b in zip(delays, delays[1:]))
        assert expected_delay(1e-3, 0.01, 1e9) < 1e-7

    def test_reported_experiment_value(self):
        # strongest-sensor divergence 305.1590 at the default settings
        assert abs(expected_delay(1e-5, 1e-5, 305.1590) - 0.03773) < 1e-5

    def test_degenerate(self):
        with pytest.raises(DegenerateDelay):
            expected_delay(0.5, 0.0, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_delay(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            expected_delay(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            expected_delay(0.5, 0.1, -1.0)
