"""Tests for post-change parameter estimation and the adaptive detector."""

import warnings

import numpy as np
import pytest

from shmseq.detector import (
    DetectorState,
    GaussianParams,
    GeometricPrior,
    detect,
    log_density_many,
    update,
)
from shmseq.errors import (
    DimensionMismatch,
    EmptyStream,
    EstimatesUnready,
    InsufficientTraining,
    NonFiniteSignal,
)
from shmseq.estimator import (
    AdaptiveDetector,
    estimate_params,
    exact_log_posterior,
    fit_predamage,
    hypothesis_log_weights,
    jensen_lower_bound,
    logsumexp,
    prior_weighted_log_likelihood,
    ridge_regularize,
    weighted_moments,
)

from helpers import double_sum_estimate


def tight_instance(rng, m=2, n_lo=5, n_hi=50):
    """A feature-like instance: tight covariances, so per-sample densities > 1."""
    n = int(rng.integers(n_lo, n_hi + 1))
    lam = int(rng.integers(1, n + 1))
    g = GaussianParams(rng.normal(0, 0.3, m), np.diag(rng.uniform(0.02, 0.1, m) ** 2))
    th = GaussianParams(g.mean + rng.normal(0, 0.2, m), np.diag(rng.uniform(0.02, 0.1, m) ** 2))
    xs = np.vstack(
        [
            rng.multivariate_normal(g.mean, g.cov, size=lam - 1).reshape(lam - 1, m),
            rng.multivariate_normal(th.mean, th.cov, size=n - lam + 1),
        ]
    )
    return xs, g, th


class TestEstimateParams:
    @pytest.mark.parametrize("seed", range(10))
    def test_single_sum_equals_double_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        prior = GeometricPrior(float(rng.uniform(0.01, 0.3)))
        xs = rng.normal(size=(n, 2))
        mu_o, cov_o, den_o = double_sum_estimate(xs, prior.mass(np.arange(1, n + 1)))
        mu, cov, wsum = weighted_moments(xs, prior)
        assert np.abs(mu - mu_o).max() < 1e-10
        assert np.abs(cov - cov_o).max() < 1e-10
        assert abs(wsum - den_o) < 1e-10

    def test_prior_without_mass_on_the_stream_raises(self):
        class NoMassYet:  # any object with a cdf is a prior to weighted_moments
            def cdf(self, n):
                return np.zeros(np.shape(n))

        with pytest.raises(ValueError, match="prior assigns zero mass to every observed step"):
            weighted_moments(np.zeros((3, 2)), NoMassYet())

    def test_running_sums_equal_double_sum(self):
        rng = np.random.default_rng(3)
        prior = GeometricPrior(0.05)
        xs = rng.normal(size=(40, 3))
        det = AdaptiveDetector(GaussianParams(np.zeros(3), np.eye(3)), prior, 0.5)
        for row in xs:
            det.update(row)
        mu_o, cov_o, den_o = double_sum_estimate(xs, prior.mass(np.arange(1, 41)))
        mu, cov = det.raw_estimate()
        assert abs(det.sum_w - den_o) < 1e-10
        assert np.abs(mu - mu_o).max() < 1e-10
        assert np.abs(cov - cov_o).max() < 1e-10

    def test_running_sums_keep_digits_of_a_feature_far_from_zero(self):
        """Mean/spread ~1e4, as AR coefficients are: no cancellation in Sigma_hat."""
        rng = np.random.default_rng(11)
        prior = GeometricPrior(0.05)
        mean = np.array([0.9, -0.6])
        xs = mean + 1e-4 * rng.normal(size=(60, 2))
        det = AdaptiveDetector(GaussianParams(mean, 1e-8 * np.eye(2)), prior, 0.5)
        for row in xs:
            det.update(row)
        w = prior.cdf(np.arange(1, 61))
        mu_o = (w @ xs) / w.sum()  # two-pass oracle: the mean, then the spread about it
        cov_o = ((xs - mu_o).T * w) @ (xs - mu_o) / w.sum()
        mu, cov = det.raw_estimate()
        assert np.abs(mu - mu_o).max() <= 1e-14
        assert np.abs(cov - cov_o).max() <= 1e-12 * np.abs(cov_o).max()

    def test_point_mass_at_one_is_plain_mle(self):
        """rho -> 1 puts the change at step 1: every sample gets weight ~1."""
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(40, 3))
        mu, cov, wsum = weighted_moments(xs, GeometricPrior(1 - 1e-12))
        assert np.allclose(mu, xs.mean(axis=0), atol=1e-13)
        assert np.allclose(cov, np.cov(xs.T, ddof=0), atol=1e-12)
        assert wsum == pytest.approx(40.0)

    def test_single_sample(self):
        est = estimate_params(np.array([[2.0, -1.0]]), GeometricPrior(0.1))
        assert np.allclose(est.mean, [2.0, -1.0])
        assert np.allclose(est.cov, 1e-9 * np.eye(2))  # ridge floor only

    def test_empty_stream(self):
        with pytest.raises(EmptyStream):
            estimate_params(np.empty((0, 2)), GeometricPrior(0.1))
        with pytest.raises(EmptyStream):
            estimate_params([], GeometricPrior(0.1))

    def test_monte_carlo_accuracy(self):
        """50 pre-change + 500 post-change samples pin the parameters down."""
        mu1 = np.array([2.0, -1.0])
        cov1 = np.diag([2.0, 0.5])
        mu_errs, cov_errs = [], []
        for seed in range(100):
            rng = np.random.default_rng(40_000 + seed)
            xs = np.vstack(
                [
                    rng.multivariate_normal([0.0, 0.0], np.eye(2), size=50),
                    rng.multivariate_normal(mu1, cov1, size=500),
                ]
            )
            est = estimate_params(xs, GeometricPrior(1e-2))
            mu_errs.append(np.abs(est.mean - mu1).max())
            cov_errs.append(np.abs(est.cov - cov1).max())
        assert np.median(mu_errs) < 0.15
        assert np.median(cov_errs) < 0.3

    def test_consistency_error_shrinks_with_samples(self):
        mu1 = np.array([1.5, -0.5])
        errs = {50: [], 500: []}
        for seed in range(60):
            rng = np.random.default_rng(90_000 + seed)
            post = rng.multivariate_normal(mu1, np.eye(2) * 0.8, size=500)
            pre = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=20)
            for n_post in (50, 500):
                est = estimate_params(np.vstack([pre, post[:n_post]]), GeometricPrior(1e-2))
                errs[n_post].append(np.abs(est.mean - mu1).max())
        assert np.median(errs[500]) < np.median(errs[50])


class TestJensenBound:
    @pytest.mark.parametrize("seed", range(25))
    def test_bound_below_exact_posterior(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        xs, g, th = tight_instance(rng)
        prior = GeometricPrior(float(rng.uniform(0.01, 0.3)))
        bound = jensen_lower_bound(xs, prior, g, th)
        exact = exact_log_posterior(xs, prior, g, th)
        assert bound < exact  # strict: the geometric prior is not a point mass
        _, log_w, log_nc = hypothesis_log_weights(
            log_density_many(g, xs), log_density_many(th, xs), prior
        )
        log_c = -logsumexp(np.append(log_w, log_nc))
        assert bound == log_c + prior_weighted_log_likelihood(xs, prior, g, th)

    def test_point_mass_equality_single_sample(self):
        g = GaussianParams([0.0], [[0.04]])
        th = GaussianParams([0.1], [[0.02]])
        xs = np.array([[0.05]])
        prior = GeometricPrior(1 - 1e-12)  # the change at step 1, all but surely
        bound = jensen_lower_bound(xs, prior, g, th)
        exact = exact_log_posterior(xs, prior, g, th)
        assert abs(bound - exact) < 1e-12
        assert abs(exact) < 1e-12  # the posterior is one to within 1e-12

    def test_identical_distributions_stay_finite_and_below(self):
        rng = np.random.default_rng(2)
        g = GaussianParams([0.1, -0.2], np.diag([0.01, 0.02]))
        xs = rng.multivariate_normal(g.mean, g.cov, size=12)
        prior = GeometricPrior(0.05)
        bound = jensen_lower_bound(xs, prior, g, g)
        exact = exact_log_posterior(xs, prior, g, g)
        assert np.isfinite(bound)
        assert bound <= exact

    def test_empty_or_mismatched_inputs(self):
        g = GaussianParams(np.zeros(2), np.eye(2))
        assert logsumexp([-np.inf, -np.inf]) == -np.inf
        with pytest.raises(ValueError, match="need matching, non-empty density arrays"):
            hypothesis_log_weights([1.0, 2.0], [1.0], GeometricPrior(0.1))
        with pytest.raises(EmptyStream):
            exact_log_posterior([], GeometricPrior(0.1), g, g)

    def test_exact_log_posterior_matches_recursion(self):
        rng = np.random.default_rng(8)
        xs, g, th = tight_instance(rng, n_lo=10, n_hi=20)
        prior = GeometricPrior(0.08)
        state = DetectorState()
        for row in xs:
            state = update(state, row, g, th, prior)
        assert abs(np.exp(exact_log_posterior(xs, prior, g, th)) - state.posterior) < 1e-10

    def test_estimate_is_stationary_point_of_surrogate(self):
        """Nudging the mean estimate must not improve the surrogate objective."""
        rng = np.random.default_rng(77)
        xs = rng.multivariate_normal([0.2, -0.1], np.diag([0.004, 0.002]), size=30)
        prior = GeometricPrior(0.05)
        g = GaussianParams([0.0, 0.0], np.diag([0.003, 0.003]))
        est = estimate_params(xs, prior)
        base = prior_weighted_log_likelihood(xs, prior, g, est)
        for i in range(2):
            for sign in (1.0, -1.0):
                mu = est.mean.copy()
                mu[i] += sign * 1e-4
                moved = prior_weighted_log_likelihood(xs, prior, g, GaussianParams(mu, est.cov))
                assert moved <= base + 1e-6


class TestFitPredamage:
    def test_two_point_set_exact(self):
        params = fit_predamage(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(params.mean, [0.0, 0.0])
        # unbiased covariance diag(2, 0) plus ridge 1e-6 * trace / m
        assert np.allclose(params.cov, np.diag([2.0, 0.0]) + 1e-6 * np.eye(2))

    def test_monte_carlo_identity_covariance(self):
        rng = np.random.default_rng(13)
        params = fit_predamage(rng.multivariate_normal(np.zeros(3), np.eye(3), size=10_000))
        assert np.abs(params.mean).max() < 0.05
        assert np.abs(params.cov - np.eye(3)).max() < 0.1

    def test_insufficient_training(self):
        with pytest.raises(InsufficientTraining):
            fit_predamage(np.zeros((3, 7)))
        with pytest.raises(InsufficientTraining):
            fit_predamage(np.array([[1.0]]))
        with pytest.raises(InsufficientTraining):
            fit_predamage([])


class TestAdaptiveDetector:
    def test_warmup_guard(self):
        g = GaussianParams(np.zeros(7), np.eye(7))
        det = AdaptiveDetector(g, GeometricPrior(0.01), 1e-3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            posterior = det.update(rng.normal(size=7))
            assert posterior == 0.0
        assert not det.is_ready
        with pytest.raises(EstimatesUnready):
            det.params_estimate
        for _ in range(3):
            det.update(rng.normal(size=7))
        assert det.is_ready
        assert det.params_estimate.dim == 7

    def test_raw_estimate_before_any_sample_is_an_empty_stream(self):
        det = AdaptiveDetector(GaussianParams(np.zeros(2), np.eye(2)), GeometricPrior(0.01), 1e-3)
        with pytest.raises(EmptyStream, match="no samples ingested yet"):
            det.raw_estimate()

    def test_params_estimate_is_built_afresh_by_the_constructor(self):
        g = GaussianParams(np.ones(3), np.eye(3))
        det = AdaptiveDetector(g, GeometricPrior(0.01), 1e-3)
        rng = np.random.default_rng(5)
        for _ in range(6):
            det.update(rng.normal(1.0, 2.0, size=3))
        mu, cov = det.raw_estimate()
        want = GaussianParams(mu, ridge_regularize(cov))
        est = det.params_estimate
        for name in ("mean", "cov", "chol", "chol_inv"):
            assert np.array_equal(getattr(est, name), getattr(want, name))
        assert est.log_det == want.log_det
        again = det.params_estimate
        assert not np.shares_memory(est.mean, again.mean)
        assert not np.shares_memory(est.cov, again.cov)
        assert not any(isinstance(v, GaussianParams) for k, v in vars(det).items() if k != "g")

    def test_sample_of_wrong_dimension_rejected(self):
        g = GaussianParams(np.zeros(2), np.eye(2))
        det = AdaptiveDetector(g, GeometricPrior(0.01), 1e-3)
        for x in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(DimensionMismatch):
                det.update(x)
        assert det.step == 0 and det.sum_w == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected_before_any_state_changes(self, bad):
        rng = np.random.default_rng(4)
        g = GaussianParams(np.zeros(2), np.eye(2))
        xs = rng.normal(size=(6, 2))
        det = AdaptiveDetector(g, GeometricPrior(0.01), 1e-3, sensor_id=7)
        clean = AdaptiveDetector(g, GeometricPrior(0.01), 1e-3, sensor_id=7)
        for row in xs[:3]:
            det.update(row)
            clean.update(row)
        before = (det.step, det.log_odds, det.sum_w, *det.raw_estimate())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(
                NonFiniteSignal, match=r"^sensor 7 step 4: 1 of 2 features are nan or inf$"
            ):
                det.update([bad, 0.0])
        after = (det.step, det.log_odds, det.sum_w, *det.raw_estimate())
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        for row in xs[3:]:  # the stream goes on as if the bad sample never came
            assert det.update(row) == clean.update(row)
            assert np.isfinite(det.log_odds) and det.log_odds == clean.log_odds

    def test_detects_strong_change_after_true_step(self):
        g = GaussianParams([0.0], [[1.0]])
        det = AdaptiveDetector(g, GeometricPrior(1e-2), 1e-4)
        rng = np.random.default_rng(42)
        lam = 25
        tau = None
        for n in range(1, 80):
            x = rng.normal(0.0, 1.0) if n < lam else rng.normal(4.0, 1.0)
            det.update([x])
            if det.detection_time is not None:
                tau = det.detection_time
                break
        assert tau is not None and tau >= lam
        assert tau - lam <= 10
        assert isinstance(det, DetectorState)  # same fields, latched by the same detect
        assert detect(det, 1e-4) == det.detection_time

    def test_barely_lags_known_detector_under_huge_separation(self):
        """KL ~ 300: both detectors fire essentially at the change step."""
        import math

        g = GaussianParams([0.0], [[1.0]])
        f = GaussianParams([math.sqrt(600.0)], [[1.0]])
        prior = GeometricPrior(1e-2)
        lam, horizon = 20, 60
        close = 0
        for seed in range(20):
            rng = np.random.default_rng(300_000 + seed)
            xs = np.concatenate(
                [rng.normal(0, 1, lam - 1), rng.normal(f.mean[0], 1, horizon - lam + 1)]
            )
            state = DetectorState()
            det = AdaptiveDetector(g, prior, 1e-5)
            tau_known = tau_adaptive = None
            for x in xs:
                state = update(state, [x], g, f, prior)
                if state.posterior >= 1 - 1e-5 and tau_known is None:
                    tau_known = state.step
                det.update([x])
                tau_adaptive = det.detection_time
                if tau_known is not None and tau_adaptive is not None:
                    break
            if (
                tau_known is not None
                and tau_adaptive is not None
                and lam <= tau_known
                and lam <= tau_adaptive
                and (tau_adaptive - tau_known) <= 5
            ):
                close += 1
        assert close >= 18  # >= 90% of trials

    def test_matches_known_detector_with_frozen_estimate(self):
        """Re-running the known-f detector at the final estimate replays the math."""
        rng = np.random.default_rng(4)
        g = GaussianParams([0.0, 0.0], np.eye(2) * 0.01)
        prior = GeometricPrior(0.01)
        det = AdaptiveDetector(g, prior, 1e-6)
        xs = np.vstack(
            [
                rng.multivariate_normal([0.0, 0.0], np.eye(2) * 0.01, size=12),
                rng.multivariate_normal([0.05, -0.03], np.eye(2) * 0.012, size=4),
            ]
        )
        for row in xs:
            det.update(row)
        state = DetectorState()
        for row in xs:
            state = update(state, row, g, det.params_estimate, prior)
        assert 0.0 < det.posterior < 1.0
        assert abs(det.posterior - state.posterior) < 1e-9

    @pytest.mark.parametrize("m", [1, 2, 7, 12])
    def test_log_odds_match_enumeration(self, m):
        """At every step the log odds equal the offline hypothesis enumeration.

        Feature-like data: means near +-1, spread about 1e-2 and a mean shift
        at step 91 of 150, so the stream crosses two buffer doublings (64 and
        128 rows) and, at m = 12, starts from the near-singular warm-up step.
        """
        rng = np.random.default_rng(500 + m)
        mean = rng.choice([-1.0, 1.0], m) * rng.uniform(0.8, 1.2, m)
        a = rng.normal(0.0, 1e-2, (m, m))
        cov = a @ a.T / m + 1e-5 * np.eye(m)
        shift = 2e-2 * rng.choice([-1.0, 1.0], m)
        prior = GeometricPrior(1e-3)
        g = fit_predamage(rng.multivariate_normal(mean, cov, size=100))
        xs = np.vstack(
            [
                rng.multivariate_normal(mean, cov, size=90),
                rng.multivariate_normal(mean + shift, cov, size=60),
            ]
        )
        det = AdaptiveDetector(g, prior, 1e-5)
        for n, row in enumerate(xs, start=1):
            det.update(row)
            if not det.is_ready:
                assert det.log_odds == -np.inf
                continue
            _, log_w, log_nc = hypothesis_log_weights(
                log_density_many(g, xs[:n]), log_density_many(det.params_estimate, xs[:n]), prior
            )
            r = logsumexp(log_w) - log_nc
            assert abs(det.log_odds - r) <= 1e-9 * max(1.0, abs(r)), (n, det.log_odds, r)
        assert det.step == 150 and det.detection_time is not None
