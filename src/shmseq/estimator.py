"""Maximum-likelihood estimation of the unknown post-change distribution.

When the post-damage feature distribution f is unknown, its parameters are
estimated from the running stream itself by maximizing a concavified
surrogate of the log posterior (Jensen bound). The closed-form solution is a
prior-weighted mean/covariance in which sample n carries the prior CDF
weight Pi(n) = P(change <= n):

    mu_hat    = sum_n Pi(n) x[n]               / sum_n Pi(n)
    Sigma_hat = sum_n Pi(n) (x[n]-mu)(x[n]-mu)' / sum_n Pi(n)

(the k-then-n double sum of the estimator collapses to these single sums).
The adaptive detector refreshes the estimate at every step and scores every
change-at-k hypothesis k = 1..N, plus no change, under the frozen current
estimate before thresholding,

    w_k  = ln pi(k) + sum_{n<k} ln g(x[n]) + sum_{n>=k} ln f(x[n]),
    w_nc = ln P(change > N) + sum_{n<=N} ln g(x[n]),

with log posterior odds logsumexp(w_k) - w_nc. Because the estimate moves,
the known-parameter recursion does not apply. The detector stores no sample.
With y = x - g.mean it forms one moment row [1, y, y y'] per step and keeps
two sums of it: the cumulative sums over every prefix x[1..k], and the sum
weighted by Pi(n), from which the estimate is read about g.mean. A sum of
Gaussian log densities is linear in a prefix's moments, so the enumeration
becomes one matrix-vector product and one logsumexp over N entries per step,
O(N m^2) time and memory. The functions below score per-sample densities
directly (``hypothesis_log_weights``); they are the offline reference the
detector is tested against, to 1e-9 max(1, |r|).
"""

from __future__ import annotations

import numpy as np

from .detector import (
    LOG_2PI,
    DetectorState,
    GaussianParams,
    _factor,
    _feature_vector,
    detect,
    log_density_many,
    log_odds_threshold,
)
from .errors import EmptyStream, EstimatesUnready, InsufficientTraining

RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-9


def _as_matrix(dsfs) -> np.ndarray:
    """(N, m) matrix of N feature rows; an empty sequence is N = 0 rows of m = 0."""
    x = np.asarray(dsfs, dtype=float)
    return np.empty((0, 0)) if x.size == 0 and x.ndim < 2 else np.atleast_2d(x)


def ridge_regularize(cov: np.ndarray) -> np.ndarray:
    """Add delta*I with delta = max(RIDGE_SCALE * trace / m, RIDGE_FLOOR).

    Early-stream covariance estimates are rank deficient; the ridge keeps
    them invertible without visibly moving converged estimates.
    """
    m = cov.shape[0]
    delta = max(RIDGE_SCALE * float(np.trace(cov)) / m, RIDGE_FLOOR)
    return cov + delta * np.eye(m)


def weighted_moments(dsfs, prior) -> tuple[np.ndarray, np.ndarray, float]:
    """Bare closed-form estimate: (mu_hat, Sigma_hat, weight sum), no ridge.

    Sample n carries the prior CDF weight Pi(n); the covariance may be
    singular for short streams.
    """
    x = _as_matrix(dsfs)
    n = x.shape[0]
    if n == 0:
        raise EmptyStream("cannot estimate parameters from zero samples")
    w = np.asarray(prior.cdf(np.arange(1, n + 1)), dtype=float)
    wsum = float(w.sum())
    if wsum <= 0.0:
        raise ValueError("prior assigns zero mass to every observed step")
    mu = (w @ x) / wsum
    xc = x - mu
    cov = (xc.T * w) @ xc / wsum
    return mu, 0.5 * (cov + cov.T), wsum


def estimate_params(dsfs, prior) -> GaussianParams:
    """Closed-form ridge-regularized post-change parameter estimate from x[1..N]."""
    mu, cov, _ = weighted_moments(dsfs, prior)
    return GaussianParams(mean=mu, cov=ridge_regularize(cov))


def fit_predamage(training) -> GaussianParams:
    """Baseline distribution from healthy-regime feature vectors.

    Sample mean and unbiased (n-1) sample covariance, ridge regularized.
    Requires at least max(2, m) vectors for an m-dimensional feature.
    """
    x = _as_matrix(training)
    n, m = x.shape
    if n < max(2, m):
        raise InsufficientTraining(f"got {n} training vectors of dimension {m}, need >= {max(2, m)}")
    mu = x.mean(axis=0)
    xc = x - mu
    cov = xc.T @ xc / (n - 1)
    return GaussianParams(mean=mu, cov=ridge_regularize(cov))  # GaussianParams symmetrizes it


def logsumexp(a) -> float:
    """Log of the summed exponentials, shifted by the maximum for stability."""
    a = np.asarray(a, dtype=float)
    hi = a.max()
    if not np.isfinite(hi):
        return float(hi)
    return float(hi + np.log(np.exp(a - hi).sum()))


def hypothesis_log_weights(log_g, log_f, prior) -> tuple[np.ndarray, np.ndarray, float]:
    """Hypothesis log likelihoods and log weights from per-sample log densities.

    Returns (per_k, log_w, log_nc). Entry k-1 of ``per_k`` is
    sum_{n<k} ln g(x[n]) + sum_{n>=k} ln f(x[n]) for k = 1..N; no prior
    enters, so it stays finite under priors with zero-mass steps. ``log_w``
    holds w_1..w_N = ln pi(k) + per_k and ``log_nc`` is w_nc.
    """
    log_g = np.asarray(log_g, dtype=float)
    log_f = np.asarray(log_f, dtype=float)
    if log_g.size == 0 or log_f.size != log_g.size:
        raise ValueError("need matching, non-empty density arrays")
    cum_g = np.concatenate(([0.0], np.cumsum(log_g)))
    cum_f = np.concatenate(([0.0], np.cumsum(log_f)))
    per_k = cum_g[:-1] + (cum_f[-1] - cum_f[:-1])
    n = per_k.size
    log_w = prior.log_mass(np.arange(1, n + 1)) + per_k
    return per_k, log_w, float(prior.log_tail(n) + cum_g[-1])


def _scored_hypotheses(dsfs, prior, g: GaussianParams, f: GaussianParams):
    """``hypothesis_log_weights`` of the stream x[1..N] scored under g and f."""
    x = _as_matrix(dsfs)
    if x.shape[0] == 0:
        raise EmptyStream("cannot score zero samples")
    return hypothesis_log_weights(log_density_many(g, x), log_density_many(f, x), prior)


def exact_log_posterior(dsfs, prior, g: GaussianParams, f: GaussianParams) -> float:
    """ln P(change <= N | x[1..N]) by direct hypothesis enumeration (log domain)."""
    _, log_w, log_nc = _scored_hypotheses(dsfs, prior, g, f)
    return logsumexp(log_w) - logsumexp(np.append(log_w, log_nc))


def prior_weighted_log_likelihood(dsfs, prior, g: GaussianParams, theta: GaussianParams) -> float:
    """sum_k pi(k) [sum_{n<k} ln g(x[n]) + sum_{n>=k} ln f(x[n]; theta)].

    The theta-dependent part of the Jensen surrogate; `estimate_params` is
    its exact stationary point in (mu, Sigma).
    """
    return _prior_weighted(_scored_hypotheses(dsfs, prior, g, theta)[0], prior)


def _prior_weighted(per_k: np.ndarray, prior) -> float:
    """sum_k pi(k) per_k[k-1], for per_k from ``hypothesis_log_weights``."""
    return float(prior.mass(np.arange(1, per_k.size + 1)) @ per_k)


def jensen_lower_bound(dsfs, prior, g: GaussianParams, theta: GaussianParams) -> float:
    """Concavified surrogate of the log posterior at candidate parameters theta.

    The log of the prior-weighted likelihood mixture is replaced by the
    prior-weighted sum of log likelihoods; the normalizer ln C is taken
    from the exact posterior computation on the same data (with f = theta)
    so the surrogate is directly comparable to `exact_log_posterior`.
    """
    per_k, log_w, log_nc = _scored_hypotheses(dsfs, prior, g, theta)
    return -logsumexp(np.append(log_w, log_nc)) + _prior_weighted(per_k, prior)


def _coefficients(offset: np.ndarray, chol_inv: np.ndarray, log_det: float) -> np.ndarray:
    """beta(p): sum_n ln p(x[n]) = moments . beta over any run of samples, for p of
    mean g.mean + ``offset`` and covariance factored by ``detector._factor``."""
    a = chol_inv @ offset  # the whitened mean offset
    return np.concatenate(
        (
            [-0.5 * (offset.size * LOG_2PI + log_det + float(a @ a))],
            chol_inv.T @ a,
            -0.5 * (chol_inv.T @ chol_inv).ravel(),
        )
    )


class AdaptiveDetector(DetectorState):
    """Sequential detector for an unknown post-change distribution.

    A ``DetectorState`` (same ``step``, ``log_odds``, ``posterior`` and
    ``detection_time``, latched by the same ``detect``) whose f is the
    running estimate, refreshed at every step. Until ``warmup`` = m + 1
    samples have arrived the covariance estimate is rank deficient even with
    the ridge, so detection is suppressed and the log odds held at -inf
    (posterior 0).

    No sample is stored. Step n forms the moment row r(x[n]) = [1, y, y y']
    (row-major) with y = x[n] - g.mean. Row k of ``_cum`` holds the sum of
    r over x[1..k], with row 0 zero, and ``_weighted`` holds the sum of
    Pi(n) r(x[n]), from which ``raw_estimate`` reads the closed-form
    estimate about g.mean; a near-constant feature then loses no digits to
    cancellation. The prior is tabled at steps 1..size of the buffers:
    ``_log_pi[k-1]`` = ln pi(k), ``_cdf[n-1]`` = P(change <= n) and
    ``_log_tail[n-1]`` = ln P(change > n). A sum of Gaussian log densities is
    linear in the moments, sum ln p(x[n]) = moments . beta(p), so with
    delta = beta(f) - beta(g) and s = cum[0..N] . delta

        r_N = logsumexp(ln pi(k) - s[k-1]) + s[N] - ln P(change > N),

    one matvec and one logsumexp over N entries per step; g's own density
    cancels. beta(f) comes from ``detector._factor`` of the ridged estimate,
    the factorization ``GaussianParams`` itself uses, so the detector holds
    f-hat only as its moments; ``params_estimate`` builds it on demand as a
    validated ``GaussianParams``. Against enumerating every hypothesis from
    per-sample densities (``hypothesis_log_weights``) the log odds agree to
    1e-9 max(1, |r|).
    """

    def __init__(self, g: GaussianParams, prior, alpha: float, *, sensor_id: int = 0) -> None:
        super().__init__()
        log_odds_threshold(alpha)  # reject a bad alpha before any sample arrives
        self.alpha = alpha
        self.g = g
        self.prior = prior
        self.sensor_id = sensor_id
        self.warmup = g.dim + 1  # the samples a full-rank covariance estimate needs
        m = g.dim
        self._weighted = np.zeros(1 + m + m * m)
        self._cum = np.zeros((1, self._weighted.size))
        self._grow(64)
        self._beta_g = _coefficients(np.zeros(m), g.chol_inv, g.log_det)

    @property
    def is_ready(self) -> bool:
        return self.step >= self.warmup

    @property
    def sum_w(self) -> float:
        return float(self._weighted[0])

    @property
    def params_estimate(self) -> GaussianParams:
        """The current ridge-regularized estimate f-hat, built afresh from the moments."""
        if not self.is_ready:
            raise EstimatesUnready(f"estimates need {self.warmup} samples, have {self.step}")
        mu, cov = self.raw_estimate()
        return GaussianParams(mu, ridge_regularize(cov))

    def raw_estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """Current (mu_hat, pre-ridge Sigma_hat) from the prior-weighted moments."""
        sum_w = self.sum_w
        if sum_w <= 0.0:
            raise EmptyStream("no samples ingested yet")
        m = self.g.dim
        dy = self._weighted[1 : m + 1] / sum_w  # mu_hat - g.mean
        cov = self._weighted[m + 1 :].reshape(m, m) / sum_w - np.outer(dy, dy)
        return self.g.mean + dy, 0.5 * (cov + cov.T)

    def _grow(self, size: int) -> None:
        """Make room for ``size`` steps: cumulative rows 0..size and the prior tables."""
        cum = np.empty((size + 1, self._weighted.size))
        cum[: self.step + 1] = self._cum[: self.step + 1]
        self._cum = cum
        k = np.arange(1, size + 1)
        self._log_pi = self.prior.log_mass(k)
        self._cdf = self.prior.cdf(k)
        self._log_tail = self.prior.log_tail(k)

    def update(self, x) -> float:
        """Ingest one feature sample; return the current posterior."""
        n = self.step
        v = _feature_vector(x, self.g.dim, f"sensor {self.sensor_id} step {n + 1}")
        if n + 1 == self._cum.shape[0]:
            self._grow(2 * n)
        y = v - self.g.mean
        row = np.concatenate(([1.0], y, np.outer(y, y).ravel()))
        np.add(self._cum[n], row, out=self._cum[n + 1])
        self._weighted += float(self._cdf[n]) * row
        self.step = n = n + 1

        if self.is_ready:
            mu, cov = self.raw_estimate()
            _, chol_inv, log_det = _factor(ridge_regularize(cov))
            delta = _coefficients(mu - self.g.mean, chol_inv, log_det) - self._beta_g
            s = self._cum[: n + 1] @ delta
            self.log_odds = (
                logsumexp(self._log_pi[:n] - s[:n]) + float(s[n]) - float(self._log_tail[n - 1])
            )
        detect(self, self.alpha)
        return self.posterior
