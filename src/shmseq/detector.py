"""Bayesian sequential change-point detection on Gaussian feature streams.

The change step is given a geometric prior P(change = k) = rho (1-rho)^(k-1).
With both the pre-change density g and the post-change density f known, the
log posterior odds that the change has already happened,

    r_N = ln P(change <= N | x[1..N]) - ln P(change > N | x[1..N]),

obey the exact one-number (Shiryaev) recursion

    r_N = logaddexp(r_{N-1}, ln rho) - ln(1-rho) + ln f(x[N]) - ln g(x[N]),

starting from r_0 = -inf. The detector carries r and nothing else; the
posterior is its logistic transform. Working in log odds keeps full relative
precision at both ends: posteriors far below 1e-16 and complements
1 - posterior far below 1e-16 are both resolved. A detection is declared (and
latched) the first time r reaches ln((1-alpha)/alpha), i.e. the posterior
reaches 1 - alpha.

Densities are evaluated with numpy alone: each ``GaussianParams`` caches the
inverse of its Cholesky factor, so a density or KL term is one matrix
product and no triangular solver is needed. Every instance comes from its
one constructor, which checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDelay, DimensionMismatch, NonFiniteSignal, NotPositiveDefinite, integer,
)

LOG_2PI = float(np.log(2.0 * np.pi))
PD_FLOOR = 1e-10  # a covariance is positive definite when its smallest eigenvalue exceeds this


@dataclass
class GaussianParams:
    """Mean and covariance of a feature distribution, with cached Cholesky factors.

    The covariance must be symmetric and positive definite: its smallest
    eigenvalue has to exceed ``PD_FLOOR``. The lower-triangular factor L
    (cov = L L'), its inverse ``chol_inv`` and the log determinant are
    computed once at construction, so a whitened residual L^-1 (x - mean) is
    one matrix product and the unfactored covariance is never inverted. The
    explicit inverse costs up to about cond(L) = sqrt(cond(cov)) units of
    round-off: against triangular solves, log densities and KL distances
    agree to 1e-12 of the summed magnitudes of their terms up to
    cond(cov) = 1e6, and to 1e-10 at 1e9.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    chol_inv: np.ndarray = field(init=False, repr=False)
    log_det: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        m = self.mean.size
        if self.cov.shape != (m, m):
            raise DimensionMismatch(
                f"covariance shape {self.cov.shape} does not match mean dimension {m}"
            )
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise ValueError("distribution parameters must be finite")
        scale = max(float(np.abs(self.cov).max()), 1.0)
        if float(np.abs(self.cov - self.cov.T).max()) > 1e-8 * scale:
            raise ValueError("covariance must be symmetric")
        self.cov = 0.5 * (self.cov + self.cov.T)
        min_eig = float(np.linalg.eigvalsh(self.cov).min())
        if not min_eig > PD_FLOOR:
            raise NotPositiveDefinite(
                f"smallest covariance eigenvalue {min_eig:.3e} not above floor {PD_FLOOR:.0e}"
            )
        self.chol, self.chol_inv, self.log_det = _factor(self.cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _factor(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(L, L^-1, ln det cov) of a covariance; ``NotPositiveDefinite`` if Cholesky fails."""
    try:
        chol = np.linalg.cholesky(cov)
        chol_inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    return chol, chol_inv, 2.0 * float(np.log(np.diag(chol)).sum())


def _vector(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _feature_vector(x, dim: int, where: str) -> np.ndarray:
    """One detector sample as a vector of ``dim`` finite floats.

    Raises ``DimensionMismatch`` for another length and ``NonFiniteSignal``,
    prefixed with ``where``, for a nan or inf entry, before any arithmetic.
    """
    v = _vector(x)
    if v.size != dim:
        raise DimensionMismatch(f"point has dimension {v.size}, expected {dim}")
    if not np.isfinite(v).all():
        bad = v.size - int(np.count_nonzero(np.isfinite(v)))
        raise NonFiniteSignal(f"{where}: {bad} of {v.size} features are nan or inf")
    return v


def log_density(params: GaussianParams, x) -> float:
    """Gaussian log density ln N(x; mean, cov) via the cached inverse factor."""
    v = _vector(x)
    if v.size != params.dim:
        raise DimensionMismatch(f"point has dimension {v.size}, expected {params.dim}")
    z = params.chol_inv @ (v - params.mean)
    return -0.5 * (params.dim * LOG_2PI + params.log_det + float(z @ z))


def log_density_many(params: GaussianParams, xs: np.ndarray) -> np.ndarray:
    """Row-wise Gaussian log density for an (N, m) sample matrix."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != params.dim:
        raise DimensionMismatch(f"points have dimension {xs.shape[1]}, expected {params.dim}")
    z = (xs - params.mean) @ params.chol_inv.T
    return -0.5 * (params.dim * LOG_2PI + params.log_det + np.sum(z * z, axis=1))


def logistic(r: float) -> float:
    """The logistic 1 / (1 + e^-r) of a log odds r: the probability it stands for.

    0 at r = -inf and wherever e^-r overflows (r below about -709.78), 1 at
    r = +inf, nan at nan. This is the arithmetic of the usual ``expit``.
    """
    try:
        return 1.0 / (1.0 + math.exp(-r))
    except OverflowError:
        return 0.0


def _float_if_scalar(out):
    return float(out) if np.ndim(out) == 0 else out


class _ChangePrior:
    """A prior on the change step given by two logs; the probabilities follow.

    Subclasses define ``log_mass(k)`` = ln P(change = k) and ``log_tail(n)``
    = ln P(change > n). Every method takes a step or an array of steps and
    returns a float or an array to match.
    """

    def mass(self, k):
        return _float_if_scalar(np.exp(self.log_mass(k)))

    def tail(self, n):
        """P(change > n)."""
        return _float_if_scalar(np.exp(self.log_tail(n)))

    def cdf(self, n):
        """P(change <= n) = 1 - P(change > n), without cancellation near 0."""
        return _float_if_scalar(-np.expm1(self.log_tail(n)))


@dataclass(frozen=True)
class GeometricPrior(_ChangePrior):
    """Geometric prior on the change step: P(change = k) = rho * (1-rho)^(k-1)."""

    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")

    def log_mass(self, k):
        return _float_if_scalar(math.log(self.rho) + (np.asarray(k) - 1) * math.log1p(-self.rho))

    def log_tail(self, n):
        return _float_if_scalar(np.asarray(n) * math.log1p(-self.rho))


@dataclass(frozen=True)
class PointMassPrior(_ChangePrior):
    """Degenerate prior putting all mass on a single change step.

    A prior for the offline estimator functions (``weighted_moments``,
    ``exact_log_posterior`` and the like) as the everything-after-k limit of
    the geometric prior; it has no constant hazard rate, so it is not meant
    for the recursive detector. ``k0`` is an integer (numpy integers too);
    a float such as 2.5, which would put no mass on any step, raises.
    """

    k0: int

    def __post_init__(self) -> None:
        if integer("k0", self.k0) < 1:
            raise ValueError("the change step must be >= 1")

    def log_mass(self, k):
        return _float_if_scalar(np.where(np.asarray(k) == self.k0, 0.0, -np.inf))

    def log_tail(self, n):
        return _float_if_scalar(np.where(np.asarray(n) < self.k0, 0.0, -np.inf))


@dataclass(eq=False)
class DetectorState:
    """Running state of one sensor's detector.

    ``log_odds`` is the log posterior odds r of a change at or before
    ``step`` (-inf before the first sample). ``detection_time``, once set,
    never changes. States compare by identity, so they can key a dict.
    """

    step: int = 0
    log_odds: float = -math.inf
    detection_time: int | None = None

    @property
    def posterior(self) -> float:
        """P(change <= step | samples so far)."""
        return logistic(self.log_odds)


def update(
    state: DetectorState,
    x,
    g: GaussianParams,
    f: GaussianParams,
    prior: GeometricPrior,
) -> DetectorState:
    """Advance the detector by one feature sample and return the new state."""
    v = _feature_vector(x, g.dim, f"step {state.step + 1}")
    log_odds = (
        float(np.logaddexp(state.log_odds, math.log(prior.rho)))
        - math.log1p(-prior.rho)
        + log_density(f, v)
        - log_density(g, v)
    )
    return DetectorState(
        step=state.step + 1, log_odds=log_odds, detection_time=state.detection_time
    )


def log_odds_threshold(alpha: float) -> float:
    """Log odds ln((1-alpha)/alpha) at which the posterior reaches 1 - alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return math.log((1.0 - alpha) / alpha)


def detect(state: DetectorState, alpha: float) -> int | None:
    """Latch and return the first step at which the log odds reached the threshold.

    Meant to be applied after every update; the detector keeps running after
    a detection (the posterior is still reported) for diagnostics.
    """
    threshold = log_odds_threshold(alpha)
    if state.detection_time is None and state.log_odds >= threshold:
        state.detection_time = state.step
    return state.detection_time


def expected_delay(alpha: float, rho: float, kl: float) -> float:
    """Asymptotic (alpha -> 0) mean detection delay |ln alpha| / (-ln(1-rho) + KL)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if kl < 0.0:
        raise ValueError("kl must be non-negative")
    denom = -math.log1p(-rho) + kl
    if denom <= 0.0:
        raise DegenerateDelay("zero prior drift and zero divergence give an infinite delay")
    return abs(math.log(alpha)) / denom
