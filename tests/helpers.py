"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library's computation paths: densities
use the explicit inverse/determinant formula, posteriors are enumerated in
the linear domain, the estimator identity is the literal double sum, the
simulator's reference draws every random number for the whole record at
once, and its dynamics reference steps the state-space model one sample at
a time with matrices from ``scipy.linalg.expm``. The Normal-Inverse-Wishart
marginal is the closed form over a whole sample set, with no predictive
step, so that the Student-t predictives can check it; the log odds built on
it enumerate every change step, with one marginal per suffix.
"""

import math
from dataclasses import dataclass

import numpy as np

from shmseq.shearsim import BLOCK, response_to_forces


def gen_ar(coefs, n, rng, burn=500, scale=1.0):
    """Simulate a stationary AR process with unit-variance innovations."""
    coefs = np.asarray(coefs, dtype=float)
    p = coefs.size
    x = np.zeros(n + burn)
    e = rng.normal(0.0, scale, size=n + burn)
    for i in range(p, n + burn):
        x[i] = coefs @ x[i - p : i][::-1] + e[i]
    return x[burn:]


def naive_logpdf(xs, mean, cov):
    """Gaussian log density via explicit inverse and determinant."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    mean = np.atleast_1d(mean)
    cov = np.atleast_2d(cov)
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    d = xs - mean
    quad = np.einsum("ij,jk,ik->i", d, inv, d)
    return -0.5 * (mean.size * np.log(2.0 * np.pi) + np.log(det) + quad)


def brute_posterior(xs, g_mean, g_cov, f_mean, f_cov, rho):
    """Linear-domain enumeration of the change posterior at the last step."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[0]
    dg = np.exp(naive_logpdf(xs, g_mean, g_cov))
    df = np.exp(naive_logpdf(xs, f_mean, f_cov))
    num = 0.0
    for k in range(1, n + 1):
        pk = rho * (1.0 - rho) ** (k - 1)
        num += pk * np.prod(dg[: k - 1]) * np.prod(df[k - 1 :])
    tail = (1.0 - rho) ** n * np.prod(dg)
    return num / (num + tail)


def double_sum_estimate(xs, masses):
    """Literal k-then-n double-sum form of the post-change estimate."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n, m = xs.shape
    masses = np.asarray(masses, dtype=float)
    num_mu = np.zeros(m)
    den = 0.0
    for k in range(1, n + 1):
        num_mu += masses[k - 1] * xs[k - 1 :].sum(axis=0)
        den += masses[k - 1] * (n - k + 1)
    mu = num_mu / den
    s = np.zeros((m, m))
    for k in range(1, n + 1):
        xc = xs[k - 1 :] - mu
        s += masses[k - 1] * (xc.T @ xc)
    return mu, s / den, den


def random_spd(rng, m, jitter=0.3):
    a = rng.normal(size=(m, m))
    return a @ a.T + m * jitter * np.eye(m)


def uniform_building_frequencies(stories, mass, stiffness):
    """Closed-form natural frequencies (Hz) of a uniform shear building."""
    j = np.arange(1, stories + 1)
    omega = 2.0 * np.sqrt(stiffness / mass) * np.sin((2 * j - 1) * np.pi / (2 * (2 * stories + 1)))
    return omega / (2.0 * np.pi)


def whole_record_simulation(model, scenario, excitation, chunk_size, sensors_per_story):
    """(time, signals) of ``simulate``, with each random draw made for the whole record.

    The forces (n, stories) are drawn at once and passed to
    ``response_to_forces``; each story's response is repeated for its
    sensors, then each sensor column gets an n-sample noise draw, in column
    order, scaled to the story's RMS.
    """
    n = excitation.n_samples
    rng = np.random.default_rng(excitation.seed)
    if excitation.intensity > 0:
        forces = rng.normal(0.0, excitation.intensity, size=(n, model.stories))
    else:
        forces = np.zeros((n, model.stories))
    accel = response_to_forces(model, scenario, forces, excitation.sample_rate, chunk_size)
    signals = np.repeat(accel, sensors_per_story, axis=1)
    if excitation.noise_snr_db is not None:
        rms = [float(np.sqrt(np.mean(accel[:, j] ** 2))) for j in range(model.stories)]
        for col in range(signals.shape[1]):
            story_rms = rms[col // sensors_per_story]
            if story_rms > 0.0:
                std = story_rms * 10.0 ** (-excitation.noise_snr_db / 20.0)
                signals[:, col] += rng.normal(0.0, std, size=n)
    return np.arange(n) / excitation.sample_rate, signals


def lti_response_loop(ad, bd, cd, dd, source, out, x0):
    """Run x[n+1] = Ad x[n] + Bd u[n], y[n] = Cd x[n] + Dd u[n] one sample at a time.

    The forces come from ``source`` in blocks of ``BLOCK`` rows, as the
    simulator pulls them; the outputs go into ``out`` and the final state
    is returned.
    """
    x = x0.copy()
    for lo in range(0, len(out), BLOCK):
        for i, u in enumerate(source(min(BLOCK, len(out) - lo)), start=lo):
            out[i] = cd @ x + dd @ u
            x = ad @ x + bd @ u
    return x


def expm_system(model, k_mat, dt):
    """(Ad, Bd, Cd, Dd): the zero-order hold of M qdd + C qd + K q = u, from ``expm``.

    C = M Phi diag(2 zeta w) Phi^T M with the modes of scipy's generalized
    ``eigh(K, M)``. The state is x = (q, qd), and Ad and Bd are the top
    blocks of expm([[A, B], [0, 0]] dt) for A = [0 I; -M^-1 K -M^-1 C] and
    B = [0; M^-1]; the outputs are the absolute accelerations
    qdd = Cd x + Dd u, the lower rows of A x + B u.
    """
    from scipy.linalg import eigh, expm  # the test extra's; the library runs without scipy

    s = model.stories
    m_mat, m_inv = np.diag(model.masses), np.diag(1.0 / model.masses)
    w2, phi = eigh(k_mat, m_mat)
    c_mat = m_mat @ phi @ np.diag(2.0 * model.zeta * np.sqrt(w2)) @ phi.T @ m_mat
    a = np.block([[np.zeros((s, s)), np.eye(s)], [-m_inv @ k_mat, -m_inv @ c_mat]])
    augmented = np.zeros((3 * s, 3 * s))
    augmented[: 2 * s, : 2 * s] = a * dt
    augmented[s : 2 * s, 2 * s :] = m_inv * dt
    zoh = expm(augmented)
    return zoh[: 2 * s, : 2 * s], zoh[: 2 * s, 2 * s :], a[s:], m_inv


def expm_kernel(model, k_mat, dt, source, out, x0):
    """``shearsim._modal_response`` the reference way: ``lti_response_loop`` over ``expm_system``."""
    return lti_response_loop(*expm_system(model, k_mat, dt), source, out, x0)


@dataclass(frozen=True)
class NiwState:
    """A Normal-Inverse-Wishart law: Sigma ~ IW(psi, nu) and mu | Sigma ~ N(mu, Sigma / kappa)."""

    mu: np.ndarray
    kappa: float
    psi: np.ndarray
    nu: float


def niw_vague(mean, cov, kappa=0.01):
    """The vague prior about a fitted g = N(mean, cov).

    nu = m + 2 and psi = cov * (nu - m - 1) = cov, so the prior mean of Sigma
    is cov; kappa is small, so mu is free to move away from mean.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return NiwState(mean, kappa, np.atleast_2d(np.asarray(cov, dtype=float)), mean.size + 2.0)


def niw_seeded(xs):
    """The state seeded from training vectors xs (n, m).

    kappa = n, nu = n + m + 2, mu the mean of xs and psi their scatter
    sum((x - mean)(x - mean)^T).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n, m = xs.shape
    dev = xs - xs.mean(axis=0)
    return NiwState(xs.mean(axis=0), float(n), dev.T @ dev, float(n + m + 2))


def niw_update(state, xs):
    """The posterior NiwState after the vectors xs (n, m), in the mean-and-scatter form."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = len(xs)
    mean = xs.mean(axis=0)
    dev, shift = xs - mean, mean - state.mu
    kappa = state.kappa + n
    psi = state.psi + dev.T @ dev + (state.kappa * n / kappa) * np.outer(shift, shift)
    return NiwState((state.kappa * state.mu + n * mean) / kappa, kappa, psi, state.nu + n)


def niw_predictive(state):
    """(loc, shape, df) of the multivariate Student-t law of the next vector under ``state``."""
    m = state.mu.size
    df = state.nu - m + 1
    return state.mu, state.psi * (state.kappa + 1) / (state.kappa * df), df


def _log_multigamma(a, m):
    """ln Gamma_m(a) = m(m - 1)/4 ln(pi) + sum_{j=1..m} ln Gamma(a + (1 - j)/2)."""
    return m * (m - 1) / 4 * math.log(math.pi) + sum(math.lgamma(a - j / 2) for j in range(m))


def niw_log_marginal(state, xs):
    """ln p(xs) of the vectors xs (n, m) under ``state``, in closed form.

    With y = x - mu and sums over the n vectors,
    psi_n = psi + sum(y y^T) - sum(y) sum(y)^T / (kappa + n), and
    ln p = -(nm/2) ln(pi) + ln Gamma_m(nu_n/2) - ln Gamma_m(nu/2)
           + (nu/2) ln|psi| - (nu_n/2) ln|psi_n| + (m/2) ln(kappa/kappa_n).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n, m = xs.shape
    y = xs - state.mu
    total = y.sum(axis=0)
    kappa_n, nu_n = state.kappa + n, state.nu + n
    psi_n = state.psi + y.T @ y - np.outer(total, total) / kappa_n
    logdet = np.linalg.slogdet(state.psi)[1]
    logdet_n = np.linalg.slogdet(psi_n)[1]
    return (
        -n * m / 2 * math.log(math.pi)
        + _log_multigamma(nu_n / 2, m)
        - _log_multigamma(state.nu / 2, m)
        + state.nu / 2 * logdet
        - nu_n / 2 * logdet_n
        + m / 2 * math.log(state.kappa / kappa_n)
    )


def niw_concentrated(mean, cov, strength):
    """A state concentrated on N(mean, cov): kappa = strength, nu = strength + m + 1.

    psi = cov * strength, so the prior mean of Sigma, psi / (nu - m - 1), is
    cov; as strength grows, the state's predictive tends to N(mean, cov).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return NiwState(mean, float(strength), cov * strength, strength + mean.size + 1.0)


def niw_log_odds(xs, rho, f_state, g):
    """The log odds r_N after the vectors xs (N, m) under a geometric prior, by enumeration.

    Hypothesis k (the change at step k, pi(k) = rho (1 - rho)^(k - 1))
    scores x[k..N] by its marginal under ``f_state``. With ``g`` a
    (mean, cov) pair, g is known:
        r_N = logsumexp_k[ln pi(k) + ln p_f(x[k..N]) - sum_{n=k..N} ln g(x_n)]
              - ln P(change > N).
    With ``g`` an NiwState, g is unknown too, and is scored by its marginal:
        r_N = logsumexp_k[ln pi(k) + ln p_g(x[1..k-1]) + ln p_f(x[k..N])]
              - ln P(change > N) - ln p_g(x[1..N]).
    Each suffix and prefix gets its own ``niw_log_marginal``: O(N^2 m^2).
    The three forms, with g_hat = N(mean, cov) fitted to training vectors:
    g known, f vague about it (``niw_vague(mean, cov)``, g = (mean, cov));
    a g-state (the same f_state, g = ``niw_seeded(training)``); and an
    informed f-state (f_state = ``niw_seeded(postdamage)``, the same g-state).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = len(xs)
    k = np.arange(1, n + 1)
    log_pi = math.log(rho) + (k - 1) * math.log1p(-rho)
    log_f = np.array([niw_log_marginal(f_state, xs[i:]) for i in range(n)])
    if isinstance(g, NiwState):
        log_g = np.array([0.0] + [niw_log_marginal(g, xs[:i]) for i in range(1, n + 1)])
        terms = log_pi + log_g[:-1] + log_f - log_g[-1]
    else:
        suffix_g = np.cumsum(naive_logpdf(xs, *g)[::-1])[::-1]  # sum_{n=k..N} ln g(x_n)
        terms = log_pi + log_f - suffix_g
    top = terms.max()
    return float(top + math.log(np.exp(terms - top).sum()) - n * math.log1p(-rho))
