"""The Normal-Inverse-Wishart reference marginal against its Student-t predictives.

``helpers.niw_log_marginal`` is the closed form that a marginal-likelihood
score of the adaptive detector is to be checked against. Here it is
checked alone: the marginal of one vector is the multivariate Student-t
predictive (scipy's ``multivariate_t``), and the marginal of two vectors is
the first predictive times the second, after the first vector's update.
Both NIW forms are covered: the vague prior about a fitted g and the state
seeded from training vectors. ``helpers.niw_log_odds``, the log odds built
on that marginal, is checked at its limits: states concentrated on fixed
Gaussians give the known-parameter recursion of ``detector.update``, and a
g-state concentrated on a fitted g gives the form in which g is known.
"""

import numpy as np
import pytest
from scipy.stats import multivariate_t

from helpers import (
    niw_concentrated, niw_log_marginal, niw_log_odds, niw_predictive, niw_seeded, niw_update,
    niw_vague, random_spd,
)
from shmseq.detector import DetectorState, GaussianParams, GeometricPrior, update

DIMENSIONS = [1, 2, 7, 12]
RTOL = 1e-10
RHO = 0.05
STRENGTHS = [1e4, 1e6]  # kappa of a concentrated state; nu = kappa + m + 1


def state_and_sample(form, m, n, seed):
    """An NIW state of dimension m in ``form`` and n vectors drawn away from its mean."""
    rng = np.random.default_rng(seed)
    mean, cov = rng.normal(size=m), random_spd(rng, m)
    if form == "vague":
        state = niw_vague(mean, cov)
    else:
        state = niw_seeded(rng.multivariate_normal(mean, cov, size=3 * m + 5))
    shifted = mean + 0.5 * np.sqrt(np.diag(cov))
    return state, rng.multivariate_normal(shifted, 1.5 * cov, size=n)


def predictive_logpdf(state, x):
    loc, shape, df = niw_predictive(state)
    return multivariate_t(loc=loc, shape=shape, df=df).logpdf(x)


@pytest.mark.parametrize("form", ["vague", "seeded"])
@pytest.mark.parametrize("m", DIMENSIONS)
def test_one_vector_marginal_is_the_student_t_predictive(form, m):
    state, xs = state_and_sample(form, m, 1, seed=m)
    expected = predictive_logpdf(state, xs[0])
    assert niw_log_marginal(state, xs) == pytest.approx(expected, rel=RTOL, abs=0)


@pytest.mark.parametrize("form", ["vague", "seeded"])
@pytest.mark.parametrize("m", DIMENSIONS)
def test_two_vector_marginal_is_the_chain_of_predictives(form, m):
    # p(x1, x2) = t(x1) t(x2 | x1)
    state, xs = state_and_sample(form, m, 2, seed=100 + m)
    expected = predictive_logpdf(state, xs[0]) + predictive_logpdf(niw_update(state, xs[:1]), xs[1])
    assert niw_log_marginal(state, xs) == pytest.approx(expected, rel=RTOL, abs=0)


def change_stream(m, seed, n=60):
    """Gaussians g and f of dimension m, and n vectors: the first half from g, the rest from f."""
    rng = np.random.default_rng(seed)
    g_mean, g_cov = rng.normal(size=m), random_spd(rng, m)
    f_mean, f_cov = g_mean + 0.8 * np.sqrt(np.diag(g_cov)), 1.3 * g_cov
    xs = np.vstack([
        rng.multivariate_normal(g_mean, g_cov, size=n // 2),
        rng.multivariate_normal(f_mean, f_cov, size=n - n // 2),
    ])
    return (g_mean, g_cov), (f_mean, f_cov), xs


def gap(r, reference):
    return abs(r - reference) / max(1.0, abs(reference))


def assert_converges(gaps):
    """The gap to the limit is below 1e4 / strength, and falls about as 1 / strength."""
    for strength, value in gaps.items():
        assert value < 1e4 / strength, gaps
    assert gaps[STRENGTHS[1]] < gaps[STRENGTHS[0]] / 50, gaps


@pytest.mark.parametrize("known_g", [False, True], ids=["g-state", "g-known"])
@pytest.mark.parametrize("m", DIMENSIONS)
def test_concentrated_states_give_the_known_parameter_log_odds(m, known_g):
    # measured relative gaps at strength 1e4 / 1e6: at most 2.1e-2 / 2.2e-4 with a g-state
    # (m = 12) and 1.3e-4 / 1.3e-6 with g known (m = 2)
    g, f, xs = change_stream(m, seed=200 + m)
    state = DetectorState()
    prior = GeometricPrior(RHO)
    for x in xs:
        state = update(state, x, GaussianParams(*g), GaussianParams(*f), prior)
    assert state.log_odds > 5  # the change shows, so the limit is not trivial
    gaps = {}
    for s in STRENGTHS:
        g_law = g if known_g else niw_concentrated(*g, s)
        gaps[s] = gap(niw_log_odds(xs, RHO, niw_concentrated(*f, s), g_law), state.log_odds)
    assert_converges(gaps)


@pytest.mark.parametrize("m", DIMENSIONS)
def test_a_concentrated_g_state_gives_the_known_g_log_odds(m):
    # measured relative gaps at strength 1e4 / 1e6: at most 2.1e-1 / 2.2e-3 (m = 7)
    g, _, xs = change_stream(m, seed=300 + m)
    vague = niw_vague(*g)
    known = niw_log_odds(xs, RHO, vague, g)
    gaps = {s: gap(niw_log_odds(xs, RHO, vague, niw_concentrated(*g, s)), known) for s in STRENGTHS}
    assert_converges(gaps)
