"""The Normal-Inverse-Wishart reference marginal against its Student-t predictives.

``helpers.niw_log_marginal`` is the closed form that a marginal-likelihood
score of the adaptive detector is to be checked against. Here it is
checked alone: the marginal of one vector is the multivariate Student-t
predictive (scipy's ``multivariate_t``), and the marginal of two vectors is
the first predictive times the second, after the first vector's update.
Both NIW forms are covered: the vague prior about a fitted g and the state
seeded from training vectors.
"""

import numpy as np
import pytest
from scipy.stats import multivariate_t

from helpers import niw_log_marginal, niw_predictive, niw_seeded, niw_update, niw_vague, random_spd

DIMENSIONS = [1, 2, 7, 12]
RTOL = 1e-10


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
