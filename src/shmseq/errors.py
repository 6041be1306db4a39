"""Exception types shared across the toolkit, and the one integer check."""

import numbers


class ShmSeqError(Exception):
    """Base class for all shmseq errors."""


class ZeroVariance(ShmSeqError):
    """A signal chunk has (near-)zero standard deviation, e.g. a dead sensor."""


class NonFiniteSignal(ShmSeqError):
    """A signal chunk or a detector's feature sample holds nan or inf values.

    Also raised for a chunk of finite samples whose variance (or, in ``fit_ar``,
    sum of squares) overflows the float range.
    """


class SingularDesign(ShmSeqError):
    """The AR lag regressor matrix is rank deficient."""


class NotPositiveDefinite(ShmSeqError):
    """A covariance matrix is not positive definite above the floor."""


class DimensionMismatch(ShmSeqError):
    """Vector/matrix dimensions of two distributions do not agree."""


class DegenerateDelay(ShmSeqError):
    """The delay formula denominator is zero (no prior drift and zero divergence)."""


class EmptyStream(ShmSeqError):
    """An estimator was asked to fit parameters from zero samples."""


class EstimatesUnready(ShmSeqError):
    """Post-change estimates requested before the warm-up sample count is reached."""


class InsufficientTraining(ShmSeqError):
    """Too few training vectors to fit a baseline distribution."""


class EigenFailure(ShmSeqError):
    """The structural eigenproblem could not be solved."""


class ConfigError(ShmSeqError):
    """Invalid, inconsistent or unparsable pipeline configuration or input file."""


def integer(name: str, value):
    """``value`` if it is an integer, numpy integers included; otherwise a ValueError naming ``name``.

    A bool, a float or a string is not converted, even when it holds a whole number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value
