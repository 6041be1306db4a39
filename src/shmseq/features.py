"""Damage-sensitive feature extraction: chunking, normalization, AR fitting.

A raw acceleration stream is split into fixed-size chunks. Each chunk is
standardized to zero mean / unit sample standard deviation and fitted with an
autoregressive model by ordinary least squares on the lagged regressors; the
fitted coefficients form one feature vector per chunk. Model order can be
fixed or chosen by AIC on healthy-regime data.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import NonFiniteSignal, SingularDesign, ZeroVariance

STD_FLOOR = 1e-12  # a chunk with a smaller standard deviation is a dead sensor


@dataclass
class SignalChunk:
    """One fixed-length window of a single sensor's signal."""

    sensor_id: int
    chunk_index: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float).ravel()
        if self.samples.size < 2:
            raise ValueError("a chunk needs at least two samples")


@dataclass
class ArModel:
    """Fitted autoregressive model of one chunk."""

    order: int
    coefficients: np.ndarray
    residual_variance: float

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float).ravel()
        if self.order < 1:
            raise ValueError("AR order must be >= 1")
        if self.coefficients.size != self.order:
            raise ValueError("coefficient count must equal the order")
        if self.residual_variance < 0:
            raise ValueError("residual variance must be non-negative")


@dataclass(frozen=True)
class DsfConfig:
    """Extraction settings: chunk size, AR order, optional coefficient subset.

    ``coef_indices`` selects 1-based AR coefficient indices; by default all
    ``order`` coefficients are used. The feature dimension is fixed by the
    config for the whole stream.
    """

    chunk_size: int
    order: int = 7
    coef_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("AR order must be >= 1")
        if self.chunk_size <= self.order + 1:
            raise ValueError("chunk_size must exceed order + 1")
        if self.coef_indices is not None:
            idx = tuple(sorted(set(int(i) for i in self.coef_indices)))
            if not idx or idx[0] < 1 or idx[-1] > self.order:
                raise ValueError("coef_indices must be within 1..order")
            object.__setattr__(self, "coef_indices", idx)

    @property
    def dim(self) -> int:
        return self.order if self.coef_indices is None else len(self.coef_indices)


def normalize_chunk(chunk: SignalChunk) -> np.ndarray:
    """Standardize a chunk to zero mean and unit sample (n-1) standard deviation.

    Raises NonFiniteSignal when a sample is nan or inf, and ZeroVariance when
    the chunk standard deviation is below ``STD_FLOOR``, which signals a dead
    or saturated sensor.
    """
    x = chunk.samples
    if not np.isfinite(x).all():
        bad = int(np.count_nonzero(~np.isfinite(x)))
        raise NonFiniteSignal(f"{bad} of {x.size} samples are nan or inf")
    mu = float(x.mean())
    sigma = float(x.std(ddof=1))
    if sigma < STD_FLOOR:
        raise ZeroVariance(f"standard deviation {sigma:.3e} below floor {STD_FLOOR:.0e}")
    return (x - mu) / sigma


@contextmanager
def _located(chunk: SignalChunk) -> Iterator[None]:
    """Add ``sensor S chunk K: `` and ``sensor_id``/``chunk_index`` to a chunk failure."""
    try:
        yield
    except (NonFiniteSignal, ZeroVariance, SingularDesign) as err:
        err.args = (f"sensor {chunk.sensor_id} chunk {chunk.chunk_index}: {err}",)
        err.sensor_id, err.chunk_index = chunk.sensor_id, chunk.chunk_index
        raise


def fit_ar(normalized: np.ndarray, p: int) -> ArModel:
    """Fit an AR(p) model by least squares over the lagged regressors.

    The input is expected to be a normalized (zero-mean) chunk, so no
    intercept term is included. The coefficients minimize the sum of squared
    one-step prediction residuals over the last M - p samples and the
    residual variance is RSS / (M - p).
    """
    x = np.asarray(normalized, dtype=float).ravel()
    m_len = x.size
    if p < 1:
        raise ValueError("AR order must be >= 1")
    if m_len <= p + 1:
        raise ValueError(f"need more than {p + 1} samples to fit AR({p}), got {m_len}")
    design = np.stack([x[p - j : m_len - j] for j in range(1, p + 1)], axis=1)
    target = x[p:]
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < p:
        raise SingularDesign(f"lag regressor matrix is rank deficient (rank {rank} < {p})")
    resid = target - design @ coef
    rss = float(resid @ resid)
    return ArModel(order=p, coefficients=coef, residual_variance=rss / (m_len - p))


def aic_values(chunks: Sequence[SignalChunk], p_max: int) -> np.ndarray:
    """Per-order AIC curve, averaged across chunks, for orders 1..p_max.

    Each chunk contributes M * ln(RSS(p) / (M - p)) + 2p, i.e. the log of
    the per-residual variance. Normalizing RSS by the residual count M - p
    (not M) matters: RSS loses one term per added order, and dividing by M
    would cancel the 2p penalty almost exactly, leaving order selection to
    a coin flip. A chunk-level failure names its sensor and chunk.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if not chunks:
        raise ValueError("need at least one chunk")
    curves = np.empty((len(chunks), p_max))
    for i, chunk in enumerate(chunks):
        with _located(chunk), np.errstate(divide="ignore"):
            z = normalize_chunk(chunk)
            for p in range(1, p_max + 1):
                curves[i, p - 1] = z.size * np.log(fit_ar(z, p).residual_variance) + 2 * p
    return curves.mean(axis=0)


def select_order(chunks: Sequence[SignalChunk], p_max: int) -> int:
    """Order with the smallest average AIC; ties break toward the smaller order.

    The chunks must come from the healthy regime only: order selection on
    post-damage data is not meaningful because the damage case is unknown
    in advance.
    """
    return int(np.argmin(aic_values(chunks, p_max))) + 1


def iter_chunks(samples: np.ndarray, chunk_size: int, sensor_id: int = 0) -> Iterator[SignalChunk]:
    """Split a stream into complete chunks; a trailing partial chunk is dropped."""
    x = np.asarray(samples, dtype=float).ravel()
    for k in range(x.size // chunk_size):
        yield SignalChunk(
            sensor_id=sensor_id,
            chunk_index=k + 1,
            samples=x[k * chunk_size : (k + 1) * chunk_size],
        )


def extract_dsf_stream(
    samples: np.ndarray, config: DsfConfig, *, sensor_id: int = 0
) -> np.ndarray:
    """Turn a raw stream into an (N, ``config.dim``) feature matrix, one row per complete chunk.

    Row k holds the features of chunk k + 1. Extraction is deterministic:
    identical input bytes produce identical features. A chunk-level failure
    names its sensor and chunk.
    """
    chunks = list(iter_chunks(samples, config.chunk_size, sensor_id))
    coefs = slice(None) if config.coef_indices is None else np.asarray(config.coef_indices) - 1
    out = np.empty((len(chunks), config.dim))
    for row, chunk in zip(out, chunks):
        with _located(chunk):
            row[:] = fit_ar(normalize_chunk(chunk), config.order).coefficients[coefs]
    return out
