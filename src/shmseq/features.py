"""Damage-sensitive feature extraction: chunking, normalization, AR fitting.

A raw acceleration stream is split into fixed-size chunks. Each chunk is
standardized to zero mean / unit sample standard deviation and fitted with an
autoregressive model by ordinary least squares on the lagged regressors; the
fitted coefficients form one feature vector per chunk. Model order can be
fixed or chosen by AIC on healthy-regime data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteSignal, ShmSeqError, SingularDesign, ZeroVariance, integer

STD_FLOOR = 1e-12  # a chunk with a smaller standard deviation is a dead sensor
# A lag matrix whose Gram matrix has lambda_min <= SINGULAR_RATIO * lambda_max (condition
# number 1e5 or more) is rank deficient: SingularDesign.
SINGULAR_RATIO = 1e-10
# RSS = y'y - c'beta from cross-products is off by up to about 3e-13 * y'y * (1 + |beta|_1)^2
# / M (measured at M = 400), so the AIC term M * ln(RSS) by 3e-13 over that ratio. A fit
# whose RSS is below RSS_CANCEL * y'y * (1 + |beta|_1)^2, a near-exact one, is refit with
# explicit residuals; every other AIC value stays within about 3e-11 of them.
RSS_CANCEL = 1e-2
# Feature extraction and AIC standardize and fit a record's chunks in blocks whose lag rows,
# (p + 1) rows of M floats per chunk, fill about this many bytes, so their work arrays stay
# O(block) whatever the record length.
BLOCK_BYTES = 2**20


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
    config for the whole stream. ``chunk_size``, ``order`` and each index
    must be integers (numpy integers too); a float, bool or string raises.
    """

    chunk_size: int
    order: int = 7
    coef_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        integer("chunk_size", self.chunk_size)
        if integer("order", self.order) < 1:
            raise ValueError("AR order must be >= 1")
        if self.chunk_size <= self.order + 1:
            raise ValueError("chunk_size must exceed order + 1")
        if self.coef_indices is not None:
            idx = tuple(sorted({int(integer("coef_indices entry", i)) for i in self.coef_indices}))
            if not idx or idx[0] < 1 or idx[-1] > self.order:
                raise ValueError("coef_indices must be within 1..order")
            object.__setattr__(self, "coef_indices", idx)

    @property
    def dim(self) -> int:
        return self.order if self.coef_indices is None else len(self.coef_indices)


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardize each row of x (K, M) to zero mean and unit sample (n-1) standard deviation.

    Also returns the mask of rows that cannot be standardized: a nan or inf
    sample, or a standard deviation below ``STD_FLOOR``. Those rows come back
    as zeros, and none of them emits a RuntimeWarning.
    """
    m_len = x.shape[1]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        dev = x - x.sum(axis=1, keepdims=True) / m_len
        sigma = np.sqrt((dev * dev).sum(axis=1, keepdims=True) / (m_len - 1))
        z = np.divide(dev, sigma, out=dev)
    bad = ~(sigma[:, 0] >= STD_FLOOR)
    if bad.any():
        z[bad] = 0.0
    return z, bad


def _standardize_error(x: np.ndarray) -> ShmSeqError:
    """The error of a chunk that ``_standardize`` rejected; non-finite samples come first."""
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        return NonFiniteSignal(f"{bad} of {x.size} samples are nan or inf")
    sigma = float(x.std(ddof=1))
    return ZeroVariance(f"standard deviation {sigma:.3e} below floor {STD_FLOOR:.0e}")


def _singular(rank: int, p: int) -> SingularDesign:
    return SingularDesign(f"lag regressor matrix is rank deficient (rank {rank} < {p})")


def normalize_chunk(chunk: SignalChunk) -> np.ndarray:
    """Standardize a chunk to zero mean and unit sample (n-1) standard deviation.

    Raises NonFiniteSignal when a sample is nan or inf, and ZeroVariance when
    the chunk standard deviation is below ``STD_FLOOR``, which signals a dead
    or saturated sensor.
    """
    z, bad = _standardize(chunk.samples[None, :])
    if bad[0]:
        raise _standardize_error(chunk.samples)
    return z[0]


def _located(err: ShmSeqError, chunk: SignalChunk) -> ShmSeqError:
    """``err`` with ``sensor S chunk K: `` and ``sensor_id``/``chunk_index`` added."""
    err.args = (f"sensor {chunk.sensor_id} chunk {chunk.chunk_index}: {err}",)
    err.sensor_id, err.chunk_index = chunk.sensor_id, chunk.chunk_index
    return err


def _require_samples(m_len: int, p: int) -> None:
    if m_len <= p + 1:
        raise ValueError(f"need more than {p + 1} samples to fit AR({p}), got {m_len}")


def _blocks(n: int, p: int, m_len: int):
    """Slices covering rows 0..n-1, each block's lag rows within ``BLOCK_BYTES`` (or one row)."""
    step = max(1, BLOCK_BYTES // (8 * (p + 1) * m_len))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _ranked(gram: np.ndarray, rows: np.ndarray | slice = slice(None)):
    """The numerical rank of each (p, p) Gram matrix in gram[rows], and gram ready to solve.

    The rank counts the eigenvalues above ``SINGULAR_RATIO`` times the
    largest, so it is below p exactly when lambda_min <= ``SINGULAR_RATIO``
    * lambda_max. When one is, a copy of gram is returned in which each such
    matrix is the identity, so that a stacked solve cannot fail on it.
    """
    p = gram.shape[-1]
    eig = np.linalg.eigvalsh(gram[rows])
    singular = eig[:, 0] <= SINGULAR_RATIO * eig[:, -1]
    rank = np.full(len(eig), p)
    if singular.any():
        low = eig[singular]
        rank[singular] = np.count_nonzero(low > SINGULAR_RATIO * low[:, -1:], axis=1)
        gram = gram.copy()
        gram[np.arange(len(gram))[rows][singular]] = np.eye(p)
    return rank, gram


def _fit_stack(
    z: np.ndarray, p: int, with_rss: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Fit AR(p) to every row of z (K, M) by least squares in one stacked solve.

    Row k is fitted as ``fit_ar`` describes, through its normal equations:
    the (K, p, p) Gram matrices of the lag regressors are formed with one
    batched product and solved with one ``np.linalg.solve``. Returns the
    (K, p) coefficients, each row's numerical rank (``_ranked``) and, with
    ``with_rss``, each row's residual sum of squares, from explicit
    residuals. A row of rank < p is singular; its coefficients are
    meaningless. The work arrays hold a (K, p, M - 1) lag tensor, so the
    callers that fit a whole record pass one block of rows at a time
    (``_blocks``); no row's result depends on which rows share its call.
    """
    m_len = z.shape[1]
    _require_samples(m_len, p)
    # design[:, j, t - p] is z[:, t - 1 - j], lag j + 1 of the target z[:, t]
    lags = np.empty((len(z), p, m_len - 1))
    for j in range(p):
        lags[:, j, p - 1 :] = z[:, p - 1 - j : m_len - 1 - j]
    design = lags[:, :, p - 1 :]
    target = z[:, p:, None]
    rank, gram = _ranked(design @ design.transpose(0, 2, 1))
    coef = np.linalg.solve(gram, design @ target)
    if not with_rss:
        return coef[:, :, 0], rank, None
    resid = target[:, :, 0] - (coef.transpose(0, 2, 1) @ design)[:, 0]
    return coef[:, :, 0], rank, np.einsum("km,km->k", resid, resid)


def _aic_curves(z: np.ndarray, p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's AIC curve and numerical rank at orders 1..p_max, as two (K, p_max) arrays.

    Row k at order p is what ``_fit_stack(z, p, with_rss=True)`` gives, up
    to round-off, from the normal equations of its own rows t = p..M-1: one
    batched product forms the cross-products of the target and lags
    1..p_max over the rows t >= p_max that every order shares. Walking p
    down, each row t = p..p_max-1 is added as a rank-one update, and
    RSS(p) = y'y - c'beta comes from one batched solve of size p. A row
    passes every order at once when, on the shared rows, lambda_min >
    ``SINGULAR_RATIO`` * (lambda_max + the squared norms of the added
    rows): adding rows only raises lambda_min and raises lambda_max by at
    most that sum (interlacing). Only rows that fail this screen get one
    ``eigvalsh`` per order, and their ranks use ``_ranked``'s rule. A
    full-rank fit whose RSS cancels (see ``RSS_CANCEL``) takes its RSS from
    ``_fit_stack`` instead.
    """
    m_len = z.shape[1]
    _require_samples(m_len, p_max)
    # window[:, s, i] is z[:, t - i] for t = M - 1 - s >= p_max: the target, then its lags
    window = sliding_window_view(z[:, ::-1], p_max + 1, axis=1)
    cross = window.transpose(0, 2, 1) @ window
    eig = np.linalg.eigvalsh(cross[:, 1:, 1:])
    added = np.cumsum(z[:, : p_max - 1] ** 2, axis=1).sum(axis=1)
    unscreened = np.flatnonzero(~(eig[:, 0] > SINGULAR_RATIO * (eig[:, -1] + added)))
    orders = np.arange(1, p_max + 1)
    curves = np.empty((len(z), p_max))
    ranks = np.tile(orders, (len(z), 1))
    for p in orders[::-1]:
        if p < p_max:
            row = z[:, p::-1]  # z[t], z[t - 1], ..., z[t - p] at t = p
            cross[:, : p + 1, : p + 1] += row[:, :, None] * row[:, None, :]
        gram, c = cross[:, 1 : p + 1, 1 : p + 1], cross[:, 1 : p + 1, 0]
        if unscreened.size:
            ranks[unscreened, p - 1], gram = _ranked(gram, unscreened)
        beta = np.linalg.solve(gram, c[:, :, None])[:, :, 0]
        yy = cross[:, 0, 0]
        rss = yy - np.einsum("kp,kp->k", c, beta)
        scale = yy * (1 + np.abs(beta).sum(axis=1)) ** 2
        cancelled = (ranks[:, p - 1] == p) & ~(rss > RSS_CANCEL * scale)
        if cancelled.any():
            rss[cancelled] = _fit_stack(z[cancelled], p, with_rss=True)[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            curves[:, p - 1] = m_len * np.log(rss / (m_len - p)) + 2 * p
    return curves, ranks


def _fit_rows(
    chunk_at: Callable[[int], SignalChunk],
    x: np.ndarray,
    bad: np.ndarray,
    ranks: np.ndarray,
    orders: Sequence[int],
    skipped: list[ShmSeqError] | None,
) -> np.ndarray:
    """The mask of the chunks that can be fit, after handling those that cannot.

    ``x[i]`` holds chunk i's raw samples, ``bad`` marks the chunks ``_standardize``
    rejected and ``ranks[i, j]`` is row i's rank at AR order ``orders[j]``.
    Within a chunk a non-finite sample comes first, then zero variance, then
    the lowest order whose lag matrix is singular; the error names the
    chunk ``chunk_at(i)``. With a ``skipped`` list every failing chunk's
    error is appended to it, in chunk order, and the first raises only when
    no chunk is left; without one the first raises.
    """
    deficient = ranks < orders
    failing = bad | deficient.any(axis=1)
    if not failing.any():
        return ~failing
    errors = []
    for i in np.flatnonzero(failing):
        if bad[i]:
            err = _standardize_error(x[i])
        else:
            j = int(np.argmax(deficient[i]))
            err = _singular(int(ranks[i, j]), int(orders[j]))
        errors.append(_located(err, chunk_at(int(i))))
        if skipped is None:
            raise errors[0]
    skipped.extend(errors)
    if failing.all():
        raise errors[0]
    return ~failing


def fit_ar(normalized: np.ndarray, p: int) -> ArModel:
    """Fit an AR(p) model by least squares over the lagged regressors.

    The input is expected to be a normalized (zero-mean) chunk, so no
    intercept term is included. The coefficients minimize the sum of squared
    one-step prediction residuals over the last M - p samples and the
    residual variance is RSS / (M - p). The lag matrix counts as rank
    deficient (``SingularDesign``) when the smallest eigenvalue of its Gram
    matrix is at most ``SINGULAR_RATIO`` times the largest, i.e. when its
    condition number is 1e5 or more. That is stricter than an SVD rank at
    machine precision, which the Gram matrix cannot give without an SVD of
    its own. A nan or inf sample raises NonFiniteSignal. ``p`` is an integer
    (numpy integers too).
    """
    x = np.asarray(normalized, dtype=float).ravel()
    if integer("p", p) < 1:
        raise ValueError("AR order must be >= 1")
    if not np.isfinite(x).all():
        raise _standardize_error(x)
    coef, rank, rss = _fit_stack(x[None, :], p, with_rss=True)
    if rank[0] < p:
        raise _singular(int(rank[0]), p)
    return ArModel(order=p, coefficients=coef[0], residual_variance=float(rss[0]) / (x.size - p))


def aic_values(
    chunks: Sequence[SignalChunk], p_max: int, skipped: list[ShmSeqError] | None = None
) -> np.ndarray:
    """Per-order AIC curve, averaged across chunks, for orders 1..p_max.

    Each chunk contributes M * ln(RSS(p) / (M - p)) + 2p, i.e. the log of
    the per-residual variance. Normalizing RSS by the residual count M - p
    (not M) matters: RSS loses one term per added order, and dividing by M
    would cancel the 2p penalty almost exactly, leaving order selection to
    a coin flip. ``p_max`` is an integer (numpy integers too), and the
    chunks must all have the same length M; chunks of unequal length are a
    ValueError. Each order is fitted on its own
    residual rows t = p..M-1, as ``fit_ar`` fits it, but all orders of a
    chunk come from one cross-product of the target and lags 1..p_max,
    updated by the rows that each lower order adds, plus one small batched
    solve per order. The chunks are stacked, standardized and fitted one
    block at a time (``BLOCK_BYTES``), so the work arrays stay O(block)
    however many chunks there are. The first chunk that cannot be fit
    raises, naming its sensor and chunk, with its lowest failing order.
    With a ``skipped`` list, every such chunk's error is appended to it and
    the chunk is left out of the average; the first still raises when no
    chunk is left.
    """
    if integer("p_max", p_max) < 1:
        raise ValueError("p_max must be >= 1")
    if not chunks:
        raise ValueError("need at least one chunk")
    samples = [c.samples for c in chunks]
    m_len = samples[0].size
    if any(s.size != m_len for s in samples):
        raise ValueError(f"chunks must have equal lengths, got {sorted({s.size for s in samples})}")
    curves = np.empty((len(chunks), p_max))
    ranks = np.empty((len(chunks), p_max), dtype=int)
    bad = np.empty(len(chunks), dtype=bool)
    for rows in _blocks(len(chunks), p_max, m_len):
        z, bad[rows] = _standardize(np.stack(samples[rows]))
        curves[rows], ranks[rows] = _aic_curves(z, p_max)
    keep = _fit_rows(chunks.__getitem__, samples, bad, ranks, range(1, p_max + 1), skipped)
    return curves[keep].mean(axis=0)


def select_order(
    chunks: Sequence[SignalChunk], p_max: int, skipped: list[ShmSeqError] | None = None
) -> int:
    """Order with the smallest average AIC; ties break toward the smaller order.

    The chunks must come from the healthy regime only: order selection on
    post-damage data is not meaningful because the damage case is unknown
    in advance. ``skipped`` is as for ``aic_values``.
    """
    return int(np.argmin(aic_values(chunks, p_max, skipped))) + 1


def extract_dsf_stream(
    samples: np.ndarray,
    config: DsfConfig,
    *,
    sensor_id: int = 0,
    skipped: list[ShmSeqError] | None = None,
) -> np.ndarray:
    """Turn a raw stream into an (N, ``config.dim``) feature matrix, one row per complete chunk.

    Row k holds the features of chunk k + 1. The chunks are standardized
    and fitted one block at a time (``BLOCK_BYTES``), so beyond the input
    and the (N, ``config.order``) coefficients the peak holds one block's
    work arrays, however long the stream. Extraction is deterministic:
    identical input bytes produce identical features, whatever the block
    size. The first chunk that cannot be fit raises, naming its sensor and
    chunk. With a ``skipped`` list, as for ``aic_values``, every such
    chunk's error is appended to it and its row is left out; the first
    still raises when no row is left. ``samples`` is one stream: a 1-D
    array or a single column (or row); an array of several columns, such as
    two sensors side by side, is a ValueError.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim > 1 and x.size not in x.shape:
        raise ValueError(f"extract_dsf_stream takes one stream, got an array of shape {x.shape}")
    x = x.ravel()
    n, m_len, p = x.size // config.chunk_size, config.chunk_size, config.order
    x = x[: n * m_len].reshape(n, m_len)
    coef = np.empty((n, p))
    rank = np.empty(n, dtype=int)
    bad = np.empty(n, dtype=bool)
    for rows in _blocks(n, p, m_len):
        z, bad[rows] = _standardize(x[rows])
        coef[rows], rank[rows], _ = _fit_stack(z, p)
    if bad.any() or (rank < p).any():
        keep = _fit_rows(
            lambda i: SignalChunk(sensor_id, i + 1, x[i]), x, bad, rank[:, None], [p], skipped
        )
        coef = coef[keep]
    return coef if config.coef_indices is None else coef[:, np.asarray(config.coef_indices) - 1]
