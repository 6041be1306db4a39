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
# Feature extraction and AIC standardize and fit a record's chunks in blocks whose work arrays
# fill about this many bytes, each routine counting the floats it holds per chunk
# (``_blocks``), so their memory stays O(block) whatever the record length.
BLOCK_BYTES = 2**20


@dataclass
class SignalChunk:
    """One fixed-length window of a single sensor's signal."""

    sensor_id: int
    chunk_index: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = _real(self.samples).ravel()
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


def _real(samples) -> np.ndarray:
    """``samples`` as a float array; a complex array raises ``ValueError`` naming its dtype.

    ``np.asarray(..., dtype=float)`` would keep only the real part of a
    complex array, with a ``ComplexWarning``.
    """
    x = np.asarray(samples)
    if x.dtype.kind == "c":
        raise ValueError(f"samples must be real, got dtype {x.dtype}")
    return x.astype(float, copy=False)


@np.errstate(invalid="ignore", over="ignore", divide="ignore")
def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardize each row of x (K, M) to zero mean and unit sample (n-1) standard deviation.

    Also returns each row's standard deviation sigma, as a (K, 1) array. A
    row that cannot be standardized (``_rejected``) comes back as nan, inf or
    zeros, and none emits a RuntimeWarning.
    """
    m_len = x.shape[1]
    dev = x - np.add.reduce(x, 1, keepdims=True) / m_len
    sigma = np.sqrt(np.add.reduce(dev * dev, 1, keepdims=True) / (m_len - 1))
    dev /= sigma
    return dev, sigma


def _rejected(z: np.ndarray, sigma: np.ndarray) -> np.ndarray | None:
    """The mask of the rows ``_standardize`` could not standardize, after zeroing them in z.

    A row is rejected when its sigma is not a finite number of at least
    ``STD_FLOOR``: a nan or inf sample, a dead sensor, or a sum of squares
    beyond the float range. None when the smallest and largest sigma pass.
    """
    if STD_FLOOR <= np.minimum.reduce(sigma, None) and np.maximum.reduce(sigma, None) < np.inf:
        return None
    bad = ~((sigma[:, 0] >= STD_FLOOR) & (sigma[:, 0] < np.inf))
    z[bad] = 0.0
    return bad


def _standardize_error(x: np.ndarray) -> ShmSeqError:
    """The error of a chunk that ``_rejected`` marks: non-finite samples come first.

    A chunk of finite samples is rejected for a standard deviation below
    ``STD_FLOOR`` or for a sum of squares beyond the float range.
    """
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        return NonFiniteSignal(f"{bad} of {x.size} samples are nan or inf")
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = float(x.std(ddof=1))
    if sigma < STD_FLOOR:
        return ZeroVariance(f"standard deviation {sigma:.3e} below floor {STD_FLOOR:.0e}")
    # sigma is inf, or nan where partial sums overflowed to both signs
    return NonFiniteSignal(f"variance of {x.size} finite samples overflows")


def _singular(rank: int, p: int) -> SingularDesign:
    return SingularDesign(f"lag regressor matrix is rank deficient (rank {rank} < {p})")


def normalize_chunk(chunk: SignalChunk) -> np.ndarray:
    """Standardize a chunk to zero mean and unit sample (n-1) standard deviation.

    Raises NonFiniteSignal when a sample is nan or inf or the variance
    overflows, and ZeroVariance when the chunk standard deviation is below
    ``STD_FLOOR``, which signals a dead or saturated sensor.
    """
    z, sigma = _standardize(chunk.samples[None, :])
    if _rejected(z, sigma) is not None:
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


def _blocks(n: int, floats: int):
    """Slices covering rows 0..n-1, each block's ``floats`` per row within ``BLOCK_BYTES``.

    ``floats`` counts what the caller's work arrays hold per row: for a fit
    at order p, the (p + 1) * M floats of ``_lagged``'s lag rows and
    targets; for AIC, the count that ``aic_values`` gives. A row larger
    than the budget is a block of its own.
    """
    step = max(1, BLOCK_BYTES // (8 * floats))
    return map(slice, range(0, n, step), range(step, n + step, step))


def _ranked(gram: np.ndarray, eig: np.ndarray, rows: np.ndarray | slice = slice(None)):
    """The numerical rank of each (p, p) Gram matrix in gram[rows], and gram ready to solve.

    ``eig`` holds the ascending eigenvalues of gram[rows]. The rank counts
    those above ``SINGULAR_RATIO`` times the largest, so it is below p
    exactly when lambda_min <= ``SINGULAR_RATIO`` * lambda_max. When one is,
    a copy of gram is returned in which each such matrix is the identity, so
    that a stacked solve cannot fail on it.
    """
    rank = np.count_nonzero(eig > SINGULAR_RATIO * eig[:, -1:], axis=1)
    singular = rank < gram.shape[-1]
    if singular.any():
        gram = gram.copy()
        gram[np.arange(len(gram))[rows][singular]] = np.eye(gram.shape[-1])
    return rank, gram


def _lagged(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (K, p, M - p) lag regressors of each row of z (K, M) and its (K, M - p, 1) targets.

    design[:, j, t - p] is z[:, t - 1 - j], lag j + 1 of the target z[:, t],
    for t = p..M-1.
    """
    m_len = z.shape[1]
    design = np.empty((len(z), p, m_len - p))
    for j in range(p):
        design[:, j] = z[:, p - 1 - j : m_len - 1 - j]
    return design, z[:, p:, None]


def _clears(gram: np.ndarray, floor) -> bool:
    """Whether every (p, p) matrix in the finite stack gram has lambda_min > ``floor``.

    ``floor`` is a scalar, or one value per matrix shaped to broadcast
    against gram, such as (K, 1, 1). One stacked Cholesky of gram - floor * I
    answers it: it completes exactly when every shifted matrix is positive
    definite, up to rounding of order u * |gram| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 10), at a fraction of
    the cost of an ``eigvalsh``. A nan would pass unseen, so gram must be
    finite, as the Gram matrices of finite rows are.
    """
    try:
        np.linalg.cholesky(gram - floor * np.eye(gram.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _fit_stack(z: np.ndarray, p: int, norm2: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Fit AR(p) to every row of z (K, M) by least squares in one stacked solve.

    Row k is fitted as ``fit_ar`` describes, through its normal equations:
    one batched product forms the (K, p, p) Gram matrices of the lag
    regressors, one Cholesky screens them (``_clears``) and one
    ``np.linalg.solve`` solves them. ``norm2`` bounds the squared norm of
    every row: a standardized chunk's is M - 1, so M bounds it with room for
    round-off. Each lag row is part of its row of z, so lambda_max <= trace
    <= p * norm2. When every Gram matrix of the block has lambda_min above
    ``SINGULAR_RATIO`` * p * norm2, every row passes ``_ranked``'s test,
    and the ranks come back as None. Otherwise one ``eigvalsh`` gives them
    row by row: a row ``_rejected`` zeroed has rank 0, and one of rank < p
    has meaningless coefficients. The coefficients come from the same solve
    either way. The work arrays hold a (K, p, M - p) lag tensor, so the
    callers that fit a whole record pass one block of rows at a time, sized
    by (p + 1) * M floats per row (``_blocks``); no row's result depends on
    which rows share its call.
    """
    design, target = _lagged(z, p)
    gram = design @ design.transpose(0, 2, 1)
    rank = None
    if not _clears(gram, SINGULAR_RATIO * p * norm2):
        rank, gram = _ranked(gram, np.linalg.eigvalsh(gram))
    return np.linalg.solve(gram, design @ target)[:, :, 0], rank


def _rss(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Each row's residual sum of squares under its (K, p) AR coefficients, from explicit residuals."""
    design, target = _lagged(z, coef.shape[1])
    resid = target[:, :, 0] - (coef[:, None, :] @ design)[:, 0]
    return np.einsum("km,km->k", resid, resid)


def _aic_curves(z: np.ndarray, p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's AIC curve and numerical rank at orders 1..p_max, as two (K, p_max) arrays.

    Row k at order p is what ``_fit_stack`` and ``_rss`` give, up
    to round-off, from the normal equations of its own rows t = p..M-1: one
    batched product forms the cross-products of the target and lags
    1..p_max over the rows t >= p_max that every order shares. Walking p
    down, each row t = p..p_max-1 is added as a rank-one update, and
    RSS(p) = y'y - c'beta comes from one batched solve of size p. A row
    passes every order at once when, on the shared rows, lambda_min >
    ``SINGULAR_RATIO`` * (lambda_max + the squared norms of the added
    rows): adding rows only raises lambda_min and raises lambda_max by at
    most that sum (interlacing). The trace bounds lambda_max, so a block
    whose shared Gram matrices all clear ``SINGULAR_RATIO`` * (trace + the
    added norms) passes with one Cholesky (``_clears``). Only a block that
    does not pays one ``eigvalsh`` of them for the screen above; only rows
    that fail it get one ``eigvalsh`` per order, and their ranks use
    ``_ranked``'s rule. The order loop makes only the update, the solve
    and the RSS; the cancellation test and the logs run once on the
    (K, p_max) table. A full-rank fit whose RSS cancels (see
    ``RSS_CANCEL``) takes its RSS from ``_fit_stack`` and ``_rss`` instead,
    in blocks of their own (p + 1) * M floats per row, so even a block of
    near-exact fits keeps its refits O(block). The lags are a view of z,
    so the work arrays hold no lag tensor (see ``aic_values``).
    """
    m_len = z.shape[1]
    _require_samples(m_len, p_max)
    # window[:, s, i] is z[:, t - i] for t = M - 1 - s >= p_max: the target, then its lags
    window = sliding_window_view(z[:, ::-1], p_max + 1, axis=1)
    cross = window.transpose(0, 2, 1) @ window
    shared = cross[:, 1:, 1:]
    added = np.cumsum(z[:, : p_max - 1] ** 2, axis=1).sum(axis=1)
    floor = SINGULAR_RATIO * (np.trace(shared, 0, 1, 2) + added)
    unscreened = np.empty(0, dtype=int)
    if not _clears(shared, floor[:, None, None]):
        eig = np.linalg.eigvalsh(shared)
        unscreened = np.flatnonzero(~(eig[:, 0] > SINGULAR_RATIO * (eig[:, -1] + added)))
    orders = np.arange(1, p_max + 1)
    ranks = np.tile(orders, (len(z), 1))
    yy, rss, l1 = np.empty((3, len(z), p_max))  # y'y, RSS and |beta|_1 at each order
    for p in orders[::-1]:
        if p < p_max:
            row = z[:, p::-1]  # z[t], z[t - 1], ..., z[t - p] at t = p
            cross[:, : p + 1, : p + 1] += row[:, :, None] * row[:, None, :]
        gram, c = cross[:, 1 : p + 1, 1 : p + 1], cross[:, 1 : p + 1, 0]
        if unscreened.size:
            eig = np.linalg.eigvalsh(gram[unscreened])
            ranks[unscreened, p - 1], gram = _ranked(gram, eig, unscreened)
        beta = np.linalg.solve(gram, c[:, :, None])[:, :, 0]
        yy[:, p - 1] = cross[:, 0, 0]
        rss[:, p - 1] = yy[:, p - 1] - np.einsum("kp,kp->k", c, beta)
        l1[:, p - 1] = np.abs(beta).sum(axis=1)
    cancelled = (ranks == orders) & ~(rss > RSS_CANCEL * (yy * (1 + l1) ** 2))
    for p in orders[cancelled.any(axis=0)]:
        refit = np.flatnonzero(cancelled[:, p - 1])
        for part in _blocks(refit.size, (p + 1) * m_len):  # _fit_stack's lag tensor
            rows = refit[part]
            rss[rows, p - 1] = _rss(z[rows], _fit_stack(z[rows], p, m_len)[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return m_len * np.log(rss / (m_len - orders)) + 2 * orders, ranks


def _fit_rows(
    chunk_at: Callable[[int], SignalChunk],
    x: np.ndarray,
    ranks: np.ndarray,
    orders: Sequence[int],
    skipped: list[ShmSeqError] | None,
) -> np.ndarray:
    """The mask of the chunks that can be fit, after handling those that cannot.

    ``x[i]`` holds chunk i's raw samples and ``ranks[i, j]`` is row i's
    rank at AR order ``orders[j]``. A chunk fails when a rank is below its
    order. At its lowest failing order, rank 0 is a chunk ``_rejected``
    zeroed (``_standardize_error``) unless the chunk standardizes, to lag
    samples of exactly 0; any other rank is a singular lag matrix. The
    error names the chunk ``chunk_at(i)``. With a ``skipped`` list every
    failing chunk's error is appended to it, in chunk order, and the first
    raises only when no chunk is left; without one the first raises.
    """
    deficient = ranks < orders
    failing = deficient.any(axis=1)
    if not failing.any():
        return ~failing
    errors = []
    for i in np.flatnonzero(failing):
        j = int(np.argmax(deficient[i]))
        rejected = ranks[i, j] == 0 and _rejected(*_standardize(x[i][None, :])) is not None
        err = _standardize_error(x[i]) if rejected else _singular(int(ranks[i, j]), int(orders[j]))
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
    its own. A chunk whose sum of squares is not finite raises as
    ``normalize_chunk`` would: NonFiniteSignal for a nan or inf sample or
    for a variance beyond the float range (a zero-mean chunk's sum of
    squares is M - 1 times its variance); a finite one bounds its Gram
    matrix for ``_fit_stack``. A complex chunk is a ValueError. ``p`` is an
    integer (numpy integers too).
    """
    x = _real(normalized).ravel()
    if integer("p", p) < 1:
        raise ValueError("AR order must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = x @ x
    if not norm2 < np.inf:
        raise _standardize_error(x)
    _require_samples(x.size, p)
    coef, rank = _fit_stack(x[None, :], p, norm2)
    if rank is not None and rank[0] < p:
        raise _singular(int(rank[0]), p)
    rss = float(_rss(x[None, :], coef)[0])
    return ArModel(order=p, coefficients=coef[0], residual_variance=rss / (x.size - p))


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
    block at a time, sized by the floats AIC holds per chunk: 3 * M for the
    samples, their standardized copy and its square, and 4 * (p_max + 1)^2
    for the cross-products and the temporaries of the screen or of one
    order's update and solve. So the work arrays stay within
    ``BLOCK_BYTES``, however many chunks there are. The first chunk that
    cannot be fit raises, naming its sensor and chunk, with its lowest
    failing order.
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
    for rows in _blocks(len(chunks), 3 * m_len + 4 * (p_max + 1) ** 2):
        z, sigma = _standardize(np.stack(samples[rows]))
        _rejected(z, sigma)
        curves[rows], ranks[rows] = _aic_curves(z, p_max)
    keep = _fit_rows(chunks.__getitem__, samples, ranks, range(1, p_max + 1), skipped)
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
    and fitted one block at a time, each block's lag rows, (p + 1) * M
    floats per chunk, within ``BLOCK_BYTES``, so beyond the input and the
    (N, ``config.order``) coefficients the peak holds one block's work
    arrays, however long the stream. A block whose chunks all pass
    costs its arithmetic: the standardization, the lag copies, one Gram
    product, one Cholesky of the Gram matrices shifted down by the singular
    floor, one ``solve`` and two reductions (the smallest and largest sigma;
    see ``_fit_stack``). The Cholesky completes exactly when every Gram
    matrix's smallest eigenvalue clears the floor, the yes/no that an
    ``eigvalsh`` would answer at several times the cost. Only a block where
    it fails pays an ``eigvalsh`` for the ranks: one that holds a failing
    chunk, whose rank is below the order (``_fit_rows``), or rarely one
    within a factor p of the singular limit. Extraction is
    deterministic: identical input bytes produce identical features, whatever
    the block size. The first chunk that cannot be fit raises, naming its
    sensor and chunk. With a ``skipped`` list, as for ``aic_values``, every
    such chunk's error is appended to it and its row is left out; the first
    still raises when no row is left. ``samples`` is one stream: a 1-D array or
    a single column (or row); an array of several columns, such as two sensors
    side by side, is a ValueError, and so is a complex array.
    """
    x = _real(samples)
    if x.ndim > 1 and x.size not in x.shape:
        raise ValueError(f"extract_dsf_stream takes one stream, got an array of shape {x.shape}")
    x = x.ravel()
    n, m_len, p = x.size // config.chunk_size, config.chunk_size, config.order
    x = x[: n * m_len].reshape(n, m_len)
    coef = np.empty((n, p))
    rank = None  # every chunk's, built at the first block that holds a failing chunk
    for rows in _blocks(n, (p + 1) * m_len):
        z, sigma = _standardize(x[rows])
        _rejected(z, sigma)
        coef[rows], block_rank = _fit_stack(z, p, m_len)
        if block_rank is not None:
            if rank is None:
                rank = np.full(n, p)
            rank[rows] = block_rank
    if rank is not None:
        keep = _fit_rows(
            lambda i: SignalChunk(sensor_id, i + 1, x[i]), x, rank[:, None], [p], skipped
        )
        coef = coef[keep]
    return coef if config.coef_indices is None else coef[:, np.asarray(config.coef_indices) - 1]
