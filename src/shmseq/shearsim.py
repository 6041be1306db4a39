"""Seedable linear shear-frame simulator with ground-truth damage labels.

A multi-story building is idealized as lumped story masses connected by
inter-story stiffnesses (diagonal mass matrix, tridiagonal stiffness
matrix) with modal damping. Independent white-noise forces drive every
story. The damping is classical, so each mode is a damped oscillator of its
own (modal superposition), stepped in closed form with the exact
zero-order-hold discretization of its one complex pole: the step update is
unconditionally stable and needs one symmetric eigenproblem per stiffness.
Damage is a stiffness retention factor applied to one story's stiffness,
switched in at the first sample of a known chunk index, which makes every
downstream statistical claim verifiable against ground truth.

Conventions: story s connects floor s to floor s-1 (the ground for s = 1);
sensors measure absolute floor accelerations; the reported signal is the
response plus measurement noise at a configurable SNR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EigenFailure, integer
from .tables import write_signal_csv


def _finite(name: str, value, scalar: bool = False) -> np.ndarray:
    """``value`` as a float array, or a ValueError naming ``name``.

    Every entry must be a finite int or float; a bool or a string is not a
    number here, though numpy would convert either.
    """
    items = np.asarray(value, dtype=object)
    shown = items.tolist()
    if (scalar and items.ndim) or not all(
        isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        for v in items.flat
    ):
        raise ValueError(f"{name} must be {'a number' if scalar else 'numbers'}, got {shown!r}")
    arr = items.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {shown!r}")
    return arr


@dataclass
class ShearFrameModel:
    """Lumped-mass shear building: per-story masses, stiffnesses, modal damping."""

    masses: np.ndarray
    stiffnesses: np.ndarray
    zeta: np.ndarray = 0.02

    def __post_init__(self) -> None:
        self.masses = np.atleast_1d(_finite("masses", self.masses))
        self.stiffnesses = np.atleast_1d(_finite("stiffnesses", self.stiffnesses))
        s = self.masses.size
        if s < 1 or self.stiffnesses.size != s:
            raise ValueError("need one mass and one stiffness per story")
        if np.any(self.masses <= 0) or np.any(self.stiffnesses <= 0):
            raise ValueError("masses and stiffnesses must be positive")
        zeta = _finite("zeta", self.zeta)
        if zeta.ndim == 0:
            zeta = np.full(s, float(zeta))
        if zeta.size != s or np.any(zeta < 0) or np.any(zeta >= 1):
            raise ValueError("need one damping ratio in [0, 1) per mode")
        self.zeta = zeta

    @classmethod
    def uniform(cls, stories: int, mass: float, stiffness: float, zeta: float = 0.02):
        """A model of ``stories`` equal stories; ``stories`` is an integer (numpy integers too).

        ``mass`` and ``stiffness`` reach the constructor unconverted, so a bool or a string raises.
        """
        return cls(
            masses=np.full(integer("stories", stories), mass, dtype=object),
            stiffnesses=np.full(stories, stiffness, dtype=object),
            zeta=zeta,
        )

    @property
    def stories(self) -> int:
        return self.masses.size

    def stiffness_matrix(self, stiffnesses: np.ndarray | None = None) -> np.ndarray:
        """Tridiagonal assembly: K[i,i] = k_i + k_{i+1}, K[i,i+1] = -k_{i+1}.

        ``stiffnesses`` (default: the model's) must be finite numbers, one
        per story; otherwise ValueError.
        """
        k = self.stiffnesses if stiffnesses is None else _finite("stiffnesses", stiffnesses)
        if k.shape != (self.stories,):
            raise ValueError(f"need {self.stories} stiffnesses, one per story, got {k.tolist()!r}")
        above = k[1:]  # above[i] = k_{i+1} joins floor i to floor i + 1
        return np.diag(k + np.append(above, 0.0)) - np.diag(above, 1) - np.diag(above, -1)


@dataclass
class DamageScenario:
    """A single stiffness change: which story, how much is retained, and when.

    ``retention`` is 1 exactly when the scenario is undamaged; a damaged
    scenario needs a story, retention in (0, 1) and the 1-based chunk index
    at which the stiffness switch happens.
    """

    story: int | None = None
    retention: float = 1.0
    lambda_chunk: int | None = None

    def __post_init__(self) -> None:
        self.retention = float(_finite("retention", self.retention, scalar=True))
        for name in ("story", "lambda_chunk"):
            if getattr(self, name) is not None:
                integer(name, getattr(self, name))
        if self.story is None:
            if self.retention != 1.0:
                raise ValueError("an undamaged scenario must retain full stiffness")
        else:
            if not 0.0 < self.retention < 1.0:
                raise ValueError("a damaged scenario needs retention in (0, 1)")
            if self.lambda_chunk is None or self.lambda_chunk < 1:
                raise ValueError("a damaged scenario needs lambda_chunk >= 1")

    @classmethod
    def undamaged(cls) -> "DamageScenario":
        return cls()

    @property
    def is_damaged(self) -> bool:
        return self.story is not None


@dataclass
class Excitation:
    """White-noise forcing: seed, per-story force scale, sampling, duration.

    ``seed`` is a non-negative integer (numpy integers too); a float, bool
    or string raises ``ValueError`` rather than being converted.
    """

    seed: int
    intensity: float
    sample_rate: float
    duration_s: float
    noise_snr_db: float | None = 40.0

    def __post_init__(self) -> None:
        if integer("seed", self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("sample_rate", "duration_s", "intensity"):
            setattr(self, name, float(_finite(name, getattr(self, name), scalar=True)))
        if self.noise_snr_db is not None:  # None: no measurement noise
            self.noise_snr_db = float(_finite("noise_snr_db", self.noise_snr_db, scalar=True))
        if self.sample_rate <= 0 or self.duration_s <= 0:
            raise ValueError("sample_rate and duration_s must be positive")
        if self.sample_rate * self.duration_s == np.inf:
            raise ValueError("sample_rate and duration_s give more samples than a float can count")
        if self.intensity < 0:
            raise ValueError("intensity must be non-negative")

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate * self.duration_s))


def _modal(model: ShearFrameModel, k_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angular frequencies and M-orthonormal mode shapes of K phi = w^2 M phi.

    M is diagonal, so this is the symmetric problem M^-1/2 K M^-1/2 v = w^2 v
    with phi = M^-1/2 v.
    """
    scale = 1.0 / np.sqrt(model.masses)
    try:
        w2, vecs = np.linalg.eigh(k_mat * scale[:, None] * scale[None, :])
    except np.linalg.LinAlgError as err:
        raise EigenFailure(str(err)) from err
    if np.any(w2 <= 0) or not np.all(np.isfinite(w2)):
        raise EigenFailure("non-positive or non-finite eigenvalue; stiffness matrix not PD")
    return np.sqrt(w2), scale[:, None] * vecs


def modal_frequencies(model: ShearFrameModel, stiffnesses: np.ndarray | None = None) -> np.ndarray:
    """Natural frequencies in Hz, ascending, from K phi = w^2 M phi."""
    omega, _ = _modal(model, model.stiffness_matrix(stiffnesses))
    return omega / (2.0 * np.pi)


SCAN = 32  # sub-block length of the first-order scan
BLOCK = 8 * SCAN**2  # force rows projected, scanned and written at a time


def _scan_tables(lam: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The tables of ``_scan`` over n steps: one (Toeplitz, powers) pair per level.

    Level 0 has the poles lam and level l + 1 the poles lam^(SCAN^(l+1)).
    ``powers[i, t]`` is lam_i^t and ``toe[i, j, t]`` is lam_i^(t-1-j) for
    j < t, 0 otherwise (j < SCAN, t <= SCAN). No exponent is negative, so
    poles with |lam| <= 1 give no entry above 1.
    """
    t = np.arange(SCAN + 1)
    lag = t - 1 - np.arange(SCAN)[:, None]  # [j, t] = t - 1 - j
    tables = []
    while True:
        powers = lam[:, None] ** t
        tables.append((np.where(lag >= 0, powers[:, np.maximum(lag, 0)], 0.0), powers))
        if n <= SCAN:
            return tables
        n, lam = n // SCAN, powers[:, SCAN]


def _scan(u: np.ndarray, z0: np.ndarray, tables) -> np.ndarray:
    """The states z[0..n] of z[t+1] = lam z[t] + u[t] from z[0] = z0, one row per pole.

    ``tables`` is ``_scan_tables(lam, n)``. n is at most SCAN or a multiple
    of it, and so is n / SCAN one level down (BLOCK is such an n). The steps
    run in sub-blocks of SCAN: one batched product with the Toeplitz table
    gives every sub-block's states from a zero start and its end state, and
    the sub-blocks' start states are the same recursion with the pole
    lam^SCAN, driven by those end states, one level down.
    """
    toe, powers = tables[0]
    modes, n = u.shape
    if n <= SCAN:
        return z0[:, None] * powers[:, : n + 1] + (u[:, None, :] @ toe[:, :n, : n + 1])[:, 0]
    blocks = n // SCAN
    local = u.reshape(modes, blocks, SCAN) @ toe  # (modes, blocks, SCAN + 1)
    starts = _scan(local[:, :, SCAN], z0, tables[1:])  # (modes, blocks + 1)
    states = starts[:, :blocks, None] * powers[:, None, :SCAN]
    states += local[:, :, :SCAN]  # in place, and local is freed before the concatenation,
    del local  # so at most three (modes, n) arrays are alive at once, u included
    return np.concatenate([states.reshape(modes, n), starts[:, blocks:]], axis=1)


def _modal_response(model: ShearFrameModel, k_mat: np.ndarray, dt: float, source, out, x0):
    """Write into the rows of ``out`` the absolute story accelerations from the state x0.

    The state x = (q, qd) stacks the story displacements and velocities, and
    the final one is returned. The forces u come from ``source``, a callable
    that returns the next ``rows`` force rows, in order, each time it is
    called (see ``_array_source``); ``out`` may be a strided view. The
    damping is classical, so with the M-orthonormal modes (w, Phi) of
    ``_modal`` each mode is a damped oscillator with one complex pole
    lam = -zeta w + i wd, wd = w sqrt(1 - zeta^2) (zeta < 1, so wd > 0),
    and its state is z = (etad - conj(lam) eta) / (2i wd), with
    eta = Phi^T M q and etad = Phi^T M qd. The exact zero-order-hold step is
    z <- e^(lam dt) z + (e^(lam dt) - 1) / (lam 2i wd) Phi^T u, run by
    ``_scan``; the outputs are qdd = Phi 2Re(lam^2 z) + M^-1 u, and
    q = Phi 2Re(z), qd = Phi 2Re(lam z). The forces are pulled, projected,
    scanned and turned into outputs BLOCK rows at a time, the last block
    padded with zeros, so memory beyond ``out`` is O(BLOCK) and every array
    has the same shape whatever the length: the outputs of a force history
    are bit for bit a prefix of those of any longer one.
    """
    omega, phi = _modal(model, k_mat)
    wd = omega * np.sqrt(1.0 - model.zeta**2)
    lam = -model.zeta * omega + 1j * wd
    pole = np.exp(lam * dt)
    to_modal = phi.T * model.masses
    eta, etad = to_modal @ x0[: model.stories], to_modal @ x0[model.stories :]
    z = (etad - lam.conj() * eta) / (2j * wd)
    project = ((pole - 1.0) / (lam * 2j * wd))[:, None] * phi.T
    observe = phi * (2.0 * lam**2)
    tables = _scan_tables(pole, BLOCK)
    n = len(out)
    block = np.zeros((BLOCK, model.stories))
    for lo in range(0, n, BLOCK):
        rows = min(BLOCK, n - lo)
        block[:rows] = source(rows)
        block[rows:] = 0.0
        states = _scan(project @ block.T, z, tables)
        z = states[:, rows].copy()  # not a view: this block's states go before the next scan
        out[lo : lo + rows] = ((observe @ states[:, :BLOCK]).real.T + block / model.masses)[:rows]
        del states
    return np.concatenate([phi @ (2.0 * z).real, phi @ (2.0 * lam * z).real])


def _sum_of_squares(column: np.ndarray) -> np.floating:
    """``np.add.reduce(column * column)`` bit for bit, squaring at most BLOCK rows at a time.

    numpy sums a contiguous float array pairwise: above 128 items it splits
    at half the length rounded down to a multiple of 8, and adds the two
    halves' sums. Splitting the same way down to pieces of BLOCK rows sums
    each piece along a subtree of numpy's own tree, so the total keeps its
    bits while no n-float square is made.
    """
    n = len(column)
    if n <= BLOCK:
        return np.add.reduce(column * column)
    half = n // 2 - n // 2 % 8
    return _sum_of_squares(column[:half]) + _sum_of_squares(column[half:])


def _array_source(forces: np.ndarray):
    """A force source over the rows of ``forces``: each call returns the next ``rows`` rows."""
    rows_read = 0

    def source(rows: int) -> np.ndarray:
        nonlocal rows_read
        rows_read += rows
        return forces[rows_read - rows : rows_read]

    return source


def _respond(model, scenario, source, out, sample_rate: float, chunk_size: int) -> None:
    """Write into ``out`` (n, stories) the absolute story accelerations driven by ``source``.

    The stiffness matrix switches to the damaged one at the first sample of
    chunk ``lambda_chunk``; the state carries over continuously, and the
    force rows are pulled in order across the switch.
    """
    n = len(out)
    switch, k_damaged = n, model.stiffnesses
    if scenario.is_damaged:
        if n < scenario.lambda_chunk * chunk_size:
            raise ConfigError(
                f"duration covers {n // chunk_size} chunks; damage at chunk "
                f"{scenario.lambda_chunk} needs at least {scenario.lambda_chunk}"
            )
        if scenario.story < 1 or scenario.story > model.stories:
            raise ConfigError(f"damaged story {scenario.story} outside 1..{model.stories}")
        switch = (scenario.lambda_chunk - 1) * chunk_size
        k_damaged = model.stiffnesses.copy()
        k_damaged[scenario.story - 1] *= scenario.retention

    x = np.zeros(2 * model.stories)
    for k, lo, hi in ((model.stiffnesses, 0, switch), (k_damaged, switch, n)):
        if lo < hi:  # an empty segment solves no eigenproblem
            k_mat = model.stiffness_matrix(k)
            x = _modal_response(model, k_mat, 1.0 / sample_rate, source, out[lo:hi], x)


def response_to_forces(
    model: ShearFrameModel,
    scenario: DamageScenario,
    forces: np.ndarray,
    sample_rate: float,
    chunk_size: int,
) -> np.ndarray:
    """Absolute story accelerations under a given force history.

    The stiffness matrix switches to the damaged one at the first sample of
    chunk ``lambda_chunk``; the state carries over continuously. Each
    stiffness segment is one symmetric eigenproblem, whose modes
    ``_modal_response`` steps in closed form. The force array has one
    column per story; the returned (n, stories) array is the only n-sized
    array made, the forces being read 8192 rows at a time. It is
    story-major (Fortran order), like ``simulate``'s signals.
    """
    forces = np.atleast_2d(np.asarray(forces, dtype=float))
    if forces.shape[1] != model.stories:
        raise ConfigError("force history needs one column per story")
    out = np.empty((forces.shape[0], model.stories), order="F")
    _respond(model, scenario, _array_source(forces), out, sample_rate, chunk_size)
    return out


@dataclass
class SimulationResult:
    """Labeled output: sensor signals plus the ground truth that produced them.

    ``simulate`` stores ``signals`` sensor-major (Fortran order), so
    ``signals[:, j]`` is contiguous; ``time`` is computed on each access.
    """

    signals: np.ndarray  # (n_samples, n_sensors)
    sensor_ids: list[int]
    sensor_stories: list[int]
    sample_rate: float
    chunk_size: int
    lambda_chunk: int | None
    seed: int
    scenario: DamageScenario = field(repr=False, default=None)

    @property
    def time(self) -> np.ndarray:
        """The times of the samples in seconds: sample i is at i / ``sample_rate``."""
        return np.arange(len(self.signals), dtype=float) / self.sample_rate

    @property
    def column_names(self) -> list[str]:
        return [f"sensor_{i}" for i in self.sensor_ids]

    def to_csv(self, path) -> None:
        write_signal_csv(path, self.time, self.column_names, self.signals)

    def metadata(self) -> dict:
        return {
            "chunk_size": self.chunk_size,
            "sample_rate": self.sample_rate,
            "lambda_chunk": self.lambda_chunk,
            "n_samples": len(self.signals),
            "seed": self.seed,
            "damaged_story": self.scenario.story if self.scenario else None,
            "retention": self.scenario.retention if self.scenario else None,
            "sensors": [
                {"column": name, "id": sid, "story": story, "position": f"story_{story}"}
                for name, sid, story in zip(self.column_names, self.sensor_ids, self.sensor_stories)
            ],
        }


def simulate(
    model: ShearFrameModel,
    scenario: DamageScenario,
    excitation: Excitation,
    chunk_size: int,
    sensors_per_story: int = 1,
) -> SimulationResult:
    """Generate a labeled vibration data set for one scenario.

    Independent white-noise forces per story, deterministic given the seed;
    each sensor reports its story's absolute acceleration plus measurement
    noise scaled to ``noise_snr_db`` below the per-channel RMS. The
    response is that of ``response_to_forces``: each stiffness segment's
    modes are stepped in closed form by ``_modal_response``. The
    (n, stories * sensors_per_story) signal array is allocated once,
    sensor-major (Fortran order), so each sensor's record is one contiguous
    column that a per-sensor consumer takes without a copy. The forces are
    drawn and the response written into each story's first sensor column
    ``BLOCK`` rows at a time; the other sensors' columns are copied from it
    whole, and every column's noise is added in blocks. A story's RMS is
    summed by ``_sum_of_squares`` in pieces of at most ``BLOCK`` rows along
    numpy's own pairwise tree, so it keeps the bits of
    ``np.mean(column ** 2)`` without squaring the whole column. Beyond the
    returned signals, the peak holds only O(BLOCK) work arrays, whatever
    the record's length; no times are stored (see
    ``SimulationResult.time``). Drawn in blocks in the same order, the
    numbers are those of one whole-record draw: the forces (n, stories)
    first, then the noise one sensor column after the other.
    ``chunk_size`` and ``sensors_per_story`` are integers (numpy integers
    too); a float, bool or string raises ValueError. A signal array that
    cannot be allocated, or whose shape is past numpy's limits, raises
    ConfigError naming the samples, the sensors and the GiB it needs.
    """
    if integer("chunk_size", chunk_size) < 2:
        raise ConfigError("chunk_size must be >= 2")
    if integer("sensors_per_story", sensors_per_story) < 1:
        raise ConfigError("sensors_per_story must be >= 1")
    n = excitation.n_samples
    if n < chunk_size:
        raise ConfigError("duration shorter than a single chunk")
    rng = np.random.default_rng(excitation.seed)
    spp, width = sensors_per_story, model.stories * sensors_per_story

    def forces(rows: int) -> np.ndarray:
        if excitation.intensity > 0:
            return rng.normal(0.0, excitation.intensity, size=(rows, model.stories))
        return np.zeros((rows, model.stories))

    try:
        signals = np.empty((n, width), order="F")
    except (MemoryError, ValueError) as err:  # ValueError: past numpy's dimension limit
        raise ConfigError(
            f"{n} samples x {width} sensors need {n * width * 8 / 2**30:.3g} GiB, "
            "more than can be allocated"
        ) from err
    _respond(model, scenario, forces, signals[:, ::spp], excitation.sample_rate, chunk_size)
    for col in range(0, width, spp):  # each story's other sensors copy its first one
        signals[:, col + 1 : col + spp] = signals[:, col : col + 1]
    if excitation.noise_snr_db is not None:
        rms = [float(np.sqrt(_sum_of_squares(signals[:, col]) / n)) for col in range(0, width, spp)]
        for col in range(width):  # one draw per sensor, in column order
            if rms[col // spp] > 0.0:
                std = rms[col // spp] * 10.0 ** (-excitation.noise_snr_db / 20.0)
                for lo in range(0, n, BLOCK):
                    rows = min(BLOCK, n - lo)
                    signals[lo : lo + rows, col] += rng.normal(0.0, std, size=rows)
    stories = np.repeat(np.arange(1, model.stories + 1), spp).tolist()
    return SimulationResult(
        signals=signals,
        sensor_ids=list(range(1, len(stories) + 1)),
        sensor_stories=stories,
        sample_rate=excitation.sample_rate,
        chunk_size=chunk_size,
        lambda_chunk=scenario.lambda_chunk if scenario.is_damaged else None,
        seed=excitation.seed,
        scenario=scenario,
    )
