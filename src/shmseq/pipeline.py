"""End-to-end orchestration: per-sensor detection, run tables and reports.

The four-step flow per sensor is extract -> detect -> estimate -> localize.
The baseline distribution g is always learned from a pre-damage training
file; in "known" mode the post-damage distribution f comes from a second
training file, in "adaptive" mode it is estimated from the monitored stream
itself. All outputs are flat files and deterministic given the inputs.
"""

from __future__ import annotations

import contextlib
import csv
import os
import types
import typing
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import shearsim
from .detector import DetectorState, GaussianParams, GeometricPrior, detect, logistic, update
from .errors import (
    ConfigError, InsufficientTraining, NonFiniteSignal, ShmSeqError, SingularDesign,
    ZeroVariance, integer,
)
from .estimator import AdaptiveDetector, fit_predamage
from .features import DsfConfig, SignalChunk, extract_dsf_stream, select_order
from .localization import SensorOutcome, build_report
from .tables import _sample_interval, _sensor_id, read_json, read_signal_csv, write_csv, write_json

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_DETECTED = 2


def _is_instance(value, hint) -> bool:
    """isinstance against a field annotation (unions, Literal, tuple[X, ...])."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_is_instance(value, h) for h in args)
    if origin is Literal:
        return value in args
    if origin is tuple:
        return isinstance(value, tuple) and all(_is_instance(v, args[0]) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False  # JSON true/false is no number
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class PipelineConfig:
    """Run settings; every field can come from a JSON config file or a CLI flag."""

    input_csv: str = ""
    training_csv: str = ""
    output_dir: str = "out"
    chunk_size: int = 1600
    order: int | Literal["auto"] = "auto"
    p_max: int = 12
    coef_indices: tuple[int, ...] | None = None
    alpha: float = 1e-5
    rho: float = 1e-5
    mode: Literal["known", "adaptive"] = "adaptive"
    postdamage_csv: str | None = None
    metadata_json: str | None = None
    dump_dsf: bool = False
    dump_estimates: bool = False

    def validate(self) -> None:
        for name, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            if not _is_instance(value, hint):
                expected = self.__dataclass_fields__[name].type
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
        if not self.input_csv or not self.training_csv:
            raise ConfigError("input_csv and training_csv are required")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly between 0 and 1")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError("rho must lie strictly between 0 and 1")
        if self.mode == "known" and not self.postdamage_csv:
            raise ConfigError("known mode needs postdamage_csv to learn f from")
        name = "p_max" if self.order == "auto" else "order"
        largest = getattr(self, name)  # the largest AR order the run may fit
        if largest < 1:
            raise ConfigError(f"{name} must be >= 1")
        if self.chunk_size <= largest + 1:
            raise ConfigError(f"chunk_size must exceed {name} + 1")
        coefs = self.coef_indices
        if coefs is not None and not (coefs and all(1 <= i <= largest for i in coefs)):
            raise ConfigError(f"coef_indices must hold indices in 1..{name}, {name} = {largest}")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Config from JSON values; a ``coef_indices`` list becomes a tuple.

        A value of the wrong type is kept, and ``validate`` reports it.
        """
        bad = set(data) - set(cls.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        if isinstance(data.get("coef_indices"), list):
            data = {**data, "coef_indices": tuple(data["coef_indices"])}
        return cls(**data)


@dataclass(kw_only=True)
class SensorRun(SensorOutcome):
    """One sensor's localization outcome, set by ``_process_sensor``, with its tables and error."""

    column: str
    pre: GaussianParams | None = None  # None until the sensor succeeds
    log_odds: list[float] = field(default_factory=list)  # step k at index k - 1
    estimates: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)
    dsfs: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))  # (N, m), row k = step k+1
    skipped_training_chunks: list[str] = field(default_factory=list)  # the chunk errors
    error: str | None = None


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    localization: dict
    paths: dict


def _read_metadata(config: PipelineConfig) -> tuple[dict[str, str], int | None]:
    """The sensor positions by column and the true damage step from ``config.metadata_json``.

    Each key of the file is optional; with no file, or no key, a sensor is
    labelled by its column and no delay is reported. ``run`` checks that
    each listed column is one of the input's once it has read the input.
    """
    path = config.metadata_json
    if not path:
        return {}, None
    meta = read_json(path)
    sensors = meta.get("sensors", []) if isinstance(meta, dict) else None
    if not isinstance(sensors, list) or not all(
        isinstance(s, dict) and isinstance(s.get("column"), str) for s in sensors
    ):
        raise ConfigError(f"{path}: expected an object whose 'sensors' each name a 'column'")
    positions = {s["column"]: s.get("position", s["column"]) for s in sensors}
    for col, position in positions.items():
        if not isinstance(position, str):
            raise ConfigError(f"{path}: position of {col} must be a string, got {position!r}")
    chunk_size = meta.get("chunk_size", config.chunk_size)
    lam = meta.get("lambda_chunk")
    try:
        if integer("chunk_size", chunk_size) != config.chunk_size:
            raise ValueError(
                f"chunk_size {chunk_size} differs from the run's chunk size"
                f" {config.chunk_size}; pass --chunk-size {chunk_size}"
            )
        if lam is not None and integer("lambda_chunk", lam) < 1:  # steps count from 1
            raise ValueError(f"lambda_chunk must be >= 1, got {lam}")
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
    return positions, lam


def _require_columns(signals: dict[str, np.ndarray], columns, what: str, why: str = "") -> None:
    missing = [c for c in columns if c not in signals]
    if missing:
        raise ConfigError(f"{what} lacks columns {missing}{why}")


def _select_order(signals: dict[str, np.ndarray], chunk_size: int, p_max: int, path) -> int:
    """AIC order selection on the chunks of the training columns the run monitors.

    A chunk that AIC cannot use is left out of the curve, so only its own
    sensor can skip it or fail, when its features are extracted at the
    chosen order.
    """
    chunks = []  # every complete chunk; a trailing partial one is dropped
    for col, samples in signals.items():
        sensor_id = _sensor_id(col)
        chunks += (
            SignalChunk(sensor_id, k + 1, samples[k * chunk_size : (k + 1) * chunk_size])
            for k in range(samples.size // chunk_size)
        )
    if not chunks:
        raise ConfigError(f"training data in {path} is shorter than one chunk")
    try:
        return select_order(chunks, p_max, skipped=[])
    except (NonFiniteSignal, ZeroVariance, SingularDesign) as err:
        raise ConfigError(
            f"none of the {len(chunks)} training chunks in {path} is fit for order "
            f"selection; the first: {err}"
        ) from err


def _training_features(
    run: SensorRun, samples: np.ndarray, path, dsf_config: DsfConfig
) -> np.ndarray:
    """The features of a training stream, without the chunks that cannot be fit.

    Each rejected chunk's error, with ``path``, is listed on
    ``run.skipped_training_chunks``. Raises ``InsufficientTraining`` when
    fewer than the ``max(2, m)`` vectors that ``fit_predamage`` needs are
    left.
    """
    skipped: list[ShmSeqError] = []
    try:
        dsfs = extract_dsf_stream(samples, dsf_config, sensor_id=run.sensor_id, skipped=skipped)
    except (NonFiniteSignal, ZeroVariance, SingularDesign):
        dsfs = np.empty((0, dsf_config.dim))  # every chunk is listed in skipped
    run.skipped_training_chunks += [f"{err} (in {path})" for err in skipped]
    need = max(2, dsf_config.dim)
    if len(dsfs) < need:
        total = samples.size // dsf_config.chunk_size
        raise InsufficientTraining(
            f"{len(dsfs)} of {total} training chunks in {path} can be fit, need >= {need}"
        )
    return dsfs


def _process_sensor(
    run: SensorRun,
    stream: np.ndarray,
    training: np.ndarray,
    postdamage: np.ndarray | None,
    dsf_config: DsfConfig,
    config: PipelineConfig,
) -> None:
    """Fill in ``run``: its outcome (``pre``, ``post``, ``detection_time``) and step tables."""
    prior = GeometricPrior(config.rho)
    g = fit_predamage(_training_features(run, training, config.training_csv, dsf_config))
    try:
        dsfs = extract_dsf_stream(stream, dsf_config, sensor_id=run.sensor_id)
    except ShmSeqError as err:
        err.args = (f"{err} (in {config.input_csv})",)  # keeps the type and chunk_index
        raise

    if config.mode == "known":
        f = fit_predamage(_training_features(run, postdamage, config.postdamage_csv, dsf_config))
        detector = DetectorState()
        for x in dsfs:
            detector = update(detector, x, g, f, prior)
            detect(detector, config.alpha)
            run.log_odds.append(detector.log_odds)
    else:
        detector = AdaptiveDetector(g, prior, config.alpha, sensor_id=run.sensor_id)
        for x in dsfs:
            detector.update(x)
            run.log_odds.append(detector.log_odds)
            if config.dump_estimates and detector.is_ready:
                est = detector.params_estimate
                run.estimates.append((detector.step, est.mean, est.cov))
        f = detector.params_estimate if detector.is_ready else None
    run.pre, run.post, run.detection_time = g, f, detector.detection_time
    if config.dump_dsf:  # only a sensor that succeeded has rows in dsf.csv
        run.dsfs = dsfs


def run(config: PipelineConfig) -> RunResult:
    """Execute the full pipeline and write trace/summary/localization files.

    An output directory that cannot be written fails before the work
    (``_check_writable``); the directory is made only when the outputs are.
    """
    config.validate()
    positions, lambda_true = _read_metadata(config)
    _check_writable(config.output_dir)
    train_time, train_signals = read_signal_csv(config.training_csv)
    interval = _sample_interval(train_time) if train_time.size > 1 else None
    input_time, input_signals = read_signal_csv(config.input_csv, interval)
    described = f"{config.input_csv}, which {config.metadata_json} describes,"
    _require_columns(input_signals, positions, described)
    if input_time.size < config.chunk_size:
        raise ConfigError(
            f"{config.input_csv} has {input_time.size} samples, fewer than one chunk of"
            f" {config.chunk_size}"
        )
    monitors = f" that {config.input_csv} monitors"
    _require_columns(train_signals, input_signals, config.training_csv, monitors)
    post_signals = {}
    if config.mode == "known":
        _, post_signals = read_signal_csv(config.postdamage_csv, interval)
        _require_columns(post_signals, input_signals, config.postdamage_csv, monitors)

    if isinstance(config.order, str):
        monitored = {col: train_signals[col] for col in input_signals}
        order = _select_order(monitored, config.chunk_size, config.p_max, config.training_csv)
        if config.coef_indices and max(config.coef_indices) > order:
            raise ConfigError(
                f"coef_indices {list(config.coef_indices)} exceed order {order}, which AIC"
                f" chose in 1..p_max = {config.p_max} on {config.training_csv}"
            )
    else:
        order = config.order
    dsf_config = DsfConfig(
        chunk_size=config.chunk_size, order=order, coef_indices=config.coef_indices
    )

    runs = []
    for col in input_signals:
        run_obj = SensorRun(
            column=col, sensor_id=_sensor_id(col), position=positions.get(col, col)
        )
        try:
            _process_sensor(
                run_obj,
                input_signals[col],
                train_signals[col],
                post_signals.get(col),
                dsf_config,
                config,
            )
        except ShmSeqError as err:
            run_obj.error = str(err)
        runs.append(run_obj)

    good = [r for r in runs if r.error is None]
    if not good:
        raise ConfigError(
            "every sensor failed: " + "; ".join(f"{r.column}: {r.error}" for r in runs)
        )

    report = build_report(good, alpha=config.alpha, rho=config.rho)
    localization = report.to_dict()
    summary = _summarize(runs, config, order, report.detected, lambda_true)
    with _writing_to(config.output_dir):
        paths = _write_outputs(config, runs, localization, summary)
    return RunResult(
        exit_code=EXIT_DETECTED if report.detected else EXIT_CLEAN,
        summary=summary,
        localization=localization,
        paths=paths,
    )


def _summarize(
    runs: list[SensorRun], config: PipelineConfig, order: int, detected: bool, lam: int | None
) -> dict:
    sensors = []
    for r in sorted(runs, key=lambda r: r.sensor_id):
        entry: dict = {"sensor_id": r.sensor_id, "position": r.position}
        if r.skipped_training_chunks:
            entry["skipped_training_chunks"] = r.skipped_training_chunks
        if r.error is not None:
            entry["error"] = r.error
        else:
            tau = r.detection_time
            entry["tau"] = tau
            entry["final_posterior"] = logistic(r.log_odds[-1])
            if lam is not None:
                # declared before the true change: a false alarm, not a negative delay
                early = tau is not None and tau < lam
                entry["lambda_true"] = lam
                entry["delay"] = None if tau is None or early else tau - lam
                entry["false_alarm"] = early
        sensors.append(entry)
    return {
        "mode": config.mode,
        "alpha": config.alpha,
        "rho": config.rho,
        "chunk_size": config.chunk_size,
        "order": order,
        "detected": detected,
        "sensors": sensors,
    }


@contextlib.contextmanager
def _reading(path: str):
    """Turn a file of a run that cannot be read, or lacks a field, into a ConfigError naming it."""
    try:
        yield
    except KeyError as err:
        raise ConfigError(f"{path}: no field {err}") from err
    except (OSError, csv.Error, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _check_writable(path: str) -> None:
    """Raise a ConfigError naming ``path`` unless it can be made and written as a directory.

    ``path``, or its nearest existing ancestor when it does not exist, must
    be a directory this process can write and search. Nothing is made here:
    a failed run or ``gen`` leaves no empty ``--out`` behind, and the
    directory is made when the outputs are written.
    """
    head = path
    while head and not os.path.lexists(head):
        head = os.path.dirname(head) or os.curdir
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write to {path}: {head!r} is not a writable directory")


@contextlib.contextmanager
def _writing_to(path: str):
    """Turn an OSError from creating or writing outputs into a ConfigError naming ``path``."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write to {path}: {err}") from err


def _write_outputs(config, runs, localization, summary) -> dict:
    os.makedirs(config.output_dir, exist_ok=True)
    paths = {
        "trace": os.path.join(config.output_dir, "trace.csv"),
        "summary": os.path.join(config.output_dir, "summary.json"),
        "localization": os.path.join(config.output_dir, "localization.json"),
    }
    # the CCDF from -r keeps its relative precision once the posterior rounds to 1
    _write_steps(paths["trace"], ["posterior", "ccdf"], runs, lambda r: [
        (step, logistic(log_odds), logistic(-log_odds))
        for step, log_odds in enumerate(r.log_odds, start=1)
    ])
    write_json(paths["summary"], summary)
    write_json(paths["localization"], localization)
    if config.dump_dsf:
        paths["dsf"] = os.path.join(config.output_dir, "dsf.csv")
        _write_dsf(paths["dsf"], runs)
    if config.dump_estimates and config.mode == "adaptive":
        paths["estimates"] = os.path.join(config.output_dir, "estimates.csv")
        _write_estimates(paths["estimates"], runs)
    return paths


def _write_steps(path, names: list[str], runs, rows) -> None:
    """Write a `sensor_id,step,<names>` CSV, the rows of every run in sensor order.

    ``rows(run)`` gives the run's rows of step and values. Ids and steps are
    printed as integers, values with 12 significant digits.
    """
    width = len(names) + 1
    blocks = [np.empty((0, width + 1))]
    for r in sorted(runs, key=lambda r: r.sensor_id):
        block = np.asarray(rows(r), dtype=float).reshape(-1, width)
        blocks.append(np.column_stack((np.full(len(block), r.sensor_id), block)))
    write_csv(
        path, ",".join(["sensor_id", "step", *names]),
        ["%d", "%d"] + ["%.12g"] * len(names), np.vstack(blocks),
    )


def _write_dsf(path, runs) -> None:
    m = max(r.dsfs.shape[1] for r in runs)
    _write_steps(path, [f"coef_{i}" for i in range(1, m + 1)], runs, lambda r: np.column_stack(
        (np.arange(1, len(r.dsfs) + 1), r.dsfs)
    ))


def _write_estimates(path, runs) -> None:
    m = max((mu.size for r in runs for _, mu, _ in r.estimates), default=0)
    names = [f"mu_hat_{i}" for i in range(1, m + 1)]
    names += [f"sigma_hat_{i}_{j}" for i in range(1, m + 1) for j in range(1, m + 1)]
    _write_steps(path, names, runs, lambda r: [
        (step, *mu, *cov.ravel()) for step, mu, cov in r.estimates
    ])


def gen(scenario: dict | str, out_dir: str, seed: int | None = None) -> dict:
    """Generate a labeled data set from a scenario description (dict or JSON path)."""
    if isinstance(scenario, str):
        scenario = read_json(scenario)
    try:
        stories = integer("stories", scenario["stories"])
        # objects, so that the model sees a bool or a string as it was written
        per_story = [
            np.broadcast_to(np.asarray(scenario[key], dtype=object), (stories,))
            for key in ("masses", "stiffnesses")
        ]
        model = shearsim.ShearFrameModel(*per_story, zeta=scenario.get("zeta", 0.02))
        damage = scenario.get("damage")
        if damage:
            dmg = shearsim.DamageScenario(
                story=integer("damage.story", damage["story"]),
                retention=damage["r"],
                lambda_chunk=integer("damage.lambda_chunk", damage["lambda_chunk"]),
            )
        else:
            dmg = shearsim.DamageScenario.undamaged()
        exc_cfg = scenario["excitation"]
        excitation = shearsim.Excitation(
            seed=integer("excitation.seed", exc_cfg["seed"]) if seed is None else seed,
            intensity=exc_cfg["intensity"],
            sample_rate=exc_cfg["fs"],
            duration_s=exc_cfg["duration_s"],
            noise_snr_db=scenario.get("noise_snr_db", 40.0),
        )
        chunk_size = integer("chunk_size", scenario["chunk_size"])
        sensors_per_story = integer("sensors_per_story", scenario.get("sensors_per_story", 1))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad scenario description: {err}") from err

    data_path = os.path.join(out_dir, "data.csv")
    meta_path = os.path.join(out_dir, "metadata.json")
    _check_writable(out_dir)  # fail before the simulation, not after it
    result = shearsim.simulate(model, dmg, excitation, chunk_size, sensors_per_story)
    with _writing_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        result.to_csv(data_path)
        write_json(meta_path, result.metadata())
    return {"data": data_path, "metadata": meta_path}


def report(run_dir: str, out_path: str | None = None) -> str:
    """Human-readable table plus plot-ready CCDF series for a finished run."""
    summary_path = os.path.join(run_dir, "summary.json")
    local_path = os.path.join(run_dir, "localization.json")
    trace_path = os.path.join(run_dir, "trace.csv")
    summary = read_json(summary_path)
    localization = read_json(local_path)

    series: dict[str, list[list[float]]] = {}
    with _reading(trace_path), open(trace_path, newline="") as fh:
        for row in csv.DictReader(fh):
            series.setdefault(row["sensor_id"], []).append([int(row["step"]), float(row["ccdf"])])

    ranks = {}  # sensor id -> (DI1, rank by DI1, rank by DI2), as printed
    with _reading(local_path):
        for e in localization["sensors"]:
            di1 = format(e["di1"], ".4f") if e["di1"] is not None else "-"
            ranks[e["id"]] = (di1, e["rank_di1"], e["rank_di2"])

    with _reading(summary_path):
        plot = {
            "alpha": summary["alpha"],
            "ccdf_threshold": summary["alpha"],  # declare when the CCDF drops below alpha
            "posterior_threshold": 1.0 - summary["alpha"],
            "lambda_true": next(
                (s["lambda_true"] for s in summary["sensors"] if "lambda_true" in s), None
            ),
            "series": series,
        }
        lines = [
            f"mode={summary['mode']} alpha={summary['alpha']} rho={summary['rho']} "
            f"order={summary['order']} detected={summary['detected']}",
            f"{'sensor':>6} {'position':>12} {'tau':>6} {'delay':>6} {'DI1':>12} "
            f"{'rank1':>5} {'rank2':>5}",
        ]
        for s in summary["sensors"]:
            sid = s["sensor_id"]
            if "error" in s:
                lines.append(f"{sid:>6} {s['position']:>12} error: {s['error']}")
                continue
            tau = s["tau"] if s["tau"] is not None else "-"
            delay = s.get("delay")
            delay = delay if delay is not None else ("FA" if s.get("false_alarm") else "-")
            di1, r1, r2 = ranks.get(sid, ("-", "-", "-"))
            lines.append(
                f"{sid:>6} {s['position']:>12} {tau!s:>6} {delay!s:>6} {di1:>12} {r1!s:>5} {r2!s:>5}"
            )

    out_path = out_path or os.path.join(run_dir, "ccdf_plot.json")
    with _writing_to(out_path):
        write_json(out_path, plot)
    return "\n".join(lines)
