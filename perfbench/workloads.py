"""The benchmark's three workloads, made from a seed with shmseq's own simulator.

Every workload uses one structure: a 4-story shear frame sampled at 50 Hz,
cut into chunks of 400 samples, with story 2 keeping r = 0.5 of its
stiffness from the middle of the monitored record on. One iteration makes
the inputs (timed as ``gen_s``), analyses them (each analysis timed as
``run_s``) and checks every output. Times are corrected for the host's
speed, see ``hostspeed``. Repeats within a run use the same seed, so their
outputs must be byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from hostspeed import Timing, timed
from shmseq import cli, estimator, features, shearsim
from shmseq.detector import GeometricPrior
from shmseq.errors import ShmSeqError
from shmseq.localization import kl_gaussian

CHUNK = 400
FS = 50.0
STORIES = 4
MASS = 1000.0
STIFFNESS = 328000.0
ZETA = 0.02
INTENSITY = 100.0
NOISE_SNR_DB = 40.0
DAMAGED_STORY = 2
RETENTION = 0.5
# The stories whose sensors count as a correct top localization.
NEAR_DAMAGE = {DAMAGED_STORY - 1, DAMAGED_STORY, DAMAGED_STORY + 1}
ALPHA = RHO = 1e-5  # the CLI defaults
KNOWN_ORDER = 7
STREAM_ORDER = 2  # the order the README advises for adaptive mode
STREAM_STORIES = (DAMAGED_STORY, STORIES)  # one sensor each; its id equals its story
# `shmseq run` calls per `gen` in a batch iteration: more timed runs per measured second.
RUNS_PER_GEN = 2
TRACE_HEADER = "sensor_id,step,posterior,ccdf"


@dataclass(frozen=True)
class Size:
    monitored_chunks: int  # batch; the change comes after the first half
    training_chunks: int  # per training record, batch and stream
    stream_chunks: int


SIZES = {
    "full": Size(monitored_chunks=200, training_chunks=100, stream_chunks=2000),
    "smoke": Size(monitored_chunks=40, training_chunks=30, stream_chunks=200),
}


@dataclass
class Iteration:
    """What one gen -> run iteration measured and found."""

    attempted: int
    failed: int = 0
    gen: list[Timing] = field(default_factory=list)
    run: list[Timing] = field(default_factory=list)  # one per analysis of the inputs
    report_s: float | None = None
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    steps_us: np.ndarray | None = None  # stream only: per-step latency


def no_span(name):
    return contextlib.nullcontext()


def _seeds(seed: int) -> tuple[int, int, int]:
    """Independent simulator seeds for the monitored, training and post-damage records."""
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(3))


def _quality(taus: dict, lambda_chunk: int, stories: dict, di1_rank: dict) -> dict:
    """Detection and localization quality, deterministic for a seed.

    ``loc_di1_hit_rank`` is the DI1 rank of the best-ranked sensor on the
    damaged story or a neighbour: 1 when the top DI1 sensor sits there.
    """
    delays = [t - lambda_chunk for t in taus.values() if t is not None and t >= lambda_chunk]
    return {
        "lambda_chunk": lambda_chunk,
        "tau": {str(k): v for k, v in sorted(taus.items())},
        "false_alarm_sensors": sum(t is not None and t < lambda_chunk for t in taus.values()),
        "detected_sensors": len(delays),
        "detect_delay_chunks": statistics.median(delays) if delays else 0,
        "loc_di1_hit_rank": min(
            (r for s, r in di1_rank.items() if stories[s] in NEAR_DAMAGE),
            default=len(di1_rank) + 1,
        ),
    }


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _scenario(chunks: int, seed: int, lambda_chunk: int | None = None) -> dict:
    scenario = {
        "stories": STORIES,
        "masses": MASS,
        "stiffnesses": STIFFNESS,
        "zeta": ZETA,
        "excitation": {"seed": seed, "intensity": INTENSITY, "fs": FS,
                       "duration_s": chunks * CHUNK / FS},
        "chunk_size": CHUNK,
        "sensors_per_story": 1,
        "noise_snr_db": NOISE_SNR_DB,
    }
    if lambda_chunk is not None:
        scenario["damage"] = {"story": DAMAGED_STORY, "r": RETENTION, "lambda_chunk": lambda_chunk}
    return scenario


class BatchWorkload:
    """``shmseq gen`` for each record, then ``shmseq run`` and ``shmseq report``, via ``cli.main``.

    ``batch_known`` runs known mode at order 7 with a post-damage training
    record; ``batch_defaults`` leaves every flag but the paths and the chunk
    size at its default (adaptive mode, AIC order selection up to 12). Each
    iteration runs ``shmseq run`` ``RUNS_PER_GEN`` times on the inputs of one
    ``gen`` and checks the outputs of every run.
    """

    def __init__(self, name: str, seed: int, size: Size, work_dir) -> None:
        self.known = name == "batch_known"
        monitored, training, postdamage = _seeds(seed)
        self.lambda_chunk = size.monitored_chunks // 2 + 1
        self.datasets = {
            "monitored": _scenario(size.monitored_chunks, monitored, self.lambda_chunk),
            "training": _scenario(size.training_chunks, training),
        }
        if self.known:
            self.datasets["postdamage"] = _scenario(size.training_chunks, postdamage, 1)
        self.work = work_dir
        self.out = os.path.join(work_dir, "out")
        self.chunks = size.monitored_chunks
        self.ops_per_iteration = RUNS_PER_GEN * STORIES  # sensor-runs, one sensor per story
        self.run_argv = [
            "run",
            "--input", self._data("monitored"),
            "--training", self._data("training"),
            "--metadata", os.path.join(work_dir, "monitored", "metadata.json"),
            "--out", self.out,
            "--chunk-size", str(CHUNK),
        ]
        if self.known:
            self.run_argv += ["--post-training", self._data("postdamage"),
                              "--mode", "known", "--order", str(KNOWN_ORDER)]
        self._first_digest: str | None = None

    def _data(self, name: str) -> str:
        return os.path.join(self.work, name, "data.csv")

    def prepare(self) -> None:
        """Write the scenario files."""
        os.makedirs(self.work, exist_ok=True)
        for name, scenario in self.datasets.items():
            with open(os.path.join(self.work, f"{name}.json"), "w") as fh:
                json.dump(scenario, fh, indent=2)

    def iterate(self, span=no_span) -> Iteration:
        it = Iteration(attempted=self.ops_per_iteration)
        for name in [*self.datasets, "out"]:
            shutil.rmtree(os.path.join(self.work, name), ignore_errors=True)

        with timed(it.gen), span("bench.gen"):
            gen_codes = [
                _cli(["gen", "--scenario", os.path.join(self.work, f"{name}.json"),
                      "--out", os.path.join(self.work, name)])
                for name in self.datasets
            ]
        if any(gen_codes):
            it.problems.append(f"gen exit codes {gen_codes}")
            it.failed = it.attempted
            return it

        for _ in range(RUNS_PER_GEN):
            shutil.rmtree(self.out, ignore_errors=True)
            with timed(it.run), span("bench.run"):
                code = _cli(self.run_argv)
            it.failed += self._check(it, code)

        t0 = time.perf_counter()
        with span("bench.report"):
            report_code = _cli(["report", "--run-dir", self.out])
        it.report_s = time.perf_counter() - t0
        if report_code != 0:
            it.problems.append(f"report exit code {report_code}")
            it.failed = it.attempted
        return it

    def _check(self, it: Iteration, code: int) -> int:
        """Check the outputs of one run; return its failed sensor-runs."""
        known_problems = len(it.problems)
        try:
            with open(os.path.join(self.out, "trace.csv"), "rb") as fh:
                trace = fh.read()
            with open(os.path.join(self.out, "summary.json"), "rb") as fh:
                summary_bytes = fh.read()
            with open(os.path.join(self.out, "localization.json"), "rb") as fh:
                loc_bytes = fh.read()
            with open(os.path.join(self.work, "monitored", "metadata.json")) as fh:
                metadata = json.load(fh)
            summary = json.loads(summary_bytes)
            loc = json.loads(loc_bytes)
        except (OSError, ValueError) as err:
            it.problems.append(f"run (exit code {code}) left no readable outputs: {err}")
            return STORIES

        good = [s for s in summary["sensors"] if "error" not in s]
        expected = 2 if summary["detected"] else 0
        if code != expected:
            it.problems.append(f"exit code {code} but summary.detected={summary['detected']}")

        lines = trace.decode().splitlines()
        if not lines or lines[0] != TRACE_HEADER:
            it.problems.append("trace.csv header is wrong")
        rows = lines[1:]
        if len(rows) != len(good) * self.chunks:
            it.problems.append(f"trace.csv has {len(rows)} rows, expected {len(good)} x {self.chunks}")
        bad = 0
        for row in rows:
            try:
                p = float(row.split(",")[2])
            except (IndexError, ValueError):
                p = math.nan
            bad += not (math.isfinite(p) and 0.0 <= p <= 1.0)
        if bad:
            it.problems.append(f"{bad} trace rows have no posterior in [0, 1]")

        n = len(loc["sensors"])
        for key in ("rank_di1", "rank_di2"):
            if sorted(e[key] for e in loc["sensors"]) != list(range(1, n + 1)):
                it.problems.append(f"{key} is not a permutation of 1..{n}")

        digest = hashlib.sha256(trace + summary_bytes + loc_bytes).hexdigest()
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            it.problems.append("outputs differ from the first repeat of this seed")

        stories = {s["id"]: s["story"] for s in metadata["sensors"]}
        it.quality = _quality(
            {s["sensor_id"]: s["tau"] for s in good},
            summary["sensors"][0].get("lambda_true", self.lambda_chunk),
            stories,
            {e["id"]: e["rank_di1"] for e in loc["sensors"]},
        )
        return STORIES if len(it.problems) > known_problems else len(summary["sensors"]) - len(good)


class StreamWorkload:
    """A long monitored record followed chunk by chunk through the library API.

    Each step calls ``extract_dsf_stream`` on one new chunk and then
    ``AdaptiveDetector.update``, for two sensors in turn: one on the damaged
    story and one on the roof. No CSV, no AIC, no known-mode detector.
    """

    def __init__(self, seed: int, size: Size) -> None:
        monitored, training, _ = _seeds(seed)
        self.model = shearsim.ShearFrameModel.uniform(STORIES, MASS, STIFFNESS, ZETA)
        self.chunks = size.stream_chunks
        self.lambda_chunk = size.stream_chunks // 2 + 1
        self.monitored = (
            shearsim.DamageScenario(DAMAGED_STORY, RETENTION, self.lambda_chunk),
            shearsim.Excitation(monitored, INTENSITY, FS, self.chunks * CHUNK / FS, NOISE_SNR_DB),
        )
        self.training = (
            shearsim.DamageScenario.undamaged(),
            shearsim.Excitation(training, INTENSITY, FS, size.training_chunks * CHUNK / FS,
                                NOISE_SNR_DB),
        )
        self.config = features.DsfConfig(chunk_size=CHUNK, order=STREAM_ORDER)
        self.prior = GeometricPrior(RHO)
        self.ops_per_iteration = self.chunks * len(STREAM_STORIES)  # steps
        self._first_digest: str | None = None

    def prepare(self) -> None:
        """Nothing to write: the stream lives in memory."""

    def iterate(self, span=no_span) -> Iteration:
        it = Iteration(attempted=self.ops_per_iteration)
        with timed(it.gen), span("bench.gen"):
            monitored = shearsim.simulate(self.model, *self.monitored, CHUNK)
            training = shearsim.simulate(self.model, *self.training, CHUNK)
            streams = [np.ascontiguousarray(monitored.signals[:, s - 1]) for s in STREAM_STORIES]
            train = [np.ascontiguousarray(training.signals[:, s - 1]) for s in STREAM_STORIES]
            del monitored, training

        posteriors = np.full((len(STREAM_STORIES), self.chunks), np.nan)
        steps_us = np.empty(posteriors.size)
        errors: list[str] = []
        with timed(it.run), span("bench.run"):
            detectors = []
            for story, signal in zip(STREAM_STORIES, train):
                g = estimator.fit_predamage(
                    features.extract_dsf_stream(signal, self.config, sensor_id=story)
                )
                detectors.append(estimator.AdaptiveDetector(g, self.prior, ALPHA, sensor_id=story))
            i = 0
            for k in range(self.chunks):
                lo = k * CHUNK
                for j, det in enumerate(detectors):
                    with span("bench.step"):
                        s0 = time.perf_counter()
                        try:
                            x = features.extract_dsf_stream(
                                streams[j][lo : lo + CHUNK], self.config, sensor_id=det.sensor_id
                            )[0]
                            posteriors[j, k] = det.update(x)
                        except (ShmSeqError, ValueError) as err:
                            errors.append(f"sensor {det.sensor_id} step {k + 1}: {err}")
                        steps_us[i] = (time.perf_counter() - s0) * 1e6
                    i += 1
        it.steps_us = steps_us

        ok = np.isfinite(posteriors) & (posteriors >= 0.0) & (posteriors <= 1.0)
        bad = int(ok.size - ok.sum())
        if errors:
            it.problems.append(f"{len(errors)} steps raised, first: {errors[0]}")
        if bad > len(errors):
            it.problems.append(f"{bad - len(errors)} steps gave no posterior in [0, 1]")
        taus = {det.sensor_id: det.detection_time for det in detectors}
        digest = hashlib.sha256(posteriors.tobytes() + json.dumps(taus).encode()).hexdigest()
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            it.problems.append("posteriors differ from the first repeat of this seed")
            bad = it.attempted
        it.failed = bad

        # DI1 straight from kl_gaussian: build_report belongs to the batch workloads only.
        di1 = {det.sensor_id: kl_gaussian(det.params_estimate, det.g) for det in detectors}
        ranked = sorted(di1, key=lambda s: (-di1[s], s))
        it.quality = _quality(
            taus,
            self.lambda_chunk,
            {s: s for s in STREAM_STORIES},
            {s: ranked.index(s) + 1 for s in ranked},
        )
        return it


def run_loop(workload, budget: float, min_iterations: int, tracer=None, label: str = ""):
    """Closed loop: iterate until the next iteration would overrun ``budget`` seconds."""
    span = tracer.span if tracer is not None else no_span
    done = []
    start = time.perf_counter()
    last = 0.0
    while len(done) < min_iterations or time.perf_counter() - start + last <= budget:
        if tracer is not None:
            tracer.run_id = f"{label}{len(done)}"
        t0 = time.perf_counter()
        try:
            it = workload.iterate(span)
        except Exception:
            n = workload.ops_per_iteration
            it = Iteration(attempted=n, failed=n, problems=[traceback.format_exc(limit=4)])
        done.append(it)
        last = time.perf_counter() - t0
    return done


def make(name: str, seed: int, size: Size, work_dir):
    if name == "stream_adaptive":
        return StreamWorkload(seed, size)
    return BatchWorkload(name, seed, size, work_dir)
