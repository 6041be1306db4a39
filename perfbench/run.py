"""shmseq benchmark: a closed-loop, single-threaded load generator.

Run from the repository root:

    python3 perfbench/run.py --workload batch_known --seed 1812 --seconds 30 --trace 0

One client issues one iteration at a time and starts the next only when the
previous one has returned. An iteration makes a workload's inputs with the
simulator and analyses them; every output is checked. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced phase. The last line of standard output is the result as one JSON
object; a fuller record, with the environment, goes to
``.perfbench-out/`` under the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("batch_known", "batch_defaults", "stream_adaptive")
DEFAULT_SEED = 1812
# Kept out of tuning: check a claimed gain on this seed too.
HELD_OUT_SEED = 2824
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced phase")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every input for the benchmark's own tests")
    return parser.parse_args(argv)


def measure_setup(workload) -> list[hostspeed.Timing]:
    """Interpreter start and shmseq import in a fresh process, plus the workload's own set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timings: list[hostspeed.Timing] = []
    for _ in range(SETUP_REPEATS):
        with hostspeed.timed(timings):
            subprocess.run([sys.executable, "-c", "import shmseq.cli"], env=env, check=True,
                           timeout=120, stdout=subprocess.DEVNULL)
            workload.prepare()
    return timings


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _step_stats(iterations) -> tuple[float, float, int]:
    import numpy as np

    steps = [it.steps_us for it in iterations if it.steps_us is not None]
    if not steps:
        return 0.0, 0.0, 0
    pooled = np.concatenate(steps)
    return float(np.percentile(pooled, 50)), float(np.percentile(pooled, 99)), int(pooled.size)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "host": platform.node(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None  # not a git checkout, or one that merely contains this tree


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas(numpy) -> dict:
    info: dict = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}
    return info


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS this process has loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({p[5] for p in (line.split() for line in fh)
                            if len(p) >= 6 and "openblas" in os.path.basename(p[5]).lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shmseq" / "__init__.py").is_file():
        print(f"error: no shmseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    size = workloads.SIZES[args.size]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.size == "smoke" else "")
    OUT_DIR.mkdir(exist_ok=True)
    record: dict = {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
                    "seconds": args.seconds, "trace": args.trace, "size": args.size}
    try:
        workload = workloads.make(args.workload, args.seed, size, str(work))
        setup = measure_setup(workload)
        if args.trace:
            untraced = workloads.run_loop(workload, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = workloads.run_loop(workload, args.seconds / 2, 1, tracer, "traced-")
            tracer.write_csv(OUT_DIR / f"{tag}-spans.csv")
            iterations = untraced + traced
        else:
            untraced = iterations = workloads.run_loop(workload, args.seconds, 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only if no other run is using it

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    problems = [p for it in iterations for p in it.problems]
    quality = next((it.quality for it in iterations if it.quality), {})
    p50, p99, n_steps = _step_stats(untraced)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        traced_p50, _, _ = _step_stats(traced)
        metrics.update({
            "stream.step_us_p50": p50,
            "stream.step_us_p99": p99,
            "stream.steps": n_steps,
            "trace.overhead_run_s": _median(t.s for it in traced for t in it.run)
            - _median(t.s for it in untraced for t in it.run),
            "trace.overhead_step_us_p50": traced_p50 - p50 if n_steps else 0.0,
            "quality.false_alarm_sensors": quality.get("false_alarm_sensors", 0),
            "quality.detected_sensors": quality.get("detected_sensors", 0),
            "quality.detect_delay_chunks": quality.get("detect_delay_chunks", 0),
            "host.probe_us": _median(t.probe_s for it in untraced for t in it.gen + it.run) * 1e6,
            "host.run_wall_s": _median(t.wall_s for it in untraced for t in it.run),
        })
        units = tracing.metric_units()
    else:
        metrics = {
            "setup_s": _median(t.s for t in setup),
            "gen_s": _median(t.s for it in iterations for t in it.gen),
            "run_s": _median(t.s for it in iterations for t in it.run),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "loc_di1_hit_rank": quality.get("loc_di1_hit_rank", 0),
            "ok_ops_frac": 1.0 - failed / attempted,
        }
        units = {"setup_s": "s", "gen_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                 "loc_di1_hit_rank": "rank", "ok_ops_frac": "ratio"}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment()
    record.update({
        "environment": env,
        "reference_probe_s": hostspeed.REFERENCE_PROBE_S,
        "setup": [vars(t) for t in setup],
        "iterations": [
            {"gen": [vars(t) for t in it.gen], "run": [vars(t) for t in it.run],
             "report_s": it.report_s,
             "attempted": it.attempted, "failed": it.failed, "problems": it.problems}
            for it in iterations
        ],
        "quality": quality,
        "stream_steps": {"step_us_p50": p50, "step_us_p99": p99, "samples": n_steps},
        "result": result,
    })
    record_path = OUT_DIR / f"{tag}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"# environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas'].get('name')} x{env['blas']['threads']}, nproc {env['nproc']}, "
          f"host {env['host']}, commit {env['git_commit']}")
    for problem in problems[:5]:
        print(f"# check failed: {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} iterations={len(iterations)} "
          f"attempted={attempted} failed={failed} record={record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
