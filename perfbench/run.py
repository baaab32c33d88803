"""uctrl benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload probe-loop --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; uctrl is imported from its ``src/``.  With
``--trace 0`` the run times set-up in fresh interpreters, then repeats the
workload's pass for ``--seconds`` and reports the end-to-end metrics.  Times
are taken against a fixed calibration kernel run beside each job (see
``Ruler``), so that a host whose speed swings does not swing them.  With
``--trace 1`` it runs the same inputs with spans around uctrl's layers and
reports the per-layer metrics.  Every pass's outputs are checked against the
recorded reference of the seed (``reference/seed-<n>.json``, when present),
against the expected verdicts of each job, and against the untimed warm-up
pass.  The last line of standard output is the JSON result.
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
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_DIR = BENCH / "reference"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

# BLAS runs single-threaded: one thread per process is within every nproc, and
# 1 vs 2 threads measured within noise on the widest checks.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
FLOAT_TOL = 1e-9
TAIL_BEYOND = 10
MAX_ERROR_LINES = 5


def bootstrap() -> str | None:
    """Pin BLAS threads, clear UCTRL_THREADS (so ``parallel_map`` runs
    serially) and import uctrl from this checkout.  Returns the UCTRL_THREADS
    value found in the environment."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    uctrl_threads = os.environ.pop("UCTRL_THREADS", None)
    src = ROOT / "src"
    if not (src / "uctrl" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'uctrl'} not found; run from the root of a uctrl checkout")
    sys.path.insert(0, str(src))
    import uctrl
    if Path(uctrl.__file__).resolve().parent != (src / "uctrl").resolve():
        raise SystemExit(f"error: imported uctrl from {uctrl.__file__}, not from {src}")
    return uctrl_threads


# -- outputs -------------------------------------------------------------------


def plain(obj):
    """JSON round trip: numpy scalars become Python values, tuples lists."""
    return json.loads(json.dumps(obj, default=lambda o: o.item()))


def flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix[:-1]: obj}
    flat = {}
    for key, value in items:
        flat.update(flatten(value, f"{prefix}{key}."))
    return flat


def _same(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return abs(got - want) <= FLOAT_TOL
    return type(got) is type(want) and got == want


def mismatches(output, expect: dict, baseline) -> list[str]:
    """Differences of one job's output from its expected verdicts and from its
    baseline output (discrete fields exactly, floats within FLOAT_TOL)."""
    flat = flatten(output)
    errors = []
    for path, want in expect.items():
        got = flat.get(path)
        if isinstance(want, tuple):
            ok = isinstance(got, float) and want[0] <= got <= want[1]
        else:
            ok = path in flat and _same(got, want)
        if not ok:
            errors.append(f"{path} = {got!r}, expected {want!r}")
    if baseline is not None:
        ref = flatten(baseline)
        if ref.keys() != flat.keys():
            errors.append(f"fields {sorted(flat.keys() ^ ref.keys())} differ from the baseline")
        errors += [f"{path} = {flat[path]!r}, baseline {ref[path]!r}"
                   for path in sorted(flat.keys() & ref.keys()) if not _same(flat[path], ref[path])]
    return errors


class JobError:
    """Stands in for the output of a job that raised."""

    def __init__(self, text: str):
        self.text = text


def run_pass(jobs, ruler: Ruler | None = None) -> tuple[list, list[float], list[float]]:
    """Run every job once; return the outputs, each job's wall time and, with
    a ruler, the ruler's time before every job and after the last."""
    outputs, times, ruler_times = [], [], []
    for job in jobs:
        if ruler is not None:
            ruler_times.append(ruler.time())
        t0 = time.perf_counter()
        try:
            outputs.append(job.run())
        except Exception:
            outputs.append(JobError(traceback.format_exc()))
        times.append(time.perf_counter() - t0)
    if ruler is not None:
        ruler_times.append(ruler.time())
    return outputs, times, ruler_times


class Checker:
    """Counts attempted and failed jobs.  The baseline of a job is its
    recorded reference for this seed, else its warm-up output."""

    def __init__(self, jobs, reference: dict | None):
        self.jobs = jobs
        self.reference = reference
        self.baselines = None
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def check(self, outputs) -> None:
        outputs = [o if isinstance(o, JobError) else plain(o) for o in outputs]
        if self.baselines is None:
            if self.reference is not None:
                self.baselines = [self.reference.get(job.name, {"missing reference": True})
                                  for job in self.jobs]
            else:
                self.baselines = [None if isinstance(o, JobError) else o for o in outputs]
        for job, out, base in zip(self.jobs, outputs, self.baselines):
            self.attempted += 1
            errors = [out.text] if isinstance(out, JobError) else mismatches(out, job.expect, base)
            if errors:
                self.failed += 1
                if self._reported < MAX_ERROR_LINES:
                    self._reported += 1
                    print(f"job {job.name} failed: " + "; ".join(errors), file=sys.stderr)


def load_reference(seed: int, workload: str) -> dict | None:
    path = REFERENCE_DIR / f"seed-{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["workloads"][workload]


# -- run record ----------------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uctrl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, uctrl_threads: str | None, size: str) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": size,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {var: os.environ[var] for var in BLAS_ENV},
        "UCTRL_THREADS": "unset" if uctrl_threads is None else f"unset (was {uctrl_threads!r})",
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }


# -- calibration ---------------------------------------------------------------

# The ruler's time on the reference host (2 vCPUs of a shared virtual machine,
# Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on 1 thread), about its median.
RULER_REF_S = 0.009


class Ruler:
    """A fixed calibration kernel, independent of uctrl, timed beside the jobs.

    On a shared host the speed of every process swings by 20-40% for minutes
    at a time, so a job's wall time moves with the host as much as with the
    code.  The kernel mixes what the workloads spend their time on: small
    complex matrix products and norms in a Python loop, one dense SVD, and a
    pure-Python loop (about 3, 5.5 and 1 ms on the reference host).  A job
    timed between two ruler readings is measured in ruler units, which cancel
    most of the swing; ``RULER_REF_S`` turns ruler units back into seconds
    at the reference host's speed.  The kernel's inputs come from a fixed
    seed, never from the workload seed."""

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(20112010031)
        self.small = (rng.standard_normal((2, 16, 16))
                      + 1j * rng.standard_normal((2, 16, 16)))
        self.dense = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
        for _ in range(3):  # warm caches and BLAS before the first reading
            self.time()

    def time(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        x = self.small[0]
        for _ in range(300):
            x = self.small[1] @ x
            x = x / np.linalg.norm(x)
        np.linalg.svd(self.dense, compute_uv=False)
        acc = 0
        for i in range(20000):
            acc += i & 7
        return time.perf_counter() - t0


def ruler_seconds(passes: list[list[float]], ruler_times: list[list[float]]) -> list[float]:
    """Each job's time in ruler units, median over the passes, in seconds at
    the reference speed.  A job's reading is its wall time over the mean of
    the ruler readings just before and just after it."""
    per_job = zip(*([t / (0.5 * (r[j] + r[j + 1])) for j, t in enumerate(times)]
                    for times, r in zip(passes, ruler_times)))
    return [RULER_REF_S * statistics.median(job) for job in per_job]


# -- runs ----------------------------------------------------------------------


def measure_setup(workload: str, seed: int, ruler: Ruler) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ready: spawn to the child's "ready" line.  Returns
    the wall times and the same times in seconds at the reference speed (each
    over the mean of the ruler readings just before and after it)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = ruler.time()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        times.append(elapsed)
        scaled.append(RULER_REF_S * elapsed / (0.5 * (before + ruler.time())))
    return times, scaled


def timed_passes(jobs, checker: Checker, seconds: float,
                 ruler: Ruler) -> tuple[list[list[float]], list[list[float]]]:
    """Repeat the pass until ``seconds`` have elapsed (at least once); check
    each pass's outputs outside the timing.  Returns per-pass job times and
    ruler readings."""
    passes, ruler_times = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        outputs, times, readings = run_pass(jobs, ruler)
        passes.append(times)
        ruler_times.append(readings)
        checker.check(outputs)
    return passes, ruler_times


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with TAIL_BEYOND passes above it (fewer
    when the run is short): its value, percentile level and passes beyond."""
    ordered = sorted(times)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def timed_run(args, setup, workdir: Path) -> dict:
    ruler = Ruler()
    setup_raw, setup_scaled = measure_setup(args.workload, args.seed, ruler)
    jobs = setup(args.seed, workdir)
    checker = Checker(jobs, load_reference(args.seed, args.workload))
    checker.check(run_pass(jobs)[0])  # untimed warm-up
    passes, ruler_times = timed_passes(jobs, checker, args.seconds, ruler)
    pass_s = [sum(p) for p in passes]
    tail_s, level, beyond = tail(pass_s)
    readings = [r for pass_readings in ruler_times for r in pass_readings]
    metrics = {
        "wall_s": (sum(ruler_seconds(passes, ruler_times)), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(jobs)} jobs; "
          f"wall_s {metrics['wall_s'][0]:.6f} s at the reference speed; raw wall time per "
          f"pass: median {statistics.median(pass_s):.6f} s, p{level:.0f} {tail_s:.6f} s "
          f"({beyond} passes beyond); ruler median {statistics.median(readings) * 1e3:.3f} ms "
          f"(reference {RULER_REF_S * 1e3:.3f} ms) over {len(readings)} readings")
    print(f"# setup_s median of {len(setup_scaled)} {metrics['setup_s'][0]:.6f} s at the "
          f"reference speed (raw median {statistics.median(setup_raw):.6f} s); peak_rss_mb "
          f"{metrics['peak_rss_mb'][0]:.1f}; error_rate {checker.failed}/{checker.attempted}")
    return result(checker, metrics)


def traced_run(args, setup, workdir: Path) -> dict:
    import tracing
    from uctrl import cli, constructions, linalg, model, topology
    tracer = tracing.Tracer({"linalg": linalg, "model": model, "constructions": constructions,
                             "topology": topology, "cli": cli})
    with tracer.installed():
        jobs = setup(args.seed, workdir)
    setup_spans = tracer.mark()
    checker = Checker(jobs, load_reference(args.seed, args.workload))
    checker.check(run_pass(jobs)[0])  # untimed, untraced warm-up
    ruler = Ruler()
    # untraced and traced passes alternate, so that trace.overhead_s compares
    # passes from the same period of a machine whose speed drifts
    untraced, traced = ([], []), ([], [])
    deadline = time.perf_counter() + args.seconds
    while not traced[0] or time.perf_counter() < deadline:
        for (times_sink, ruler_sink), tracing_on in ((untraced, False), (traced, True)):
            with tracer.installed() if tracing_on else contextlib.nullcontext():
                outputs, times, readings = run_pass(jobs, ruler)
            times_sink.append(times)
            ruler_sink.append(readings)
            checker.check(outputs)
    summary = tracer.summarise(setup_spans, len(traced[0]))
    metrics = tracing.layer_metrics(summary)
    overhead = sum(ruler_seconds(*traced)) - sum(ruler_seconds(*untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    mean_traced = statistics.fmean(sum(p) for p in traced[0])
    for line in tracing.report(args.workload, summary, mean_traced, overhead):
        print(line)
    spans = BUILD_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans, setup_spans)
    print(f"# {len(traced[0])} traced and {len(untraced[0])} untraced passes; "
          f"{tracer.mark()} spans written to {spans.relative_to(ROOT)}; "
          f"error_rate {checker.failed}/{checker.attempted}")
    return result(checker, metrics)


def result(checker: Checker, metrics: dict) -> dict:
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    # internal: the fresh interpreter whose set-up time timed runs measure
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    uctrl_threads = bootstrap()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    workdir = BUILD_DIR / f"{args.workload}-{os.getpid()}"
    if args.setup_only:
        setup(args.seed, workdir)
        print("ready", flush=True)
        return 0
    print("# run record: " + json.dumps(run_record(args, uctrl_threads,
                                                   workloads.SIZES[args.workload])))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = (traced_run if args.trace else timed_run)(args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
