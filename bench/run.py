"""Benchmark of the indexdensity CLI: one workload per run, answers checked.

Run from the repository root:

    python3 bench/run.py --workload euler --seed 0 --seconds 30 --trace 0

A workload is a fixed list of CLI jobs (workloads.py), each run in this
process through ``indexdensity.cli.main`` with a generated JSON config.
The load is a closed loop with one client: a job starts when the previous
one has finished; there are no threads and no subprocesses.  The package's
memo caches are cleared and garbage is collected before every job, as a
fresh CLI process starts with neither.  The job list is repeated as passes
while another pass still fits in ``--seconds`` (at least one pass).  A
workload's time is the sum over its jobs of each job's median time over
the passes.

Every time is reported in reference seconds.  A shared or throttled
machine drifts in speed by tens of percent over minutes, for every process
alike.  So a fixed pure-Python loop is timed right before and after each
job, outside the timed region, and the job's time is scaled by
REFERENCE_S over the loop's mean time there; set-up times are scaled by
the loop's median time over the set-ups.  A change to the package moves
the scaled times; a slower or faster machine much less so.  The raw times
and the scales are kept in the results file.

With ``--trace 1`` untraced and traced passes alternate, at least one of
each.  The traced ones wrap the package's layer functions from outside
(tracing.py) and give the per-layer metrics; ``trace.overhead`` is traced
over untraced time.

Every job's answer is checked against a reference outside the timed code.
A job fails on an unexpected exit code or a failed check, and is counted,
not dropped.  Jobs marked as known defects may fail without making the
run incorrect; any other failure, or answers that differ between passes,
does.  The last line of output is the JSON result.  Per-job details, the
answer digest and machine information go to bench/out/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "indexdensity"
REFERENCE_S = 0.016  # the reference loop's time on a quiet 2-vCPU Xeon, Python 3.11
SETUPS = 5

sys.path.insert(0, HERE)
import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The package under test cannot be imported from this checkout."""


@dataclass
class Setup:
    cli: object
    jobs: list
    paths: list[str]
    log_path: str
    caches: list


@dataclass
class JobResult:
    code: int
    seconds: float
    payload: dict | None
    failure: str | None
    answer: str
    scale: float
    log_written: int = 0
    log_read: int = 0


@dataclass
class Pass:
    results: list[JobResult]
    tracer: tracing.Tracer | None = None
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.results)


def set_up(workload: str, seed: int, work: str) -> Setup:
    """Import the package afresh from src/ and write the job configs."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        cli = importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"{PACKAGE} was imported from {cli.__file__}, not {SRC}")
    log_path = os.path.join(work, "observations.log")
    jobs = workloads.jobs_for(workload, seed, log_path)
    paths = write_configs(jobs, work)
    caches = {}
    for name, module in sys.modules.items():
        if name.startswith(PACKAGE + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return Setup(cli, jobs, paths, log_path, list(caches.values()))


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def write_configs(jobs: list, work: str) -> list[str]:
    os.makedirs(work, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = os.path.join(work, f"job{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job.config, fh)
        paths.append(path)
    return paths


def run_job(setup: Setup, i: int) -> JobResult:
    job = setup.jobs[i]
    for cache in setup.caches:
        cache.cache_clear()
    gc.collect()
    before = reference_loop()
    logged = "log_path" in job.config
    log_before = os.path.getsize(setup.log_path) if logged and os.path.exists(setup.log_path) else 0
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = setup.cli.main([job.command, "--config", setup.paths[i]])
        except Exception:  # a crash fails this job; the run goes on
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    scale = 2 * REFERENCE_S / (before + reference_loop())
    text = out.getvalue()
    payload = json.loads(text)["result"] if text else None
    failure = workloads.check(job, code, payload)
    if failure and code != 0 and err.getvalue():
        failure += ": " + err.getvalue().strip().splitlines()[-1][:200]
    answer = workloads.answer(job, code, payload)
    result = JobResult(code, seconds, payload, failure, answer, scale)
    if logged:
        result.log_read = log_before
        result.log_written = os.path.getsize(setup.log_path) - log_before
    return result


def run_pass(setup: Setup, tracer: tracing.Tracer | None) -> Pass:
    if os.path.exists(setup.log_path):
        os.remove(setup.log_path)  # every pass writes a fresh log
    installed = tracing.install(tracer, PACKAGE) if tracer else None
    try:
        results = []
        for i in range(len(setup.jobs)):
            if tracer:
                tracer.job = i
            results.append(run_job(setup, i))
    finally:
        if installed:
            installed.restore()
    return Pass(results, tracer)


def run_passes(setup: Setup, seconds: float, traced: bool) -> list[Pass]:
    """Passes while another fits in the time; traced runs alternate kinds."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced and len(passes) % 2 == 1 else None
        passes.append(run_pass(setup, tracer))
        elapsed = time.perf_counter() - start
        longest = max(p.wall for p in passes)
        if len(passes) >= 1 + traced and elapsed + longest > seconds:
            return passes


def median_wall(passes: list[Pass]) -> float:
    """Sum over jobs of each job's median scaled time across the passes."""
    return sum(
        statistics.median(p.results[j].seconds * p.results[j].scale for p in passes)
        for j in range(len(passes[0].results))
    )


def certified_digits(setup: Setup, results: list[JobResult]) -> float:
    """Smallest -log10(width) over the passed analytic jobs.

    A workload with no analytic job (sieve) uses its surveys' Wilson
    intervals instead, since every workload reports every metric.  An
    exact answer (width 0) does not limit the digits.
    """
    analytic, wilson = [], []
    for job, r in zip(setup.jobs, results):
        if r.failure:
            continue
        interval = workloads.analytic_interval(job, r.payload)
        if interval is not None:
            analytic.append(float(interval[1] - interval[0]))
        elif job.command == "survey":
            wilson.append(r.payload["wilson_high"] - r.payload["wilson_low"])
    widths = [w for w in analytic or wilson if w > 0]
    return min(-math.log10(w) for w in widths) if widths else 0.0


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def metric_units(traced: bool) -> dict[str, str]:
    """Name and unit of every metric BENCHMARK.json asks of this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", args.workload)
    try:
        setup = set_up(args.workload, args.seed, work)
        setups = [time.perf_counter() - T0]  # the first set-up counts from process start
        reference = [reference_loop()]
        for _ in range(SETUPS - 1):
            start = time.perf_counter()
            setup = set_up(args.workload, args.seed, work)
            setups.append(time.perf_counter() - start)
            reference.append(reference_loop())
        units = metric_units(bool(args.trace))
    except (SetupError, OSError, ValueError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    passes = run_passes(setup, args.seconds, bool(args.trace))
    plain = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    for stale in glob.glob(os.path.join(OUT, f"spans-{args.workload}-pass*.npz")):
        os.remove(stale)
    for k, p in enumerate(traced):
        log_written = sum(r.log_written for r in p.results)
        log_read = sum(r.log_read for r in p.results)
        p.layers = tracing.layer_metrics(p.tracer, log_written, log_read)
        p.tracer.save(os.path.join(OUT, f"spans-{args.workload}-pass{k}.npz"))
        p.tracer = None  # drop the spans once written

    all_results = [r for p in passes for r in p.results]
    attempted = len(all_results)
    failed = sum(1 for r in all_results if r.failure)
    digests = {workloads.digest([r.answer for r in p.results]) for p in passes}
    unexpected = [
        (job.name, r.failure)
        for p in passes
        for job, r in zip(setup.jobs, p.results)
        if r.failure and not job.known_defect
    ]
    correct = not unexpected and len(digests) == 1

    if args.trace:
        scale = statistics.median(r.scale for p in traced for r in p.results)
        values = {
            name: statistics.median(p.layers[name] for p in traced)
            * (scale if name.endswith(".self_s") else 1)
            for name in traced[0].layers
        }
        values["trace.overhead"] = median_wall(traced) / median_wall(plain)
    else:
        wall = median_wall(plain)
        values = {
            "setup_s": statistics.median(setups) * REFERENCE_S / statistics.median(reference),
            "wall_s": wall,
            "units_per_s": sum(job.units for job in setup.jobs) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "certified_digits": certified_digits(setup, plain[0].results),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    first = passes[0].results
    for job, r in zip(setup.jobs, first):
        status = "ok" if not r.failure else ("KNOWN DEFECT" if job.known_defect else "FAILED")
        print(f"{job.name:32s} {r.seconds:8.3f} s  {status}  {r.failure or ''}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} jobs over {len(passes)} passes)")
    print(f"answer digest {' '.join(sorted(digests))}")
    for name, failure in unexpected:
        print(f"unexpected failure: {name}: {failure}")

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "digest": sorted(digests),
        "failed_frac": failed / attempted,
        "setups_s": setups,
        "setup_reference_s": reference,
        "passes": [
            {
                "traced": bool(p.layers),
                "raw_s": p.wall,
                "jobs": [
                    {
                        "name": job.name,
                        "seconds": r.seconds,
                        "scale": r.scale,
                        "exit": r.code,
                        "failure": r.failure,
                        "known_defect": job.known_defect,
                        "answer": r.answer,
                    }
                    for job, r in zip(setup.jobs, p.results)
                ],
            }
            for p in passes
        ],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
