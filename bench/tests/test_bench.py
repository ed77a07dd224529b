"""Tests of the benchmark itself: answer checks, digest, tracing.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ARTIN, Job  # noqa: E402


def _payload(low: Fraction, high: Fraction) -> dict:
    return {"value": {"low": str(low), "high": str(high)}}


def _job(workload: str, prefix: str) -> Job:
    return next(j for j in workloads.jobs_for(workload, 0, "log") if j.name.startswith(prefix))


def test_checker_accepts_the_reference_and_rejects_widened_or_shifted():
    job = _job("euler", "euler-eq1-<2>")
    low, high = ARTIN - Fraction(1, 10**6), ARTIN + Fraction(1, 10**6)
    assert workloads.check(job, 0, _payload(low, high)) is None
    widened = _payload(low - Fraction(1, 10**3), high + Fraction(1, 10**3))
    assert "width" in workloads.check(job, 0, widened)
    shift = Fraction(3, 10**6)
    assert "excludes" in workloads.check(job, 0, _payload(low + shift, high + shift))
    assert "exit code 2" in workloads.check(job, 2, None)


def test_checker_holds_sieve_references():
    job = _job("euler", "euler-eq11")
    hits, total = job.frozen
    center = Fraction(hits, total)
    width = Fraction(1, 10**5)
    assert workloads.check(job, 0, _payload(center, center + width)) is None
    shifted = center + Fraction(1, 100)
    assert "sieve" in workloads.check(job, 0, _payload(shifted, shifted + width))

    survey = _job("sieve", "survey-eq11")
    hits, total = survey.count
    good = {"hits": hits, "total": total}
    assert workloads.check(survey, 0, good) is None
    assert "counted" in workloads.check(survey, 0, {"hits": hits + 1, "total": total})


def test_prime_count_table_matches_a_sieve():
    n = max(workloads.PRIME_COUNT)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    counts = np.cumsum(sieve)
    for bound, pi in workloads.PRIME_COUNT.items():
        assert counts[bound] == pi, bound


def test_every_seed_draws_from_the_pool():
    assert workloads.generator(workloads.DEFAULT_SEED) == 2
    for seed in range(1, 40):
        a = workloads.generator(seed)
        assert a in workloads.POOL
        for workload in workloads.WORKLOADS:
            assert workloads.jobs_for(workload, seed, "log")


def small_setup(work: str) -> run.Setup:
    """A real set-up whose job list is cut down to a few quick jobs."""
    setup = run.set_up("logged", 0, work)
    log = setup.log_path
    base = {"groups": [["2"]], "log_path": log}
    jobs = [
        Job("survey", "survey", {**base, "set": workloads.EQ1, "sieve_bound": 10**5}, 1),
        Job(
            "compare",
            "compare",
            {**base, "set": workloads.KFREE2, "method": "euler", "cutoff": 2000, "sieve_bound": 2 * 10**5},
            1,
        ),
        Job(
            "series",
            "density",
            {"groups": [["2"]], "method": "series", "truncation": 300, "level_map": {"kind": "times", "t": 2}},
            1,
        ),
    ]
    setup.jobs = jobs
    setup.paths = run.write_configs(jobs, work)
    return setup


@pytest.fixture
def small(tmp_path) -> run.Setup:
    return small_setup(str(tmp_path))


def test_digest_is_stable_across_two_runs(tmp_path):
    passes = [run.run_pass(small_setup(str(tmp_path / str(k))), None) for k in range(2)]
    assert [r.code for r in passes[0].results] == [0, 0, 0]
    digests = {workloads.digest([r.answer for r in p.results]) for p in passes}
    assert len(digests) == 1
    compare = passes[0].results[1]
    assert compare.log_read > 0 and compare.log_written > 0


def _bindings(package: str = "indexdensity") -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_tracing_restores_every_wrapped_function(small):
    before = _bindings()
    installed = tracing.install(tracing.Tracer())
    during = _bindings()
    changed = [k for k in before if during[k] is not before[k]]
    assert {("indexdensity.artin", "euler_phi"), ("indexdensity.arith", "euler_phi")} <= set(changed)
    assert ("indexdensity.index_sets", "Equals", "contains") in changed
    installed.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_no_more_than_wall(small):
    tracer = tracing.Tracer()
    start = run.time.perf_counter()
    traced = run.run_pass(small, tracer)
    wall = run.time.perf_counter() - start
    self_times = tracer.self_times()
    assert self_times.min() >= -1e-9
    assert self_times.sum() <= traced.wall <= wall
    stats = tracer.stats()
    assert stats["cli.main"][0] == len(small.jobs)
    assert stats["empirical.index_tuple"][0] > 0

    layers = tracing.layer_metrics(tracer, 0, 0)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(layers) | {"trace.overhead"} == {m["name"] for m in spec["per_layer"]}
