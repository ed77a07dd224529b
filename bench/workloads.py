"""Job lists, references and answer checks for the benchmark workloads.

Every reference here comes from outside the code being timed: the
37-digit Artin constant and Hooley's closed forms from the literature,
prime counts pi(N) from published tables, and sieve hit counts frozen
from an order computation written independently of the package (sympy's
``n_order`` over all primes up to 10^7).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# 37 digits of Artin's constant A, as frozen in tests/test_acceptance.py.
ARTIN = Fraction(3739558136192022880547280543464164151, 10**37)

# Non-powers whose squarefree part is not 1 mod 4: by Hooley, the density
# of primes with index 1 for each of them is exactly A.  Generators with a
# prime >= 7 in their support are left out because the corrected routes
# refuse them at the sampling reliability cap, so they would time a
# refusal instead of the same computation.
POOL = (2, 3, 6, 10, 15)
DEFAULT_SEED = 0

PRIME_COUNT = {
    1000: 168,
    2 * 10**4: 2262,
    10**5: 9592,
    2 * 10**6: 148933,
    3 * 10**6: 216816,
    4 * 10**6: 283146,
    10**7: 664579,
}

# Hits over the primes p <= bound outside the support, keyed by
# (set, generators, bound); the totals follow from PRIME_COUNT.
FROZEN_HITS = {
    ("eq1", (2,), 10**7): 248491,
    ("eq1", (3,), 10**7): 248627,
    ("eq1", (6,), 10**7): 248495,
    ("eq1", (10,), 10**7): 248881,
    ("eq1", (15,), 10**7): 248807,
    ("eq1", (2,), 3 * 10**6): 81104,
    ("eq11", (2, 3), 2 * 10**6): 21886,
    ("eq11", (2, 3), 10**7): 97913,
    ("kfree2", (2,), 3 * 10**6): 185741,
    ("kfree2", (2,), 10**7): 569499,
    ("eq2", (2,), 4 * 10**6): 79454,
    ("eq2", (2,), 10**7): 186594,
    ("prime", (2,), 10**7): 257483,
    ("div12", (2, 3), 10**7): 479257,
}

# Sieve checks use a 4-sigma Wilson interval: the frozen counts are fixed,
# so the check is deterministic and only a real shift can fail it.
SIEVE_Z = 4.0

WORKLOADS = ("euler", "sieve", "series", "logged")


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its answer must satisfy."""

    name: str
    command: str
    config: dict
    units: int
    reference: Fraction | None = None
    frozen: tuple[int, int] | None = None
    count: tuple[int, int] | None = None
    max_width: Fraction | None = None
    known_defect: str | None = None


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def squarefree_count(n: int) -> int:
    flags = bytearray([1]) * (n + 1)
    for d in range(2, math.isqrt(n) + 1):
        flags[d * d :: d * d] = bytes(len(range(d * d, n + 1, d * d)))
    return sum(flags) - 1


def support_total(gens: tuple[int, ...], bound: int) -> int:
    """Primes p <= bound that the survey indexes: pi(bound) minus support."""
    support = {q for g in gens for q in prime_factors(g)}
    return PRIME_COUNT[bound] - sum(1 for q in support if q <= bound)


def frozen(kind: str, gens: tuple[int, ...], bound: int) -> tuple[int, int]:
    """The frozen (hits, total) sieve count of one set and family."""
    return FROZEN_HITS[(kind, gens, bound)], support_total(gens, bound)


def euler_width(n: int, cutoff: int) -> Fraction:
    """Twice the Euler-route tail allowance 2^n/cutoff on a density <= 1."""
    return Fraction(2 ** (n + 1), cutoff)


def generator(seed: int) -> int:
    """The rank-one generator of the jobs whose reference is A."""
    if seed == DEFAULT_SEED:
        return POOL[0]
    return random.Random(seed).choice(POOL)


def _groups(*gens: int) -> list[list[str]]:
    return [[str(g)] for g in gens]


def _survey(name, kind, gens, set_desc, bound, **extra) -> Job:
    count = frozen(kind, gens, bound)
    cfg = {"groups": _groups(*gens), "set": set_desc, "sieve_bound": bound, **extra}
    return Job(name, "survey", cfg, count[1], count=count)


def _euler(name, gens, set_desc, cutoff, **kw) -> Job:
    cfg = {
        "groups": _groups(*gens),
        "set": set_desc,
        "method": "euler",
        "mode": "corrected",
        "cutoff": cutoff,
    }
    width = euler_width(len(gens), cutoff)
    return Job(name, "density", cfg, PRIME_COUNT[cutoff], max_width=width, **kw)


EQ1 = {"kind": "equals", "tuple": [1]}
EQ11 = {"kind": "equals", "tuple": [1, 1]}
EQ2 = {"kind": "equals", "tuple": [2]}
KFREE2 = {"kind": "kfree", "k": 2}


def jobs_for(workload: str, seed: int, log_path: str) -> list[Job]:
    """The fixed job list of one workload.

    The seed picks the generator a of the rank-one jobs whose reference is
    A.  Jobs that track a known defect keep the generator that shows it,
    so no seed hides a defect; series and logged do not use the seed.
    """
    a = generator(seed)
    if workload == "euler":
        return [
            _euler(f"euler-eq1-<{a}>", (a,), EQ1, 10**5, reference=ARTIN),
            _euler(
                "euler-eq11-<2>,<3>",
                (2, 3),
                EQ11,
                10**5,
                frozen=frozen("eq11", (2, 3), 10**7),
            ),
            _euler(
                "euler-kfree2-<2>",
                (2,),
                KFREE2,
                2 * 10**4,
                frozen=frozen("kfree2", (2,), 10**7),
            ),
            _euler(
                "euler-eq1-<5>",
                (5,),
                EQ1,
                10**5,
                reference=ARTIN * Fraction(20, 19),
                known_defect="returns A, not A*20/19: sqrt(5) lies in Q(zeta_5)",
            ),
        ]
    if workload == "sieve":
        return [
            _survey(f"survey-eq1-<{a}>-1e7", "eq1", (a,), EQ1, 10**7),
            _survey("survey-eq11-<2>,<3>-2e6", "eq11", (2, 3), EQ11, 2 * 10**6),
        ]
    if workload == "series":
        series = {"groups": _groups(2), "method": "series"}
        return [
            Job(
                "series-generic-<2>-1e4",
                "density",
                {**series, "mode": "generic"},
                squarefree_count(10**4),
                reference=ARTIN,
                max_width=Fraction(1, 100),
                known_defect="exit 2: the unrounded tail is too long to print",
            ),
            Job(
                "series-corrected-<2>-3000",
                "density",
                {**series, "mode": "corrected", "truncation": 3000},
                squarefree_count(3000),
                reference=ARTIN,
                max_width=Fraction(2, 100),
                known_defect="the interval excludes A",
            ),
            Job(
                "series-times2-<2>-3000",
                "density",
                {**series, "level_map": {"kind": "times", "t": 2}, "truncation": 3000},
                squarefree_count(3000),
                frozen=frozen("eq2", (2,), 10**7),
                max_width=Fraction(2, 100),
            ),
            Job(
                "singletons-primes-<2>-1000",
                "density",
                {
                    "groups": _groups(2),
                    "set": {"kind": "primes"},
                    "method": "singletons",
                    "bound": 1000,
                },
                PRIME_COUNT[1000],
                frozen=frozen("prime", (2,), 10**7),
                max_width=Fraction(1, 1000),
            ),
            Job(
                "singletons-div12-<2>,<3>-1000",
                "density",
                {
                    "groups": _groups(2, 3),
                    "set": {"kind": "divides", "tuple": [12, 12]},
                    "method": "singletons",
                    "bound": 1000,
                },
                36,  # the pairs of divisors of 12
                frozen=frozen("div12", (2, 3), 10**7),
                max_width=Fraction(1, 1000),
                known_defect="generic mode gives 0.7414, the sieve 0.7212: "
                "sqrt(3) lies in Q(zeta_12)",
            ),
        ]
    if workload == "logged":
        logged = {"log_path": log_path}
        compare = {
            **logged,
            "groups": _groups(2),
            "method": "euler",
            "mode": "corrected",
            "cutoff": 2 * 10**4,
        }
        width = euler_width(1, 2 * 10**4)
        kfree_total = support_total((2,), 3 * 10**6)
        eq2_total = support_total((2,), 4 * 10**6)
        return [
            _survey("survey-log-eq1-<2>-3e6", "eq1", (2,), EQ1, 3 * 10**6, **logged),
            Job(
                "compare-kfree2-<2>-3e6",
                "compare",
                {**compare, "set": KFREE2, "sieve_bound": 3 * 10**6},
                kfree_total,
                frozen=frozen("kfree2", (2,), 10**7),
                count=frozen("kfree2", (2,), 3 * 10**6),
                max_width=width,
            ),
            Job(
                "compare-eq2-<2>-4e6",
                "compare",
                {**compare, "set": EQ2, "sieve_bound": 4 * 10**6},
                eq2_total,
                frozen=frozen("eq2", (2,), 10**7),
                count=frozen("eq2", (2,), 4 * 10**6),
                max_width=width,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# answers


def wilson(hits: int, total: int, z: float) -> tuple[float, float]:
    p = hits / total
    denom = 1 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return center - half, center + half


def analytic_interval(job: Job, payload: dict) -> tuple[Fraction, Fraction] | None:
    if job.command == "compare":
        payload = payload["analytic"]
    elif job.command != "density":
        return None
    value = payload["value"]
    return Fraction(value["low"]), Fraction(value["high"])


def counts(job: Job, payload: dict) -> tuple[int, int] | None:
    if job.command == "compare":
        payload = payload["empirical"]
    elif job.command != "survey":
        return None
    return payload["hits"], payload["total"]


def check(job: Job, code: int, payload: dict | None) -> str | None:
    """Why the job's answer is wrong, or None when it passes."""
    if code != 0 or payload is None:
        return f"exit code {code}"
    interval = analytic_interval(job, payload)
    if interval is not None:
        low, high = interval
        if job.max_width is not None and high - low > job.max_width:
            return f"interval width {float(high - low):.3g} > {float(job.max_width):.3g}"
        if job.reference is not None and not low <= job.reference <= high:
            return f"[{float(low):.6f}, {float(high):.6f}] excludes {float(job.reference):.6f}"
        if job.frozen is not None:
            w_low, w_high = wilson(*job.frozen, SIEVE_Z)
            if float(high) < w_low or w_high < float(low):
                return (
                    f"[{float(low):.6f}, {float(high):.6f}] misses the sieve "
                    f"interval [{w_low:.6f}, {w_high:.6f}]"
                )
    got = counts(job, payload)
    if got is not None and job.count is not None and got != job.count:
        return f"counted {got[0]}/{got[1]}, expected {job.count[0]}/{job.count[1]}"
    return None


def answer(job: Job, code: int, payload: dict | None) -> str:
    """Every numeric answer of a job, exactly, as one line for the digest."""
    parts = [job.name, f"exit={code}"]
    if payload is not None:
        interval = analytic_interval(job, payload)
        if interval is not None:
            parts.extend(f"{x.numerator}/{x.denominator}" for x in interval)
        got = counts(job, payload)
        if got is not None:
            parts.append(f"{got[0]}/{got[1]}")
    return " ".join(parts)


def digest(answers: list[str]) -> str:
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()
