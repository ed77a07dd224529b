"""Prime-by-prime measurement of the index map.

Everything analytic in this package predicts frequencies; this module
measures them. A smallest-prime-factor table drives the factorization of
p - 1, multiplicative orders come from exponent descent (strip a prime
from the exponent while the power check still passes), and the index of
each group is (p - 1) over the lcm of its generators' orders. Surveys
count membership in an index set, optionally filtered by a congruence
class on p, and report Wilson intervals. Observation logs make 10^7-scale
scans reusable across queries.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import factorize, is_prime, primes_up_to, valuation
from .errors import ConfigError
from .groups import GroupFamily
from .index_sets import IndexSet

SIEVE_CAP = 10**8
WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class SieveRange:
    """Closed prime range [low, high], capped to keep tables addressable."""

    low: int
    high: int

    def __post_init__(self):
        if not 2 <= self.low <= self.high:
            raise ValueError(f"bad range [{self.low}, {self.high}]")
        if self.high > SIEVE_CAP:
            raise ValueError(f"range exceeds the sieve cap {SIEVE_CAP}")

    @classmethod
    def up_to(cls, x: int) -> "SieveRange":
        return cls(2, int(x))


@lru_cache(maxsize=2)
def spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor for every integer up to limit (int32)."""
    if limit > SIEVE_CAP:
        raise ValueError("table limit exceeds the sieve cap")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            seg = spf[i * i :: i]
            seg[seg == 0] = i
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest  # primes above sqrt(limit), plus harmless 0 and 1
    return spf


def factor_from_spf(m: int, spf: np.ndarray) -> list[tuple[int, int]]:
    out = []
    while m > 1:
        q = int(spf[m])
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        out.append((q, e))
    return out


@dataclass(frozen=True)
class Congruence:
    """Allowed residues of p mod m; the trivial filter admits everything."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        for r in self.residues:
            if not 0 <= r < self.modulus:
                raise ValueError(f"residue {r} outside [0, {self.modulus})")
            if math.gcd(r, self.modulus) != 1:
                raise ValueError(
                    f"residue {r} shares a factor with {self.modulus}; only "
                    "finitely many primes could ever match"
                )

    @classmethod
    def trivial(cls) -> "Congruence":
        return cls(1, frozenset({0}))

    def is_trivial(self) -> bool:
        return self.modulus == 1

    def allows(self, p: int) -> bool:
        return self.is_trivial() or p % self.modulus in self.residues

    def label(self) -> str:
        if self.is_trivial():
            return "all p"
        return f"p mod {self.modulus} in {sorted(self.residues)}"


@dataclass(frozen=True)
class IndexObservation:
    p: int
    psi: tuple[int, ...]


# ---------------------------------------------------------------------------
# the index map at one prime


def _group_order(residues, p: int, pm1_factors) -> int:
    """Order of the subgroup the residues generate, via exponent descent."""
    joint = 1
    pm1 = p - 1
    for r in residues:
        order = pm1
        for q, _ in pm1_factors:
            while order % q == 0 and pow(r, order // q, p) == 1:
                order //= q
        joint = math.lcm(joint, order)
    return joint


def index_tuple(p: int, family: GroupFamily, spf: np.ndarray | None = None):
    """Psi(p), or None when reduction mod p is undefined for a generator."""
    if p in family.support:
        return None
    pm1_factors = (
        factor_from_spf(p - 1, spf) if spf is not None else factorize(p - 1).items()
    )
    psi = []
    for group in family.groups:
        residues = [g.residue(p) % p for g in group.generators]
        if any(r == 0 for r in residues):
            return None
        order = _group_order(residues, p, pm1_factors)
        psi.append((p - 1) // order)
    return tuple(psi)


# ---------------------------------------------------------------------------
# observation streams, with an optional persisted log


class ObservationLog:
    """Append-only text log of (p, Psi(p)) rows for one family and range.

    Header pins the family fingerprint and the range start; the highest
    scanned prime is implicit in the last row. Reuse requires the same
    fingerprint and start, and extends the log in place when a caller
    asks for a higher bound.
    """

    def __init__(self, path: str, family: GroupFamily, low: int):
        self.path = path
        self.family = family
        self.low = low

    def header(self) -> str:
        return f"#indexscan\t{self.family.fingerprint}\t{self.low}\n"

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def validate(self):
        with open(self.path, encoding="utf-8") as fh:
            line = fh.readline().rstrip("\n")
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] != "#indexscan":
            raise ConfigError(f"{self.path} is not an observation log")
        if parts[1] != self.family.fingerprint:
            raise ConfigError(
                "observation log belongs to a different family "
                f"({parts[1]} != {self.family.fingerprint})"
            )
        if int(parts[2]) != self.low:
            raise ConfigError("observation log starts at a different bound")

def observations(
    family: GroupFamily,
    srange: SieveRange,
    *,
    log_path: str | None = None,
):
    """Stream IndexObservations over the range, reusing a log if given.

    Support primes are skipped (their reductions are not well-defined
    units); callers that need the skip count use skipped_in. A log that
    stops short of the requested bound is extended in place.
    """
    log = ObservationLog(log_path, family, srange.low) if log_path else None
    resume_from = srange.low
    write_header = log is not None and not log.exists()
    if log and log.exists():
        log.validate()
        last_logged = srange.low - 1
        with open(log.path, encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                fields = line.split()
                p = int(fields[0])
                last_logged = max(last_logged, p)
                if p <= srange.high:
                    yield IndexObservation(
                        p, tuple(int(x) for x in fields[1:])
                    )
        resume_from = last_logged + 1
        if resume_from > srange.high:
            return

    spf = spf_table(srange.high)
    primes = primes_up_to(srange.high)
    start = bisect.bisect_left(primes, resume_from)
    support = set(family.support)

    sink = None
    if log:
        sink = open(log.path, "a", encoding="utf-8")
        if write_header:
            sink.write(log.header())
    try:
        for p in primes[start:]:
            if p in support:
                continue
            psi = index_tuple(p, family, spf)
            if psi is None:
                continue
            if sink:
                sink.write(f"{p} {' '.join(map(str, psi))}\n")
            yield IndexObservation(p, psi)
    finally:
        if sink:
            sink.close()


def skipped_in(family: GroupFamily, srange: SieveRange) -> int:
    return sum(1 for p in family.support if srange.low <= p <= srange.high)


# ---------------------------------------------------------------------------
# frequency reports


def wilson_interval(hits: int, total: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    z = WILSON_Z
    p_hat = hits / total
    denom = 1 + z * z / total
    center = (p_hat + z * z / (2 * total)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / total + z * z / (4 * total * total))
    half /= denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class FrequencyReport:
    """Counts plus the Wilson 95% interval for one membership question."""

    hits: int
    total: int
    skipped: int
    label: str = ""

    def __post_init__(self):
        if not 0 <= self.hits <= self.total:
            raise ValueError("hits outside [0, total]")

    @property
    def estimate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.hits, self.total)


def survey_many(
    family: GroupFamily,
    srange: SieveRange,
    sets: list[IndexSet],
    congruence: Congruence | None = None,
    *,
    log_path: str | None = None,
) -> tuple[FrequencyReport, ...]:
    """One scan, several membership questions answered from it."""
    congruence = congruence or Congruence.trivial()
    hits = [0] * len(sets)
    total = 0
    for obs in observations(family, srange, log_path=log_path):
        if not congruence.allows(obs.p):
            continue
        total += 1
        for j, s in enumerate(sets):
            if s.contains(obs.psi):
                hits[j] += 1
    skipped = skipped_in(family, srange)
    return tuple(
        FrequencyReport(h, total, skipped, label=s.label())
        for h, s in zip(hits, sets)
    )


def survey(
    family: GroupFamily,
    srange: SieveRange,
    index_set: IndexSet,
    congruence: Congruence | None = None,
    *,
    log_path: str | None = None,
) -> FrequencyReport:
    return survey_many(
        family, srange, [index_set], congruence, log_path=log_path
    )[0]


@dataclass(frozen=True)
class DistributionReport:
    """Empirical distribution of one prime's valuation tuples.

    Bucket keys clamp each coordinate at max_v + 1, so the last bucket
    along a coordinate means "anything larger". Buckets partition the
    scanned primes: their counts sum to the total exactly.
    """

    ell: int
    max_v: int
    total: int
    skipped: int
    buckets: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if sum(c for _, c in self.buckets) != self.total:
            raise ValueError("buckets do not partition the scan")

    def count(self, v: tuple[int, ...]) -> int:
        for key, c in self.buckets:
            if key == v:
                return c
        return 0

    def frequency(self, v: tuple[int, ...]) -> Fraction:
        if self.total == 0:
            return Fraction(0)
        return Fraction(self.count(v), self.total)

    def wilson(self, v: tuple[int, ...]) -> tuple[float, float]:
        return wilson_interval(self.count(v), self.total)


def distribution(
    family: GroupFamily,
    srange: SieveRange,
    ell: int,
    max_v: int,
    congruence: Congruence | None = None,
    *,
    log_path: str | None = None,
) -> DistributionReport:
    """Empirical law of v_ell(Psi(p)) over the range, overflow clamped."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    congruence = congruence or Congruence.trivial()
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for obs in observations(family, srange, log_path=log_path):
        if not congruence.allows(obs.p):
            continue
        total += 1
        key = tuple(min(valuation(x, ell), max_v + 1) for x in obs.psi)
        counts[key] = counts.get(key, 0) + 1
    buckets = tuple(sorted(counts.items()))
    return DistributionReport(
        ell, max_v, total, skipped_in(family, srange), buckets
    )
