"""Prime-by-prime measurement of the index map.

Everything analytic in this package predicts frequencies; this module
measures them. The index map runs on whole blocks of primes at once in
int64 numpy arithmetic, which is exact because every prime is at most
SIEVE_CAP < 2^31. Each generator is reduced mod p by square-and-multiply
over its factored exponents, and a smallest-prime-factor table drives the
factorization of p - 1. Indices come from power-residue tests: q divides
the index of r exactly when r^((p - 1)/q) = 1, so one right-to-left
square-and-multiply per generator, its squarings shared, tests every
prime q of p - 1 at once, with the rows sorted so that each q runs on a
prefix of them. In the cyclic group F_p^* the index of a group is the gcd
of its generators' indices. Surveys count membership in an index set once
per distinct index tuple, optionally filtered by a congruence class on p,
and report Wilson intervals. Observation logs make 10^7-scale scans
reusable across queries.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import is_prime, primes_up_to, valuation
from .errors import ConfigError
from .groups import GroupFamily
from .index_sets import IndexSet

SIEVE_CAP = 10**8
_CHUNK = 1 << 14  # primes per pass of the index kernel
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
    spf = np.arange(limit + 1, dtype=np.int32)  # primes, 0 and 1 keep themselves
    for i in reversed(primes_up_to(math.isqrt(limit))):
        spf[i * i :: i] = i  # the smaller primes write last
    return spf


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

    def allows(self, p: int | np.ndarray):
        """Whether the filter admits p, elementwise for an array of primes."""
        return np.isin(np.asarray(p) % self.modulus, sorted(self.residues))

    def label(self) -> str:
        if self.is_trivial():
            return "all p"
        return f"p mod {self.modulus} in {sorted(self.residues)}"


@dataclass(frozen=True)
class IndexObservation:
    p: int
    psi: tuple[int, ...]


# ---------------------------------------------------------------------------
# the index map, one batch of primes at a time
#
# Every residue is below SIEVE_CAP < 2^31, so the product of two residues
# fits in int64 and the arithmetic below is exact.


def _powmod(base: np.ndarray, exps: list, mod: np.ndarray) -> list:
    """base^x mod mod for each exponent array x, on x's prefix of the last axis.

    Right-to-left square-and-multiply (0 <= base < mod, x >= 0): the
    squarings base^(2^j) are shared by every x, which each stop at their
    own bit length. The multiplier (x & 1) (base - 1) + 1 is base on odd
    bits and 1 on even ones, with no branch; every step works in place.
    """
    base, exps = base.copy(), [x.copy() for x in exps]
    outs = [np.where(x & 1, base[..., : x.size], 1) for x in exps]
    bits = [int(x.max(initial=0)).bit_length() for x in exps]
    step = np.empty_like(base)
    for j in range(1, max(bits, default=0)):
        live = [(x, out) for x, out, n in zip(exps, outs, bits) if n > j]
        n = max(x.size for x, _ in live)
        base[..., :n] *= base[..., :n]
        base[..., :n] %= mod[:n]
        for x, out in live:
            x >>= 1
            s = step[..., : x.size]
            np.subtract(base[..., : x.size], 1, out=s)
            s *= x & 1
            s += 1
            out *= s
            out %= mod[: x.size]
    return outs


def _reduce(x: int, mod: np.ndarray) -> np.ndarray:
    """x mod each entry, for a natural number x of any size (31-bit limbs)."""
    out = np.zeros_like(mod)
    for shift in reversed(range(0, x.bit_length(), 31)):
        out = ((out << 31) + ((x >> shift) & 0x7FFFFFFF)) % mod
    return out


def _residues(primes: np.ndarray, family: GroupFamily) -> np.ndarray:
    """Every generator of every group reduced mod each prime, one row each."""
    pm1 = primes - 1
    gens = [g for group in family.groups for g in group.generators]
    out = np.empty((len(gens), primes.size), dtype=np.int64)
    for r, g in zip(out, gens):
        r[:] = 1 if g.sign > 0 else pm1
        for q, e in g.exponents:
            r[:] = r * _powmod(_reduce(q, primes), [e % pm1], primes)[0] % primes
    return out


def _slots(pm1: np.ndarray, spf: np.ndarray | None):
    """A row order by omega(p - 1), most distinct primes first, and one slot per rank.

    Slot k is a pair of arrays (q, q^e) over the first n_k rows of that
    order, the rows whose p - 1 has more than k distinct primes: q is the
    k-th smallest of them and q^e exactly divides p - 1. q comes from the
    spf table, or from trial division without one.
    """
    live, ranks = np.flatnonzero(pm1 > 1), []
    c, omega = pm1[live], np.zeros(pm1.size, dtype=np.int8)
    while live.size:  # c is the part of p - 1 left to factor on the live rows
        q = _least_factor(c) if spf is None else spf[c].astype(np.int64)
        c //= q
        q_e, again = q.copy(), np.flatnonzero(c % q == 0)
        while again.size:
            c[again] //= q[again]
            q_e[again] *= q[again]
            again = again[c[again] % q[again] == 0]
        omega[live] += 1
        ranks.append((live, q, q_e))
        live, c = live[c > 1], c[c > 1]
    sort = [np.argsort(-omega[live], kind="stable") for live, _, _ in ranks]
    slots = [(q[at], q_e[at]) for at, (_, q, q_e) in zip(sort, ranks)]
    return np.argsort(-omega, kind="stable"), slots


def _indices(primes: np.ndarray, residues: np.ndarray, slots) -> np.ndarray:
    """[F_p^* : <r>] for each residue r (one row per generator, columns in slot order).

    For a slot (q, q^e), y = r^((p - 1) / q^e) has order q^s, and the
    q-part of the index is q^(e - s): q^e when y = 1, and otherwise found
    by lifting y <- y^q on the few columns with e > 1. One shared
    square-and-multiply per residue computes y for every slot at once.
    """
    ys = _powmod(residues, [(primes[: q.size] - 1) // q_e for q, q_e in slots], primes)
    index = np.ones_like(residues)
    for (q, q_e), y in zip(slots, ys):
        index[:, : q.size] *= np.where(y == 1, q_e, 1)
        gen, col = np.nonzero((y != 1) & (q_e > q))
        y, q, p, f = y[gen, col], q[col], primes[col], q_e[col] // q[col]
        while gen.size:  # f = q^(e - s) if this lift reaches 1
            y = _powmod(y, [q], p)[0]
            hit = y == 1
            index[gen[hit], col[hit]] *= f[hit]
            f //= q
            go = ~hit & (f > 1)
            gen, col, y, q, p, f = gen[go], col[go], y[go], q[go], p[go], f[go]
    return index


def _least_factor(m: np.ndarray) -> np.ndarray:
    """Smallest prime factor of each entry m > 1, by trial division."""
    small = np.array(primes_up_to(math.isqrt(SIEVE_CAP)), dtype=np.int64)
    q = m.copy()  # an entry with no factor up to its square root is prime
    todo = np.arange(m.size)
    for start in range(0, small.size, 128):
        chunk = small[start : start + 128]
        if todo.size == 0 or chunk[0] ** 2 > m[todo].max():
            break
        hit = m[todo, None] % chunk == 0
        found = hit.any(axis=1)
        q[todo[found]] = chunk[hit[found].argmax(axis=1)]
        todo = todo[~found]
    return q


def index_tuple(p, family: GroupFamily, spf: np.ndarray | None = None):
    """Psi(p): the index of each group's reduction in F_p^*.

    An int p gives a tuple, or None when p is in the support of the family
    (reduction mod p is undefined there). A 1-D int64 array of primes
    outside the support gives an (len(p), n) int64 array, one row per
    prime. The computation is batched in int64 and exact because every
    prime is at most SIEVE_CAP < 2^31; larger primes raise ValueError. The
    factors of p - 1 come from spf, a smallest-prime-factor table covering
    p, or from trial division when it is not given. A group's index is the
    gcd of its generators' indices, each found by power-residue tests.
    """
    batch = isinstance(p, np.ndarray)
    if (int(p.max(initial=0)) if batch else p) > SIEVE_CAP:
        raise ValueError(f"primes above the sieve cap {SIEVE_CAP} overflow int64")
    primes = p.astype(np.int64, copy=False) if batch else np.array([p], np.int64)
    support = [q for q in family.support if q <= SIEVE_CAP]
    if np.isin(primes, support).any():
        if not batch:
            return None
        raise ValueError("the batch holds primes in the support of the family")
    psi = np.empty((primes.size, len(family.groups)), dtype=np.int64)
    first = np.cumsum([0] + [len(group.generators) for group in family.groups])[:-1]
    for start in range(0, primes.size, _CHUNK):
        chunk = primes[start : start + _CHUNK]
        order, slots = _slots(chunk - 1, spf)
        index = _indices(chunk[order], _residues(chunk[order], family), slots)
        psi[start + order] = np.gcd.reduceat(index, first).T
    return psi if batch else tuple(int(x) for x in psi[0])


# ---------------------------------------------------------------------------
# the scan, with an optional persisted log

BLOCK = 1 << 16  # primes per index_tuple call
_TABLE_CHUNK = 1 << 20  # spf entries read per step when listing primes


class ObservationLog:
    """Append-only text log of (p, Psi(p)) rows for one family and range.

    Header pins the family fingerprint and the range start; the highest
    scanned prime is implicit in the last row. Reuse requires the same
    fingerprint and start, and extends the log in place when a caller
    asks for a higher bound. The rows are read back in one parse and
    written one computed block at a time, so a stopped scan leaves whole
    blocks behind and resumes after the last of them.
    """

    def __init__(self, path: str, family: GroupFamily, low: int):
        self.path = path
        self.family = family
        self.low = low

    def header(self) -> str:
        return f"#indexscan\t{self.family.fingerprint}\t{self.low}\n"

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def validate(self, line: str):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3 or parts[0] != "#indexscan":
            raise ConfigError(f"{self.path} is not an observation log")
        if parts[1] != self.family.fingerprint:
            raise ConfigError(
                "observation log belongs to a different family "
                f"({parts[1]} != {self.family.fingerprint})"
            )
        if int(parts[2]) != self.low:
            raise ConfigError("observation log starts at a different bound")

    def read(self) -> np.ndarray:
        """Every logged row (p, Psi(p)) as one int64 array."""
        with open(self.path, encoding="utf-8") as fh:
            self.validate(fh.readline())
            body = fh.tell()
            if not fh.read(1):
                return np.empty((0, 1 + len(self.family)), dtype=np.int64)
            fh.seek(body)
            return np.loadtxt(fh, dtype=np.int64, ndmin=2)


def _rows_text(rows: np.ndarray) -> str:
    """Log lines "p psi_1 ... psi_n" for a block of rows.

    Formatted 4096 rows at a time: the Python ints of a whole block would
    add megabytes to the peak memory of a logged scan.
    """
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    parts = np.split(rows, range(4096, len(rows), 4096))
    return "".join((line * len(part)) % tuple(part.ravel().tolist()) for part in parts)


def _primes_in(spf: np.ndarray, low: int, high: int) -> np.ndarray:
    """The primes in [low, high] (low >= 2), read off the spf table in chunks."""
    found = []
    for start in range(low, high + 1, _TABLE_CHUNK):
        stop = min(start + _TABLE_CHUNK, high + 1)
        is_prime_here = spf[start:stop] == np.arange(start, stop, dtype=spf.dtype)
        found.append(np.flatnonzero(is_prime_here) + start)
    return np.concatenate(found)


def _scan(family: GroupFamily, srange: SieveRange, log_path: str | None):
    """(primes, psi) arrays over the range, support primes skipped.

    A log that covers the range is replayed; one that stops short is
    replayed and then extended in place.
    """
    log = ObservationLog(log_path, family, srange.low) if log_path else None
    write_header = log is not None and not log.exists()
    logged = np.empty((0, 1 + len(family)), dtype=np.int64)
    if log and not write_header:
        logged = log.read()
    resume_from = int(logged[-1, 0]) + 1 if len(logged) else srange.low
    # stops at the first prime past the log, so it costs one prime gap at most
    if not any(is_prime(n) for n in range(resume_from, srange.high + 1)):
        logged = logged[logged[:, 0] <= srange.high]
        return logged[:, 0], logged[:, 1:]

    spf = spf_table(srange.high)
    primes = _primes_in(spf, resume_from, srange.high)
    primes = primes[~np.isin(primes, [q for q in family.support if q <= srange.high])]
    done = len(logged)
    # p and Psi(p) are at most SIEVE_CAP < 2^31, so int32 holds them at half the size
    rows = np.empty((done + primes.size, logged.shape[1]), dtype=np.int32)
    rows[:done], rows[done:, 0] = logged, primes
    del logged, primes  # rows holds them; keep the peak down during the scan
    sink = open(log.path, "a", encoding="utf-8") if log else None
    try:
        if write_header:
            sink.write(log.header())
        for start in range(done, len(rows), BLOCK):
            block = rows[start : start + BLOCK]
            block[:, 1:] = index_tuple(block[:, 0], family, spf)
            if sink:
                sink.write(_rows_text(block))
    finally:
        if sink:
            sink.close()
    return rows[:, 0], rows[:, 1:]


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
    primes, psi = _scan(family, srange, log_path)
    for p, row in zip(primes.tolist(), psi.tolist()):
        yield IndexObservation(p, tuple(row))


def _tally(family, srange, congruence, log_path):
    """The distinct Psi rows over the admitted primes, with their counts.

    Rows are grouped by one lexsort; np.unique(axis=0) gives the same
    groups about ten times slower.
    """
    primes, psi = _scan(family, srange, log_path)
    if congruence and not congruence.is_trivial():
        psi = psi[congruence.allows(primes)]
    psi = psi[np.lexsort(psi.T[::-1])]
    first = np.ones(len(psi), dtype=bool)
    first[1:] = (psi[1:] != psi[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(psi))
    return [(tuple(r), c) for r, c in zip(psi[starts].tolist(), counts.tolist())]


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
    tally = _tally(family, srange, congruence, log_path)
    total = sum(c for _, c in tally)
    skipped = skipped_in(family, srange)
    return tuple(
        FrequencyReport(
            sum(c for row, c in tally if s.contains(row)), total, skipped, s.label()
        )
        for s in sets
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
    counts: dict[tuple[int, ...], int] = {}
    for row, c in _tally(family, srange, congruence, log_path):
        key = tuple(min(valuation(x, ell), max_v + 1) for x in row)
        counts[key] = counts.get(key, 0) + c
    buckets = tuple(sorted(counts.items()))
    return DistributionReport(
        ell, max_v, sum(counts.values()), skipped_in(family, srange), buckets
    )
