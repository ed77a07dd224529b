"""Prime-by-prime measurement of the index map.

Everything analytic in this package predicts frequencies; this module
measures them. The index map runs on whole blocks of primes at once in
int64 numpy arithmetic, which is exact because every prime is at most
SIEVE_CAP < 2^31. Each generator is reduced mod p by powering its factored
exponents. A scan sieves and factors p - 1 one window of integers at a
time (Bays-Hudson), so its memory does not grow with the range; the
window holds the odd integers only (a wheel of 2), p = 2 is added on its
own, and the 2-part of p - 1 is its lowest set bit. Indices come from
power-residue tests: q divides the index of r exactly when
r^((p - 1)/q) = 1, so one right-to-left pass over 2-bit exponent digits
per generator, its squarings and digit table shared, tests every prime q
of p - 1 at once, with the rows sorted so that each q runs on a prefix of
them. The 2-part of the index then takes squarings alone: y^(2^t) for
t < e on the columns sorted by 2^e. In the cyclic group F_p^* the index
of a group is the gcd of its generators' indices. Surveys count
membership in an index set once per distinct index tuple, one block of
primes at a time, optionally filtered by a congruence class on p, and
report Wilson intervals. Observation logs make a scan reusable across
queries: after one text header line, each prime is one fixed-width row of
little-endian int32 (p, Psi(p)), written and read back a block at a time
with no text formatting or parsing. A replay checks every row (whole rows
only, p strictly increasing from the log's start, each index a positive
divisor of p - 1) and refuses a log that fails, or a text log of an older
version, with ConfigError.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import is_prime, primes_up_to, valuation
from .errors import ConfigError
from .groups import GroupFamily
from .index_sets import IndexSet

SIEVE_CAP = 2**31 - 1
BLOCK = 1 << 14  # primes per index kernel pass, scan block and log read or write
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


def smallest_prime_factors(limit: int) -> np.ndarray:
    """Smallest prime factor for every integer up to limit (int32), sieved afresh.

    The table takes 4 bytes per integer, so limit stops at 10^8 (400 MB).
    Only the Moebius series reads it, up to its truncation; scans factor
    window by window and hand those factors to the index map.
    """
    if limit > 10**8:
        raise ValueError("spf table limit exceeds 10^8")
    spf = np.arange(limit + 1, dtype=np.int32)  # primes, 0 and 1 keep themselves
    for i in reversed(primes_up_to(math.isqrt(limit))):
        spf[i * i :: i] = i  # the smaller primes write last
    return spf


@lru_cache(maxsize=2)
def spf_table(limit: int) -> np.ndarray:
    """smallest_prime_factors, kept for the next caller with the same limit.

    Nothing in the package calls it: it stays for the benchmark tracer,
    which wraps it by name.
    """
    return smallest_prime_factors(limit)


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
# Every residue is below SIEVE_CAP = 2^31 - 1, so the product of two
# residues fits in int64 and the arithmetic below is exact.


def _powmod(base: np.ndarray, exps: list, mod: np.ndarray) -> list:
    """base^x mod mod for each exponent array x, on x's prefix of the last axis.

    Right-to-left 2-bit digits (0 <= base < mod, x >= 0; the 2^k-ary
    method at k = 2): at each even bit j the table (1, b, b^2, b^3) of
    b = base^(2^j) is shared by every x, and each x multiplies once by the
    entry its digit picks (one take), stopping at its own bit length.
    b^2 and b^3 are formed only on the columns of an x with two bits left.
    """
    exps = [x.copy() for x in exps]
    bits = [int(x.max(initial=0)).bit_length() for x in exps]
    table = np.empty((4,) + base.shape, dtype=base.dtype)
    table[0], table[1] = 1, base
    at = np.arange(base.size).reshape(base.shape)  # offsets of table[0]
    outs = [None] * len(exps)
    for j in range(0, max(bits, default=0) or 1, 2):
        n = max((x.size for x, k in zip(exps, bits) if k > j + 1), default=0)
        b, b2, b3 = table[1:, ..., :n]
        b2[...] = b * b % mod[:n]
        b3[...] = b2 * b % mod[:n]
        for i, x in enumerate(exps):
            if j == 0 or bits[i] > j:  # at j = 0 every x takes its first digit
                d = np.take(table, (x & 3) * base.size + at[..., : x.size])
                outs[i] = d * outs[i] % mod[: x.size] if j else d
                x >>= 2
        n = max((x.size for x, k in zip(exps, bits) if k > j + 2), default=0)
        table[1, ..., :n] = b2[..., :n] * b2[..., :n] % mod[:n]
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


def _factorization(pm1: np.ndarray, row: np.ndarray, q: np.ndarray):
    """(omega, q, q^e) from the pairs (row, q), q | pm1[row], in ascending q.

    The pairs may leave out an entry's largest prime: it is what remains.
    omega (int8) counts each entry's primes q, listed entry by entry in
    ascending order beside q^e, the exact power of q dividing the entry.
    """
    q_e, prod = _exact_power(pm1[row], q), np.ones_like(pm1)
    np.multiply.at(prod, row, q_e)
    last = np.flatnonzero(pm1 > prod)  # the entries with a prime left over
    left = pm1[last] // prod[last]
    row, q, q_e = (np.concatenate(x) for x in ((row, last), (q, left), (q_e, left)))
    # below 2^16 rows the key is 16 bits wide, and the stable sort is a radix sort
    order = np.argsort(row.astype(np.min_scalar_type(pm1.size)), kind="stable")
    omega = np.bincount(row, minlength=pm1.size).astype(np.int8)
    return omega, q[order].astype(np.int32), q_e[order].astype(np.int32)


def _exact_power(c: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q^e, the exact power of q that divides each entry of c (q | c).

    Where q = 2 it is the lowest set bit of c; the odd q divide again and again.
    """
    q_e = np.where(q == 2, c & -c, q)
    again = np.flatnonzero((q != 2) & (c % (q * q) == 0))
    while again.size:
        q_e[again] *= q[again]
        again = again[c[again] % (q_e[again] * q[again]) == 0]
    return q_e


def _slots(omega: np.ndarray, q: np.ndarray, q_e: np.ndarray):
    """A row order by omega(p - 1), most distinct primes first, and one slot per rank.

    Slot k is the pair (q, q^e) over the first rows of that order, those
    whose p - 1 has more than k primes: q is the k-th smallest of them.
    """
    order = np.argsort(-omega, kind="stable")
    first = (np.cumsum(omega) - omega)[order]
    at = [first[: np.count_nonzero(omega > k)] + k for k in range(omega.max(initial=0))]
    return order, [(q[i], q_e[i]) for i in at]


def _split(factors, k: int):
    """The factorizations (omega, q, q^e) of the first k entries, and of the rest."""
    omega, q, q_e = factors
    cut = int(omega[:k].sum())
    return (omega[:k], q[:cut], q_e[:cut]), (omega[k:], q[cut:], q_e[cut:])


def _indices(primes: np.ndarray, residues: np.ndarray, slots) -> np.ndarray:
    """[F_p^* : <r>] for each residue r (one row per generator, columns in slot order).

    For a slot (q, q^e), y = r^((p - 1) / q^e) has order q^s, and the
    q-part of the index is q^(e - s). One _powmod per residue row, over
    2-bit digits of the exponents, computes y for every slot at once: the
    slots share its squarings and its table of b^0..b^3. Slot 0 is q = 2
    on every column (p - 1 is even, and p = 2 has no slot): its columns,
    sorted once by 2^e, square y for t = 1, 2, ... on the prefix with
    e > t, s counts the powers y^(2^t), t < e, that are not 1, and the
    2-part is 2^e >> s, with no compaction per step. An odd slot finds s
    by lifting y <- y^q on the few columns with e > 1 that y = 1 leaves open.
    """
    ys = _powmod(residues, [(primes[: q.size] - 1) // q_e for q, q_e in slots], primes)
    index = np.ones_like(residues)
    if not slots:
        return index
    q_e, y = slots[0][1], ys[0]
    order = np.argsort(-q_e)
    q_e, y, p = q_e[order], y[:, order], primes[order]
    s = (y != 1).astype(np.int8)
    e_max = int(q_e[0]).bit_length() - 1
    # n is the prefix of columns with 2^e > 2^t, for t = 1 .. e_max - 1
    for n in np.searchsorted(-q_e, -(2 ** np.arange(1, e_max))).tolist():
        y[:, :n] = y[:, :n] * y[:, :n] % p[:n]
        s[:, :n] += y[:, :n] != 1
    index[:, order] = q_e >> s
    for (q, q_e), y in zip(slots[1:], ys[1:]):
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


def index_tuple(p, family: GroupFamily, factors: tuple):
    """Psi(p): the index of each group's reduction in F_p^*.

    p is a 1-D int array of primes outside the support of the family
    (reduction mod p is undefined there, and a support prime raises
    ValueError); the result is a (len(p), n) int64 array, one row per
    prime. The computation is batched in int64 and exact because every
    prime is at most SIEVE_CAP = 2^31 - 1; larger primes raise ValueError.
    factors is p - 1 factored as _factorization gives it, as a scan's
    windows do. A group's index is the gcd of its generators' indices,
    each found by power-residue tests. The kernel takes BLOCK primes per
    pass, a scan's whole block, so a longer array costs no more temporaries.
    """
    if int(p.max(initial=0)) > SIEVE_CAP:
        raise ValueError(f"primes above the sieve cap {SIEVE_CAP} overflow int64")
    primes = p.astype(np.int64, copy=False)
    support = [q for q in family.support if q <= SIEVE_CAP]
    if np.isin(primes, support).any():
        raise ValueError("the batch holds primes in the support of the family")
    psi = np.empty((primes.size, len(family.groups)), dtype=np.int64)
    first = np.cumsum([0] + [len(group.generators) for group in family.groups])[:-1]
    for start in range(0, primes.size, BLOCK):
        chunk = primes[start : start + BLOCK]
        chunk_factors, factors = _split(factors, BLOCK)
        order, slots = _slots(*chunk_factors)
        index = _indices(chunk[order], _residues(chunk[order], family), slots)
        psi[start + order] = np.gcd.reduceat(index, first).T
    return psi


# ---------------------------------------------------------------------------
# the scan, with an optional persisted log

_WINDOW = 1 << 17  # integers sieved and factored per step of a scan
LOG_CAP = 1 << 28  # bytes of rows an observation log may grow to


def _prime_count_bound(x: int) -> float:
    """Dusart's (1999) upper bound x / ln x (1 + 1.2762 / ln x) for pi(x), x >= 2."""
    return x / math.log(x) * (1 + 1.2762 / math.log(x))


class ObservationLog:
    """Append-only log of (p, Psi(p)) rows for one family and range.

    One text header line, "#indexscan-i4<TAB>fingerprint<TAB>low", pins the
    family and the range start; then each scanned prime is one row of n + 1
    little-endian int32 (p, psi_1, ..., psi_n), 4 (n + 1) bytes, since p and
    every index are at most SIEVE_CAP. The highest scanned prime is the last
    row's. Reuse requires the same fingerprint and start, and extends the
    log in place when a caller asks for a higher bound. Rows are written and
    read back one block at a time, so a scan stopped between blocks resumes
    after the last of them. Each block read is checked: a log that ends in
    a partial row (a scan stopped mid-write), whose primes do not strictly
    increase from the start, or with an index that is not a positive
    divisor of p - 1 is refused with ConfigError, not silently truncated,
    and so is a text log of an older version. A range whose rows could
    pass LOG_CAP bytes, by an upper bound for pi at its end, is refused
    with ConfigError before the log is opened.
    """

    MAGIC = "#indexscan-i4"

    def __init__(self, path: str, family: GroupFamily, low: int):
        self.path = path
        self.family = family
        self.low = low
        self.width = len(family.groups) + 1  # int32 entries per row

    def header(self) -> bytes:
        return f"{self.MAGIC}\t{self.family.fingerprint}\t{self.low}\n".encode()

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def validate(self, line: bytes):
        parts = line.decode("utf-8", "replace").rstrip("\n").split("\t")
        if len(parts) != 3 or parts[0] != self.MAGIC:
            raise ConfigError(
                f"{self.path} is not an observation log (text logs of older "
                "versions are not read: delete the file to rescan)"
            )
        if parts[1] != self.family.fingerprint:
            raise ConfigError(
                "observation log belongs to a different family "
                f"({parts[1]} != {self.family.fingerprint})"
            )
        if parts[2] != str(self.low):
            raise ConfigError("observation log starts at a different bound")

    def blocks(self):
        """The logged rows (p, Psi(p)), read and checked BLOCK rows at a time,
        as int64 arrays: the same blocks the scan wrote."""
        size = 4 * self.width * BLOCK
        last = self.low - 1
        with open(self.path, "rb") as fh:
            self.validate(fh.readline(256))
            while data := fh.read(size):
                if len(data) % (4 * self.width):
                    raise ConfigError(f"{self.path} ends in a partial row")
                rows = np.frombuffer(data, "<i4").astype(np.int64)
                rows = rows.reshape(-1, self.width)
                self._check(rows, last)
                last = int(rows[-1, 0])
                yield rows

    def _check(self, rows: np.ndarray, last: int):
        """Refuse rows whose p do not climb past last or whose indices do not fit."""
        p, psi = rows[:, 0], rows[:, 1:]
        if p[0] < self.low:
            raise ConfigError(f"{self.path} holds a prime below its start {self.low}")
        if p[0] <= last or (p[1:] <= p[:-1]).any():
            raise ConfigError(f"{self.path}: the primes do not strictly increase")
        if (psi < 1).any() or ((p[:, None] - 1) % psi).any():
            raise ConfigError(f"{self.path} holds an index that does not divide p - 1")


def _window(lo: int, hi: int, small: list[int], skip: list[int]):
    """The primes of [lo, hi) outside skip, then their p - 1 as _factorization gives it.

    small holds the primes up to the square root of the scan's end, so
    p - 1 has at most one prime beyond it. The sieve holds the odd integers
    only, flag i for o + 2i (o the first odd integer from lo), and p = 2 is
    added on its own. Every odd p - 1 is even; each odd q | p - 1 is read
    off the sieve at the odd integers 1 mod q, a stride of q flags apart.
    """
    o, qs = lo | 1, np.array(small)
    qs = qs[qs > 2]
    flags = np.ones(max(hi - o + 1, 0) // 2, dtype=bool)
    # each q's offsets in numpy: Python arithmetic per q and window adds up;
    # o + 2i = r mod q at i = (r - o)(q + 1)/2 mod q, as (q + 1)/2 halves mod q
    half = (qs + 1) // 2
    firsts = np.maximum((qs * qs - o) // 2, -o % qs * half % qs)
    for q, first in zip(qs.tolist(), firsts.tolist()):
        flags[first::q] = False  # the odd multiples of q from max(q^2, lo)
    flags[[(s - o) // 2 for s in skip if o <= s < hi and s & 1]] = False
    at = np.flatnonzero(flags)
    two = int(lo <= 2 < hi and 2 not in skip)  # p = 2, whose p - 1 = 1 has no pair
    pm1 = np.concatenate((np.ones(two, np.int64), 2 * at + (o - 1)))
    odd = np.arange(two, pm1.size)  # the rows of the odd primes, each paired with q = 2
    # read only at primes, so left unset elsewhere; below 2^16 primes 16 bits wide
    rank = np.empty(flags.size, np.min_scalar_type(pm1.size))
    rank[at] = odd
    starts = ((1 - o) % qs * half % qs).tolist()  # the flags of the integers 1 mod q
    steps = [flags[s::q].nonzero()[0] for q, s in zip(qs.tolist(), starts)]
    n = [k.size for k in steps]
    rows = rank[np.repeat(starts, n) + np.concatenate(steps) * np.repeat(qs, n)]
    q = np.repeat(np.concatenate(([2], qs)), [at.size] + n)
    return pm1 + 1, *_factorization(pm1, np.concatenate((odd, rows)), q)


def _scan(family: GroupFamily, srange: SieveRange, log_path: str | None):
    """(primes, psi) blocks over the range in ascending p, support primes skipped.

    A log is replayed, then extended past its last prime if it stops short.
    Each block but the last holds BLOCK primes, one pass of the index
    kernel. The sieve runs one window of _WINDOW integers at a time, whose
    temporaries are no bigger than the kernel's, and holds the windows'
    primes only until they fill a block: memory does not grow with the range.
    """
    log = ObservationLog(log_path, family, srange.low) if log_path else None
    if log and 4 * log.width * _prime_count_bound(srange.high) > LOG_CAP:
        raise ConfigError(
            f"an observation log to {srange.high} could pass {LOG_CAP} bytes; "
            "survey a shorter range or drop log_path"
        )
    write_header = log is not None and not log.exists()
    last = srange.low - 1
    if log and not write_header:
        for rows in log.blocks():
            last = int(rows[-1, 0])
            rows = rows[rows[:, 0] <= srange.high]
            yield rows[:, 0], rows[:, 1:]
            if last >= srange.high:
                break
    # stops at the first prime past the log, so it costs one prime gap at most
    if not any(is_prime(n) for n in range(last + 1, srange.high + 1)):
        return
    skip = [q for q in family.support if q <= srange.high]
    # small always holds an odd prime, for _window's strided reads
    small, rest = list(primes_up_to(max(math.isqrt(srange.high), 3))), []
    log_file = open(log_path, "ab") if log else nullcontext()
    with log_file as sink:
        if write_header:
            sink.write(log.header())
        for lo in range(last + 1, srange.high + 1, _WINDOW):
            rest.append(_window(lo, min(lo + _WINDOW, srange.high + 1), small, skip))
            end = lo + _WINDOW > srange.high
            if not end and sum(part[0].size for part in rest) < BLOCK:
                continue
            primes, *factors = map(np.concatenate, zip(*rest))
            rest = []  # the windows are copied: the kernel runs without them
            while primes.size >= BLOCK or end and primes.size:
                block, factors = _split(factors, BLOCK)
                psi = index_tuple(primes[:BLOCK], family, block)
                if sink:
                    rows = np.empty((len(psi), log.width), "<i4")
                    rows[:, 0], rows[:, 1:] = primes[:BLOCK], psi
                    sink.write(rows)
                yield primes[:BLOCK], psi
                primes = primes[BLOCK:]
            rest.append(tuple(map(np.copy, (primes, *factors))))
            # these would keep the blocks alive while the next windows are sieved
            primes = factors = block = psi = rows = None


def observations(
    family: GroupFamily,
    srange: SieveRange,
    *,
    log_path: str | None = None,
):
    """Stream IndexObservations over the range, reusing a log if given.

    Support primes are skipped (their reductions are not well-defined
    units); callers that need the skip count use skipped_in. The scan runs
    as the stream is read, and extends a log that stops short in place.
    """
    for primes, psi in _scan(family, srange, log_path):
        for p, row in zip(primes.tolist(), psi.tolist()):
            yield IndexObservation(p, tuple(row))


def _tally(family, srange, congruence, log_path):
    """The distinct Psi rows over the admitted primes, with their counts.

    Each block is grouped by one lexsort (np.unique(axis=0) gives the same
    groups about ten times slower), and the blocks' counts are merged.
    """
    counts = Counter()
    for primes, psi in _scan(family, srange, log_path):
        if congruence and not congruence.is_trivial():
            psi = psi[congruence.allows(primes)]
        psi = psi[np.lexsort(psi.T[::-1])]
        first = np.ones(len(psi), dtype=bool)
        first[1:] = (psi[1:] != psi[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        sizes = np.diff(starts, append=len(psi)).tolist()
        counts.update(dict(zip(map(tuple, psi[starts].tolist()), sizes)))
        del primes, psi  # not held while the scan sieves the next block
    return sorted(counts.items())


def skipped_in(family: GroupFamily, srange: SieveRange) -> int:
    return sum(1 for p in family.support if srange.low <= p <= srange.high)


# ---------------------------------------------------------------------------
# frequency reports


def wilson_interval(hits: int, total: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion.

    Exactly 0 at no hits and exactly 1 when every trial is a hit: there
    center - half and center + half are 0 and 1 only up to rounding.
    """
    if total == 0:
        return (0.0, 1.0)
    z = WILSON_Z
    p_hat = hits / total
    denom = 1 + z * z / total
    center = (p_hat + z * z / (2 * total)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / total + z * z / (4 * total * total))
    half /= denom
    low = max(0.0, center - half) if hits else 0.0
    return (low, min(1.0, center + half) if hits < total else 1.0)


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
    """One scan, several membership questions answered from it; a set
    whose arity is not the family's is refused before the scan."""
    if any(s.n != len(family) for s in sets):
        raise ValueError("index set arity does not match the family")
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

    Bucket keys clamp each coordinate at distribution's max_v + 1, so the
    last bucket along a coordinate means "anything larger". Buckets
    partition the scanned primes: their counts sum to the total exactly.
    """

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
    return DistributionReport(sum(counts.values()), skipped_in(family, srange), buckets)
