"""Degrees of cyclotomic-Kummer extensions Q(zeta_m, W_i^{1/n_i}).

Two regimes matter. Generically (large primes, no multiplicative
entanglement) the degree is phi(m) times a product of prime powers whose
exponents are an explicit linear form in the radical levels, weighted by
rank increments. At small primes the true degree can drop by a bounded
"deficiency"; we do not classify entanglement in closed form but measure
it: count split primes up to a bound (Chebotarev sampling), snap the
inverse frequency to a divisor of the generic bound, and read the
deficiency off the measured value. Deficiencies are constant on
difference-tuple classes, so one measurement per class suffices; each
KummerModel keeps its measurements in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import euler_phi, factorize, primes_up_to, valuation
from .errors import InconclusiveError, UnsupportedScopeError
from .groups import GroupFamily, RankProfile, entanglement_primes, profile_of

RELIABILITY_CAP = 512  # largest generic degree bound the sampler resolves
MIN_EXPECTED = 400  # split primes a sampling run must expect
DIRECT_BOUND = 120  # corrected degrees are sampled outright up to this modulus


@dataclass(frozen=True)
class DifferenceTuple:
    """Interval partition of positions 1..n plus per-interval gap tuples.

    A new interval starts wherever consecutive entries of a non-increasing
    tuple drop by more than the gap cap C; within an interval the exact
    consecutive differences (all <= C) are recorded. Two tuples with the
    same partition and the same gaps share their degree deficiencies.
    """

    intervals: tuple[tuple[int, int], ...]  # 1-based inclusive [start, end]
    gaps: tuple[tuple[int, ...], ...]
    gap_cap: int

    @property
    def n(self) -> int:
        return self.intervals[-1][1]

    def key(self) -> str:
        parts = []
        for (a, b), g in zip(self.intervals, self.gaps):
            parts.append(f"{b - a + 1}:{','.join(map(str, g))}")
        return f"C{self.gap_cap}|" + "|".join(parts)

    def lex_smallest(self) -> tuple[int, ...]:
        """The pointwise-minimal non-increasing tuple in this class."""
        e = [0] * self.n
        for (a, b), g in zip(reversed(self.intervals), reversed(self.gaps)):
            if b < self.n:
                e[b - 1] = e[b] + self.gap_cap + 1
            for pos in range(b - 1, a - 1, -1):
                e[pos - 1] = e[pos] + g[pos - a]
        return tuple(e)


def difference_tuple(e: tuple[int, ...], gap_cap: int) -> DifferenceTuple:
    if gap_cap < 0:
        raise ValueError("gap cap must be >= 0")
    if any(x < 0 for x in e):
        raise ValueError("exponent tuples are nonnegative")
    if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
        raise ValueError("difference tuples are defined for non-increasing input")
    intervals = []
    gaps = []
    start = 1
    current: list[int] = []
    for i in range(1, len(e)):
        drop = e[i - 1] - e[i]
        if drop > gap_cap:
            intervals.append((start, i))
            gaps.append(tuple(current))
            start = i + 1
            current = []
        else:
            current.append(drop)
    intervals.append((start, len(e)))
    gaps.append(tuple(current))
    return DifferenceTuple(tuple(intervals), tuple(gaps), gap_cap)


def generic_exponent(xs: tuple[int, ...], profile: RankProfile) -> int:
    """The generic prime-exponent linear form of a radical-level tuple.

    Sort the entries descending; each position contributes its entry times
    the rank increment of the prefix it joins. Permutation invariant (the
    prefixes of a descending sort are exactly the superlevel sets).
    """
    if len(xs) != profile.n:
        raise ValueError("tuple arity does not match the profile")
    if any(x < 0 for x in xs):
        raise ValueError("levels are nonnegative")
    order = sorted(range(len(xs)), key=lambda i: -xs[i])
    total = 0
    prefix: set[int] = set()
    prev_rank = 0
    for i in order:
        prefix.add(i + 1)
        r = profile.of(prefix)
        total += xs[i] * (r - prev_rank)
        prev_rank = r
    return total


@dataclass(frozen=True)
class DegreeEstimate:
    """Outcome of one Chebotarev sampling run, raw counts included."""

    value: int
    hits: int
    total: int
    generic_bound: int
    modulus: int
    levels: tuple[int, ...]


class KummerModel:
    """Degree oracle for one group family: sampling, deficiencies, assembly.

    Holds the family's rank profile and in-memory memos of its sampling
    runs and measured deficiencies (keyed by prime and class key).
    """

    def __init__(self, family: GroupFamily, *, prime_bound: int = 10**6):
        self.family = family
        self.profile = profile_of(family)
        self.prime_bound = prime_bound
        self._estimates: dict[tuple[int, tuple[int, ...]], DegreeEstimate] = {}
        self._deficiencies: dict[tuple[int, str], int] = {}
        self._gap_cap: int | None = None

    def _check_levels(self, modulus: int, levels) -> tuple[int, ...]:
        levels = tuple(int(x) for x in levels)
        if len(levels) != len(self.family):
            raise ValueError("one radical level per group")
        if modulus < 1 or any(x < 1 for x in levels):
            raise ValueError("the modulus and the levels are positive")
        if any(modulus % x for x in levels):
            raise ValueError("every radical level must divide the modulus")
        return levels

    # -- sampling -----------------------------------------------------

    def degree_estimate(self, modulus: int, levels: tuple[int, ...]) -> DegreeEstimate:
        """[Q(zeta_m, W_i^{1/n_i}) : Q] by counting completely split primes.

        A prime splits completely exactly when p = 1 mod m and every
        generator of W_i is an n_i-th power residue. The inverse hit
        frequency is snapped to the nearest divisor (in log space) of the
        generic degree bound phi(m) * prod n_i^{r_i}.
        """
        levels = self._check_levels(modulus, levels)
        key = (modulus, levels)
        if key in self._estimates:
            return self._estimates[key]

        bound = euler_phi(modulus)
        for n_i, r_i in zip(levels, self.profile.group_ranks):
            bound *= n_i**r_i
        if bound > RELIABILITY_CAP:
            raise UnsupportedScopeError(
                f"generic degree bound {bound} exceeds the sampler's reliability "
                f"cap {RELIABILITY_CAP}; a larger prime bound does not lift it"
            )

        primes = np.asarray(primes_up_to(self.prime_bound), dtype=np.int64)
        skip = set(self.family.support)
        total = int(primes.size) - sum(1 for p in skip if p <= self.prime_bound)
        if total // bound < MIN_EXPECTED:
            raise InconclusiveError(
                f"expected {total // bound} split primes < required "
                f"{MIN_EXPECTED}; raise the prime bound",
                hits=0,
                total=total,
            )

        candidates = primes[primes % modulus == 1] if modulus > 1 else primes
        hits = 0
        gens = [g for grp in self.family.groups for g in grp.generators]
        group_of = [
            i for i, grp in enumerate(self.family.groups) for _ in grp.generators
        ]
        for p in candidates.tolist():
            if p in skip:
                continue
            ok = True
            for g, i in zip(gens, group_of):
                n_i = levels[i]
                if n_i == 1:
                    continue
                if pow(g.residue(p), (p - 1) // n_i, p) != 1:
                    ok = False
                    break
            if ok:
                hits += 1
        if hits == 0:
            raise InconclusiveError(
                "no split primes found; degree beyond sampling resolution",
                hits=0,
                total=total,
            )
        target = np.log(total / hits)
        divisors = (d for d in range(1, bound + 1) if bound % d == 0)
        value = min(divisors, key=lambda d: abs(np.log(d) - target))
        est = DegreeEstimate(value, hits, total, bound, modulus, levels)
        self._estimates[key] = est
        return est

    # -- deficiencies ---------------------------------------------------

    def deficiency_scope(self) -> tuple[int, ...]:
        """Primes where a nonzero deficiency is possible over Q.

        The support and 2 cover ramified and sign interactions; primes
        where an exponent lattice is unsaturated (perfect powers, shared
        roots between groups) are measured too rather than assumed generic.
        """
        return tuple(
            sorted(
                set(self.family.support) | {2} | set(entanglement_primes(self.family))
            )
        )

    def deficiency(self, ell: int, klass: DifferenceTuple) -> int:
        """Measured deficiency c >= 0 for one prime and one class.

        Zero without measurement outside deficiency_scope().
        The measurement happens at the class's minimal representative,
        shifted up by one so every radical is active, with extra
        cyclotomic buffer levels (two for ell = 2, one otherwise) so the
        entangling roots of unity are already in the base field.
        """
        if ell not in self.deficiency_scope():
            return 0
        ckey = (ell, klass.key())
        if ckey in self._deficiencies:
            return self._deficiencies[ckey]
        rep = tuple(x + 1 for x in klass.lex_smallest())
        buffer = 2 if ell == 2 else 1
        modulus = ell ** (max(rep) + buffer)
        levels = tuple(ell**x for x in rep)
        est = self.degree_estimate(modulus, levels)
        observed = valuation(est.value, ell) - valuation(euler_phi(modulus), ell)
        c = generic_exponent(rep, self.profile) - observed
        if c < 0:
            raise InconclusiveError(
                f"sampling produced a negative deficiency ({c}) at {ell}; "
                "the snap-to-divisor step likely lacked resolution",
                hits=est.hits,
                total=est.total,
            )
        self._deficiencies[ckey] = c
        return c

    def gap_cap(self) -> int:
        """Default C for difference tuples: 1 + the largest constant-class
        deficiency over the family's small primes (constant classes do not
        themselves depend on C, so there is no circularity)."""
        if self._gap_cap is None:
            n = len(self.family)
            constant = difference_tuple((0,) * n, 1)
            worst = 0
            for ell in self.deficiency_scope():
                try:
                    worst = max(worst, self.deficiency(ell, constant))
                except (InconclusiveError, UnsupportedScopeError):
                    pass  # class too big to measure; C stays conservative
            self._gap_cap = worst + 1
        return self._gap_cap

    def class_of(self, e_sorted: tuple[int, ...]) -> DifferenceTuple:
        return difference_tuple(e_sorted, self.gap_cap())

    # -- assembled degrees ---------------------------------------------

    def degree(self, modulus: int, levels: tuple[int, ...], mode: str = "generic") -> int:
        """Full degree [Q(zeta_m, W_i^{1/n_i}) : Q], generic or corrected.

        Corrected mode re-samples the degree outright when the modulus is
        small enough (authoritative, catches cross-prime entanglement);
        beyond that it assembles phi(m) * prod_l l^(generic - deficiency).
        The assembled number is the saturated-cyclotomic valuation the
        density formulas want; for composite m without the entangling
        conductor it may differ from the literal finite-level degree.
        """
        if mode not in ("generic", "corrected"):
            raise ValueError("mode is 'generic' or 'corrected'")
        levels = self._check_levels(modulus, levels)

        if mode == "corrected" and modulus <= DIRECT_BOUND:
            try:
                return self.degree_estimate(modulus, levels).value
            except (InconclusiveError, UnsupportedScopeError):
                pass  # fall back to the assembled form

        radical_primes = set()
        for x in levels:
            if x > 1:
                radical_primes.update(factorize(x))
        out = euler_phi(modulus)
        for ell in sorted(radical_primes):
            e = tuple(valuation(x, ell) for x in levels)
            exp = generic_exponent(e, self.profile)
            if mode == "corrected":
                e_sorted = tuple(sorted(e, reverse=True))
                exp = max(exp - self.deficiency(ell, self.class_of(e_sorted)), 0)
            out *= ell**exp
        return out

    def local_degree(self, ell: int, w: tuple[int, ...]) -> int:
        """Corrected degree at one prime: modulus ell^max(w), levels ell^w_i."""
        if all(x == 0 for x in w):
            return 1
        return self.degree(ell ** max(w), tuple(ell**x for x in w), "corrected")
