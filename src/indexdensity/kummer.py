"""Degrees of cyclotomic-Kummer extensions Q(zeta_M, W_1^{1/N_1}, ..., W_n^{1/N_n}).

Two modes. The generic degree is phi(M) times, for each prime ell of the
radical levels, ell to an explicit linear form in the levels' ell-adic
valuations, weighted by rank increments; it is right away from a finite
set of primes. The corrected degree is exact, from explicit Kummer theory
over Q (Perucca-Sgobba-Tronto, IJNT 2020): one Hermite form over the
exponent vectors decides it, including entanglement such as sqrt(5)
lying in Q(zeta_5) or sqrt(2) in Q(zeta_8).

Chebotarev sampling (KummerModel.degree_estimate) stays as an independent
oracle for the exact degree; no density route calls it. It reads the
splitting of each prime off the batched index map of `empirical`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .arith import euler_phi, factorize, primes_up_to, valuation
from .empirical import index_tuple, spf_table
from .errors import InconclusiveError, UnsupportedScopeError
from .groups import (
    GroupFamily,
    RankProfile,
    entanglement_primes,
    hermite_form,
    profile_of,
)

RELIABILITY_CAP = 512  # largest degree bound the sampler resolves
MIN_EXPECTED = 400  # split primes a sampling run must expect
SAMPLE_BOUND = 10**6  # the sampler counts split primes up to this bound


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


def _quadratic_discriminant(z: int) -> int:
    """Discriminant of Q(sqrt z) for a squarefree z > 0 (1 for z = 1)."""
    return z if z % 4 == 1 else 4 * z


def _in_span(v: list[int], form: list[list[int]]) -> bool:
    """Is v in the row lattice of a square Hermite form?"""
    for i, row in enumerate(form):
        q, r = divmod(v[i], row[i])
        if r:
            return False
        if q:
            for j in range(i + 1, len(v)):
                v[j] -= q * row[j]
    return True


class KummerModel:
    """Degree oracle for one group family: exact, generic and sampled.

    Holds the family's rank profile and an in-memory memo of its sampling
    runs, keyed by modulus and levels.
    """

    def __init__(self, family: GroupFamily):
        self.family = family
        self.profile = profile_of(family)
        support = family.support
        # sign bit and exponent vector of every generator, group by group
        self._vectors = tuple(
            tuple([g.sign < 0, *g.exponent_vector(support)] for g in group.generators)
            for group in family.groups
        )
        # (disc Q(sqrt z), exponent vector of z) for squarefree z > 0 over the support
        self._quadratics = tuple(
            (_quadratic_discriminant(prod(ps)), [int(p in ps) for p in support])
            for size in range(len(support) + 1)
            for ps in combinations(support, size)
        )
        self._estimates: dict[tuple[int, tuple[int, ...]], DegreeEstimate] = {}

    def _check_levels(self, modulus: int, levels) -> tuple[int, ...]:
        levels = tuple(int(x) for x in levels)
        if len(levels) != len(self.family):
            raise ValueError("one radical level per group")
        if modulus < 1 or any(x < 1 for x in levels):
            raise ValueError("the modulus and the levels are positive")
        if any(modulus % x for x in levels):
            raise ValueError("every radical level must divide the modulus")
        return levels

    def deficiency_scope(self) -> tuple[int, ...]:
        """The primes S where the exact degree can fall short of the generic one.

        The support and 2 cover ramified and sign interactions (roots of
        unity, quadratic subfields of cyclotomic fields); the primes where
        an exponent lattice is unsaturated (perfect powers, shared roots
        between groups) cover the rest. Off S, degrees split into generic
        prime-by-prime factors.
        """
        return tuple(
            sorted(
                set(self.family.support) | {2} | set(entanglement_primes(self.family))
            )
        )

    def degree(self, modulus: int, levels: tuple[int, ...], mode: str = "generic") -> int:
        """[Q(zeta_M, W_i^{1/N_i}) : Q] for M = modulus and N_i = levels[i].

        Generic mode is phi(M) * prod_l l^(generic exponent). Corrected mode
        is the exact degree phi(M) * |G| / |G & H|, where G is the image in
        Q*/Q*^M of <w^(M/N_i) : w a generator of W_i> and H is the group
        of rationals that are M-th powers in Q(zeta_M). H is trivial for
        odd M; for even M it holds the classes +z^(M/2) with disc Q(sqrt z)
        dividing M and -z^(M/2) with disc Q(sqrt z) dividing 2M but not M
        (z > 0 squarefree), so -4 = (1+i)^4 counts at M = 4; only z over
        the support can meet G. |G| is read off one Hermite form whose rows
        are the sign bit and exponent vector of every generator of G plus
        the diagonal (2 if M is even else 1, M, ..., M) that spans Q*^M;
        the same form decides which classes of H lie in G.
        """
        if mode not in ("generic", "corrected"):
            raise ValueError("mode is 'generic' or 'corrected'")
        levels = self._check_levels(modulus, levels)
        if mode == "generic":
            out = 1
            for ell, k in factorize(modulus).items():
                e = tuple(valuation(x, ell) for x in levels)
                out *= (ell - 1) * ell ** (k - 1 + generic_exponent(e, self.profile))
            return out

        width = len(self.family.support) + 1
        rows = [
            [modulus // n_i * x for x in v]
            for n_i, vectors in zip(levels, self._vectors)
            for v in vectors
        ]
        for i in range(width):  # the diagonal that spans Q*^M
            rows.append([0] * width)
            rows[-1][i] = modulus if i else 2 - modulus % 2
        form = hermite_form(rows)  # square, since the diagonal has full rank
        index = prod(r[i] for i, r in enumerate(form))
        size = (2 - modulus % 2) * modulus ** (width - 1) // index
        meet = 1
        if modulus % 2 == 0:
            half = modulus // 2
            meet = sum(
                _in_span([int(modulus % disc != 0)] + [half * b for b in z], form)
                for disc, z in self._quadratics
                if 2 * modulus % disc == 0
            )
        return euler_phi(modulus) * size // meet

    # -- sampling -----------------------------------------------------

    def degree_estimate(self, modulus: int, levels: tuple[int, ...]) -> DegreeEstimate:
        """[Q(zeta_m, W_i^{1/n_i}) : Q] by counting completely split primes.

        An independent oracle for degree(..., "corrected"). A prime splits
        completely exactly when p = 1 mod m and every generator of W_i is
        an n_i-th power residue. The inverse hit frequency is snapped to
        the nearest divisor (in log space) of phi(m) * prod n_i^(g_i), with
        g_i the number of generators of W_i: torsion generators such as -1
        raise the degree without raising the rank.
        """
        levels = self._check_levels(modulus, levels)
        key = (modulus, levels)
        if key in self._estimates:
            return self._estimates[key]

        bound = euler_phi(modulus)
        for n_i, group in zip(levels, self.family.groups):
            bound *= n_i ** len(group.generators)
        if bound > RELIABILITY_CAP:
            raise UnsupportedScopeError(
                f"degree bound {bound} exceeds the sampler's reliability "
                f"cap {RELIABILITY_CAP}"
            )

        primes = np.asarray(primes_up_to(SAMPLE_BOUND), dtype=np.int64)
        skip = [p for p in self.family.support if p <= SAMPLE_BOUND]
        total = int(primes.size) - len(skip)
        if total // bound < MIN_EXPECTED:
            raise InconclusiveError(
                f"expected {total // bound} split primes < required {MIN_EXPECTED}",
                hits=0,
                total=total,
            )

        # W_i lies in the n_i-th powers mod p exactly when n_i divides its index
        candidates = primes[((primes - 1) % modulus == 0) & ~np.isin(primes, skip)]
        psi = index_tuple(candidates, self.family, spf_table(SAMPLE_BOUND))
        hits = int((psi % np.array(levels) == 0).all(axis=1).sum())
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
