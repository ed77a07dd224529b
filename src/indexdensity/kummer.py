"""Degrees of cyclotomic-Kummer extensions Q(zeta_M, W_1^{1/N_1}, ..., W_n^{1/N_n}).

Two modes. The generic degree is phi(M) times, for each prime ell of the
radical levels, ell to an explicit linear form in the levels' ell-adic
valuations, weighted by rank increments; it is right away from a finite
set of primes. The corrected degree is exact, from explicit Kummer theory
over Q (Perucca-Sgobba-Tronto, IJNT 2020): one Hermite form over the
exponent vectors decides it, including entanglement such as sqrt(5)
lying in Q(zeta_5) or sqrt(2) in Q(zeta_8).

Entanglement passes through the model's square classes: the squarefree
z > 0 whose exponent vector mod 2 lies in the image of the saturation
sat(Lambda) = (Lambda tensor Q) & Z^support of the generators' exponent
lattice Lambda. Only they can meet G (proof in KummerModel.degree); there
are 2^rank(Lambda) of them, however large the support. The generators'
squarefree parts are not enough: that of 4 is 1, yet 4^2 = sqrt(2)^8 is
an 8th power in Q(zeta_8).

Chebotarev sampling (KummerModel.degree_estimate) stays as an independent
oracle for the exact degree; no density route calls it. It reads the
splitting of each prime off the batched index map of `empirical`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

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


def _kernel(rows, dim: int) -> list[list[int]]:
    """A basis of the x in Z^dim with r . x = 0 for every row r: the rows of
    the Hermite form of [R^T | I], which spans the (R x, x), zero on R x."""
    n = len(rows)
    pairs = [[r[i] for r in rows] + [int(i == j) for j in range(dim)] for i in range(dim)]
    return [v[n:] for v in hermite_form(pairs) if not any(v[:n])]


def _meets(form: list[list[int]], modulus: int, z: int, bits) -> bool:
    """Does the class of H for a square class z at M = lcm(modulus, z), an even
    modulus, lie in a square Hermite form's lattice? It is +z^(M/2) if
    disc Q(sqrt z) divides M, -z^(M/2) if it divides 2M but not M, else none."""
    m = lcm(modulus, z)
    disc = z if z % 4 == 1 else 4 * z
    if 2 * m % disc:
        return False
    v = [int(m % disc != 0)] + [m // 2 * b for b in bits]
    for i, row in enumerate(form):
        q, r = divmod(v[i], row[i])
        if r:
            return False
        for j in range(i + 1, len(v)):
            v[j] -= q * row[j]
    return True


class KummerModel:
    """Degree oracle for one group family: exact, generic and sampled.

    Holds the family's rank profile and two in-memory memos keyed by
    modulus and levels: one of its sampling runs, and one of square_meet,
    so each distinct corner builds its Hermite form once per model.
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
        # the square classes (z, exponent vector of z): sat(Lambda) is the
        # kernel of Lambda's kernel, and its basis is independent mod 2
        classes = [(0,) * len(support)]
        lattice = [v[1:] for vectors in self._vectors for v in vectors]
        for v in _kernel(_kernel(lattice, len(support)), len(support)):
            classes += [tuple((a + b) % 2 for a, b in zip(c, v)) for c in classes]
        self._squares = [(prod(p**b for p, b in zip(support, c)), c) for c in classes]
        self._estimates: dict[tuple[int, tuple[int, ...]], DegreeEstimate] = {}
        self._square_meets: dict[tuple[int, tuple[int, ...]], tuple] = {}

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
        (z > 0 squarefree), so -4 = (1+i)^4 counts at M = 4. Only the
        model's square classes can meet G: if +-z^(M/2) lies in G Q*^M, then
        (M/2) 1_z = lambda + M y with lambda in Lambda and y integral, so
        (M/2)(1_z - 2y) lies in Lambda and 1_z - 2y in sat(Lambda). |G| and
        the square classes in G come from square_meet.
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
        size, counted = self.square_meet(modulus, levels)
        return size // sum(2 * modulus % z == 0 for z in counted)

    def square_meet(
        self, modulus: int, levels: tuple[int, ...]
    ) -> tuple[int, tuple[int, ...]]:
        """phi(M) |G| at M = modulus, and each square class z whose class of H
        at M_z = lcm(M, z) lies in G, taken at M.

        |G| is read off one Hermite form whose rows are the sign bit and
        exponent vector of every generator of G plus the diagonal (2 if M is
        even else 1, M, ..., M) that spans Q*^M; the same form decides which
        square classes lie in G. Where z | 2M, M_z = M and z counts in G & H;
        for odd M only z = 1 does. Where M = 2^k and the levels are powers of
        2, z counts in G & H at every modulus 2^k t with t odd and odd(z) | t,
        and |G| is the same there: G has no odd part, t acts invertibly on its
        2-part, and the condition on disc Q(sqrt z) reads the same.
        Memoized on the model by (modulus, levels).
        """
        levels = self._check_levels(modulus, levels)
        key = (modulus, levels)
        if key in self._square_meets:
            return self._square_meets[key]
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
        size = euler_phi(modulus) * (2 - modulus % 2) * modulus ** (width - 1) // index
        counted = (1,)
        if modulus % 2 == 0:
            counted = tuple(
                z for z, bits in self._squares if _meets(form, modulus, z, bits)
            )
        self._square_meets[key] = (size, counted)
        return size, counted

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
