"""Degrees of cyclotomic-Kummer extensions Q(zeta_M, W_1^{1/N_1}, ..., W_n^{1/N_n}).

The exact degree D(M, N) = phi(M) |G| / |G & H| (KummerModel.degree) is a
product of prime-power parts, with ell = 2 apart from the odd primes as in
Perucca-Sgobba-Tronto (explicit Kummer theory over Q, IJNT 2020). By CRT,
G in Q*/Q*^M splits into ell-parts; with k = v_ell(M) and j_i = v_ell(N_i),
G_ell is generated by the w^(ell^(k - j_i)), so it depends on ell^k and the
ell-parts of N alone. H has exponent 2, so a square class z counts in
G & H at M exactly when it counts at the 2-part and z | 2M:

    D(M, N) = prod_ell phi(ell^k) |G_ell| / #{z counted at (2^k, N_2) : z | 2M}.

At odd ell off the lattice primes (RankProfile.lattice_primes), -1 is an
ell^k-th power and every subfamily's lattice is saturated, so over a basis
adapted to the superlevel sets of j, |G_ell| is ell^(generic exponent), a
linear form in the j_i weighted by rank increments. At 2 and the lattice
primes one Hermite form each gives the part, so entanglement such as
sqrt(5) in Q(zeta_5) is seen. KummerModel.part prices every part.

Entanglement passes through the model's square classes: the squarefree
z > 0 whose exponent vector mod 2 lies in the image of the saturation
sat(Lambda) = (Lambda tensor Q) & Z^support of the generators' exponent
lattice Lambda. Only they can meet G (proof in KummerModel.degree); there
are 2^rank(Lambda) of them, however large the support. With F Lambda's
Hermite form, aF is integral exactly when a lies in the dual C* of the
lattice C that F's columns span: sat(Lambda) = C* F (groups.rank_profile).
The generators' squarefree parts are not enough: that of 4 is 1, yet
4^2 = sqrt(2)^8 is an 8th power in Q(zeta_8).

Chebotarev sampling (KummerModel.degree_estimate) stays as an independent
oracle for the exact degree; no density route calls it. It reads the
splitting of each prime off one scan of `empirical` per model: p splits
completely in Q(zeta_M, W_i^{1/N_i}) exactly when p = 1 mod M and N_i
divides the index of W_i mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

import numpy as np

from .arith import euler_phi, factorize, valuation
from .empirical import SieveRange, _scan
from .errors import InconclusiveError, UnsupportedScopeError
from .groups import GroupFamily, RankProfile, hermite_form, profile_of

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
    """Degree oracle for one group family: exact and sampled.

    Holds the family's rank profile, a memo of part's Hermite forms keyed
    by (ell, k, exponents), so each distinct corner builds its form once
    per model, and the sampler's scan, run on its first call.
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
        # square classes (z, bits of z); sat(Lambda)'s basis is independent mod 2
        classes = [(0,) * len(support)]
        for v in self.profile.saturation:
            classes += [tuple((a + b) % 2 for a, b in zip(c, v)) for c in classes]
        self._squares = [(prod(p**b for p, b in zip(support, c)), c) for c in classes]
        self._sample: tuple[np.ndarray, np.ndarray] | None = None
        self._parts: dict[tuple[int, int, tuple[int, ...]], tuple] = {}

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
        return tuple(sorted({2, *self.family.support, *self.profile.lattice_primes}))

    def degree(self, modulus: int, levels: tuple[int, ...]) -> int:
        """[Q(zeta_M, W_i^{1/N_i}) : Q] for M = modulus and N_i = levels[i].

        The exact degree is phi(M) |G| / |G & H|, where G is the image in
        Q*/Q*^M of <w^(M/N_i) : w a generator of W_i> and H is the group
        of rationals that are M-th powers in Q(zeta_M). H is trivial for
        odd M; for even M it holds the classes +z^(M/2) with disc Q(sqrt z)
        dividing M and -z^(M/2) with disc Q(sqrt z) dividing 2M but not M
        (z > 0 squarefree), so -4 = (1+i)^4 counts at M = 4. Only the
        model's square classes can meet G: if +-z^(M/2) lies in G Q*^M, then
        (M/2) 1_z = lambda + M y with lambda in Lambda and y integral, so
        (M/2)(1_z - 2y) lies in Lambda and 1_z - 2y in sat(Lambda).

        The parts of the module docstring's product are
        part(ell, k, v_ell(N)), and the square classes counted at 2 give
        the divisor.
        """
        levels = self._check_levels(modulus, levels)
        out, counted = 1, (1,)
        for ell, k in factorize(modulus).items():
            size, meets = self.part(ell, k, tuple(valuation(x, ell) for x in levels))
            out *= size
            if ell == 2:
                counted = meets
        return out // sum(2 * modulus % z == 0 for z in counted)

    def part(
        self, ell: int, k: int, exponents: tuple[int, ...]
    ) -> tuple[int, tuple[int, ...]]:
        """phi(M) |G| at M = ell^k with N_i = ell^exponents[i], and each square
        class z whose class of H at M_z = lcm(M, z) lies in G, taken at M.

        Off 2 and the lattice primes, |G| is ell^(generic exponent) and
        only z = 1 counts. At 2 and the lattice primes, |G| is read off one
        Hermite form whose rows are the sign bit and exponent vector of
        every generator of G plus the diagonal (2 if M is even else 1, M,
        ..., M) that spans Q*^M; the same form decides which square classes
        lie in G. Where z | 2M, M_z = M and z counts in G & H; for odd M
        only z = 1 does. At ell = 2, z counts in G & H at every modulus
        2^k t with t odd and odd(z) | t, and |G| is the same there: G has
        no odd part, t acts invertibly on its 2-part, and the condition on
        disc Q(sqrt z) reads the same. The Hermite parts are memoized on
        the model by (ell, k, exponents).
        """
        key = (ell, k, exponents)
        if key in self._parts:
            return self._parts[key]
        if len(exponents) != len(self.family) or not all(
            0 <= e <= k for e in exponents
        ):
            raise ValueError("one radical exponent per group, each from 0 to k")
        phi = (ell - 1) * ell ** (k - 1) if k else 1
        if ell != 2 and ell not in self.profile.lattice_primes:
            return phi * ell ** generic_exponent(exponents, self.profile), (1,)
        modulus = ell**k
        width = len(self.family.support) + 1
        rows = [
            [ell ** (k - e) * x for x in v]
            for e, vectors in zip(exponents, self._vectors)
            for v in vectors
        ]
        for i in range(width):  # the diagonal that spans Q*^M
            rows.append([0] * width)
            rows[-1][i] = modulus if i else 2 - modulus % 2
        form = hermite_form(rows)  # square, since the diagonal has full rank
        index = prod(r[i] for i, r in enumerate(form))
        size = phi * (2 - modulus % 2) * modulus ** (width - 1) // index
        counted = (1,)
        if modulus % 2 == 0:
            counted = tuple(
                z for z, bits in self._squares if _meets(form, modulus, z, bits)
            )
        self._parts[key] = (size, counted)
        return size, counted

    # -- sampling -----------------------------------------------------

    def degree_estimate(self, modulus: int, levels: tuple[int, ...]) -> DegreeEstimate:
        """[Q(zeta_m, W_i^{1/n_i}) : Q] by counting completely split primes.

        An independent oracle for degree. A prime splits completely
        exactly when p = 1 mod m and every generator of W_i is an n_i-th
        power residue, that is, n_i divides the index of W_i mod p. The
        primes up to SAMPLE_BOUND outside the support and their indices
        come from one scan per model, run on the first call. The
        inverse hit frequency is snapped to the nearest divisor (in log
        space) of phi(m) * prod n_i^(g_i), with g_i the number of
        generators of W_i: torsion generators such as -1 raise the degree
        without raising the rank.
        """
        levels = self._check_levels(modulus, levels)
        bound = euler_phi(modulus)
        for n_i, group in zip(levels, self.family.groups):
            bound *= n_i ** len(group.generators)
        if bound > RELIABILITY_CAP:
            raise UnsupportedScopeError(
                f"degree bound {bound} exceeds the sampler's reliability "
                f"cap {RELIABILITY_CAP}"
            )

        if self._sample is None:
            blocks = _scan(self.family, SieveRange.up_to(SAMPLE_BOUND), None)
            self._sample = tuple(map(np.concatenate, zip(*blocks)))
        primes, psi = self._sample
        total = int(primes.size)
        if total // bound < MIN_EXPECTED:
            raise InconclusiveError(
                f"expected {total // bound} split primes < required {MIN_EXPECTED}",
                hits=0,
                total=total,
            )
        split = ((primes - 1) % modulus == 0) & (psi % levels == 0).all(axis=1)
        hits = int(np.count_nonzero(split))
        if hits == 0:
            raise InconclusiveError(
                "no split primes found; degree beyond sampling resolution",
                hits=0,
                total=total,
            )
        target = np.log(total / hits)
        divisors = (d for d in range(1, bound + 1) if bound % d == 0)
        value = min(divisors, key=lambda d: abs(np.log(d) - target))
        return DegreeEstimate(value, hits, total, bound)
