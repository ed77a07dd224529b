"""Independent oracles and reference implementations, shared by the tests.

Not a test module (pytest collects test_*.py only): the tests import it.
It holds the displayed closed forms of the local factor and the checks
that artin's shapes are the local series as identities in ell, per tuple
and per finite box, which artin does not repeat at run time. Beside the
splitting model below, it keeps the straightforward versions of two
fast paths: the certified Euler tail with zeta(s) and the small
primes' product computed afresh for each s, and the factorization of
p - 1 by trial division. It also derives zeta(s) by Euler-Maclaurin,
which artin reads from a frozen table; zeta_table() prints that table's
source, and the tests check it entry by entry. The lattice data that
groups.rank_profile reads off one pass (the ranks, the lattice primes
and the saturation's square classes) are computed here one question at
a time: a Hermite form per group, a Hermite form pair per subfamily,
and the kernel of the kernel. Three references the package has dropped
live here too: separation, which no route asks for; one Hermite form
over a whole composite modulus, which KummerModel.part replaced by one
form per prime power; and the generic degree, the closed form at every
ell, which KummerModel.degree took in generic mode.

The splitting model: each support prime's discrete logarithm is uniform
ell-adic, a generator's splitting depth is the valuation of the matching
integer combination, and a group's index valuation is the minimum depth
over its generators and the cyclotomic variable. Independent families
reduce to a finite product law (enumerated exactly); everything else is
seeded simulation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct

import numpy as np

from indexdensity import artin
from indexdensity.arith import euler_phi, factorize, moebius, primes_up_to, valuation
from indexdensity.artin import _check_tuple
from indexdensity.empirical import _factorization
from indexdensity.exact import PRECISION_BITS
from indexdensity.errors import SizeLimitError, UnsupportedScopeError
from indexdensity.groups import (
    FactoredRational,
    GroupFamily,
    MultGroup,
    hermite_form,
    profile_of,
)
from indexdensity.index_sets import ValuationPattern
from indexdensity.kummer import _meets, generic_exponent

ENUMERATION_ATOM_LIMIT = 4_000_000
_SAMPLE_CHUNK = 1 << 19  # monte-carlo samples drawn per pass
# one-generator groups whose families cover torsion, perfect powers,
# shared radicals and 2-adic entanglement
DEGREE_ATOMS = (
    "2", "3", "5", "6", "7", "10", "12", "15", "4", "9", "8", "27", "36",
    "-4", "1/2", "125", "-1", "-3", "-2", "45", "2/3", "49", "-8", "20",
)


@dataclass(frozen=True)
class ProbEstimate:
    """Monte-carlo output: point estimate plus raw counts."""

    value: float
    sigma: float
    hits: int
    samples: int

    def agrees_with(self, target, sigmas: float = 3.0) -> bool:
        """Binomial consistency check against an exact target density."""
        t = float(target)
        if self.samples == 0:
            return False
        null_sigma = math.sqrt(t * (1 - t) / self.samples)
        return abs(self.value - t) <= sigmas * null_sigma + 1.0 / self.samples


def _is_torsion(g: FactoredRational) -> bool:
    """True for +-1: the only torsion in Q*."""
    return not g.exponents


def _group_ranks(profile) -> tuple[int, ...]:
    return tuple(profile.of((i,)) for i in range(1, profile.n + 1))


def _is_independent(profile) -> bool:
    """True when ranks add across the family (no multiplicative relations)."""
    return profile.of(range(1, profile.n + 1)) == sum(_group_ranks(profile))


def _torsion_free_basis(family: GroupFamily):
    basis: list[FactoredRational] = []
    owner: list[int] = []
    profile = profile_of(family)
    for i, group in enumerate(family.groups):
        kept = [g for g in group.generators if not _is_torsion(g)]
        if len(kept) != _group_ranks(profile)[i]:
            raise UnsupportedScopeError(
                "the probabilistic model needs each group's generators to be "
                "a basis (torsion aside); reduce the generating set first"
            )
        basis.extend(kept)
        owner.extend([i] * len(kept))
    return basis, owner


def _pmf_tables(ell: int, top: int):
    """Truncated splitting-depth distributions, exact, summing to 1."""
    pmf_x = [Fraction(1, ell**k) - Fraction(1, ell ** (k + 1)) for k in range(top)]
    pmf_x.append(Fraction(1, ell**top))
    pmf_z = [
        Fraction(1, euler_phi(ell**k)) - Fraction(1, euler_phi(ell ** (k + 1)))
        for k in range(top)
    ] + [Fraction(1, euler_phi(ell**top))]
    if sum(pmf_x) != 1 or sum(pmf_z) != 1:
        raise ArithmeticError("truncated distributions fail to normalize")
    return pmf_x, pmf_z


def prob_model_oracle(
    ell: int,
    v_I,
    family: GroupFamily,
    method: str = "exact",
    *,
    samples: int = 10**6,
    seed: int = 0,
):
    """Independent estimate of the local factor from the splitting model.

    Monte-carlo samples a uniform ell-adic logarithm (top+1 digits) for
    every prime in the family's support; a generator's splitting depth is
    the ell-valuation of the corresponding integer combination of logs,
    and group i's index valuation is the minimum depth over its
    generators and the shared cyclotomic depth. Multiplicative relations
    between groups are then automatic (shared logs), which is what makes
    the sample law match the rank-profile closed form. Exact enumeration
    is the independent-family shortcut: depths are then independent
    truncated geometrics and the joint law is a finite product.
    """
    profile = profile_of(family)
    v = _check_tuple(v_I, profile.n)
    basis, owner = _torsion_free_basis(family)
    top = max(v) + 1
    pmf_x, pmf_z = _pmf_tables(ell, top)
    m = len(basis)
    cols = [[j for j in range(m) if owner[j] == i] for i in range(profile.n)]

    if method == "exact":
        if not _is_independent(profile):
            raise UnsupportedScopeError(
                "exact enumeration is only valid for multiplicatively "
                "independent families; use method='monte-carlo'"
            )
        if (top + 1) ** (m + 1) > ENUMERATION_ATOM_LIMIT:
            raise SizeLimitError("joint distribution too large to enumerate")
        total = Fraction(0)
        for z, *xs in iproduct(range(top + 1), repeat=m + 1):
            if all(min([xs[j] for j in c] + [z]) == v[i] for i, c in enumerate(cols)):
                total += pmf_z[z] * math.prod(pmf_x[x] for x in xs)
        return total

    if method != "monte-carlo":
        raise ValueError("method is 'exact' or 'monte-carlo'")

    modulus = ell**top
    if modulus > 1 << 40:
        raise SizeLimitError("ell^(max v + 1) too large for the sampler")
    support = family.support
    coeffs = np.array(
        [b.exponent_vector(support) for b in basis], dtype=np.int64
    ).T  # one column per basis element, one row per support prime
    cdf_z = np.cumsum([float(p) for p in pmf_z])
    rng = np.random.default_rng(seed)

    hits = 0
    left = samples
    while left > 0:
        size = min(_SAMPLE_CHUNK, left)
        left -= size
        logs = rng.integers(0, modulus, size=(size, len(support)), dtype=np.int64)
        combo = (logs @ coeffs) % modulus
        depth = np.zeros(combo.shape, dtype=np.int64)
        alive = np.ones(combo.shape, dtype=bool)
        rem = combo.copy()
        for _ in range(top):
            alive &= rem % ell == 0
            depth += alive
            rem[alive] //= ell
        z = np.searchsorted(cdf_z, rng.random(size), side="right")
        target = np.ones(size, dtype=bool)
        for i, c in enumerate(cols):
            psi = np.minimum(depth[:, c].min(axis=1), z)
            target &= psi == v[i]
        hits += int(target.sum())

    p = hits / samples
    sigma = math.sqrt(p * (1 - p) / samples) if 0 < p < 1 else 1.0 / samples
    return ProbEstimate(p, sigma, hits, samples)


# ---------------------------------------------------------------------------
# the displayed closed forms of the local factor, and the shape identities
# that artin._shape rests on


def zero_forms(ell: int, profile) -> tuple[Fraction, Fraction]:
    """The displayed zero-tuple formula, in both of its groupings."""
    terms = [
        Fraction((-1) ** len(sub), ell ** profile.of(j + 1 for j in sub))
        for size in range(profile.n + 1)
        for sub in combinations(range(profile.n), size)
    ]  # the empty subset comes first
    return (
        Fraction(ell - 2, ell - 1) + Fraction(1, ell - 1) * sum(terms),
        1 + Fraction(1, ell - 1) * sum(terms[1:]),
    )


def _bump_sums(ell, v, profile, exponent):
    """Sums of (-1)^|J| / ell^exponent(v + delta_J) over the bump subsets
    J avoiding v's maximal coordinates, and over all J."""
    top = {i for i, x in enumerate(v) if x == max(v)}
    avoiding = everything = Fraction(0)
    for size in range(profile.n + 1):
        for sub in combinations(range(profile.n), size):
            w = tuple(x + (i in sub) for i, x in enumerate(v))
            term = Fraction((-1) ** size, ell ** exponent(w))
            everything += term
            if not top & set(sub):
                avoiding += term
    return avoiding, everything


def general_prefactor_form(ell: int, v, profile) -> Fraction:
    """The displayed formula for v != 0, with the prefactor 1 / D(v)."""
    f_v = generic_exponent(v, profile)
    avoiding, everything = _bump_sums(
        ell, v, profile, lambda w: generic_exponent(w, profile) - f_v
    )
    prefactor = Fraction(1, (ell - 1) * ell ** (max(v) - 1 + f_v))
    return prefactor * (Fraction(ell - 1, ell) * avoiding + everything / ell)


def general_rewritten_form(ell: int, v, profile) -> Fraction:
    """The same formula with the prefactor multiplied in."""
    avoiding, everything = _bump_sums(
        ell, v, profile, lambda w: generic_exponent(w, profile)
    )
    return Fraction(1, ell ** max(v)) * (avoiding + Fraction(1, ell - 1) * everything)


def closed_forms(ell: int, v, profile) -> tuple[Fraction, Fraction]:
    """Both displayed forms of the local factor F(v) at ell."""
    if any(v):
        return general_prefactor_form(ell, v, profile), general_rewritten_form(ell, v, profile)
    return zero_forms(ell, profile)


def shape_sum(shapes):
    """The shape of a sum of local series, from their shapes."""
    return artin._merged(p for c0, terms in shapes for p in ((None, c0), *terms))


def check_tuple_shape(v, profile) -> None:
    """Raise ArithmeticError unless artin._shape((v,), profile) is F(v)
    as a rational function of ell.

    The shape, the direct corner sum and both closed forms must agree at
    K + 2 integers ell >= 2, K = max v + f(v + 1). Each corner w lies
    between v and v + 1 and f is monotone, so K bounds every
    ell-exponent in a denominator, and each form times (ell - 1) ell^K
    is a polynomial in ell of degree at most K + 1. Agreement at K + 2
    points is then agreement as rational functions: at every prime.
    """
    shape = artin._shape((v,), profile)
    terms = artin.corner_terms((v,), profile.n)
    top = max(v) + generic_exponent(tuple(x + 1 for x in v), profile)
    for ell in range(2, top + 4):
        direct = sum(Fraction(c, artin.corner_degree(ell, w, profile)) for c, w in terms)
        first, second = closed_forms(ell, v, profile)
        if not Fraction(*artin._evaluate(shape, ell)) == direct == first == second:
            raise ArithmeticError(f"shape, corner sum and closed forms differ at {ell}, {v}")


def check_box_shape(bounds, profile) -> None:
    """Raise ArithmeticError unless the finite pattern below `bounds`
    telescopes to the sum of its tuples' shapes, coefficient by
    coefficient, and to the shape of its tuple list."""
    box = list(iproduct(*map(range, bounds)))
    by_tuple = shape_sum(artin._shape((t,), profile) for t in box)
    pattern = artin._shape(ValuationPattern.below(bounds), profile)
    if not pattern == by_tuple == artin._shape(tuple(box), profile):
        raise ArithmeticError(f"box {bounds} differs from its tuple sum")


# ---------------------------------------------------------------------------
# zeta(s) by Euler-Maclaurin, and the certified Euler tail

EM_START = 32  # Euler-Maclaurin sums n^-s directly below this n
EM_TERMS = 24  # Bernoulli terms it may use; 16 reach the 2^-128 grid at s = 2


def tangent_numbers(count: int) -> tuple[int, ...]:
    """T_1..T_count (index 0 unused), by the Knuth-Buckholtz recurrence."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


def zeta_bounds(s: int, scale: int) -> tuple[int, int]:
    """Integers lo <= scale * zeta(s) <= hi, s >= 2, by Euler-Maclaurin.

    zeta(s) = sum_{n < N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{j=1}^{J} B_2j/(2j)! (s)_(2j-1) N^(1-s-2j) + R,
    (s)_m the rising factorial, N = EM_START, and |R| is at most the size
    of the j = J term (the remainder is the integral of a periodic
    Bernoulli function, at most |B_2J|, against |f^(2J)|). J <= EM_TERMS
    is the first j whose term is at most one grid step.
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).
    """
    big = EM_START
    lo = hi = 0
    for n in range(1, big):
        lo += scale // n**s
        hi -= -scale // n**s
    num, den = (2 * big + s - 1) * scale, 2 * (s - 1) * big**s  # N^(1-s)/(s-1) + N^-s/2
    lo += num // den
    hi -= -num // den
    rising, fact, power = s, 2, big ** (s + 1)  # (s)_(2j-1), (2j)!, N^(s+2j-1)
    tangents = tangent_numbers(EM_TERMS)
    for j in range(1, EM_TERMS + 1):
        num = (-1) ** (j - 1) * 2 * j * tangents[j] * rising * scale
        den = 4**j * (4**j - 1) * fact * power
        lo += num // den
        hi -= -num // den
        if abs(num) <= den:
            return lo - 1, hi + 1
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        power *= big * big
    raise ArithmeticError(f"Euler-Maclaurin for zeta({s}) did not reach the grid")


def zeta_table() -> str:
    """The source of artin._ZETA_BOUNDS: zeta_bounds(s, 2^PRECISION_BITS)
    for s = 2..17, one (lo, hi) pair a line."""
    rows = (zeta_bounds(s, 1 << PRECISION_BITS) for s in range(2, 18))
    return "_ZETA_BOUNDS = (\n" + "".join(f"    ({lo}, {hi}),\n" for lo, hi in rows) + ")\n"


def accelerated_tail(shape) -> tuple[int, int, int] | None:
    """(L0, low, high) as artin._accelerated_tail gives them, with zeta(s)
    and prod_{p <= L0} (1 - p^-s) computed from scratch for each s."""
    c0, terms = shape
    if c0 != 1 or not terms or terms[0][0] < 1:
        return None
    q = [1, -1] + [0] * terms[-1][0]  # Q(x) = 1 - x + sum_e c_e x^(e+1)
    for e, c in terms:
        q[e + 1] += c
    degree = len(q) - 1
    rho = 1 + max(abs(c) for c in q[1:])
    split = artin.TAIL_SPLIT_RATIO * rho
    scale = 1 << PRECISION_BITS
    small = primes_up_to(split)
    power_sums = [degree]  # p_0, p_1, ...: Newton's identities for Q
    log_lo = log_hi = 0
    s = 1
    while True:
        s += 1
        while len(power_sums) <= s:
            k = len(power_sums)
            top = min(k - 1, degree)
            p_k = -sum(q[j] * power_sums[k - j] for j in range(1, top + 1))
            power_sums.append(p_k - (k * q[k] if k <= degree else 0))
        c_s = sum(
            moebius(s // k) * (1 - power_sums[k])
            for k in range(1, s + 1)
            if s % k == 0
        )
        # log zeta_{>L0}(s) in [g_lo, g_hi] / scale
        g_lo = 0
        g_hi = -(-scale * (s + split) // ((s - 1) * (split + 1) ** s))
        if g_hi > artin._DIRECT_SLACK:
            z_lo, z_hi = zeta_bounds(s, scale)
            num = den = 1  # prod_{p <= L0} (1 - p^-s) = num / den
            for p in small:
                num *= p**s - 1
                den *= p**s
            z_lo = z_lo * num // den
            z_hi = -(-z_hi * num // den)
            g_lo, g_hi = artin._log1p_bounds(max(z_lo - scale, 0), z_hi - scale, scale)
        lo_end, hi_end = (g_lo, g_hi) if c_s >= 0 else (g_hi, g_lo)
        log_lo += c_s * lo_end // s
        log_hi -= -c_s * hi_end // s
        rest = 2 * (degree + 1) * (s + split + 1) * rho ** (s + 1) * scale
        rest_den = s * (split + 1) ** (s + 1)
        if rest <= rest_den:
            break
    log_lo -= 1
    log_hi += 1
    if max(-log_lo, log_hi) > scale // 2:
        return None
    exp_bounds = artin._exp_bounds
    return split, exp_bounds(log_lo, scale)[0], exp_bounds(log_hi, scale)[1]


def kappa_bound() -> Fraction:
    """density._kappa_bound from three separate zeta evaluations."""
    scale = 1 << PRECISION_BITS
    z2, z3, z6 = (zeta_bounds(s, scale) for s in (2, 3, 6))
    return Fraction(-(-z2[1] * z3[1] // z6[0]), scale)


# ---------------------------------------------------------------------------
# trial division


def trial_factors(pm1: np.ndarray):
    """The factorization of pm1 as empirical._factorization gives it, by
    trial division by every prime up to the square root, 128 at a time."""
    small = np.array(primes_up_to(math.isqrt(int(pm1.max()))), dtype=np.int64)
    pairs = [(pm1[:0], pm1[:0])]  # no pairs (row, q) when every entry is 1
    for start in range(0, small.size, 128):
        row, col = np.nonzero(pm1[:, None] % small[start : start + 128] == 0)
        pairs.append((row, small[start + col]))
    return _factorization(pm1, *map(np.concatenate, zip(*pairs)))


# ---------------------------------------------------------------------------
# lattice data, one Hermite form pair per question


def rank(group: MultGroup) -> int:
    """Rank of the free part: dimension of the exponent span over Q."""
    return len(hermite_form(group.exponent_rows(group.support)))



def kernel(rows, dim: int) -> list[list[int]]:
    """A basis of the x in Z^dim with r . x = 0 for every row r: the rows of
    the Hermite form of [R^T | I], which spans the (R x, x), zero on R x."""
    n = len(rows)
    pairs = [[r[i] for r in rows] + [int(i == j) for j in range(dim)] for i in range(dim)]
    return [v[n:] for v in hermite_form(pairs) if not any(v[:n])]


def square_classes(family: GroupFamily) -> list[tuple[int, tuple[int, ...]]]:
    """KummerModel._squares, sorted: the (z, exponent vector of z) whose
    vector mod 2 lies in the image of sat(Lambda), taken as the kernel of
    Lambda's kernel."""
    support = family.support
    classes = [(0,) * len(support)]
    lattice = [g.exponent_vector(support) for grp in family.groups for g in grp.generators]
    for v in kernel(kernel(lattice, len(support)), len(support)):
        classes += [tuple((a + b) % 2 for a, b in zip(c, v)) for c in classes]
    return sorted((math.prod(p**b for p, b in zip(support, c)), c) for c in classes)


def lattice_invariant_primes(rows) -> tuple[int, ...]:
    """Primes at which the row lattice is a proper sublattice of its saturation.

    The lattice loses rank mod p exactly when p divides every maximal minor,
    so the answer is the set of prime divisors of the gcd of those minors.
    Row operations keep that gcd, and for the Hermite form (full row rank
    r) it is the index in Z^r of the lattice its columns span: the product
    of the pivots of the transpose's Hermite form.
    """
    form = hermite_form(rows)
    columns = hermite_form(zip(*form))
    return tuple(sorted(factorize(math.prod(r[i] for i, r in enumerate(columns)))))


def lattice_primes(family: GroupFamily) -> tuple[int, ...]:
    """RankProfile.lattice_primes, one subfamily at a time."""
    support = family.support
    bad: set[int] = set()
    for size in range(1, len(family.groups) + 1):
        for sel in combinations(family.groups, size):
            rows = [g.exponent_vector(support) for grp in sel for g in grp.generators]
            bad.update(lattice_invariant_primes(rows))
    return tuple(sorted(bad))


def is_separated(family: GroupFamily) -> bool:
    """No group sits inside the divisible hull of the others.

    Equivalent, for exponent lattices over Q, to the strict rank increase
    rank(W_I) > rank(W_{I minus i}) for every i.
    """
    prof = profile_of(family)
    full = frozenset(range(1, len(family) + 1))
    total = prof.of(full)
    return all(prof.of(full - {i}) < total for i in full)


# ---------------------------------------------------------------------------
# the degree's Hermite form over a whole modulus, and the generic degree


def square_meet(model, modulus: int, levels: tuple[int, ...]):
    """phi(M) |G| at M = modulus, and each square class z whose class of H
    at M_z = lcm(M, z) lies in G, taken at M: KummerModel.square_meet at
    any modulus, not only at prime powers.

    |G| is read off one Hermite form whose rows are the sign bit and
    exponent vector of every generator of G plus the diagonal (2 if M is
    even else 1, M, ..., M) that spans Q*^M; the same form decides which
    square classes lie in G. Where z | 2M, M_z = M and z counts in G & H;
    for odd M only z = 1 does.
    """
    levels = model._check_levels(modulus, levels)
    width = len(model.family.support) + 1
    rows = [
        [modulus // n_i * x for x in v]
        for n_i, vectors in zip(levels, model._vectors)
        for v in vectors
    ]
    for i in range(width):  # the diagonal that spans Q*^M
        rows.append([0] * width)
        rows[-1][i] = modulus if i else 2 - modulus % 2
    form = hermite_form(rows)  # square, since the diagonal has full rank
    index = math.prod(r[i] for i, r in enumerate(form))
    size = euler_phi(modulus) * (2 - modulus % 2) * modulus ** (width - 1) // index
    counted = (1,)
    if modulus % 2 == 0:
        counted = tuple(
            z for z, bits in model._squares if _meets(form, modulus, z, bits)
        )
    return size, counted


def generic_degree(model, modulus: int, levels: tuple[int, ...]) -> int:
    """The generic degree: KummerModel.degree with the closed form
    (ell - 1) ell^(k - 1 + generic exponent) at every ell of the modulus,
    right away from a finite set of primes."""
    levels = model._check_levels(modulus, levels)
    out = 1
    for ell, k in factorize(modulus).items():
        e = tuple(valuation(x, ell) for x in levels)
        out *= (ell - 1) * ell ** (k - 1 + generic_exponent(e, model.profile))
    return out
