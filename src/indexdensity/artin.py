"""Local index-valuation densities and their Euler products.

The heuristic: a prime has index valuations v_I at ell exactly when its
Frobenius splits in the corner field (cyclotomic level ell^v_i, radical
level ell^v_i for group i) but in none of the 2^n one-step bumps. Each
splitting probability is one over a field degree, and inclusion-exclusion
over bump subsets J gives the local factor

    F(v_I) = sum_J (-1)^|J| / D(v_I + delta_J),

with D the corner-field degree (generically phi(ell^max) times ell to the
rank-weighted exponent form). Everything here is exact rational arithmetic;
the same alternating-sum structure telescopes over boxes of tuples, which
is what makes cofinite valuation patterns and certified Euler tails exact.
Each local series is one rational function of ell for a given valuation
spec and rank profile. Its shape is merged from the series' corner terms,
where the identities are proved (corner_terms, _shape), and evaluated at
each prime with a range check. tests/oracles.py tests the shapes against
the displayed closed forms and the box sums; they are not checked at run
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count

# euler_phi is unused here, but bench/tests/test_bench.py asserts artin binds it
from .arith import euler_phi, moebius, primes_up_to
from .exact import PRECISION_BITS, Interval
from .groups import RankProfile
from .index_sets import ValuationMap, ValuationPattern, VSpec
from .kummer import generic_exponent


def _subsets(indices):
    for size in range(len(indices) + 1):
        yield from combinations(indices, size)


# ---------------------------------------------------------------------------
# corner degrees and local factors


def corner_degree(ell: int, w: tuple[int, ...], profile: RankProfile) -> int:
    """Generic degree of the corner field with radical levels ell^w_i."""
    if all(x == 0 for x in w):
        return 1
    return (ell - 1) * ell ** (max(w) - 1 + generic_exponent(w, profile))


def _check_tuple(v_I, n: int) -> tuple[int, ...]:
    v = tuple(int(x) for x in v_I)
    if len(v) != n:
        raise ValueError(f"expected a {n}-tuple, got {v}")
    if any(x < 0 for x in v):
        raise ValueError("valuations are nonnegative")
    return v


def _bump(v: tuple[int, ...], sub) -> tuple[int, ...]:
    return tuple(x + (i in sub) for i, x in enumerate(v))


def corner_terms(spec: VSpec, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(c, w) pairs such that the spec's local series is sum c / D(w).

    D(w) is the degree of the corner field with radical levels ell^w_i.
    A tuple list expands every tuple v into its one-step bumps v + delta_J
    with sign (-1)^|J|, which is F(v) by definition. A pattern telescopes
    to the corners of its box: F(v) applies the difference g(x) - g(x + 1)
    in each coordinate to g = 1/D. Summed over x_i < b_i it leaves
    g(0) - g(b_i), and summed over every x_i it leaves g(0), since 1/D
    tends to 0 as max w grows. So each corner has its bounded coordinates
    at their bound or zero and its free ones at zero, with sign
    (-1)^(number at their bound). Equal corners are merged, so cancelling
    pairs drop out.
    """
    if isinstance(spec, ValuationPattern):
        bounded = tuple(i for i, b in enumerate(spec.bounds) if b is not None)
        pairs = (
            (sub, tuple(spec.bounds[i] if i in sub else 0 for i in range(n)))
            for sub in _subsets(bounded)
        )
    else:
        pairs = ((sub, _bump(v, sub)) for v in spec for sub in _subsets(range(n)))
    merged: dict[tuple[int, ...], int] = {}
    for sub, w in pairs:
        merged[w] = merged.get(w, 0) + (-1) ** len(sub)
    return [(c, w) for w, c in merged.items() if c]


# ---------------------------------------------------------------------------
# shapes, and sums over valuation patterns: a local series is
# c0 + sum_e c_e / ((ell - 1) ell^e) with integers fixed by (spec, profile);
# its shape is (c0, ((e, c_e), ...)), e ascending and every c_e nonzero.

Shape = tuple[int, tuple[tuple[int, int], ...]]


def _merged(pairs) -> Shape:
    """Add up (e, c) pairs into a shape; e None is the constant term."""
    coeff: dict = {}
    for e, c in pairs:
        coeff[e] = coeff.get(e, 0) + c
    c0 = coeff.pop(None, 0)
    return c0, tuple(sorted((e, c) for e, c in coeff.items() if c))


def _evaluate(shape: Shape, ell: int) -> tuple[int, int]:
    """(numerator, (ell - 1) ell^E), E the largest exponent: not reduced."""
    c0, terms = shape
    top = terms[-1][0] if terms else 0
    numerator = c0 * (ell - 1) * ell**top + sum(c * ell ** (top - e) for e, c in terms)
    return numerator, (ell - 1) * ell**top


@lru_cache(maxsize=4096)
def _shape(spec: VSpec, profile: RankProfile) -> Shape:
    """The shape of a pattern or of a tuple of valuation tuples.

    The series is sum c / D(w) over its corner terms, and D(w) is 1 at
    w = 0 and (ell - 1) ell^e otherwise, e = max w - 1 + f(w), so merging
    the terms by e gives the shape as an identity in ell: at every prime,
    with nothing checked at run time. A tuple list's corner terms are
    merged in one pass. tests/oracles.py tests the shapes against the
    displayed closed forms and boxes against the sum of their tuples.
    """
    return _merged(
        (max(w) - 1 + generic_exponent(w, profile) if any(w) else None, c)
        for c, w in corner_terms(spec, profile.n)
    )


def _series_ratio(ell: int, spec: VSpec, profile: RankProfile) -> tuple[int, int]:
    """The local series as an unreduced (numerator, denominator > 0) pair."""
    if isinstance(spec, ValuationPattern):
        if spec.n != profile.n:
            raise ValueError("pattern arity mismatch")
        key = spec
    else:
        key = tuple(_check_tuple(v, profile.n) for v in spec)
    numerator, denominator = _evaluate(_shape(key, profile), ell)
    if not 0 <= numerator <= denominator:
        value = Fraction(numerator, denominator)
        raise ArithmeticError(f"local series {value} at ell={ell} outside [0,1]")
    return numerator, denominator


def local_series(ell: int, spec: VSpec, profile: RankProfile) -> Fraction:
    """Sum F(v) over a finite tuple list or a product-form pattern, exactly.

    Patterns telescope: summing the alternating corner sum over a box
    (coordinates below given bounds, other coordinates free) leaves only
    the corner evaluations at bound-or-zero tuples, so cofinite patterns
    get exact values with no truncation at all. Each prime costs one
    evaluation of the shape and a range check. The shape identities are
    proved in corner_terms and _shape and tested in tests/oracles.py
    against the closed forms and box sums; they are not checked at run
    time.
    """
    if not isinstance(spec, ValuationPattern):
        spec = tuple(spec)
    return Fraction(*_series_ratio(ell, spec, profile))


def local_factor(ell: int, v_I, profile: RankProfile) -> Fraction:
    """Density of primes whose index has valuations exactly v_I at ell.

    The local series of the one tuple v_I. That its shape equals both
    displayed closed forms is proved in corner_terms and _shape and tested
    in tests/oracles.py, not checked at run time.
    """
    return local_series(ell, (v_I,), profile)


# ---------------------------------------------------------------------------
# accelerated Euler tails (H. Cohen, "High precision computation of
# Hardy-Littlewood constants", 1998)
#
# Past a split L0 every unlisted prime has the default factor R(ell) =
# Q(x) / (1 - x), x = 1/ell, where Q(x) = 1 - x + sum_e c_e x^(e+1) is read
# off the default shape. Write Q(x) = prod_i (1 - alpha_i x) and let p_k =
# sum_i alpha_i^k, integers by Newton's identities. Then log R(ell) =
# sum_k b_k ell^-k with b_k = (1 - p_k) / k, and the prime zeta tail
# sum_{ell > L0} ell^-k = sum_m mu(m)/m log zeta_{>L0}(k m), grouped by
# s = k m, gives
#
#     sum_{ell > L0} log R(ell) = sum_{s >= 2} C_s / s * log zeta_{>L0}(s),
#     C_s = sum_{k | s} mu(s/k) (1 - p_k),
#
# with zeta_{>L0}(s) = zeta(s) prod_{p <= L0} (1 - p^-s). The bounds:
#   rho = 1 + max |q_j| exceeds every |alpha_i| (Cauchy), so 1 + h = R has
#     no zero on |x| < r = 1/rho and |b_k| <= M r^-k with M = 1 + deg Q;
#     hence |C_s / s| <= M rho^s;
#   0 <= log zeta_{>L0}(s) <= zeta_{>L0}(s) - 1 <= T(s)
#     = (L0 + 1)^-s (1 + (L0 + 1)/(s - 1)), as sum_{n > L0} n^-s;
#   with q = rho / (L0 + 1) <= 1/2 (the convergence condition L0 >= 2 rho)
#     the s-terms past S add at most 2 M (1 + (L0 + 1)/S) q^(S + 1).
# zeta(2), ..., zeta(17) are read from the table below, prod_{p <= L0} p^s
# advances with s, and log and exp come from their series with the first
# omitted term bounding each remainder. All values are integers on the
# 2^-PRECISION_BITS grid, rounded outward.

# L0 = 64 rho: each s-term of the tail gains six bits. At least 2, the
# convergence condition above; much below 64, zeta(s) is needed past the
# table below.
TAIL_SPLIT_RATIO = 64
# Where T(s) is below this many grid steps, log zeta_{>L0}(s) is taken as
# [0, T(s)] without reading zeta. Each value read adds a few rounding
# steps, which C_s / s then multiplies, so the shortcut is narrower, and it
# skips a product over the small primes and a log series per s: for the
# <2> Artin tail (zeta at s = 2..17 of 2..22) 0.33-0.37 ms and width
# 1.1e-34, against 0.42-0.46 ms and 3.2e-34 reading every s (2 vCPU,
# Python 3.11).
_DIRECT_SLACK = 256
# Integers lo <= 2^128 zeta(s) <= hi, entry s - 2 for s = 2, ..., 17: the
# Euler-Maclaurin enclosures that zeta_table in tests/oracles.py prints and
# the tests check entry by entry. Sixteen reach every tail: q_1 = -1 makes
# rho >= 2, so L0 = 64 rho >= 128; at L0 = 128, T(s) is within
# _DIRECT_SLACK grid steps from s = 18 on, and T(s) falls as L0 grows. A
# tail that needs a value past the table raises ArithmeticError.
_ZETA_BOUNDS = (
    (559742057695999706728347712798405794986, 559742057695999706728347712798405795030),
    (409038768180800056427241407891448561413, 409038768180800056427241407891448561455),
    (368295511740750160186673360334303292387, 368295511740750160186673360334303292430),
    (352848230846201241289544183813035214336, 352848230846201241289544183813035214377),
    (346183905102663364787803988299513878118, 346183905102663364787803988299513878159),
    (343123478790538619292966735919305731551, 343123478790538619292966735919305731593),
    (341669819338754721755388317355305487561, 341669819338754721755388317355305487602),
    (340965787585504752099283879480793785961, 340965787585504752099283879480793785998),
    (340620803299513096449500218927115666876, 340620803299513096449500218927115666917),
    (340450530588853589503801855628981222789, 340450530588853589503801855628981222830),
    (340366105835765541837559931810667244319, 340366105835765541837559931810667244357),
    (340324124109305263562702024395734965717, 340324124109305263562702024395734965756),
    (340303208581305732854961292056628178784, 340303208581305732854961292056628178821),
    (340292775558388953382675519414191995569, 340292775558388953382675519414191995605),
    (340287567204341939303656147931454996996, 340287567204341939303656147931454997033),
    (340284965724627330994809719200073789059, 340284965724627330994809719200073789094),
)


def _log1p_bounds(y_lo: int, y_hi: int, scale: int) -> tuple[int, int]:
    """Integers enclosing scale * log(1 + y) for y in [y_lo, y_hi] / scale.

    Needs 0 <= y < 1: the series alternates with falling terms, so the
    first omitted term bounds the remainder.
    """
    if not 0 <= y_lo <= y_hi < scale:
        raise ArithmeticError("log1p argument outside [0, 1)")
    lo = hi = 0
    p_lo, p_hi, j = y_lo, y_hi, 1  # y^j in [p_lo, p_hi] / scale
    while p_hi > j:
        if j % 2:
            lo += p_lo // j
            hi -= -p_hi // j
        else:
            lo += -p_hi // j
            hi -= p_lo // j
        j += 1
        p_lo = p_lo * y_lo // scale
        p_hi = -(-p_hi * y_hi // scale)
    return lo - 1, hi + 1


def _exp_bounds(t: int, scale: int) -> tuple[int, int]:
    """Integers enclosing scale * exp(t / scale), for |t| <= scale / 2.

    After the j-th term the remainder is at most a^(j+1)/(j+1)! e^a with
    a = |t| / scale, below one grid step once the j-th term is.
    """
    a = abs(t)
    lo = hi = term_lo = term_hi = scale
    j = 0
    while term_hi > 1:
        j += 1
        term_lo = term_lo * a // (j * scale)
        term_hi = -(-term_hi * a // (j * scale))
        if t >= 0 or j % 2 == 0:
            lo, hi = lo + term_lo, hi + term_hi
        else:
            lo, hi = lo - term_hi, hi - term_lo
    return lo - 1, hi + 1


@lru_cache(maxsize=64)
def _accelerated_tail(shape: Shape) -> tuple[int, int, int] | None:
    """(L0, low, high) with prod_{ell > L0} R(ell) in [low, high] / scale.

    R is the local series of the shape and scale is 2^PRECISION_BITS; see
    the section comment for the expansion and its bounds. None when the
    shape is not 1 + O(ell^-2), or when the logarithm of the tail exceeds
    1/2, outside the exp bound.
    """
    c0, terms = shape
    if c0 != 1 or not terms or terms[0][0] < 1:
        return None
    q = [1, -1] + [0] * terms[-1][0]  # Q(x) = 1 - x + sum_e c_e x^(e+1)
    for e, c in terms:
        q[e + 1] += c
    degree = len(q) - 1
    rho = 1 + max(abs(c) for c in q[1:])
    split = TAIL_SPLIT_RATIO * rho
    scale = 1 << PRECISION_BITS
    small = primes_up_to(split)
    power_sums, mu = [degree], [0]  # p_k by Newton's identities for Q, and mu(k)
    prime_powers, primorial = [p * p for p in small], math.prod(small)
    den = primorial * primorial  # prod_{p <= L0} p^s
    log_lo = log_hi = 0
    for s in count(2):
        while len(power_sums) <= s:
            k = len(power_sums)
            top = min(k - 1, degree)
            p_k = -sum(q[j] * power_sums[k - j] for j in range(1, top + 1))
            power_sums.append(p_k - (k * q[k] if k <= degree else 0))
            mu.append(moebius(k))
        c_s = sum(mu[s // k] * (1 - power_sums[k]) for k in range(1, s + 1) if s % k == 0)
        # log zeta_{>L0}(s) in [g_lo, g_hi] / scale
        g_lo = 0
        g_hi = -(-scale * (s + split) // ((s - 1) * (split + 1) ** s))
        if g_hi > _DIRECT_SLACK:
            if s - 2 >= len(_ZETA_BOUNDS):
                raise ArithmeticError(f"zeta({s}) lies past the table: split {split} too small")
            z_lo, z_hi = _ZETA_BOUNDS[s - 2]
            num = math.prod(x - 1 for x in prime_powers)  # prod_{p <= L0} (p^s - 1)
            z_lo = z_lo * num // den
            z_hi = -(-z_hi * num // den)
            g_lo, g_hi = _log1p_bounds(max(z_lo - scale, 0), z_hi - scale, scale)
            prime_powers = [x * p for x, p in zip(prime_powers, small)]
            den *= primorial
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
    return split, _exp_bounds(log_lo, scale)[0], _exp_bounds(log_hi, scale)[1]


# ---------------------------------------------------------------------------
# Euler products with certified tails


@dataclass(frozen=True)
class EulerProduct:
    """Certified enclosure of an infinite product of local series.

    factors holds every factor the exact product multiplied, in order;
    tail_bound is the width of the enclosure of the factor that the
    other primes contribute.
    """

    interval: Interval
    factors: tuple[tuple[int, Fraction], ...]
    zero_at: int | None = None
    tail_bound: Fraction = Fraction(0)


def euler_product(
    vmap: ValuationMap,
    profile: RankProfile,
    cutoff: int = 10**5,
) -> EulerProduct:
    """prod over ell of the local series, with a certified tail.

    The exact product runs over the primes up to a bound, then over the
    listed primes past it, and `factors` holds exactly those factors.
    Past the split L0 = TAIL_SPLIT_RATIO rho (a few hundred; see the
    accelerated tails above) every unlisted prime has the default factor,
    and their product is enclosed to about the working precision, so the
    bound is L0; a listed prime past L0 multiplies the tail by its own
    factor over the default one. When the default pattern is the trivial
    one, unlisted primes contribute exactly 1 and there is no tail: the
    bound is 0, and only the listed primes are visited.

    When the default shape has no accelerated tail (it is not
    1 + O(ell^-2), or its tail is too large for the exp bound), the bound
    is the cutoff, and the crude bound applies past it: every unlisted
    prime beyond the cutoff contributes a factor between the zero-tuple
    value and 1, the zero-tuple value is at least 1 - 2^n/(ell^2 - ell),
    and the product of those lower bounds beyond L telescopes to at least
    1 - 2^n/L.

    The running enclosure is two integers over 2^PRECISION_BITS, floored
    and ceiled after each exact factor, with no Fraction arithmetic in the
    loop. The Interval is built once, after the tail.
    """
    if vmap.n != profile.n:
        raise ValueError("valuation map arity does not match the profile")
    if not vmap.default.allows((0,) * profile.n):
        raise ValueError("default pattern must allow the zero tuple")
    if cutoff <= 2**profile.n:
        raise ValueError("cutoff too small for a meaningful tail bound")

    scale = 1 << PRECISION_BITS
    tail = None
    bound = 0
    if not vmap.default.is_trivial():
        default = _shape(vmap.default, profile)
        tail = _accelerated_tail(default)
        bound = tail[0] if tail else cutoff

    low = high = scale  # the enclosure [low, high] / scale, rounded outward
    factors = []
    for ell in (*primes_up_to(bound), *(p for p in vmap.listed if p > bound)):
        num, den = _series_ratio(ell, vmap.spec_at(ell), profile)
        factors.append((ell, Fraction(num, den)))
        if tail and ell > bound:
            r_num, r_den = _evaluate(default, ell)  # positive past the split
            num, den = num * r_den, den * r_num
        low = low * num // den
        high = -(-high * num // den)
    zero_at = next((ell for ell, a in factors if a == 0), None)

    if tail is not None:
        low = low * tail[1] // scale
        high = -(-high * tail[2] // scale)
        tail_bound = Fraction(tail[2] - tail[1], scale)
    elif vmap.default.is_trivial():
        tail_bound = Fraction(0)
    else:
        low = low * (cutoff - 2**profile.n) // cutoff
        tail_bound = Fraction(2**profile.n, cutoff)
    interval = Interval(Fraction(low, scale), Fraction(high, scale))
    return EulerProduct(interval, tuple(factors), zero_at, tail_bound)
