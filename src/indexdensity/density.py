"""Analytic densities of prime sets cut out by index conditions.

Four routes, kept deliberately independent so they can cross-check each
other, all reading the same IndexSet descriptors: a Moebius series over
cyclotomic-Kummer degrees (the classical primitive-root approach) for a
one-index set with one valuation or one bound at each prime, an Euler
product of local valuation series for sets cut by valuations, a
singleton sum of per-tuple densities for enumerable sets, and
multiplicative correction ratios relating any tuple's density to the
index-one constant.

The Euler, singleton and ratio routes are exact at every prime: the
finitely many primes where Kummer degrees can fall short of the generic
ones (2, the support and the lattice primes) enter through one joint
factor built from exact composite degrees, so entanglement between
primes (sqrt(5) inside Q(zeta_5)) is seen; as it passes through the
2-part and the family's square classes alone, that factor sums products
of local sums over those classes. All other primes use the generic
closed forms. The series route reads f(n) off the set's valuation map
(_series_exponents), so each level map of the classical series is a
set. It splits each degree at the same primes: in corrected mode the
part of f(n) on them takes its exact degree, and the rest the generic
phi(B) B; generic mode takes f(n) phi(f(n)).

No route asks that no group lie in the divisible hull of the others; the
paper does not either. KummerModel.degree's
D(M, N) = prod_ell phi(ell^k) |G_ell| / #{z counted at the 2-part : z | 2M}
assumes nothing about the family. At an odd ell outside the scope every
subfamily lattice is ell-saturated, so |G_ell| = ell^(generic exponent)
whatever the rank increments, zero ones included. So for any family the
joint factor at the scope times the generic series off it is the
density, and the same corner sums give 0 to a tuple the family cannot
reach: for <2> twice, the four corners of F_q(1, 2) cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .arith import factorize, primes_up_to
from .empirical import smallest_prime_factors
from .errors import UnsupportedScopeError
from .exact import PRECISION_BITS, Interval, round_down, round_up, series_sum
from .groups import GroupFamily, MultGroup
from .index_sets import (
    Equals,
    IndexSet,
    SquarefreeModulus,
    ValuationMap,
    ValuationPattern,
    VSpec,
    check_index_tuple,
    valuations_at,
)
from .artin import (
    _ZETA_BOUNDS,
    corner_terms,
    euler_product,
    local_factor,
    local_series,
)
from .kummer import KummerModel

LEDGER_ROW_LIMIT = 64
MAX_TRUNCATION = 10**7  # the series' spf table holds 4 bytes per n


@dataclass(frozen=True)
class DensityReport:
    """A density value with its provenance: method, ledger, and notes.

    value is a certified enclosure (exact endpoints, outward-rounded);
    ledger holds the rows a reader would want to audit (series terms,
    local factors, per-tuple corrections); notes carry scalar metadata.
    """

    value: Interval
    method: str
    ledger: tuple[tuple[str, Fraction], ...] = ()
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Moebius series with a proved tail


def _kappa_bound() -> Fraction:
    """An upper bound on kappa = zeta(2)zeta(3)/zeta(6) = prod_p (1 + 1/(p(p-1)))."""
    z2, z3, z6 = (_ZETA_BOUNDS[s - 2] for s in (2, 3, 6))
    return Fraction(-(-z2[1] * z3[1] // z6[0]), 1 << PRECISION_BITS)


def _reciprocal_tail(truncation: int) -> Fraction:
    """An upper bound on T(N) = sum_{n > N} 1/(n phi(n)) for N = truncation.

    By 1/phi(n) = (1/n) sum_{d | n} mu^2(d)/phi(d), T(N) is
    sum_d mu^2(d)/(d^2 phi(d)) * sum_{m > N/d} 1/m^2. For d <= N the inner
    sum is at most d/N + d^2/N^2; for d > N it is below 2 < 2d/N. So
    T(N) <= kappa/N + P(N)/N^2 + 2 T(N)/N, with kappa = zeta(2)zeta(3)/zeta(6)
    and P(N) = sum_{d <= N} mu^2(d)/phi(d) <= prod_{p <= N} p/(p-1). The
    primes above L = 10^4 are covered by prod_{L < m <= N} m/(m-1) = N/L.
    The product runs on the 2^-PRECISION_BITS grid, rounded up.
    """
    kappa = _kappa_bound()
    if truncation < 3:
        return kappa  # T(N) <= T(0) = kappa
    scale = 1 << PRECISION_BITS
    top = min(truncation, 10**4)
    mertens = -(-truncation * scale // top)
    for p in primes_up_to(top):
        mertens = -(-mertens * p // (p - 1))
    n = truncation
    mertens = Fraction(mertens, scale)
    return round_up((kappa / n + mertens / n**2) / (1 - Fraction(2, n)))


def _series_degree(model: KummerModel, mode: str):
    """D(f) = [Q(zeta_f, W^{1/f}):Q] for a rank-one model, from f's factorization.

    Write f = A*B, with A made of the primes of model.deficiency_scope() and
    B prime to them. Then D(f) = D(A) phi(B) B, the ell-part split of
    KummerModel.degree with the rank-one closed form off the scope taken
    inline. D(A) is model.degree(A, (A,)), memoized by A: a set's f gives
    at most one A per subset of the scope, whatever the truncation.
    Generic mode takes the scope empty, so D(f) = f phi(f).
    """
    scope = frozenset(model.deficiency_scope() if mode == "corrected" else ())
    exact = lru_cache(maxsize=None)(lambda a: model.degree(a, (a,)))

    def degree(levels: dict[int, int]) -> int:
        a = off = 1
        for ell, k in levels.items():
            if ell in scope:
                a *= ell**k
            else:
                off *= (ell - 1) * ell ** (2 * k - 1)  # phi(ell^k) ell^k
        return exact(a) * off

    return degree


def _series_exponents(index_set: IndexSet):
    """f(n)'s exponents for a one-index set cut by one valuation or a bound.

    The series Sum mu(n)/D(f(n)) is inclusion-exclusion over the conditions
    ell^e | index. A prime whose spec is the single valuation a (v = a)
    gives exponent a when ell does not divide n and a + 1 when it does; a
    bound b (v < b) gives 0 and b. The default pattern acts the same way
    at every unlisted prime, so for squarefree n Equals((1,)) gives
    f(n) = n, Equals((t,)) t n, Divides((t,)) n prod_(ell | n) ell^v_ell(t)
    and KFree((k,)) n^k. Returns (off, on, bump): the nonzero off-n
    exponents, the on-n ones at the listed primes, and the default's.
    Any other spec is refused, as is a set with no valuation map.
    """
    if index_set.n != 1:
        raise ValueError("the series route prices sets of one index")
    vmap = index_set.valuation_map()
    pairs = {}
    for ell, spec in (*vmap.at, (None, vmap.default)):
        if isinstance(spec, ValuationPattern) and spec.bounds[0] is not None:
            pairs[ell] = (0, spec.bounds[0])
        elif not isinstance(spec, ValuationPattern) and len(spec) == 1:
            pairs[ell] = (spec[0][0], spec[0][0] + 1)
        else:
            raise UnsupportedScopeError(
                "the series route needs one valuation or a bound at each prime; "
                f"{index_set.label()} has neither at {ell or 'the unlisted primes'}"
            )
    bump = pairs.pop(None)[1]
    off = {ell: a for ell, (a, _) in pairs.items() if a}
    return off, {ell: b for ell, (_, b) in pairs.items()}, bump


def _tail_constant(model: KummerModel, exponents, degree) -> Fraction:
    """c = max f(s) phi(f(s)) / D(f(s)) over squarefree s dividing prod S.

    exponents is _series_exponents' (off, on, bump). By _series_degree,
    f phi(f) / D(f) = A phi(A) / D(A) for the S-part A of f (S the model's
    scope). Write n = s*t with s made of primes of S and t prime to S:
    f(n) has the same S-part as f(s), so f(n) phi(f(n)) / D(f(n)) <= c.
    The on-n exponent is at least 1 and above the off-n one, so n divides
    f(n), and 1/D(f(n)) <= c / (f(n) phi(f(n))) <= c / (n phi(n)).

    The maximum sits at s = P or s = 2P, P the product of the odd primes
    of S, so two degrees give c. For the rank-one group,
    A phi(A) / D(A) = A |G & H| / |G|, with |G| the product of its ell-parts
    and G & H read at the 2-part (KummerModel.degree). For odd ell, G_ell is
    cyclic of order ell^(k - min(k, d_ell)), d_ell the ell-adic content of
    the exponent lattice: its factor ell^min(k, d_ell) grows with k. At a
    fixed 2-part, |G_2| is fixed and |G & H| grows with the odd part. f
    raises ell's exponent when ell joins n and leaves the other primes
    alone, so whether or not 2 | s, the full odd part gives the largest
    ratio. The 2-part is not monotone: for <-1, 2> and f(n) = n, s = 1
    gives 1 but s = 2 gives 1/2, as -1 doubles |G_2|.
    """
    off, on, bump = exponents
    odd = [ell for ell in model.deficiency_scope() if ell != 2]
    best = Fraction(0)
    for s in (odd, [2, *odd]):
        levels = off | {ell: on.get(ell, bump) for ell in s}
        size = prod((ell - 1) * ell ** (2 * k - 1) for ell, k in levels.items())
        best = max(best, Fraction(size, degree(levels)))
    return best


def hooley_series(
    group: MultGroup,
    index_set: IndexSet,
    truncation: int = 10**4,
    mode: str = "corrected",
) -> DensityReport:
    """Sum mu(n)/[Q(zeta_f(n), W^{1/f(n)}):Q] for n up to the truncation.

    f(n) comes from the set's valuation map (_series_exponents): each n
    starts from the off-n exponents, and the walk down one table of
    smallest prime factors over [1, truncation], sieved for this call and
    dropped with it, sets the on-n exponent at each prime of n as it finds
    it; it stops at a repeated prime, where mu(n) = 0. The degree splits
    as D(f(n)) = D(A) phi(B) B, A the part of f(n) on the model's
    deficiency scope and B the rest (_series_degree; the proof is
    _joint_factor's). In generic mode the scope is empty, so
    D(f(n)) = f(n) phi(f(n)); corrected mode is the default, and any other
    mode is refused. The terms stream into series_sum as integer pairs
    (mu(n), D(f(n))); only the first LEDGER_ROW_LIMIT become Fractions, in
    the ledger. The reported interval is the partial sum widened by a
    proved tail bound,
    |sum_{n>N} mu(n)/D(f(n))| <= c * sum_{n>N} 1/(n phi(n))
    <= c * (zeta(2)zeta(3)/zeta(6) + eps) / N,
    where c (1 for <2>, and 1 in generic mode; two exact degrees give it,
    _tail_constant) bounds how far an exact degree falls below f(n) phi(f(n)).
    """
    if not 1 <= truncation <= MAX_TRUNCATION:
        raise ValueError(f"truncation must be between 1 and {MAX_TRUNCATION}")
    torsion = not any(g.exponents for g in group.generators)  # GroupFamily refuses it
    model = None if torsion else KummerModel(GroupFamily((group,)))
    if model is None or model.profile.of({1}) != 1:
        raise UnsupportedScopeError(
            "the series route is for rank-1 groups; higher ranks go through "
            "valuation_density or singleton_sum"
        )
    if mode not in ("generic", "corrected"):
        raise ValueError("mode is 'generic' or 'corrected'")
    off, on, bump = exponents = _series_exponents(index_set)
    degree = _series_degree(model, mode)
    tail = _tail_constant(model, exponents, degree) * _reciprocal_tail(truncation)
    spf = memoryview(smallest_prime_factors(truncation))  # entries read as ints
    ledger = []
    count = 0

    def terms():
        nonlocal count
        for n in range(1, truncation + 1):
            levels = off.copy()
            mu = 1
            m = n
            while m > 1:
                p = spf[m]
                m //= p
                if m % p == 0:
                    break  # p^2 divides n: mu(n) = 0
                levels[p] = on.get(p, bump)
                mu = -mu
            else:
                count += 1
                d = degree(levels)
                if count <= LEDGER_ROW_LIMIT:
                    level = prod(ell**k for ell, k in levels.items())
                    ledger.append((f"n={n} level={level}", Fraction(mu, d)))
                yield mu, d

    lo, hi = series_sum(terms())
    hi = max(Fraction(0), round_up(hi + tail))
    lo = min(max(Fraction(0), round_down(lo - tail)), hi)
    notes = (
        f"set={index_set.label()}",
        f"truncation={truncation}",
        f"mode={mode}",
        f"terms={count}",
        f"tail-bound={float(tail):.3e}",
    )
    return DensityReport(Interval(lo, hi), "series", tuple(ledger), notes)


# ---------------------------------------------------------------------------
# the joint factor at the primes where degrees can entangle


def _joint_piece(model: KummerModel, ell: int, spec: VSpec):
    """What _joint_factor needs of the spec at one scope prime ell.

    At 2, one (c / (phi(2^k) |G_2(k, w)|), counted square classes) pair per
    corner (c, w); at any other ell, the local sum L_ell and L_ell - b_ell,
    b_ell the zero corner's coefficient.
    """
    corners = corner_terms(spec, len(model.family))
    parts = [(c, model.part(ell, max(w), w)) for c, w in corners]
    if ell == 2:
        return tuple((Fraction(c, size), counted) for c, (size, counted) in parts)
    local = sum((Fraction(c, size) for c, (size, _) in parts), Fraction(0))
    return local, local - sum(c for c, w in corners if not any(w))


def _joint_factor(
    model: KummerModel, specs: dict[int, VSpec], piece=_joint_piece
) -> Fraction:
    """Density of primes whose index valuations at each listed ell lie in its spec.

    Term by term, it is sum prod_ell c_ell / D(M, N) over one signed corner
    (c_ell, w_ell) per prime, N_i = prod_ell ell^(w_ell)_i and M = lcm(N),
    with exact degrees D, so entanglement (sqrt(5) in Q(zeta_5)) counts:
    the character-sum correction of Lenstra, Moree and Stevenhagen (2014).
    KummerModel.degree splits D(M, N) into ell-parts, with G & H read at the
    2-part: with k = v_2(M) and w the corner at 2, a square class z counts
    exactly when its odd primes divide M and chi_(k,w)(z) = 1, that is, when
    z counts at 2^k odd(z). Swap the sum over the odd support primes T
    dividing M with the sum over z: with L_ell the local sum
    sum c/D(ell^max w, ell^w) and b_ell the zero corner's coefficient,
      sum_(c, w) c / (phi(2^k) |G_2(k, w)|) sum_z chi_(k,w)(z)
        prod_(ell | z) (L_ell - b_ell) prod_(ell not | z) L_ell
    over the odd support primes, times L_ell for each odd ell outside the
    support. specs lists 2 and the support, as the model's scope does. The
    pieces come from piece(model, ell, spec) (_joint_piece, which a caller
    may memoize), and each z's product over the odd support primes is
    taken once, however many corners count it.
    """
    pieces = {ell: piece(model, ell, spec) for ell, spec in specs.items()}
    odd = [ell for ell in model.family.support if ell != 2]
    classes = {z for _, counted in pieces[2] for z in counted}
    over = {z: prod(pieces[ell][z % ell == 0] for ell in odd) for z in classes}
    total = sum(
        (weight * sum(over[z] for z in counted) for weight, counted in pieces[2]),
        Fraction(0),
    )
    lattice = (pieces[ell][0] for ell in specs if ell != 2 and ell not in odd)
    return prod(lattice, start=total)


# ---------------------------------------------------------------------------
# Euler route for sets cut by valuations


def valuation_density(
    family: GroupFamily,
    index_set: IndexSet,
    *,
    cutoff: int = 10**5,
) -> DensityReport:
    """Euler product of local valuation series for a cut/almost-cut set.

    The primes of KummerModel.deficiency_scope() (2, the support and the
    lattice primes) enter through one joint factor with exact composite
    degrees, and every other prime keeps its generic local series. The
    ledger records the generic local series at each scope prime next to
    the joint factor, so the rational multiple relating them is visible.
    """
    klass = index_set.classification()
    if klass.kind == "determined":
        raise UnsupportedScopeError(
            "determined sets are not cut by valuations; use singleton_sum"
        )
    if klass.kind not in ("cut", "almost-cut"):
        raise UnsupportedScopeError(
            f"no analytic route for a set of kind '{klass.kind}'; "
            "use the empirical survey"
        )
    if index_set.n != len(family):
        raise ValueError("index set arity does not match the family")
    return _euler_route(KummerModel(family), index_set, cutoff)


def _euler_route(
    model: KummerModel, index_set: IndexSet, cutoff: int, joint: Fraction | None = None
) -> DensityReport:
    """valuation_density's report on a set it accepts. joint is the joint
    factor at the model's scope, priced here unless the caller has it."""
    vmap = index_set.valuation_map()
    scope = model.deficiency_scope()
    specs = {ell: vmap.spec_at(ell) for ell in scope}
    ledger = [
        (f"ell={ell} generic", local_series(ell, spec, model.profile))
        for ell, spec in specs.items()
    ]
    if joint is None:
        joint = _joint_factor(model, specs)
    ledger.append((f"ell={','.join(map(str, scope))} corrected", joint))

    # the joint factor prices the scope primes, so each is unconstrained
    # (factor 1) here, past the split too: euler_product then takes its
    # factor 1 out of the tail instead of counting its default factor again
    free = dict(vmap.at) | dict.fromkeys(scope, ValuationPattern.anything(vmap.n))
    free_map = ValuationMap.build(vmap.n, free, vmap.default)
    ep = euler_product(free_map, model.profile, cutoff)
    for ell, a in ep.factors:
        if len(ledger) >= LEDGER_ROW_LIMIT:
            break
        if ell not in scope:
            ledger.append((f"ell={ell}", a))
    notes = [
        f"set={index_set.label()}",
        f"cutoff={cutoff}",
        f"tail-bound={float(ep.tail_bound):.3e}",
        f"zero-at={ep.zero_at if joint else scope}",
    ]
    value = ep.interval.times_exact(joint)
    return DensityReport(value, "euler-product", tuple(ledger), tuple(notes))


# ---------------------------------------------------------------------------
# singleton route for enumerable sets


def _corrections(model: KummerModel):
    """The index-one joint factor J(0) at the model's scope S, and the map
    h -> m(h) = dens({h}) / dens({1}).

    m(h) is a generic ratio F(v_ell(h)) / F(0) at each prime of h outside
    S, times one joint ratio J(v_S(h)) / J(0) when h meets S; refused where
    index one has density zero at the primes of h, as for (<2>, <4>).
    Memoized while the map lives: the joint factor's pieces per (ell,
    valuation tuple), the joint factor per valuation tuple at S, and the
    generic local factor per (ell, valuation tuple).
    """
    scope = model.deficiency_scope()
    zero = (0,) * len(model.family)
    piece = lru_cache(maxsize=None)(_joint_piece)

    @lru_cache(maxsize=None)
    def joint(vs):
        return _joint_factor(model, {ell: (v,) for ell, v in zip(scope, vs)}, piece)

    @lru_cache(maxsize=None)
    def local(ell, v):
        return local_factor(ell, v, model.profile)

    one = joint((zero,) * len(scope))

    def correction(h) -> Fraction:
        primes = factorize(lcm(*h))
        ratios = [
            (local(ell, valuations_at(h, ell)), local(ell, zero))
            for ell in primes
            if ell not in scope
        ]
        if any(ell in scope for ell in primes):
            vs = tuple(valuations_at(h, ell) for ell in scope)
            ratios.append((joint(vs), one))
        if any(bottom == 0 for _, bottom in ratios):
            raise UnsupportedScopeError(
                f"index one has density zero at the primes of {h}, so correction "
                "ratios relative to it are undefined"
            )
        return prod((top / bottom for top, bottom in ratios), start=Fraction(1))

    return one, correction


def singleton_sum(
    family: GroupFamily,
    index_set: IndexSet,
    *,
    bound: int = 10**3,
    smooth: SquarefreeModulus | None = None,
    cutoff: int = 10**5,
) -> DensityReport:
    """Sum of per-tuple densities over the set's members up to a bound.

    Each tuple contributes the index-one density, valuation_density's for
    Equals((1, ..., 1)) with its cutoff and tail-bound notes, times its
    exact correction m(h) from _corrections. One Kummer model serves both,
    and the base reads _corrections' index-one joint factor, so that
    factor is priced once per call. The members come from
    index_set.members. Their corrections stay exact in the ledger, but are
    added in one series_sum pass on the 2^-PRECISION_BITS grid, since an
    exact sum's denominator grows with every member; the value is the base
    times that [low, high], rounded outward. The ledger's last row is low,
    which ties its h= rows to the value. Monotone in both the enumeration
    bound and the smoothness modulus. Any family will do (module docstring):
    for <2> twice, (q, q^2) gets exactly 0. A set of another arity than
    the family's is refused (ValueError), as is a member at whose primes
    index one has density zero (_corrections).
    """
    n = len(family)
    if index_set.n != n:
        raise ValueError("index set arity does not match the family")
    model = KummerModel(family)
    one, correction = _corrections(model)
    base = _euler_route(model, Equals((1,) * n), cutoff, one)

    members = index_set.members(bound, smooth)
    corrections = [correction(h) for h in members]
    lo, hi = series_sum((m.numerator, m.denominator) for m in corrections)
    ledger = [(f"h={h}", m) for h, m in zip(members[:LEDGER_ROW_LIMIT], corrections)]
    ledger.append((f"sum(max h <= {bound})", lo))

    value = Interval(round_down(base.value.low * lo), round_up(base.value.high * hi))
    notes = (
        f"set={index_set.label()}",
        f"bound={bound}",
        f"smooth={smooth.value if smooth else None}",
        f"members={len(members)}",
        *(note for note in base.notes if note.startswith(("cutoff=", "tail-bound="))),
    )
    return DensityReport(value, "singleton-sum", tuple(ledger), notes)


# ---------------------------------------------------------------------------
# correction ratios


@dataclass(frozen=True)
class CorrectionRatio:
    value: Fraction
    tag: str  # "corrected" when a prime of the Kummer scope divides h


def correction_ratio(h, family: GroupFamily) -> CorrectionRatio:
    """Multiplicative correction m(h) relating dens({h}) to the constant.

    Exact: _corrections' map, which factors lcm(h) once. Tagged "generic"
    when no prime of the Kummer model's scope divides h, so the generic
    local ratios alone give the value; otherwise "corrected", as the scope
    primes enter through the joint factor with exact degrees. Any family
    will do (module docstring): for <2> twice, m((h, h)) is <2>'s m((h,))
    and m((h, h')) is 0 for h != h'. Refused where index one has density
    zero at the primes of h.
    """
    h = check_index_tuple(h, len(family))
    model = KummerModel(family)
    _, correction = _corrections(model)
    scope = model.deficiency_scope()
    tag = "corrected" if any(x % ell == 0 for ell in scope for x in h) else "generic"
    return CorrectionRatio(correction(h), tag)
