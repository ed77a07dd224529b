"""Analytic densities of prime sets cut out by index conditions.

Four routes, kept deliberately independent so they can cross-check each
other: a Moebius series over cyclotomic-Kummer degrees (the classical
primitive-root approach and its level-map variants), an Euler product of
local valuation series for sets cut by valuations, a singleton sum of
per-tuple densities for enumerable sets, and multiplicative correction
ratios relating any tuple's density to the index-one constant.

The Euler, singleton and ratio routes are exact at every prime: the
finitely many primes where Kummer degrees can fall short of the generic
ones (2, the support and the lattice primes) enter through one joint
factor built from exact composite degrees, so entanglement between
primes (sqrt(5) inside Q(zeta_5)) is seen; as it passes through the
2-part and the family's square classes alone, that factor sums products
of local sums over those classes. All other primes use the generic
closed forms. The series route splits each degree at the same primes:
the part of f(n) on them takes its degree exact or generic by the mode,
and the rest the generic phi(B) B. Non-separated families are refused
wherever a generic per-tuple value would be unsound.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod

from .arith import factorize, primes_up_to
from .empirical import smallest_prime_factors
from .errors import UnsupportedScopeError
from .exact import PRECISION_BITS, Interval, round_down, round_up, series_sum
from .groups import GroupFamily, MultGroup, is_separated, profile_of, rank
from .index_sets import (
    IndexSet,
    SquarefreeModulus,
    ValuationMap,
    ValuationPattern,
    VSpec,
    check_index_tuple,
    valuations_at,
)
from .artin import (
    _zeta_bounds,
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
# level maps: which cyclotomic-Kummer level the n-th series term probes


@dataclass(frozen=True)
class LevelMap:
    """f(n) choices for the Moebius series Sum mu(n)/deg(level f(n)).

    identity      f(n) = n                  (index exactly 1)
    times         f(n) = n*t                (index exactly t)
    times-local   f(n) = n * prod_{l | n} l^{v_l(t)}   (t divides index)
    power         f(n) = n^k                (k-free index)
    prime-powers  f(n) = prod_{l | n} l^{k(l)}, k(l) >= 1 defaulting to 1
    """

    kind: str
    t: int | None = None
    k: int | None = None
    table: tuple[tuple[int, int], ...] = ()

    _KINDS = ("identity", "times", "times-local", "power", "prime-powers")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown level map kind {self.kind!r}")
        if self.kind in ("times", "times-local") and (self.t or 0) < 1:
            raise ValueError("t must be a positive integer")
        if self.kind == "power" and (self.k or 0) < 1:
            raise ValueError("k must be a positive integer")
        if any(k < 1 for _, k in self.table):
            raise ValueError("prime-power exponents are at least 1")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def times(cls, t: int):
        return cls("times", t=int(t))

    @classmethod
    def times_local(cls, t: int):
        return cls("times-local", t=int(t))

    @classmethod
    def power(cls, k: int):
        return cls("power", k=int(k))

    @classmethod
    def prime_powers(cls, table: dict[int, int]):
        return cls("prime-powers", table=tuple(sorted(table.items())))

    @cached_property
    def _exponents(self) -> dict[int, int]:
        """The prime-powers table, or the factorization of t."""
        return dict(self.table) if self.kind == "prime-powers" else factorize(self.t or 1)

    def factors(self, n_factors: dict[int, int]) -> dict[int, int]:
        """The factorization of f(n), given n's: every kind acts prime by prime."""
        if self.kind == "identity":
            return n_factors
        if self.kind == "times":
            out = dict(n_factors)
            for ell, e in self._exponents.items():
                out[ell] = out.get(ell, 0) + e
            return out
        if self.kind == "times-local":
            return {ell: e + self._exponents.get(ell, 0) for ell, e in n_factors.items()}
        if self.kind == "power":
            return {ell: e * self.k for ell, e in n_factors.items()}
        return {ell: self._exponents.get(ell, 1) for ell in n_factors}

    def label(self) -> str:
        if self.kind == "identity":
            return "n"
        if self.kind == "times":
            return f"{self.t}*n"
        if self.kind == "times-local":
            return f"n*local({self.t})"
        if self.kind == "power":
            return f"n^{self.k}"
        return "prod l^k(l) over l|n"


# ---------------------------------------------------------------------------
# Moebius series with a proved tail


def _kappa_bound() -> Fraction:
    """An upper bound on kappa = zeta(2)zeta(3)/zeta(6) = prod_p (1 + 1/(p(p-1)))."""
    scale = 1 << PRECISION_BITS
    z2, z3, z6 = (_zeta_bounds(s, scale) for s in (2, 3, 6))
    return Fraction(-(-z2[1] * z3[1] // z6[0]), scale)


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
    B prime to them. Then D(f) = D(A) phi(B) B: phi(f) and |G| split over
    the ell-parts of Q*/Q*^f, W is saturated at every ell off the scope (its
    ell-part of |G| is ell^k), and G & H sees only 2 and the support (the
    argument in _joint_factor's docstring). D(A) is model.degree(A, (A,),
    mode), memoized by A: a level map gives at most one A per subset of the
    scope, whatever the truncation.
    """
    scope = frozenset(model.deficiency_scope())
    exact = lru_cache(maxsize=None)(lambda a: model.degree(a, (a,), mode))

    def degree(levels: dict[int, int]) -> int:
        a = off = 1
        for ell, k in levels.items():
            if ell in scope:
                a *= ell**k
            else:
                off *= (ell - 1) * ell ** (2 * k - 1)  # phi(ell^k) ell^k
        return exact(a) * off

    return degree


def _tail_constant(model: KummerModel, level_map: LevelMap, degree) -> Fraction:
    """c = max f(s) phi(f(s)) / D(f(s)) over squarefree s dividing prod S.

    By _series_degree, f phi(f) / D(f) = A phi(A) / D(A) for the S-part A
    of f (S the model's scope). Write n = s*t with s made of primes of S
    and t prime to S: f(n) has the same S-part as f(s), so
    f(n) phi(f(n)) / D(f(n)) <= c. As n divides f(n) for every level map,
    1/D(f(n)) <= c / (f(n) phi(f(n))) <= c / (n phi(n)).

    The maximum sits at s = P or s = 2P, P the product of the odd primes
    of S, so two degrees give c. For the rank-one group,
    A phi(A) / D(A) = A |G & H| / |G|, and |G| splits over the ell | A
    (KummerModel.degree). For odd ell, -1 is an ell^k-th power, so G_ell is
    cyclic of order ell^(k - min(k, d_ell)), d_ell the ell-adic content of
    the exponent lattice: its factor ell^min(k, d_ell) grows with k. At a
    fixed 2-part 2^k, |G_2| is fixed and |G & H| grows with the odd part,
    as a class z counts at every 2^k t with odd(z) | t
    (KummerModel.square_meet). Every level map raises ell's exponent when
    ell joins n and leaves the other primes alone, so whether or not 2 | s,
    the full odd part gives the largest ratio. The 2-part is not monotone:
    for <-1, 2> and f(n) = n, s = 1 gives 1 but s = 2 gives 1/2, as -1
    doubles |G_2|.
    """
    odd = dict.fromkeys((ell for ell in model.deficiency_scope() if ell != 2), 1)
    best = Fraction(0)
    for s in (odd, {2: 1} | odd):
        levels = level_map.factors(s)
        size = prod((ell - 1) * ell ** (2 * k - 1) for ell, k in levels.items())
        best = max(best, Fraction(size, degree(levels)))
    return best


def hooley_series(
    group: MultGroup,
    level_map: LevelMap,
    truncation: int = 10**4,
    mode: str = "corrected",
) -> DensityReport:
    """Sum mu(n)/[Q(zeta_f(n), W^{1/f(n)}):Q] for n up to the truncation.

    One table of smallest prime factors over [1, truncation], sieved for
    this call and dropped with it, gives each n's primes: the walk down the
    table stops at a repeated prime, where mu(n) = 0. f(n)'s factorization
    is derived from n's. The degree splits as D(f(n)) = D(A) phi(B) B, A
    the part of f(n) on the model's deficiency scope and B the rest
    (_series_degree; the proof is _joint_factor's). Only D(A) depends on
    the mode: exact in corrected mode (the default), generic in generic
    mode. The terms
    stream into series_sum as integer pairs (mu(n), D(f(n))); only the
    first LEDGER_ROW_LIMIT become Fractions, in the ledger. The reported
    interval is the partial sum widened by a proved tail bound,
    |sum_{n>N} mu(n)/D(f(n))| <= c * sum_{n>N} 1/(n phi(n))
    <= c * (zeta(2)zeta(3)/zeta(6) + eps) / N,
    where c (1 for <2>, and 1 in generic mode; two exact degrees give it,
    _tail_constant) bounds how far an exact degree falls below f(n) phi(f(n)).
    """
    if not 1 <= truncation <= MAX_TRUNCATION:
        raise ValueError(f"truncation must be between 1 and {MAX_TRUNCATION}")
    if rank(group) != 1:
        raise UnsupportedScopeError(
            "the series route is for rank-1 groups; higher ranks go through "
            "valuation_density or singleton_sum"
        )
    model = KummerModel(GroupFamily((group,)))
    degree = _series_degree(model, mode)
    tail = _tail_constant(model, level_map, degree) * _reciprocal_tail(truncation)
    spf = memoryview(smallest_prime_factors(truncation))  # entries read as ints
    ledger = []
    count = 0

    def terms():
        nonlocal count
        for n in range(1, truncation + 1):
            n_factors = {}
            mu = 1
            m = n
            while m > 1:
                p = spf[m]
                m //= p
                if m % p == 0:
                    break  # p^2 divides n: mu(n) = 0
                n_factors[p] = 1
                mu = -mu
            else:
                count += 1
                levels = level_map.factors(n_factors)
                d = degree(levels)
                if count <= LEDGER_ROW_LIMIT:
                    level = prod(ell**k for ell, k in levels.items())
                    ledger.append((f"n={n} level={level}", Fraction(mu, d)))
                yield mu, d

    lo, hi = series_sum(terms())
    hi = max(Fraction(0), round_up(hi + tail))
    lo = min(max(Fraction(0), round_down(lo - tail)), hi)
    notes = (
        f"f(n)={level_map.label()}",
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
    if ell == 2:
        meets = (
            (c, model.square_meet(2 ** max(w), tuple(2**e for e in w)))
            for c, w in corners
        )
        return tuple((Fraction(c, size), counted) for c, (size, counted) in meets)
    levels = ((c, tuple(ell**e for e in w)) for c, w in corners)
    terms = (Fraction(c, model.degree(max(n), n, "corrected")) for c, n in levels)
    local = sum(terms, Fraction(0))
    return local, local - sum(c for c, w in corners if not any(w))


def _joint_factor(
    model: KummerModel, specs: dict[int, VSpec], piece=_joint_piece
) -> Fraction:
    """Density of primes whose index valuations at each listed ell lie in its spec.

    Term by term, it is sum prod_ell c_ell / D(M, N) over one signed corner
    (c_ell, w_ell) per prime, N_i = prod_ell ell^(w_ell)_i and M = lcm(N),
    with exact degrees D, so entanglement (sqrt(5) in Q(zeta_5)) counts:
    the character-sum correction of Lenstra, Moree and Stevenhagen (2014).
    In D(M, N) = phi(M) |G| / |G & H| (KummerModel.degree), phi(M) and |G|
    split over the ell-parts of Q*/Q*^M. H has exponent 2, so with k = v_2(M)
    and w the corner at 2, a square class z counts in G & H exactly when its
    odd primes divide M and chi_(k,w)(z) = 1: z counts at 2^k odd(z)
    (KummerModel.square_meet). Swap the sum over the odd support primes T
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


def _free_at(vmap: ValuationMap, scope) -> ValuationMap:
    """vmap with every scope prime unconstrained (factor 1).

    The joint factor accounts for the scope primes, so each is listed
    here, past the split too: euler_product then takes its factor 1 out
    of the tail instead of counting its default factor a second time.
    """
    anything = ValuationPattern.anything(vmap.n)
    at = dict(vmap.at) | {ell: anything for ell in scope}
    return ValuationMap.build(vmap.n, at, vmap.default)


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
    profile = profile_of(family)
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
    vmap = index_set.valuation_map()
    if vmap.n != len(family):
        raise ValueError("index set arity does not match the family")

    model = KummerModel(family)
    scope = model.deficiency_scope()
    specs = {ell: vmap.spec_at(ell) for ell in scope}
    ledger = [
        (f"ell={ell} generic", local_series(ell, spec, profile))
        for ell, spec in specs.items()
    ]
    joint = _joint_factor(model, specs)
    ledger.append((f"ell={','.join(map(str, scope))} corrected", joint))

    ep = euler_product(_free_at(vmap, scope), profile, cutoff)
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
    if not is_separated(family):
        notes.append("separated=False (product can deviate; check with a survey)")
    value = ep.interval.times_exact(joint)
    return DensityReport(value, "euler-product", tuple(ledger), tuple(notes))


# ---------------------------------------------------------------------------
# singleton route for enumerable sets


def _scope_joint(family: GroupFamily):
    """The Kummer model's scope S and a memoized joint factor.

    joint(vs) is the density of primes whose index valuations at the i-th
    prime of S are exactly vs[i]. The pieces of the joint factor are
    memoized per (ell, valuation tuple), so a new vs only multiplies
    pieces already built; both memos live as long as the returned closure.
    """
    model = KummerModel(family)
    scope = model.deficiency_scope()
    piece = lru_cache(maxsize=None)(_joint_piece)

    @lru_cache(maxsize=None)
    def joint(vs):
        specs = {ell: (v,) for ell, v in zip(scope, vs)}
        return _joint_factor(model, specs, piece)

    return scope, joint


def _tuple_correction(h, profile, scope, joint) -> Fraction:
    """m(h) = dens({h}) / dens({1}).

    A generic ratio F(v_ell(h)) / F(0) at each prime of h outside the
    scope, times one joint ratio over the scope when h meets it.
    """
    zero = (0,) * profile.n
    primes = sorted(factorize(lcm(*h)))
    ratios = []
    for ell in primes:
        if ell not in scope:
            top = local_factor(ell, valuations_at(h, ell), profile)
            ratios.append((top, local_factor(ell, zero, profile)))
    if any(ell in scope for ell in primes):
        vs = tuple(valuations_at(h, ell) for ell in scope)
        ratios.append((joint(vs), joint((zero,) * len(scope))))
    if any(bottom == 0 for _, bottom in ratios):
        raise UnsupportedScopeError(
            f"index one has density zero at the primes of {h}, so correction "
            "ratios relative to it are undefined"
        )
    return prod((top / bottom for top, bottom in ratios), start=Fraction(1))


def singleton_sum(
    family: GroupFamily,
    index_set: IndexSet,
    *,
    bound: int = 10**3,
    smooth: SquarefreeModulus | None = None,
    cutoff: int = 10**5,
) -> DensityReport:
    """Sum of per-tuple densities over the set's members up to a bound.

    Each tuple contributes the index-one constant times its multiplicative
    correction; both use the joint factor over the Kummer model's scope,
    so every prime is priced with exact degrees. The corrections stay
    exact in the ledger, but their sum runs on the 2^-PRECISION_BITS grid
    (series_sum), in one pass over the members by max(h), and the value is
    the base times [low, high] rounded outward: an exact sum's denominator
    grows with every member. Monotone in both the enumeration bound and the
    smoothness modulus, which is the observable shape of the truncation
    lattice the ledger reports, as the grid lower bounds of the prefix
    sums at geometric sub-bounds. Refuses
    non-separated families: for those, per-tuple densities are not
    products of local factors and a generic value here would be silently
    wrong.
    """
    if not is_separated(family):
        raise UnsupportedScopeError(
            "non-separated family: per-tuple densities can deviate from the "
            "generic product (two groups sharing hull force equal valuations), "
            "so the singleton route refuses; use the empirical survey"
        )
    profile = profile_of(family)
    scope, joint = _scope_joint(family)

    zero_map = ValuationMap.build(
        profile.n, {}, ValuationPattern.exact_zero(profile.n)
    )
    base = euler_product(_free_at(zero_map, scope), profile, cutoff)
    base_value = base.interval.times_exact(joint(((0,) * profile.n,) * len(scope)))

    members = index_set.members(bound, smooth)
    corrections = [(h, _tuple_correction(h, profile, scope, joint)) for h in members]
    ledger = [(f"h={h}", m_h) for h, m_h in corrections[:LEDGER_ROW_LIMIT]]

    # one grid sum over the members by max(h): the truncation lattice's
    # partial sums at geometric sub-bounds are its prefix sums
    subs = []
    sub = bound
    while sub:
        subs.append(sub)
        sub //= 4
    by_max = sorted(corrections, key=lambda hm: max(hm[0]))
    tops = [max(h) for h, _ in by_max]
    lo = hi = Fraction(0)
    start = 0
    for sub in reversed(subs):
        stop = bisect_right(tops, sub)
        band = series_sum((m.numerator, m.denominator) for _, m in by_max[start:stop])
        lo, hi = lo + band[0], hi + band[1]
        start = stop
        ledger.append((f"sum(max h <= {sub})", lo))

    value = Interval(round_down(base_value.low * lo), round_up(base_value.high * hi))
    notes = (
        f"set={index_set.label()}",
        f"bound={bound}",
        f"smooth={smooth.value if smooth else None}",
        f"members={len(members)}",
        f"cutoff={cutoff}",
        f"tail-bound={float(base.tail_bound):.3e}",
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

    Exact. Tagged "generic" when no prime dividing h is in the Kummer
    model's scope, so the generic local ratios alone give the value;
    otherwise tagged "corrected", as the scope primes enter through the
    joint factor with exact degrees.
    """
    if not is_separated(family):
        raise UnsupportedScopeError(
            "correction ratios assume a separated family"
        )
    profile = profile_of(family)
    h = check_index_tuple(h, profile.n)
    scope, joint = _scope_joint(family)
    support = factorize(lcm(*h))
    tag = "corrected" if any(ell in support for ell in scope) else "generic"
    return CorrectionRatio(_tuple_correction(h, profile, scope, joint), tag)
