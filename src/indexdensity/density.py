"""Analytic densities of prime sets cut out by index conditions.

Four routes, kept deliberately independent so they can cross-check each
other: a Moebius series over cyclotomic-Kummer degrees (the classical
primitive-root approach and its level-map variants), an Euler product of
local valuation series for sets cut by valuations, a singleton sum of
per-tuple densities for enumerable sets, and multiplicative correction
ratios relating any tuple's density to the index-one constant.

Small primes get deficiency-corrected local values from the kummer model;
all other primes use the generic closed forms. Non-separated families are
refused wherever a generic per-tuple value would be unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import factorize, moebius_sieve, valuation
from .errors import UnsupportedScopeError
from .exact import Interval, round_down, round_up, series_sum
from .groups import GroupFamily, MultGroup, is_separated, profile_of, rank
from .index_sets import (
    IndexSet,
    SquarefreeModulus,
    ValuationMap,
    ValuationPattern,
    check_index_tuple,
    valuations_at,
)
from .artin import euler_product, local_factor, local_series
from .kummer import KummerModel

LEDGER_ROW_LIMIT = 64


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

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError("level maps take positive integers")
        if self.kind == "identity":
            return n
        if self.kind == "times":
            return n * self.t
        if self.kind == "times-local":
            out = n
            for ell in factorize(n):
                out *= ell ** valuation(self.t, ell)
            return out
        if self.kind == "power":
            return n**self.k
        table = dict(self.table)
        out = 1
        for ell in factorize(n):
            out *= ell ** table.get(ell, 1)
        return out

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


def hooley_series(
    group: MultGroup,
    level_map: LevelMap,
    truncation: int = 10**4,
    mode: str = "generic",
    *,
    model: KummerModel | None = None,
) -> DensityReport:
    """Sum mu(n)/[Q(zeta_f(n), W^{1/f(n)}):Q] for n up to the truncation.

    The tail is estimated empirically from the last decade of terms
    (their absolute sum decays like the true remainder times roughly a
    factor of nine, so widening by it is safely conservative), and the
    reported interval is the partial sum widened by that estimate.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if rank(group) != 1:
        raise UnsupportedScopeError(
            "the series route is for rank-1 groups; higher ranks go through "
            "valuation_density or singleton_sum"
        )
    model = model or KummerModel(GroupFamily((group,)))
    mu = moebius_sieve(truncation)

    terms = []
    tail_estimate = Fraction(0)
    decade_start = max(1, truncation // 10)
    ledger = []
    for n in range(1, truncation + 1):
        if mu[n] == 0:
            continue
        f_n = level_map(n)
        deg = model.degree(f_n, (f_n,), mode)
        term = Fraction(int(mu[n]), deg)
        terms.append(term)
        if n > decade_start:
            tail_estimate += abs(term)
        if len(ledger) < LEDGER_ROW_LIMIT:
            ledger.append((f"n={n} level={f_n}", term))

    lo, hi = series_sum(terms)
    hi = max(Fraction(0), round_up(hi + tail_estimate))
    lo = min(max(Fraction(0), round_down(lo - tail_estimate)), hi)
    value = Interval(lo, hi)
    notes = (
        f"f(n)={level_map.label()}",
        f"truncation={truncation}",
        f"mode={mode}",
        f"terms={len(terms)}",
        f"tail-estimate={float(tail_estimate):.3e}",
    )
    return DensityReport(value, "series", tuple(ledger), notes)


# ---------------------------------------------------------------------------
# Euler route for sets cut by valuations


def valuation_density(
    family: GroupFamily,
    index_set: IndexSet,
    *,
    cutoff: int = 10**5,
    model: KummerModel | None = None,
    corrected: bool = True,
) -> DensityReport:
    """Euler product of local valuation series for a cut/almost-cut set.

    Small primes (the family's support and 2) are evaluated with
    deficiency-corrected corner degrees when corrected=True; the ledger
    records both the generic and the corrected value at each such prime
    so the rational multiple relating them is visible.
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

    model = model or KummerModel(family)
    overrides = {}
    ledger = []
    if corrected:
        for ell in model.deficiency_scope():
            spec = vmap.spec_at(ell)
            generic = local_series(ell, spec, profile).value
            fixed = local_series(ell, spec, profile, degree_of=model.local_degree).value
            overrides[ell] = fixed
            ledger.append((f"ell={ell} generic", generic))
            ledger.append((f"ell={ell} corrected", fixed))

    ep = euler_product(vmap, profile, cutoff, overrides=overrides)
    for ell, a in ep.factors:
        if len(ledger) >= LEDGER_ROW_LIMIT:
            break
        if ell not in overrides:
            ledger.append((f"ell={ell}", a))
    notes = [
        f"set={index_set.label()}",
        f"cutoff={cutoff}",
        f"corrected={corrected}",
        f"zero-at={ep.zero_at}",
    ]
    if not is_separated(family):
        notes.append("separated=False (product can deviate; check with a survey)")
    return DensityReport(ep.interval, "euler-product", tuple(ledger), tuple(notes))


# ---------------------------------------------------------------------------
# singleton route for enumerable sets


def _tuple_correction(h, profile, scope, deg_of) -> Fraction:
    """prod over ell | h of F(v_ell(h)) / F(0), corrected inside scope."""
    out = Fraction(1)
    zero = (0,) * profile.n
    for ell in sorted(factorize(lcm(*h))):
        v = valuations_at(h, ell)
        use = deg_of if ell in scope else None
        top = local_factor(ell, v, profile, degree_of=use)
        bottom = local_factor(ell, zero, profile, degree_of=use)
        if bottom == 0:
            raise ArithmeticError(
                f"zero base factor at ell={ell}; correction undefined"
            )
        out *= top / bottom
    return out


def singleton_sum(
    family: GroupFamily,
    index_set: IndexSet,
    *,
    bound: int = 10**3,
    smooth: SquarefreeModulus | None = None,
    cutoff: int = 10**5,
    model: KummerModel | None = None,
    corrected: bool = True,
) -> DensityReport:
    """Sum of per-tuple densities over the set's members up to a bound.

    Each tuple contributes the index-one constant times its multiplicative
    correction. Monotone in both the enumeration bound and the smoothness
    modulus, which is the observable shape of the truncation lattice the
    ledger reports. Refuses non-separated families: for those, per-tuple
    densities are not products of local factors and a generic value here
    would be silently wrong.
    """
    if not is_separated(family):
        raise UnsupportedScopeError(
            "non-separated family: per-tuple densities can deviate from the "
            "generic product (two groups sharing hull force equal valuations), "
            "so the singleton route refuses; use the empirical survey"
        )
    profile = profile_of(family)
    model = model or KummerModel(family)
    scope = set(model.deficiency_scope()) if corrected else set()
    deg_of = model.local_degree if corrected else None

    zero_map = ValuationMap.build(
        profile.n, {}, ValuationPattern.exact_zero(profile.n)
    )
    overrides = {}
    if corrected:
        for ell in sorted(scope):
            overrides[ell] = local_series(
                ell, zero_map.spec_at(ell), profile, degree_of=deg_of
            ).value
    base = euler_product(zero_map, profile, cutoff, overrides=overrides)

    members = index_set.members(bound, smooth)
    corrections = [(h, _tuple_correction(h, profile, scope, deg_of)) for h in members]
    total = sum((m_h for _, m_h in corrections), Fraction(0))
    ledger = [(f"h={h}", m_h) for h, m_h in corrections[:LEDGER_ROW_LIMIT]]

    # truncation lattice: partial correction sums at geometric sub-bounds
    sub = bound
    lattice = []
    while sub >= 1:
        s = sum((m_h for h, m_h in corrections if max(h) <= sub), Fraction(0))
        lattice.append((f"sum(max h <= {sub})", s))
        if sub == 1:
            break
        sub //= 4
    ledger.extend(reversed(lattice))

    value = base.interval.times_exact(total)
    notes = (
        f"set={index_set.label()}",
        f"bound={bound}",
        f"smooth={smooth.value if smooth else None}",
        f"members={len(members)}",
        f"cutoff={cutoff}",
        f"corrected={corrected}",
    )
    return DensityReport(value, "singleton-sum", tuple(ledger), notes)


# ---------------------------------------------------------------------------
# correction ratios


@dataclass(frozen=True)
class CorrectionRatio:
    value: Fraction
    tag: str  # "generic" when no small prime divides h, else "estimated"


def correction_ratio(
    h,
    family: GroupFamily,
    *,
    model: KummerModel | None = None,
    corrected: bool = True,
) -> CorrectionRatio:
    """Multiplicative correction m(h) relating dens({h}) to the constant.

    Generic whenever every prime dividing h is outside the deficiency
    scope; otherwise the small primes are corrected from measurements and
    the result is tagged "estimated".
    """
    if not is_separated(family):
        raise UnsupportedScopeError(
            "correction ratios assume a separated family"
        )
    profile = profile_of(family)
    h = check_index_tuple(h, profile.n)
    model = model or KummerModel(family)
    scope = set(model.deficiency_scope()) if corrected else set()
    deg_of = model.local_degree if corrected else None
    support = sorted(factorize(lcm(*h)))
    tag = "estimated" if any(ell in scope for ell in support) else "generic"
    value = _tuple_correction(h, profile, scope, deg_of)
    return CorrectionRatio(value, tag)
