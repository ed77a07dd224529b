"""The four analytic routes and their cross-checks at desk scale."""

import random
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import lcm, prod

import pytest

from indexdensity import density, kummer
from indexdensity.density import (
    correction_ratio,
    hooley_series,
    singleton_sum,
    valuation_density,
)
from indexdensity.arith import factorize, moebius, primes_up_to, valuation
from indexdensity.artin import corner_terms, euler_product
from indexdensity.errors import UnsupportedScopeError
from indexdensity.exact import Interval, round_down, round_up
from indexdensity.groups import GroupFamily, MultGroup, profile_of
from indexdensity.kummer import KummerModel
from indexdensity.index_sets import (
    Divides,
    Equals,
    FiniteSet,
    KFree,
    PrimesSet,
    SquarefreeModulus,
    ValuationConstraint,
    ValuationMap,
    ValuationPattern,
    named_predicate,
)
from oracles import generic_degree, kappa_bound

FAM2 = GroupFamily.from_strings(["2"])
G2 = MultGroup.from_strings("2")


def _artin_interval(cutoff=3000):
    vm = ValuationMap.build(1, {}, ValuationPattern.exact_zero(1))
    return euler_product(vm, profile_of(FAM2), cutoff).interval


def _overlap(a, b):
    return a.low <= b.high and b.low <= a.high


def _prime_powers(table):
    """The set of the prime-powers level map: v_ell < k(ell) at each listed
    ell, and index one elsewhere."""
    at = {ell: ValuationPattern((k,)) for ell, k in table.items()}
    return ValuationConstraint(ValuationMap.build(1, at, ValuationPattern.exact_zero(1)))


def _classical_level(index_set, n):
    """Hooley's f(n) for squarefree n, by the level map that names the set:
    tn for index t, n prod_(ell | n) ell^v_ell(t) for an index dividing t,
    n^k for a k-free index, and prod_(ell | n) ell^k(ell) for prime powers."""
    primes = factorize(n)
    if isinstance(index_set, Equals):
        return index_set.t[0] * n
    if isinstance(index_set, Divides):
        return n * prod(ell ** valuation(index_set.t[0], ell) for ell in primes)
    if isinstance(index_set, KFree):
        return n ** index_set.k[0]
    table = {ell: spec.bounds[0] for ell, spec in index_set.vmap.at}
    return prod(ell ** table.get(ell, 1) for ell in primes)


def _levels(index_set, n):
    """f(n)'s factorization for squarefree n, as hooley_series builds it."""
    off, on, bump = density._series_exponents(index_set)
    return off | {p: on.get(p, bump) for p in factorize(n)}


TAIL_SETS = (
    (Equals((1,)),)
    + tuple(Equals((t,)) for t in (2, 3, 4, 5, 6, 8, 12))
    + tuple(Divides((t,)) for t in (2, 4, 6, 12, 45))
    + tuple(KFree((k,)) for k in (2, 3, 4))
    + tuple(
        _prime_powers(table)
        for table in ({2: 2}, {2: 3, 3: 2}, {3: 2}, {5: 3}, {2: 2, 3: 3, 5: 2})
    )
)


def test_level_maps():
    # each level map of the classical series is the valuation set it
    # prices, and the set's exponents give Hooley's f(n)
    squarefree = [n for n in range(1, 1001) if moebius(n)]
    for index_set in TAIL_SETS:
        for n in squarefree:
            levels = _levels(index_set, n)
            assert levels == factorize(_classical_level(index_set, n)), (index_set, n)
    # a set with no valuation map, or with a spec that is neither one
    # valuation nor a bound, has no series
    exact_zero = ValuationPattern.exact_zero(1)
    for index_set in (
        PrimesSet(),
        named_predicate("even-omega"),
        FiniteSet(((1,), (2,))),
        ValuationConstraint(ValuationMap.build(1, {2: [(0,), (1,)]}, exact_zero)),
        ValuationConstraint(ValuationMap.build(1, {3: ValuationPattern((None,))}, exact_zero)),
        ValuationConstraint(ValuationMap.build(1, {}, ValuationPattern((None,)))),
    ):
        with pytest.raises(UnsupportedScopeError):
            hooley_series(G2, index_set, 100)
    with pytest.raises(ValueError, match="one index"):
        hooley_series(G2, Equals((1, 1)), 100)
    # the checks a level map config needs are the set constructors'
    with pytest.raises(ValueError):
        Equals((0,))
    with pytest.raises(ValueError):
        KFree((0,))
    for table in ({4: 2}, {1: 2}, {-2: 2}, {2: 1, 9: 1}):
        with pytest.raises(ValueError, match="primes"):
            _prime_powers(table)
    with pytest.raises(ValueError):
        _prime_powers({2: 0})


def test_hooley_series_matches_euler_product():
    rep = hooley_series(G2, Equals((1,)), 3000)
    assert rep.method == "series"
    assert _overlap(rep.value, _artin_interval())
    assert rep.ledger[0] == ("n=1 level=1", Fraction(1))
    assert rep.ledger[1] == ("n=2 level=2", Fraction(-1, 2))


def test_hooley_series_square_generator_collapses_in_corrected_mode():
    rep = hooley_series(MultGroup.from_strings("4"), Equals((1,)), 3000, "corrected")
    # 4 is a perfect square, so index 1 has density zero; generic mode
    # misses this completely
    assert rep.value.low == 0
    assert rep.value.high < Fraction(1, 100)
    generic = hooley_series(
        MultGroup.from_strings("4"), Equals((1,)), 1000, "generic"
    )
    assert generic.value.low > Fraction(1, 3)


def test_hooley_series_rejects_higher_rank():
    with pytest.raises(UnsupportedScopeError):
        hooley_series(MultGroup.from_strings("2", "3"), Equals((1,)), 100)
    with pytest.raises(ValueError):
        hooley_series(G2, Equals((1,)), 0)
    with pytest.raises(ValueError, match="truncation"):
        hooley_series(G2, Equals((1,)), 10**12)  # refused before allocating


def test_hooley_series_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        hooley_series(G2, Equals((1,)), 100, mode="fancy")


SERIES_GROUPS = ("2", "5", "-3", "13", "21", "4", "-4", "8", "27", "45", "12", "9/2", "-1/2")
SERIES_SETS = (
    Equals((1,)),
    Equals((2,)),
    Equals((6,)),
    Divides((12,)),
    KFree((2,)),
    _prime_powers({2: 3, 3: 2}),
)


@pytest.mark.parametrize("mode", ["generic", "corrected"])
def test_series_degree_splits_at_the_scope(mode):
    # D(f(n)) = D(A) phi(B) B, A the part of f(n) on the deficiency scope;
    # generic mode gives the generic degree f(n) phi(f(n))
    squarefree = [n for n in range(1, 501) if moebius(n)]
    for g in SERIES_GROUPS:
        model = KummerModel(GroupFamily((MultGroup.from_strings(g),)))
        degree = density._series_degree(model, mode)
        exact = model.degree if mode == "corrected" else partial(generic_degree, model)
        for index_set in SERIES_SETS:
            for n in squarefree:
                f_n = _classical_level(index_set, n)
                assert degree(factorize(f_n)) == exact(f_n, (f_n,)), (g, n)


def _series_by_trial_division(group, index_set, truncation, mode):
    """hooley_series as first written: factorize and moebius for each n,
    f(n) by its classical formula, one Fraction per term, each partial sum
    rounded outward on the grid."""
    model = KummerModel(GroupFamily((group,)))
    degree = density._series_degree(model, mode)
    constant = _subset_tail_constant(model, index_set, degree)
    tail = constant * density._reciprocal_tail(truncation)
    lo = hi = Fraction(0)
    ledger, terms = [], 0
    for n in range(1, truncation + 1):
        mu = moebius(n)
        if mu:
            terms += 1
            f_n = _classical_level(index_set, n)
            term = Fraction(mu, degree(factorize(f_n)))
            if len(ledger) < density.LEDGER_ROW_LIMIT:
                ledger.append((f"n={n} level={f_n}", term))
            lo, hi = round_down(lo + term), round_up(hi + term)
    hi = max(Fraction(0), round_up(hi + tail))
    lo = min(max(Fraction(0), round_down(lo - tail)), hi)
    return Interval(lo, hi), tuple(ledger), f"terms={terms}"


@pytest.mark.parametrize("mode", ["generic", "corrected"])
def test_hooley_series_matches_trial_division(mode):
    # the walk through the smallest-prime-factor table and the integer-pair
    # sum give the same endpoints, ledger and term count as factoring each n
    for g, index_set in product(SERIES_GROUPS, SERIES_SETS):
        group = MultGroup.from_strings(g)
        rep = hooley_series(group, index_set, 500, mode)
        value, ledger, terms = _series_by_trial_division(group, index_set, 500, mode)
        assert (rep.value, rep.ledger) == (value, ledger), (g, index_set, mode)
        assert terms in rep.notes
        assert rep.notes[0] == f"set={index_set.label()}"


def test_hooley_series_encloses_the_literature_values():
    # Hooley (1967): <2> has density A, <5> has 20A/19 and <-3> has 6A/5
    for g, ratio in (("2", 1), ("5", Fraction(20, 19)), ("-3", Fraction(6, 5))):
        rep = hooley_series(MultGroup.from_strings(g), Equals((1,)), 10**5, "corrected")
        assert rep.value.low <= ARTIN * ratio <= rep.value.high, g
        assert rep.value.width < Fraction(1, 10**4), g


def test_hooley_series_streams_its_terms():
    # the smallest-prime-factor table holds 4 bytes per n; a kept Fraction
    # per term would add about 90 bytes per squarefree n
    n = 3 * 10**4
    hooley_series(G2, Equals((1,)), 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = hooley_series(G2, Equals((1,)), n, "corrected")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n
    assert len(rep.ledger) == density.LEDGER_ROW_LIMIT
    assert "terms=18242" in rep.notes  # the squarefree n <= 30000


def test_hooley_series_keeps_no_table():
    # the smallest-prime-factor table is sieved for one call and freed with
    # it: a cache keeping it would hold 4 bytes per n after the call
    n = 2 * 10**4
    hooley_series(G2, Equals((1,)), 10**4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hooley_series(G2, Equals((1,)), n)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < n


# zeta(2)zeta(3)/zeta(6) = sum 1/(n phi(n)), OEIS A082695, truncated
KAPPA = Fraction(19435964368207592050570703625747634, 10**34)


def test_the_series_tail_constant_bounds_kappa_from_above():
    bound = density._kappa_bound()
    assert KAPPA <= bound < KAPPA + Fraction(1, 10**30)
    assert bound == kappa_bound()  # zeta(2), zeta(3) and zeta(6) evaluated apart


def _subset_tail_constant(model, index_set, degree):
    """c as first defined: the maximum over every squarefree s | prod S."""
    scope = model.deficiency_scope()
    best = Fraction(0)
    for r in range(len(scope) + 1):
        for primes in combinations(scope, r):
            levels = factorize(_classical_level(index_set, prod(primes)))
            size = prod((ell - 1) * ell ** (2 * k - 1) for ell, k in levels.items())
            best = max(best, Fraction(size, degree(levels)))
    return best


TAIL_GROUPS = ("-1,2", "-1,6", "9", "1/2") + SERIES_GROUPS


@pytest.mark.parametrize("mode", ["generic", "corrected"])
def test_the_tail_constant_is_the_subset_maximum(mode):
    # the maximum over every subset of the scope sits at the full odd part,
    # with or without 2; <-1, 2> at f(n) = n gives 1 at s = 1, 1/2 at s = 2
    for g in TAIL_GROUPS:
        model = KummerModel(GroupFamily((MultGroup.from_strings(*g.split(",")),)))
        degree = density._series_degree(model, mode)
        for index_set in TAIL_SETS:
            expected = _subset_tail_constant(model, index_set, degree)
            exponents = density._series_exponents(index_set)
            got = density._tail_constant(model, exponents, degree)
            assert got == expected, (g, index_set, mode)
    model = KummerModel(GroupFamily.from_strings(["-1", "2"]))
    degree = density._series_degree(model, "corrected")
    exponents = density._series_exponents(Equals((1,)))
    assert density._tail_constant(model, exponents, degree) == 1


@pytest.mark.parametrize("g", ["2", "45", "-1,6", str(prod(primes_up_to(41)[1:]))])
def test_the_tail_constant_takes_two_degrees(g):
    # one degree at s = P and one at s = 2P, P the odd scope primes'
    # product, however many primes the scope holds
    model = KummerModel(GroupFamily((MultGroup.from_strings(*g.split(",")),)))
    degree = density._series_degree(model, "corrected")
    calls = []

    def counted(levels):
        calls.append(levels)
        return degree(levels)

    density._tail_constant(model, density._series_exponents(Equals((1,))), counted)
    assert len(calls) == 2


def test_valuation_density_squarefree_agrees_with_series():
    series = hooley_series(G2, KFree((2,)), 2000)
    euler = valuation_density(FAM2, KFree((2,)), cutoff=3000)
    assert euler.method == "euler-product"
    assert _overlap(series.value, euler.value)


ORACLE_GROUPS = ("2", "5", "-3", "13", "27", "-1,2", "8", "-4")


@pytest.mark.parametrize("g", ORACLE_GROUPS)
def test_the_series_contains_the_euler_value(g):
    # both routes read the same set: the series' proved interval, some
    # 10^-3 wide, holds the Euler value, some 10^-34 wide, for every kind
    family = GroupFamily.from_strings(g.split(","))
    sets = (Equals((1,)), Equals((2,)), Equals((12,)), Divides((12,)), KFree((2,)))
    for index_set in (*sets, _prime_powers({2: 3, 3: 2})):
        series = hooley_series(family.groups[0], index_set, 2000).value
        euler = valuation_density(family, index_set).value
        assert series.low <= euler.low and euler.high <= series.high, index_set
        assert euler.width < Fraction(1, 10**30)


def _divisors(t):
    out = [1]
    for p, e in factorize(t).items():
        out = [d * p**j for d in out for j in range(e + 1)]
    return out


@pytest.mark.parametrize("groups", ["5", "-3", "13", "8", "27", "2;2", "2;8", "5;-3"])
def test_divides_is_the_sum_of_its_equals(groups):
    # Divides(t) is the disjoint union of Equals(h) over h | t, entangled
    # and equal groups included: the intervals meet, with a gap of exactly 0
    family = GroupFamily.from_strings(*(g.split(",") for g in groups.split(";")))
    n = len(family)
    for t in (12, 20, 36, 60):
        whole = valuation_density(family, Divides((t,) * n)).value
        parts = [valuation_density(family, Equals(h)).value for h in product(_divisors(t), repeat=n)]
        low, high = sum(v.low for v in parts), sum(v.high for v in parts)
        assert low <= whole.high and whole.low <= high, t
        assert high - low < Fraction(1, 10**30) and whole.width < Fraction(1, 10**30)


def test_valuation_density_odd_index_is_half():
    vc = ValuationConstraint(
        ValuationMap.build(
            1, {2: ValuationPattern.exact_zero(1)}, ValuationPattern.anything(1)
        )
    )
    rep = valuation_density(FAM2, vc, cutoff=200)
    assert rep.value.low <= Fraction(1, 2) <= rep.value.high
    assert rep.value.width < Fraction(1, 10**6)


def test_valuation_density_ledger_carries_corrections():
    rep = valuation_density(FAM2, KFree((2,)), cutoff=500)
    tags = [tag for tag, _ in rep.ledger]
    assert any("ell=2" in t and "corrected" in t for t in tags)
    assert any("ell=2" in t and "generic" in t for t in tags)


def test_valuation_density_routes_and_refusals():
    with pytest.raises(UnsupportedScopeError, match="singleton_sum"):
        valuation_density(FAM2, PrimesSet(), cutoff=100)
    with pytest.raises(UnsupportedScopeError):
        valuation_density(FAM2, named_predicate("even-omega"), cutoff=100)


def test_singleton_sum_gives_equal_groups_an_exact_zero():
    # equal groups have equal indices, so (q, q^2) never occurs; for
    # (<2>, <4>) the second index is always even, so index one has density
    # zero at 2 and ratios relative to it are refused
    fam = GroupFamily.from_strings(["2"], ["2"])
    pair = named_predicate("prime-square-pair")
    for bound in (50, 100, 1000):
        assert singleton_sum(fam, pair, bound=bound).value == Interval(0, 0)
    with pytest.raises(UnsupportedScopeError, match="density zero"):
        singleton_sum(GroupFamily.from_strings(["2"], ["4"]), Divides((6, 12)))


def test_equal_groups_have_equal_indices():
    # for <2> twice, index (h, h) has <2>'s density of index h, and (h, h')
    # with h != h' has none
    same = GroupFamily.from_strings(["2"], ["2"])
    for h in range(1, 13):
        single = correction_ratio((h,), FAM2).value
        assert correction_ratio((h, h), same).value == single, h
        for other in range(1, 13):
            if other != h:
                assert correction_ratio((h, other), same).value == 0, (h, other)


def test_correction_ratio_values():
    assert correction_ratio((1,), FAM2).value == 1
    r3 = correction_ratio((3,), FAM2)
    assert r3.value == Fraction(8, 45)
    assert r3.tag == "generic"
    assert correction_ratio((5,), FAM2).value == Fraction(24, 475)
    r2 = correction_ratio((2,), FAM2)
    assert r2.tag == "corrected"
    assert r2.value == Fraction(3, 4)


def test_correction_ratio_matches_paper_prime_shape():
    # for a single rank-1 group and prime q outside the deficiency scope,
    # the ratio F_1(q)/F_0(q) collapses to (q^2-1)/(q^2(q^2-q-1))
    for q in (3, 5, 7, 11, 13, 17):
        expect = Fraction(q * q - 1, q * q * (q * q - q - 1))
        assert correction_ratio((q,), FAM2).value == expect, q


def test_singleton_telescopes_through_the_correction_ratio():
    got = singleton_sum(FAM2, FiniteSet(((3,),)), cutoff=3000).value
    target = _artin_interval().times_exact(Fraction(8, 45))
    assert _overlap(got, target)


@pytest.mark.parametrize(
    "groups", [[["2"]], [["5"]], [["2"], ["3"]], [["2"], ["8"]]], ids=str
)
def test_singleton_base_is_the_index_one_density(groups):
    # the singleton route's base is the Euler route's index-one density:
    # the sum over {(1, ..., 1)} is that density exactly, notes included
    family = GroupFamily.from_strings(*groups)
    one = (1,) * len(family)
    single = singleton_sum(family, FiniteSet((one,)), cutoff=3000)
    euler = valuation_density(family, Equals(one), cutoff=3000)
    assert single.value == euler.value
    shared = [n for n in single.notes if n.startswith(("cutoff=", "tail-bound="))]
    assert len(shared) == 2 and set(shared) <= set(euler.notes)


def test_singleton_sum_refuses_a_set_of_another_arity():
    # read as it stands, {(1,)} on (<2>, <3>) would price index (1, 1)
    fam23 = GroupFamily.from_strings(["2"], ["3"])
    for family, index_set in (
        (fam23, FiniteSet(((1,),))),
        (fam23, PrimesSet()),
        (fam23, KFree((2, 2, 2))),
        (FAM2, Divides((12, 12))),
    ):
        with pytest.raises(ValueError, match="arity"):
            singleton_sum(family, index_set, bound=50)


def test_singleton_sum_monotone_in_bound_and_smoothness():
    lows = []
    for b in (10, 40, 160):
        rep = singleton_sum(FAM2, KFree((2,)), bound=b, cutoff=600)
        lows.append(rep.value.low)
    assert lows[0] <= lows[1] <= lows[2]

    q_small = singleton_sum(
        FAM2, KFree((2,)), bound=160, smooth=SquarefreeModulus.from_int(6), cutoff=600
    )
    q_large = singleton_sum(
        FAM2, KFree((2,)), bound=160, smooth=SquarefreeModulus.from_int(30), cutoff=600
    )
    assert q_small.value.low <= q_large.value.low

    ceiling = valuation_density(FAM2, KFree((2,)), cutoff=600)
    slack = Fraction(1, 100)
    assert lows[2] <= ceiling.value.high + slack
    assert q_large.value.low <= ceiling.value.high + slack


@pytest.mark.parametrize("bound", [10, 60, 360, 1000])
def test_singleton_grid_sum_encloses_the_exact_sum(bound):
    # the sum of the m_h runs on the 2^-128 grid; the reported interval must
    # hold the exact sum S times the base, each end rounded outward
    fam23 = GroupFamily.from_strings(["2"], ["3"])
    cases = [
        (FAM2, PrimesSet()),
        (FAM2, KFree((2,))),
        (FAM2, Divides((12,))),
        (fam23, Divides((12, 12))),
    ]
    for family, index_set in cases:
        one = FiniteSet(((1,) * len(family),))  # S = m((1, ..., 1)) = 1
        base = singleton_sum(family, one, cutoff=2000).value
        members = index_set.members(bound)
        exact = sum((correction_ratio(h, family).value for h in members), Fraction(0))
        got = singleton_sum(family, index_set, bound=bound, cutoff=2000).value
        assert got.low <= round_down(base.low * exact), index_set.label()
        assert round_up(base.high * exact) <= got.high, index_set.label()
        assert got.width < Fraction(1, 10**30), index_set.label()


def test_singleton_partial_sums_stay_below_one():
    prev = Fraction(0)
    for b in (5, 15, 40):
        rep = singleton_sum(
            FAM2, FiniteSet(tuple((t,) for t in range(1, b + 1))), cutoff=500
        )
        assert prev <= rep.value.low
        assert rep.value.high <= 1
        prev = rep.value.low


def test_ziegler_index_two_vs_direct_equality_route():
    series = hooley_series(G2, Equals((2,)), 2000)
    singles = singleton_sum(FAM2, Equals((2,)), cutoff=3000)
    slack = Fraction(1, 200)
    widened = Interval(
        max(singles.value.low - slack, Fraction(0)), singles.value.high + slack
    )
    assert _overlap(series.value, widened)


def test_report_metadata():
    rep = hooley_series(G2, Equals((1,)), 500)
    assert any(n.startswith("truncation=") for n in rep.notes)
    assert any(n.startswith("tail-bound=") for n in rep.notes)
    assert 0 <= rep.value.low <= rep.value.high <= 1
    # the Euler route and the singleton base say how their tail was certified
    for rep in (
        valuation_density(FAM2, Equals((1,)), cutoff=3000),
        singleton_sum(FAM2, FiniteSet(((3,),)), cutoff=3000),
    ):
        notes = dict(n.split("=", 1) for n in rep.notes)
        assert notes["cutoff"] == "3000"
        assert 0 < float(notes["tail-bound"]) < 1e-30


def _corner_product_joint(model, specs):
    """The joint factor term by term: one exact degree per combination of corners."""
    n = len(model.family)
    primes = sorted(specs)
    total = Fraction(0)
    for corners in product(*(corner_terms(specs[ell], n) for ell in primes)):
        coeff = 1
        levels = (1,) * n
        for ell, (c, w) in zip(primes, corners):
            coeff *= c
            levels = tuple(x * ell**e for x, e in zip(levels, w))
        total += Fraction(coeff, model.degree(lcm(*levels), levels))
    return total


JOINT_FAMILIES = [
    [["2"]],
    [["5"]],
    [["-3"]],
    [["-15"]],
    [["12"]],
    [["-1", "2"]],
    [["2"], ["3"]],
    [["2"], ["5"]],
    [["2"], ["8"]],
    [["45"], ["-20"]],
    [["1/2"], ["-2"]],
    [["3"], ["-3"], ["6"]],
    [["2", "3"], ["5", "7"]],
    # lattices unsaturated at 2: the squarefree parts of the generators
    # miss the square classes that meet G (z = 2 for 4, z = 3 for 9)
    [["4"]],
    [["9"]],
    [["18"], ["-3"]],
]


def _random_spec(rng, n):
    if rng.random() < 0.5:
        return ValuationPattern(tuple(rng.choice((None, 1, 2, 3)) for _ in range(n)))
    count = rng.randint(1, 3)
    return tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(count))


@pytest.mark.parametrize("groups", JOINT_FAMILIES, ids=str)
def test_joint_factor_matches_the_corner_product(groups):
    # the sum over square classes against the term-by-term sum, 12 random
    # specs per family, patterns and tuple lists with valuations up to 3
    model = KummerModel(GroupFamily.from_strings(*groups))
    scope = model.deficiency_scope()
    rng = random.Random(str(groups))
    for _ in range(12):
        specs = {ell: _random_spec(rng, len(groups)) for ell in scope}
        assert density._joint_factor(model, specs) == _corner_product_joint(
            model, specs
        ), specs


def test_joint_pieces_read_prime_power_parts_without_factoring(monkeypatch):
    # every scope prime, odd lattice primes included, is priced by
    # KummerModel.part from (ell, k, w) as given: nothing is factored
    calls = []
    factor = kummer.factorize

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(kummer, "factorize", counted)
    valuation_density(GroupFamily.from_strings(["27"]), KFree((101,)))
    valuation_density(GroupFamily.from_strings(["5"], ["-3"]), Equals((1, 1)))
    singleton_sum(GroupFamily.from_strings(["2"], ["3"]), Divides((12, 12)))
    assert calls == []


# Artin's constant A, truncated to 37 digits
ARTIN = Fraction(3739558136192022880547280543464164151, 10**37)


@pytest.mark.parametrize(
    "groups, index, scope, ratio",
    [
        # 8 = 2^3: when 2 is primitive, 8 is primitive exactly when
        # p != 1 mod 3. At 3 that keeps 1/2 of the primes where Artin's
        # product keeps 5/6, so the density is A (1/2)/(5/6). The lattice
        # prime 3 lies outside the support and enters as its own factor
        ([["2"], ["8"]], (1, 1), (2, 3), Fraction(3, 5)),
        # 4 = 2^2 has index exactly 2 whenever 2 is primitive, as p - 1 is
        # even; here the lattice prime is 2 itself
        ([["2"], ["4"]], (1, 2), (2,), Fraction(1)),
        # for p = 3 mod 4 one of 3 and -3 is a square; for p = 1 mod 4,
        # -3 = 3^(1 + (p-1)/2) with that exponent prime to p - 1. So both
        # are primitive when 3 is and p = 1 mod 4, which forces p = 2 mod
        # 3: probability 1/4 at 2 and 3, where Artin's product has (1/2)(5/6)
        ([["-3"], ["3"]], (1, 1), (2, 3), Fraction(3, 5)),
        # 125 = 5^3 is primitive when 5 is and p = 2 mod 3, 1/2 at 3 where
        # Artin has 5/6; sqrt(5) lies in Q(zeta_5) and does not meet 3, so
        # Hooley's 20/19 for <5> stays: 3/5 * 20/19
        ([["5"], ["125"]], (1, 1), (2, 3, 5), Fraction(12, 19)),
    ],
)
def test_non_separated_identities(groups, index, scope, ratio):
    family = GroupFamily.from_strings(*groups)
    assert KummerModel(family).deficiency_scope() == scope
    report = valuation_density(family, Equals(index), cutoff=3000)
    slack = Fraction(1, 10**36)  # A is truncated
    assert report.value.low - slack <= ARTIN * ratio <= report.value.high + slack
    assert not any("separat" in note for note in report.notes)


ODD_PRIMES = primes_up_to(200)[1:]


def _hooley(k, sign):
    """Hooley (1967): for squarefree d = +-3*5*...*p_k, index one has density
    A (1 - mu(|d|) / prod_{p | d} (p^2 - p - 1)) if d = 1 mod 4, else A."""
    primes = ODD_PRIMES[:k]
    d = sign * prod(primes)
    ratio = Fraction(1)
    if d % 4 == 1:
        ratio -= Fraction((-1) ** k, prod(p * p - p - 1 for p in primes))
    return d, ARTIN * ratio


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [1, 2, 5, 13, 30])
def test_index_one_encloses_hooley_over_many_support_primes(k, sign):
    d, target = _hooley(k, sign)
    family = GroupFamily.from_strings([str(d)])
    value = valuation_density(family, Equals((1,))).value
    slack = Fraction(1, 10**36)  # A is truncated
    assert value.low - slack <= target <= value.high + slack
    assert value.width < Fraction(1, 10**30)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [1, 2, 5, 13, 30])
def test_the_series_encloses_hooley_over_many_support_primes(k, sign):
    # the tail constant takes two exact degrees, so a 30-prime scope costs
    # no more of them than <2>'s
    d, target = _hooley(k, sign)
    group = MultGroup.from_strings(str(d))
    value = hooley_series(group, Equals((1,)), 1000, "corrected").value
    slack = Fraction(1, 10**36)  # A is truncated
    assert value.low - slack <= target <= value.high + slack


def test_a_model_over_forty_support_primes_stays_small():
    # the square classes of <d> are 1 and d, whatever the support: building
    # the model and one even-modulus exact degree need no 2^40 table.
    # disc Q(sqrt d) divides 4d, so sqrt d lies in Q(zeta_4d)
    primes = ODD_PRIMES[:40]
    d = prod(primes)
    tracemalloc.start()
    try:
        model = KummerModel(GroupFamily.from_strings([str(d)]))
        degree = model.degree(4 * d, (2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degree == 2 * prod(p - 1 for p in primes)  # phi(4d): the level adds nothing
    assert peak < 2**20
