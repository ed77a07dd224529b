"""The four analytic routes and their cross-checks at desk scale."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

import pytest

from indexdensity import density
from indexdensity.density import (
    LevelMap,
    correction_ratio,
    hooley_series,
    singleton_sum,
    valuation_density,
)
from indexdensity.arith import factorize, moebius, primes_up_to
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

FAM2 = GroupFamily.from_strings(["2"])
G2 = MultGroup.from_strings("2")


def _artin_interval(cutoff=3000):
    vm = ValuationMap.build(1, {}, ValuationPattern.exact_zero(1))
    return euler_product(vm, profile_of(FAM2), cutoff).interval


def _overlap(a, b):
    return a.low <= b.high and b.low <= a.high


def _level(level_map, n):
    """f(n) as an integer, from the factorization the level map gives."""
    return prod(ell**e for ell, e in level_map.factors(factorize(n)).items())


def test_level_maps():
    assert [_level(LevelMap.identity(), n) for n in (1, 2, 6)] == [1, 2, 6]
    assert [_level(LevelMap.times(3), n) for n in (1, 2)] == [3, 6]
    assert [_level(LevelMap.times_local(2), n) for n in (1, 2, 3, 6)] == [1, 4, 3, 12]
    assert [_level(LevelMap.power(2), n) for n in (1, 2, 6)] == [1, 4, 36]
    table = LevelMap.prime_powers({2: 3})
    assert [_level(table, n) for n in (1, 2, 3, 6)] == [1, 8, 3, 24]
    labels = {
        LevelMap.identity().label(),
        LevelMap.times(2).label(),
        LevelMap.power(2).label(),
    }
    assert len(labels) == 3
    with pytest.raises(ValueError):
        LevelMap.times(0)


def test_hooley_series_matches_euler_product():
    rep = hooley_series(G2, LevelMap.identity(), 3000)
    assert rep.method == "series"
    assert _overlap(rep.value, _artin_interval())
    assert rep.ledger[0] == ("n=1 level=1", Fraction(1))
    assert rep.ledger[1] == ("n=2 level=2", Fraction(-1, 2))


def test_hooley_series_square_generator_collapses_in_corrected_mode():
    rep = hooley_series(MultGroup.from_strings("4"), LevelMap.identity(), 3000, "corrected")
    # 4 is a perfect square, so index 1 has density zero; generic mode
    # misses this completely
    assert rep.value.low == 0
    assert rep.value.high < Fraction(1, 100)
    generic = hooley_series(
        MultGroup.from_strings("4"), LevelMap.identity(), 1000, "generic"
    )
    assert generic.value.low > Fraction(1, 3)


def test_hooley_series_rejects_higher_rank():
    with pytest.raises(UnsupportedScopeError):
        hooley_series(MultGroup.from_strings("2", "3"), LevelMap.identity(), 100)
    with pytest.raises(ValueError):
        hooley_series(G2, LevelMap.identity(), 0)
    with pytest.raises(ValueError, match="truncation"):
        hooley_series(G2, LevelMap.identity(), 10**12)  # refused before allocating


SERIES_GROUPS = ("2", "5", "-3", "13", "21", "4", "-4", "8", "27", "45", "12", "9/2", "-1/2")
SERIES_MAPS = (
    LevelMap.identity(),
    LevelMap.times(2),
    LevelMap.times(6),
    LevelMap.times_local(12),
    LevelMap.power(2),
    LevelMap.prime_powers({2: 3, 3: 2}),
)


@pytest.mark.parametrize("mode", ["generic", "corrected"])
def test_series_degree_splits_at_the_scope(mode):
    # D(f(n)) = D(A) phi(B) B, A the part of f(n) on the deficiency scope
    squarefree = [n for n in range(1, 501) if moebius(n)]
    for g in SERIES_GROUPS:
        model = KummerModel(GroupFamily((MultGroup.from_strings(g),)))
        degree = density._series_degree(model, mode)
        for level_map in SERIES_MAPS:
            for n in squarefree:
                f_n = _level(level_map, n)
                levels = level_map.factors(factorize(n))
                assert degree(levels) == model.degree(f_n, (f_n,), mode), (g, n)


def _series_by_trial_division(group, level_map, truncation, mode):
    """hooley_series as first written: factorize and moebius for each n,
    one Fraction per term, each partial sum rounded outward on the grid."""
    model = KummerModel(GroupFamily((group,)))
    degree = density._series_degree(model, mode)
    constant = density._tail_constant(model, level_map, degree)
    tail = constant * density._reciprocal_tail(truncation)
    lo = hi = Fraction(0)
    ledger, terms = [], 0
    for n in range(1, truncation + 1):
        mu = moebius(n)
        if mu:
            terms += 1
            term = Fraction(mu, degree(level_map.factors(factorize(n))))
            if len(ledger) < density.LEDGER_ROW_LIMIT:
                ledger.append((f"n={n} level={_level(level_map, n)}", term))
            lo, hi = round_down(lo + term), round_up(hi + term)
    hi = max(Fraction(0), round_up(hi + tail))
    lo = min(max(Fraction(0), round_down(lo - tail)), hi)
    return Interval(lo, hi), tuple(ledger), f"terms={terms}"


@pytest.mark.parametrize("mode", ["generic", "corrected"])
def test_hooley_series_matches_trial_division(mode):
    # the walk through the smallest-prime-factor table and the integer-pair
    # sum give the same endpoints, ledger and term count as factoring each n
    for g, level_map in product(SERIES_GROUPS, SERIES_MAPS):
        group = MultGroup.from_strings(g)
        rep = hooley_series(group, level_map, 500, mode)
        value, ledger, terms = _series_by_trial_division(group, level_map, 500, mode)
        assert (rep.value, rep.ledger) == (value, ledger), (g, level_map, mode)
        assert terms in rep.notes


def test_hooley_series_encloses_the_literature_values():
    # Hooley (1967): <2> has density A, <5> has 20A/19 and <-3> has 6A/5
    for g, ratio in (("2", 1), ("5", Fraction(20, 19)), ("-3", Fraction(6, 5))):
        rep = hooley_series(MultGroup.from_strings(g), LevelMap.identity(), 10**5, "corrected")
        assert rep.value.contains(ARTIN * ratio), g
        assert rep.value.width < Fraction(1, 10**4), g


def test_hooley_series_streams_its_terms():
    # the smallest-prime-factor table holds 4 bytes per n; a kept Fraction
    # per term would add about 90 bytes per squarefree n
    n = 3 * 10**4
    hooley_series(G2, LevelMap.identity(), 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = hooley_series(G2, LevelMap.identity(), n, "corrected")
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
    hooley_series(G2, LevelMap.identity(), 10**4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hooley_series(G2, LevelMap.identity(), n)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < n


# zeta(2)zeta(3)/zeta(6) = sum 1/(n phi(n)), OEIS A082695, truncated
KAPPA = Fraction(19435964368207592050570703625747634, 10**34)


def test_the_series_tail_constant_bounds_kappa_from_above():
    bound = density._kappa_bound()
    assert KAPPA <= bound < KAPPA + Fraction(1, 10**30)


def _subset_tail_constant(model, level_map, degree):
    """c as first defined: the maximum over every squarefree s | prod S."""
    scope = model.deficiency_scope()
    best = Fraction(0)
    for r in range(len(scope) + 1):
        for primes in combinations(scope, r):
            levels = level_map.factors(dict.fromkeys(primes, 1))
            size = prod((ell - 1) * ell ** (2 * k - 1) for ell, k in levels.items())
            best = max(best, Fraction(size, degree(levels)))
    return best


TAIL_GROUPS = ("-1,2", "-1,6", "9", "1/2") + SERIES_GROUPS
TAIL_MAPS = (
    (LevelMap.identity(),)
    + tuple(LevelMap.times(t) for t in (2, 3, 4, 5, 6, 8, 12))
    + tuple(LevelMap.times_local(t) for t in (2, 4, 6, 12, 45))
    + tuple(LevelMap.power(k) for k in (2, 3, 4))
    + tuple(
        LevelMap.prime_powers(table)
        for table in ({2: 2}, {2: 3, 3: 2}, {3: 2}, {5: 3}, {2: 2, 3: 3, 5: 2})
    )
)


@pytest.mark.parametrize("mode", ["generic", "corrected"])
def test_the_tail_constant_is_the_subset_maximum(mode):
    # the maximum over every subset of the scope sits at the full odd part,
    # with or without 2; <-1, 2> at f(n) = n gives 1 at s = 1, 1/2 at s = 2
    for g in TAIL_GROUPS:
        model = KummerModel(GroupFamily((MultGroup.from_strings(*g.split(",")),)))
        degree = density._series_degree(model, mode)
        for level_map in TAIL_MAPS:
            expected = _subset_tail_constant(model, level_map, degree)
            got = density._tail_constant(model, level_map, degree)
            assert got == expected, (g, level_map, mode)
    model = KummerModel(GroupFamily.from_strings(["-1", "2"]))
    degree = density._series_degree(model, "corrected")
    assert density._tail_constant(model, LevelMap.identity(), degree) == 1


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

    density._tail_constant(model, LevelMap.identity(), counted)
    assert len(calls) == 2


def test_valuation_density_squarefree_agrees_with_series():
    series = hooley_series(G2, LevelMap.power(2), 2000)
    euler = valuation_density(FAM2, KFree((2,)), cutoff=3000)
    assert euler.method == "euler-product"
    assert _overlap(series.value, euler.value)


def test_valuation_density_odd_index_is_half():
    vc = ValuationConstraint(
        ValuationMap.build(
            1, {2: ValuationPattern.exact_zero(1)}, ValuationPattern.anything(1)
        )
    )
    rep = valuation_density(FAM2, vc, cutoff=200)
    assert rep.value.contains(Fraction(1, 2))
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


def test_singleton_sum_refuses_non_separated_families():
    fam = GroupFamily.from_strings(["2"], ["2"])
    with pytest.raises(UnsupportedScopeError, match="separated"):
        singleton_sum(fam, named_predicate("prime-square-pair"))


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
    series = hooley_series(G2, LevelMap.times(2), 2000)
    singles = singleton_sum(FAM2, Equals((2,)), cutoff=3000)
    slack = Fraction(1, 200)
    widened = Interval(
        max(singles.value.low - slack, Fraction(0)), singles.value.high + slack
    )
    assert _overlap(series.value, widened)


def test_report_metadata():
    rep = hooley_series(G2, LevelMap.identity(), 500)
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
        total += Fraction(coeff, model.degree(lcm(*levels), levels, "corrected"))
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
    ],
)
def test_non_separated_identities(groups, index, scope, ratio):
    family = GroupFamily.from_strings(*groups)
    assert KummerModel(family).deficiency_scope() == scope
    value = valuation_density(family, Equals(index), cutoff=3000).value
    slack = Fraction(1, 10**36)  # A is truncated
    assert value.low - slack <= ARTIN * ratio <= value.high + slack


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
    value = hooley_series(group, LevelMap.identity(), 1000, "corrected").value
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
        degree = model.degree(4 * d, (2,), "corrected")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert degree == 2 * prod(p - 1 for p in primes)  # phi(4d): the level adds nothing
    assert peak < 2**20
