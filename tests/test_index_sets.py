"""Index-set descriptors: membership, taxonomy, valuation projections."""

import random
import time
from itertools import product as iproduct

import pytest

from indexdensity.arith import factorize, is_prime
from indexdensity.errors import SizeLimitError, UnsupportedScopeError
from indexdensity.index_sets import (
    Classification,
    Divides,
    Equals,
    FiniteSet,
    KFree,
    PredicateSet,
    PrimesSet,
    SquarefreeModulus,
    ValuationConstraint,
    ValuationMap,
    ValuationPattern,
    named_predicate,
    valuations_at,
)


def _zoo():
    vmap = ValuationMap.build(
        2,
        {2: ValuationPattern.below((2, 2)), 3: [(0, 0), (1, 0)]},
        ValuationPattern.anything(2),
    )
    return [
        Equals((4,)),
        Equals((2, 4)),
        Divides((12,)),
        KFree((2,)),
        KFree((2, 3)),
        FiniteSet(((1,), (3,), (4,))),
        FiniteSet(((2, 3), (7, 1))),  # pairs below, between and past these
        ValuationConstraint(vmap),
        PrimesSet(),
        named_predicate("even-omega"),
        named_predicate("prime-square-pair"),
    ]


def test_classification_kinds():
    kinds = {s.label(): s.classification().kind for s in _zoo()}
    assert kinds["equals(4,)"] == "almost-cut"
    assert kinds["divides(12,)"] == "almost-cut"
    assert kinds["kfree(2,)"] == "cut"
    assert kinds["kfree(2, 3)"] == "cut"
    assert kinds["finite[3]"] == "almost-cut"
    assert kinds["finite[2]"] == "almost-cut"
    assert kinds["valuation(at=2,3)"] == "cut"
    assert kinds["primes"] == "determined"
    assert kinds["predicate:even-omega"] == "unknown"
    assert kinds["predicate:prime-square-pair"] == "unknown"


def test_classification_witness_is_squarefree_support():
    # the witness modulus only needs the primes that matter for the set
    assert Equals((4,)).classification().witness == 2
    assert Equals((2, 4)).classification().witness == 2
    assert Divides((12,)).classification().witness == 6
    assert FiniteSet(((1,), (3,), (4,))).classification().witness == 6


def test_equal_sets_classify_alike():
    # the kind is read off the valuation map, however the set is written
    divides_12 = ValuationConstraint(
        ValuationMap.build(
            1,
            {2: ValuationPattern.below((3,)), 3: ValuationPattern.below((2,))},
            ValuationPattern.exact_zero(1),
        )
    )
    for sets in (
        [Divides((12,)), divides_12],
        [Equals((1,)), KFree((1,)), Divides((1,)), FiniteSet(((1,),))],
        [Equals((4,)), FiniteSet(((4,),))],
        [KFree((2,)), ValuationConstraint(KFree((2,)).valuation_map())],
    ):
        maps = {s.valuation_map() for s in sets}
        kinds = {s.classification() for s in sets}
        assert len(maps) == 1 and len(kinds) == 1, (sets, kinds)
    assert divides_12.classification() == Classification("almost-cut", witness=6)
    assert KFree((1,)).classification() == Classification("almost-cut", witness=2)


def test_stronger_kinds_imply_determined():
    # a cut or almost-cut set with a per-prime product structure is
    # determined by valuations: its membership is the conjunction of its
    # valuation map over the primes that divide h or are listed
    checked = 0
    for s in _zoo():
        if s.classification().kind not in ("cut", "almost-cut"):
            continue
        try:
            vmap = s.valuation_map()
        except UnsupportedScopeError:
            continue
        for h in iproduct(range(1, 40), repeat=s.n):
            primes = {p for x in h for p in factorize(x)} | set(vmap.listed)
            by_valuations = all(
                vmap.allows(ell, valuations_at(h, ell)) for ell in primes
            )
            assert s.contains(h) == by_valuations, (s.label(), h)
        checked += 1
    assert checked == 6


def test_members_agree_with_contains():
    bound = 200
    for s in _zoo():
        if s.n != 1:
            continue
        try:
            got = set(s.members(bound))
        except UnsupportedScopeError:
            continue
        brute = {(h,) for h in range(1, bound + 1) if s.contains((h,))}
        assert got == brute, s.label()


def test_members_agree_with_contains_n2():
    bound = 40
    for s in _zoo():
        if s.n != 2:
            continue
        try:
            got = set(s.members(bound))
        except UnsupportedScopeError:
            continue
        brute = {
            (a, b)
            for a in range(1, bound + 1)
            for b in range(1, bound + 1)
            if s.contains((a, b))
        }
        assert got == brute, s.label()


def test_members_respect_smoothness():
    smooth = SquarefreeModulus.from_int(6)
    got = set(Divides((12,)).members(200, smooth))
    assert got == {(1,), (2,), (3,), (6,), (4,), (12,)}
    assert PrimesSet().members(10**40, smooth) == [(2,), (3,)]
    assert PrimesSet().members(2, smooth) == [(2,)]


def test_divides_members_match_trial_division():
    # the candidates come from t's factorization, capped at the bound and
    # ascending; trial division by every d <= min(t, bound) is the reference
    rng = random.Random(26)
    smooth = SquarefreeModulus.from_int(30)
    for t in [*range(1, 200), *rng.sample(range(200, 10**4 + 1), 150), 10**4, 7560, 9973]:
        for bound in (1, 12, t // 3 + 1, t, 10**6):
            divs = [d for d in range(1, min(t, bound) + 1) if t % d == 0]
            assert Divides((t,)).members(bound) == [(d,) for d in divs], (t, bound)
            got = Divides((t, 60)).members(bound, smooth)
            expect = [(d, e) for d in divs for e in range(1, min(60, bound) + 1) if 60 % e == 0]
            assert got == [h for h in expect if all(smooth.is_smooth(x) for x in h)], (t, bound)
    # the candidates grow with t's divisors, not with t
    assert len(Divides((10**8,)).members(10**12)) == 81


def test_enumeration_cap_refuses_before_building_the_candidates():
    # checked only after the candidates are built, KFree((2, 2)) would factor
    # 4*10^5 integers first, PrimesSet would sieve up to the bound, and the
    # 30030-smooth entries up to 10^22 would all be listed (2.8 million)
    # before their 8*10^12 pairs were counted
    for s, bound, modulus in (
        (KFree((2, 2)), 2 * 10**5, None),
        (PrimesSet(), 4 * 10**7, None),
        (KFree((2, 2)), 10**22, SquarefreeModulus.from_int(30030)),
    ):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            s.members(bound, modulus)
        assert time.perf_counter() - start < 1, s.label()
    # sets whose candidates do not grow with the bound work at any bound
    assert Equals((3, 4)).members(10**30) == [(3, 4)]
    assert Divides((4,)).members(10**30) == [(1,), (2,), (4,)]
    assert FiniteSet(((2,), (5,))).members(10**30) == [(2,), (5,)]
    # a finite set lists the tuples it holds, not the box of their entries
    pairs = tuple((i, i + 1) for i in range(1, 5001))
    assert FiniteSet(pairs).members(10**6) == list(pairs)


def test_valuation_pattern_semantics():
    p = ValuationPattern.below((2, 1))
    assert p.allows((0, 0)) and p.allows((1, 0))
    assert not p.allows((2, 0)) and not p.allows((0, 1))
    assert ValuationPattern.exact_zero(2).allows((0, 0))
    assert not ValuationPattern.exact_zero(2).allows((1, 0))
    assert ValuationPattern.anything(2).allows((7, 9))
    assert ValuationPattern.anything(2).is_trivial()
    with pytest.raises(ValueError):
        ValuationPattern((0,))  # bound below 1 excludes everything


def test_valuation_map_build_and_allows():
    vmap = ValuationMap.build(
        1, {3: [(1,), (2,)]}, ValuationPattern.exact_zero(1)
    )
    assert vmap.listed == (3,)
    assert vmap.allows(3, (1,)) and vmap.allows(3, (2,))
    assert not vmap.allows(3, (0,))
    assert vmap.allows(5, (0,)) and not vmap.allows(5, (1,))


def test_explicit_tuple_lists_are_deduplicated():
    vmap = ValuationMap.build(
        1, {3: [(2,), (1,), (2,)]}, ValuationPattern.exact_zero(1)
    )
    assert vmap.spec_at(3) == ((1,), (2,))


def test_valuation_constraint_membership_is_a_conjunction():
    vmap = ValuationMap.build(
        1,
        {2: ValuationPattern.below((3,)), 3: [(0,), (2,)]},
        ValuationPattern.anything(1),
    )
    s = ValuationConstraint(vmap)
    for h in range(1, 500):
        expect = vmap.allows(2, valuations_at((h,), 2)) and vmap.allows(
            3, valuations_at((h,), 3)
        )
        assert s.contains((h,)) == expect, h


def test_kfree_is_per_coordinate():
    s = KFree((2, 3))
    assert s.contains((6, 4))
    assert not s.contains((4, 4))
    assert not s.contains((6, 8))
    for a, b in iproduct(range(1, 60), range(1, 60)):
        expect = all(e < 2 for e in factorize(a).values()) and all(
            e < 3 for e in factorize(b).values()
        )
        assert s.contains((a, b)) == expect


def test_primes_set_membership():
    s = PrimesSet()
    for h in range(1, 300):
        assert s.contains((h,)) == is_prime(h)


def test_predicate_sets_refuse_analytic_projections():
    s = named_predicate("even-omega")
    assert s.contains((6,)) and not s.contains((2,))
    assert s.contains((1,))  # zero prime divisors is even
    with pytest.raises(UnsupportedScopeError):
        s.valuation_map()


def test_prime_square_pair_predicate():
    s = named_predicate("prime-square-pair")
    assert s.contains((3, 9)) and s.contains((2, 4))
    assert not s.contains((3, 8)) and not s.contains((4, 16))
    assert not s.contains((3, 25))


def test_unknown_predicate_name_rejected():
    with pytest.raises(ValueError):
        named_predicate("definitely-not-registered")


def test_equals_requires_positive_entries():
    with pytest.raises(ValueError):
        Equals((0,))
    with pytest.raises(ValueError):
        Divides((2, 0))
