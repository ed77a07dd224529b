"""Local factors, local series, Euler products, and the splitting oracle."""

import inspect
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from indexdensity import artin
from indexdensity.arith import primes_up_to
from indexdensity.artin import (
    corner_degree,
    corner_terms,
    euler_product,
    local_factor,
    local_series,
)
from indexdensity.errors import UnsupportedScopeError
from indexdensity.exact import PRECISION_BITS, Interval, round_down
from indexdensity.groups import GroupFamily, profile_of
from indexdensity.index_sets import Divides, Equals, KFree, ValuationMap, ValuationPattern
import oracles
from oracles import (
    accelerated_tail,
    is_separated,
    prob_model_oracle,
    zeta_bounds,
    zeta_table,
)

ARTIN_CONSTANT = Fraction(3739558136192022880547280543464164151, 10**37)

FAM1 = GroupFamily.from_strings(["2"])
FAM1R2 = GroupFamily.from_strings(["2", "3"])
FAM_IND = GroupFamily.from_strings(["2"], ["3"])
FAM_SAME = GroupFamily.from_strings(["2"], ["2"])
FAM_DEP = GroupFamily.from_strings(["2", "3"], ["3", "5"])


def test_corner_degrees():
    p1 = profile_of(FAM1)
    assert corner_degree(3, (0,), p1) == 1
    assert corner_degree(3, (1,), p1) == 6
    assert corner_degree(3, (2,), p1) == 54
    assert corner_degree(2, (1, 0), profile_of(FAM_IND)) == 2


def test_zero_tuple_values():
    assert local_factor(2, (0,), profile_of(FAM1)) == Fraction(1, 2)
    assert local_factor(3, (0,), profile_of(FAM1)) == Fraction(5, 6)
    assert local_factor(5, (0,), profile_of(FAM1)) == Fraction(19, 20)
    assert local_factor(3, (0, 0), profile_of(FAM_IND)) == Fraction(13, 18)
    assert local_factor(2, (0, 0), profile_of(FAM_IND)) == Fraction(1, 4)


def test_general_values_frozen():
    assert local_factor(3, (1,), profile_of(FAM1)) == Fraction(4, 27)
    assert local_factor(2, (1, 0), profile_of(FAM_IND)) == Fraction(3, 16)
    assert local_factor(2, (1, 1), profile_of(FAM_SAME)) == Fraction(3, 8)
    assert local_factor(3, (0, 1), profile_of(FAM_SAME)) == 0
    assert local_factor(3, (1, 1), profile_of(FAM_DEP)) == Fraction(38, 2187)


def test_values_stay_in_range_and_positive_when_separated():
    for fam in (FAM1, FAM1R2, FAM_IND, FAM_SAME, FAM_DEP):
        prof = profile_of(fam)
        sep = is_separated(fam)
        for ell in (2, 3, 5, 7, 11, 13):
            for v in iproduct(range(4), repeat=prof.n):
                val = local_factor(ell, v, prof)
                assert 0 <= val <= 1, (fam, ell, v)
                if sep:
                    assert val > 0, (fam, ell, v)


def test_local_series_closed_values():
    p1 = profile_of(FAM1)
    assert local_series(3, ValuationPattern.anything(1), p1) == 1
    assert local_series(3, ValuationPattern.exact_zero(1), p1) == Fraction(5, 6)
    assert local_series(2, ValuationPattern.below((2,)), p1) == Fraction(7, 8)


def test_local_series_explicit_list_is_a_plain_sum():
    prof = profile_of(FAM_IND)
    spec = [(0, 1), (2, 0), (1, 1)]
    got = local_series(3, spec, prof)
    expect = sum(local_factor(3, v, prof) for v in spec)
    assert got == expect


def test_local_series_telescopes_across_profiles():
    # bounded-pattern value equals the term-by-term sum over the box,
    # dependent profiles included
    for fam in (FAM_IND, FAM_SAME, FAM_DEP):
        prof = profile_of(fam)
        for ell in (2, 3, 5):
            pat = ValuationPattern.below((3, 3))
            got = local_series(ell, pat, prof)
            expect = sum(
                local_factor(ell, v, prof) for v in iproduct(range(3), repeat=2)
            )
            assert got == expect, (fam, ell)


def test_local_series_mixed_pattern():
    prof = profile_of(FAM_IND)
    pat = ValuationPattern((2, None))  # v_1 < 2, v_2 unconstrained
    got = local_series(3, pat, prof)
    cols = sum(local_factor(3, (v1,), profile_of(FAM1)) for v1 in range(2))
    # marginalizing the unconstrained coordinate leaves the v_1 marginal
    assert got == cols


def test_normalization_small_sweep():
    for fam in (FAM1, FAM1R2, FAM_IND, FAM_SAME, FAM_DEP):
        prof = profile_of(fam)
        for ell in (2, 3, 5):
            assert local_series(ell, ValuationPattern.anything(prof.n), prof) == 1


def test_shapes_hold_far_beyond_their_check_points():
    # the oracle checks each shape at a few small integers ell, as an
    # identity in ell; it must then hold at primes no check ever visits
    for fam in (FAM1, FAM_IND, FAM_SAME, FAM_DEP):
        prof = profile_of(fam)
        for ell in (1_000_003, 2**31 - 1):
            for v in iproduct(range(3), repeat=prof.n):
                first, second = oracles.closed_forms(ell, v, prof)
                direct = sum(
                    Fraction(c, corner_degree(ell, w, prof))
                    for c, w in corner_terms((v,), prof.n)
                )
                assert local_factor(ell, v, prof) == first == second == direct, (fam, ell, v)


def test_a_wrong_closed_form_fails_the_shape_check(monkeypatch):
    prof = profile_of(FAM_IND)
    oracles.check_tuple_shape((1, 0), prof)
    monkeypatch.setattr(oracles, "general_rewritten_form", lambda ell, v, prof: Fraction(0))
    with pytest.raises(ArithmeticError):
        oracles.check_tuple_shape((1, 0), prof)
    # a box whose shape is off by one coefficient fails the box check
    oracles.check_box_shape((2, 1), prof)
    box, shape = ValuationPattern.below((2, 1)), artin._shape
    monkeypatch.setattr(
        artin, "_shape", lambda spec, p: (0, ()) if spec == box else shape(spec, p)
    )
    with pytest.raises(ArithmeticError):
        oracles.check_box_shape((2, 1), prof)


def _grid_profiles():
    """The named families' profiles, then those of seeded families of one
    to three groups drawn from the degree atoms, twelve in all."""
    profiles = dict.fromkeys(profile_of(f) for f in (FAM1, FAM1R2, FAM_IND, FAM_SAME, FAM_DEP))
    rng = random.Random(26)
    while len(profiles) < 12:
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        gens = [rng.sample(oracles.DEGREE_ATOMS, size) for size in sizes]
        if ["-1"] not in gens:  # torsion-only groups are refused
            profiles[profile_of(GroupFamily.from_strings(*gens))] = None
    return list(profiles)


BOXES = {1: [(1,), (5,), (64,)], 2: [(1, 1), (3, 7), (2, 1)], 3: [(1, 1, 1), (2, 5, 3)]}


def test_shape_identities_hold_over_a_grid():
    # the shape, the direct corner sum and both closed forms agree as
    # identities in ell for every tuple with max v <= 6 (a seeded sample of
    # them at n = 3), and each finite box telescopes to its tuples' sum;
    # boxes of 4096 tuples, one profile per arity
    rng = random.Random(26)
    profiles = _grid_profiles()
    assert {prof.n for prof in profiles} == {1, 2, 3}
    for prof in profiles:
        tuples = list(iproduct(range(7), repeat=prof.n))
        if prof.n == 3:
            tuples = [(0, 0, 0), (6, 6, 6), *rng.sample(tuples, 24)]
        for v in tuples:
            oracles.check_tuple_shape(v, prof)
        for bounds in BOXES[prof.n]:
            oracles.check_box_shape(bounds, prof)
    first = {prof.n: prof for prof in reversed(profiles)}
    for bounds in ((4096,), (64, 64), (16, 16, 16)):
        oracles.check_box_shape(bounds, first[len(bounds)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_k_free_shape_costs_the_same_work_for_every_k(monkeypatch, n):
    # the default pattern below (k, ..., k) has 2^n corners, and its shape
    # reads one generic exponent per nonzero corner, whatever k is; no
    # box of k^n tuples is visited, on either side of 4096 tuples
    prof = profile_of(GroupFamily.from_strings(*(["2"], ["3"], ["5"])[:n]))
    calls = []
    exponent = artin.generic_exponent

    def counted(w, profile):
        calls.append(w)
        return exponent(w, profile)

    monkeypatch.setattr(artin, "generic_exponent", counted)
    counts = []
    for k in (16, 64, 65, 4097):
        artin._shape.cache_clear()
        calls.clear()
        artin._shape(KFree((k,) * n).valuation_map().default, prof)
        counts.append(len(calls))
    assert len(set(counts)) == 1 and counts[0] <= 2**n
    assert artin._shape.cache_info().maxsize is not None


def test_euler_product_contains_artin_constant():
    vm = ValuationMap.build(1, {}, ValuationPattern.exact_zero(1))
    ep = euler_product(vm, profile_of(FAM1), 10**4)
    assert ep.interval.low <= ARTIN_CONSTANT <= ep.interval.high
    assert ep.interval.width < Fraction(1, 10**20)
    assert ep.factors[0] == (2, Fraction(1, 2))
    assert ep.zero_at is None


def _split(vmap, prof):
    return artin._accelerated_tail(artin._shape(vmap.default, prof))[0]


def test_euler_product_visits_only_the_primes_it_multiplies(monkeypatch):
    # the exact product stops at the split: the cutoff changes neither
    # the interval nor the work, and every local series evaluated is a
    # factor kept, so the ledger rows are the product's own factors
    calls = []
    series_ratio = artin._series_ratio

    def counted(ell, spec, profile):
        calls.append(ell)
        return series_ratio(ell, spec, profile)

    monkeypatch.setattr(artin, "_series_ratio", counted)
    cases = [
        (FAM1, Equals((1,)), 31),
        (FAM_IND, Equals((1, 1)), 43),
        (FAM1, KFree((2,)), 31),
    ]
    for fam, index_set, count in cases:
        vmap, prof = index_set.valuation_map(), profile_of(fam)
        first, *rest = (euler_product(vmap, prof, c) for c in (100, 2000, 10**5))
        assert all(ep.interval == first.interval for ep in rest)
        calls.clear()
        ep = euler_product(vmap, prof, 10**5)
        primes = [ell for ell, _ in ep.factors]
        assert primes == list(primes_up_to(_split(vmap, prof)))
        assert len(primes) == count
        assert calls == primes
    # a trivial default: unlisted primes contribute exactly 1
    at = {2: ValuationPattern.exact_zero(1), 10007: [(1,)]}
    vm = ValuationMap.build(1, at, ValuationPattern.anything(1))
    calls.clear()
    ep = euler_product(vm, profile_of(FAM1), 10**5)
    assert calls == [ell for ell, _ in ep.factors] == [2, 10007]
    target = local_factor(10007, (1,), profile_of(FAM1)) / 2
    assert ep.interval.low <= target <= ep.interval.high


def test_euler_product_zero_absorption():
    vm = ValuationMap.build(2, {3: [(0, 1)]}, ValuationPattern.exact_zero(2))
    ep = euler_product(vm, profile_of(FAM_SAME), 100)
    assert ep.interval.low == 0 == ep.interval.high
    assert ep.zero_at == 3


def test_euler_product_trivial_default_is_exact():
    # no tail correction needed when every unlisted prime contributes 1
    vm = ValuationMap.build(1, {2: ValuationPattern.exact_zero(1)}, ValuationPattern.anything(1))
    ep = euler_product(vm, profile_of(FAM1), 50)
    assert ep.interval.low == ep.interval.high == Fraction(1, 2)


@pytest.mark.parametrize(
    "fam, vmap",
    [
        (FAM1, Equals((1,)).valuation_map()),
        (FAM_IND, Equals((1, 1)).valuation_map()),
        (FAM1, KFree((2,)).valuation_map()),
        (FAM_SAME, ValuationMap.build(2, {3: [(0, 1)]}, ValuationPattern.exact_zero(2))),
    ],
    ids=["eq1-<2>", "eq11-<2>,<3>", "kfree2-<2>", "zero-at-3"],
)
def test_euler_product_endpoints_match_the_interval_fold(fam, vmap):
    # the factors are exact; the interval must lie inside the enclosure
    # from rounding outward after every exact factor, as
    # Interval.times_exact does, widened by the crude tail 1 - 2^n/cutoff
    prof, cutoff = profile_of(fam), 3000
    acc, factors = Interval(Fraction(1), Fraction(1)), []
    for ell in primes_up_to(cutoff):
        a = local_series(ell, vmap.spec_at(ell), prof)
        factors.append((ell, a))
        acc = acc.times_exact(a)
    if not vmap.default.is_trivial():
        low = acc.low * (1 - Fraction(2**prof.n, cutoff))
        acc = Interval(round_down(low), acc.high)
    ep = euler_product(vmap, prof, cutoff)
    assert acc.low <= ep.interval.low and ep.interval.high <= acc.high
    if acc.high == 0:
        assert ep.interval == acc
    split = _split(vmap, prof)
    assert ep.factors == tuple((ell, a) for ell, a in factors if ell <= split)
    assert ep.zero_at == next((ell for ell, a in factors if a == 0), None)


# zeta(2) = pi^2/6, zeta(3) (Apery's constant) and zeta(4) = pi^4/90,
# truncated to 36 places
ZETA = {
    2: Fraction(1644934066848226436472415166646025189, 10**36),
    3: Fraction(1202056903159594285399738161511449990, 10**36),
    4: Fraction(1082323233711138191516003696541167902, 10**36),
}


def test_zeta_bounds_enclose_the_literature_values():
    scale = 1 << PRECISION_BITS
    for (s, value), (lo, hi) in zip(ZETA.items(), artin._ZETA_BOUNDS):
        assert Fraction(lo, scale) < value + Fraction(1, 10**36)
        assert value <= Fraction(hi, scale)
        assert hi - lo < 64


def test_the_zeta_table_is_the_euler_maclaurin_enclosures():
    # entry s - 2 is zeta_bounds(s) on the working grid, and the literal in
    # artin is the one zeta_table() prints
    assert len(artin._ZETA_BOUNDS) == 16
    for s, bounds in enumerate(artin._ZETA_BOUNDS, 2):
        assert bounds == zeta_bounds(s, 2**128), s
    assert PRECISION_BITS == 128
    assert zeta_table() in inspect.getsource(artin)


def _default_shapes():
    """The euler bench jobs' default shapes, then those of Equals, KFree and
    Divides on one group of rank 1 to 3 and on 2 and 3 independent groups."""
    jobs = [(FAM1, Equals((1,))), (FAM_IND, Equals((1, 1))), (FAM1, KFree((2,)))]
    jobs.append((GroupFamily.from_strings(["5"]), Equals((1,))))
    families = [FAM1, FAM1R2, GroupFamily.from_strings(["2", "3", "5"]), FAM_IND]
    families.append(GroupFamily.from_strings(["2"], ["3"], ["5"]))
    for fam in families:
        n = len(fam.groups)
        jobs += [(fam, Equals((1,) * n)), (fam, KFree((2,) * n)), (fam, Divides((6,) * n))]
    shapes = [artin._shape(s.valuation_map().default, profile_of(fam)) for fam, s in jobs]
    return list(dict.fromkeys(shapes)) + [(1, ((0, -1),)), (2, ())]


@pytest.mark.parametrize("shape", _default_shapes(), ids=str)
def test_accelerated_tails_match_the_reference(shape):
    # one zeta pass gives the same (L0, low, high), bit for bit
    assert artin._accelerated_tail.__wrapped__(shape) == accelerated_tail(shape)


def test_the_smallest_possible_split_reads_the_whole_zeta_table(monkeypatch):
    # the <2> Artin tail has rho = 2, so L0 = 128, the least any shape gets
    reads = []

    class Recorded(tuple):
        def __getitem__(self, i):
            reads.append(i + 2)
            return super().__getitem__(i)

    monkeypatch.setattr(artin, "_ZETA_BOUNDS", Recorded(artin._ZETA_BOUNDS))
    shape = artin._shape(Equals((1,)).valuation_map().default, profile_of(FAM1))
    assert artin._accelerated_tail.__wrapped__(shape)[0] == 128
    assert reads == list(range(2, 18))
    # a split below the table's reach is refused, not read out of range
    monkeypatch.setattr(artin, "TAIL_SPLIT_RATIO", 2)
    with pytest.raises(ArithmeticError, match="past the table"):
        artin._accelerated_tail.__wrapped__(shape)


def test_log_and_exp_bounds_invert_each_other():
    scale = 1 << PRECISION_BITS
    for y in (Fraction(0), Fraction(1, 3), Fraction(1, 1000), Fraction(2, 7) ** 9):
        y_lo = y.numerator * scale // y.denominator
        y_hi = -(-y.numerator * scale // y.denominator)
        g_lo, g_hi = artin._log1p_bounds(y_lo, y_hi, scale)
        assert g_hi - g_lo < 256
        low = artin._exp_bounds(g_lo, scale)[0]
        high = artin._exp_bounds(g_hi, scale)[1]
        assert Fraction(low, scale) <= 1 + y <= Fraction(high, scale)
        assert high - low < 512
        low = artin._exp_bounds(-g_hi, scale)[0]
        high = artin._exp_bounds(-g_lo, scale)[1]
        assert Fraction(low, scale) <= 1 / (1 + y) <= Fraction(high, scale)


@pytest.mark.parametrize(
    "fam, index_set",
    [(FAM1, Equals((1,))), (FAM_IND, Equals((1, 1))), (FAM1, KFree((2,)))],
    ids=["eq1-<2>", "eq11-<2>,<3>", "kfree2-<2>"],
)
def test_the_smallest_split_agrees_with_the_default(monkeypatch, fam, index_set):
    # at L0 = 2 rho every truncation bound binds hardest; the enclosure
    # must still hold, so it must meet the default one. That split needs
    # zeta(s) past the table, to s = 51 here, so the oracle extends it.
    vmap, prof = index_set.valuation_map(), profile_of(fam)
    artin._accelerated_tail.cache_clear()
    default = euler_product(vmap, prof, 2000)
    wider = tuple(zeta_bounds(s, 1 << PRECISION_BITS) for s in range(2, 60))
    monkeypatch.setattr(artin, "_ZETA_BOUNDS", wider)
    monkeypatch.setattr(artin, "TAIL_SPLIT_RATIO", 2)
    artin._accelerated_tail.cache_clear()
    smallest = euler_product(vmap, prof, 2000)
    artin._accelerated_tail.cache_clear()
    assert default.interval.width < Fraction(1, 10**30)
    assert smallest.interval.width < Fraction(1, 10**12)
    assert smallest.interval.low <= default.interval.high
    assert default.interval.low <= smallest.interval.high


def test_a_shape_without_an_accelerated_tail_keeps_the_crude_tail(monkeypatch):
    # a default that is not 1 + O(ell^-2) has no accelerated tail
    assert artin._accelerated_tail((1, ((0, -1),))) is None
    assert artin._accelerated_tail((2, ())) is None
    # then the interval is the old fold, widened by 1 - 2/cutoff: it
    # nests as the cutoff grows and holds the accelerated enclosure
    vm = ValuationMap.build(1, {}, ValuationPattern.exact_zero(1))
    prof = profile_of(FAM1)
    sharp = euler_product(vm, prof, 100).interval
    monkeypatch.setattr(artin, "_accelerated_tail", lambda shape: None)
    outer = Interval(Fraction(0), Fraction(1))
    for cutoff in (100, 1000):
        acc = Interval(Fraction(1), Fraction(1))
        for ell in primes_up_to(cutoff):
            acc = acc.times_exact(local_series(ell, vm.default, prof))
        acc = Interval(round_down(acc.low * (1 - Fraction(2, cutoff))), acc.high)
        ep = euler_product(vm, prof, cutoff)
        assert ep.interval == acc
        assert ep.tail_bound == Fraction(2, cutoff)
        assert outer.low <= acc.low <= sharp.low and sharp.high <= acc.high <= outer.high
        outer = acc
    assert sharp.low <= ARTIN_CONSTANT <= sharp.high
    assert sharp.width < Fraction(1, 10**30)


@pytest.mark.parametrize("cutoff", [100, 2000, 20000])
def test_listed_primes_past_the_split_leave_the_tail(cutoff):
    # a listed prime trades its default factor for its own, on either side
    # of the split and of the cutoff
    prof = profile_of(FAM1)
    at = {1009: ValuationPattern.anything(1), 10007: [(1,)]}
    vm = ValuationMap.build(1, at, ValuationPattern.exact_zero(1))
    ep = euler_product(vm, prof, cutoff)
    f0 = {ell: local_factor(ell, (0,), prof) for ell in (1009, 10007)}
    target = ARTIN_CONSTANT / f0[1009] * local_factor(10007, (1,), prof) / f0[10007]
    assert ep.interval.low <= target <= ep.interval.high
    past = [(ell, a) for ell, a in ep.factors if ell > _split(vm, prof)]
    assert past == [(1009, 1), (10007, local_factor(10007, (1,), prof))]
    assert ep.interval.width < Fraction(1, 10**30)


def test_the_range_check_guards_every_euler_factor(monkeypatch):
    artin._shape.cache_clear()
    monkeypatch.setattr(artin, "_shape", lambda spec, prof: (2, ()))  # the value 2
    vm = ValuationMap.build(1, {}, ValuationPattern.exact_zero(1))
    with pytest.raises(ArithmeticError, match="outside"):
        euler_product(vm, profile_of(FAM1), 100)


def test_prob_oracle_exact_matches_local_factor():
    cases = [
        (FAM1, (2, 3), 1),
        (FAM1R2, (2, 3), 1),
        (FAM_IND, (2, 3), 2),
    ]
    for fam, ells, n in cases:
        prof = profile_of(fam)
        for ell in ells:
            for v in iproduct(range(2), repeat=n):
                got = prob_model_oracle(ell, v, fam, "exact")
                assert got == local_factor(ell, v, prof), (fam, ell, v)


def test_prob_oracle_exact_refuses_dependent_families():
    with pytest.raises(UnsupportedScopeError):
        prob_model_oracle(3, (0, 0), FAM_SAME, "exact")
    with pytest.raises(UnsupportedScopeError):
        prob_model_oracle(3, (0, 0), FAM_DEP, "exact")


def test_prob_oracle_monte_carlo_tracks_the_formula():
    est = prob_model_oracle(3, (0, 0), FAM_SAME, "monte-carlo", samples=200000, seed=5)
    assert est.agrees_with(local_factor(3, (0, 0), profile_of(FAM_SAME)))
    est = prob_model_oracle(3, (0, 1), FAM_SAME, "monte-carlo", samples=100000, seed=5)
    assert est.value == 0  # identical groups can never split at different depths
    est = prob_model_oracle(3, (1, 1), FAM_DEP, "monte-carlo", samples=300000, seed=11)
    assert est.agrees_with(local_factor(3, (1, 1), profile_of(FAM_DEP)))


def test_prob_oracle_monte_carlo_is_seeded():
    a = prob_model_oracle(2, (1, 0), FAM_IND, "monte-carlo", samples=50000, seed=42)
    b = prob_model_oracle(2, (1, 0), FAM_IND, "monte-carlo", samples=50000, seed=42)
    assert a == b
