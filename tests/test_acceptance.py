"""The ten headline checks, one test and one printed verdict line each.

These exercise the analytic pipeline against frozen constants, closed
forms, independent oracles, and 10^7-scale sieve scans. The scans run
once per family into a shared observation log and everything else
replays it.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from indexdensity.arith import euler_phi, primes_up_to, valuation
from indexdensity.artin import euler_product, local_factor, local_series
from indexdensity.density import (
    correction_ratio,
    hooley_series,
    singleton_sum,
    valuation_density,
)
from indexdensity.empirical import SieveRange, _scan, distribution, survey
from indexdensity.exact import Interval
from indexdensity.groups import GroupFamily, profile_of
from indexdensity.index_sets import (
    Divides,
    Equals,
    KFree,
    PrimesSet,
    SquarefreeModulus,
    ValuationPattern,
    named_predicate,
)
from indexdensity.kummer import KummerModel
from oracles import generic_degree, prob_model_oracle

SCAN_BOUND = 10**7
FAM2 = GroupFamily.from_strings(["2"])
FAM22 = GroupFamily.from_strings(["2"], ["2"])
FAM_DEP = GroupFamily.from_strings(["2", "3"], ["3", "5"])

# 37 digits of the classical rank-one constant, for bracketing checks
ARTIN = Fraction(3739558136192022880547280543464164151, 10**37)

_POOLS = (("2", "3"), ("5", "7"), ("11", "13"))


def _indep_family(ranks):
    return GroupFamily.from_strings(*[list(_POOLS[i][:r]) for i, r in enumerate(ranks)])


def _verdict(number, slug, ok, detail):
    print(f"criterion {number:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def scan2(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scan2") / "fam2.log")
    t0 = time.time()
    blocks = _scan(FAM2, SieveRange.up_to(SCAN_BOUND), path)
    total = sum(primes.size for primes, _ in blocks)
    return {"path": path, "seconds": time.time() - t0, "total": total}


@pytest.fixture(scope="module")
def scan22(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scan22") / "fam22.log")
    t0 = time.time()
    blocks = _scan(FAM22, SieveRange.up_to(SCAN_BOUND), path)
    total = sum(primes.size for primes, _ in blocks)
    return {"path": path, "seconds": time.time() - t0, "total": total}


def test_criterion_01_constant_pipeline(scan2):
    t0 = time.time()
    ep = euler_product(Equals((1,)).valuation_map(), profile_of(FAM2), 10**5)
    iv = ep.interval
    tol = Fraction(1, 10**4)
    ok_interval = (
        iv.width < tol
        and iv.low <= ARTIN <= iv.high
        and Fraction(373955, 10**6) - tol <= iv.low
        and iv.high <= Fraction(373955, 10**6) + tol
    )

    series = hooley_series(FAM2.groups[0], Equals((1,)), 10**4)
    ok_series = series.value.low <= iv.high and iv.low <= series.value.high

    rep = survey(FAM2, SieveRange.up_to(SCAN_BOUND), Equals((1,)), log_path=scan2["path"])
    w_lo, w_hi = rep.wilson
    slack = float(iv.width)
    ok_survey = w_lo - slack <= float(iv.high) and float(iv.low) <= w_hi + slack

    elapsed = scan2["seconds"] + (time.time() - t0)
    ok_time = elapsed < 120
    ok = ok_interval and ok_series and ok_survey and ok_time
    _verdict(
        1,
        "constant-pipeline",
        ok,
        f"interval={iv.decimal_bounds(7)}, series={series.value.decimal_bounds(5)}, "
        f"survey={rep.hits}/{rep.total}, {elapsed:.0f}s",
    )
    assert ok_interval
    assert ok_series
    assert ok_survey
    assert ok_time


def test_criterion_02_local_distributions(scan2):
    prof = profile_of(FAM2)
    assert local_factor(3, (1,), prof) == Fraction(4, 27)
    failures = []
    for ell in (3, 5, 7):
        dist = distribution(
            FAM2, SieveRange.up_to(10**6), ell, 2, log_path=scan2["path"]
        )
        for v in (0, 1, 2):
            target = float(local_factor(ell, (v,), prof))
            freq = float(dist.frequency((v,)))
            sigma = math.sqrt(target * (1 - target) / dist.total)
            if abs(freq - target) > 3 * sigma:
                failures.append((ell, v, freq, target, 3 * sigma))
    ok = not failures
    _verdict(2, "local-distributions", ok, f"9 cells at 3 sigma, failures={failures}")
    assert ok


def test_criterion_03_normalization():
    checked = 0
    for n in (1, 2, 3):
        for ranks in product((1, 2), repeat=n):
            prof = profile_of(_indep_family(ranks))
            for ell in primes_up_to(50):
                whole = local_series(ell, ValuationPattern.anything(n), prof)
                assert whole == 1, (ranks, ell)
                box = local_series(ell, ValuationPattern((3,) * n), prof)
                explicit = sum(
                    (local_factor(ell, v, prof) for v in product(range(3), repeat=n)),
                    Fraction(0),
                )
                assert box == explicit, (ranks, ell)
                checked += 1
    _verdict(3, "normalization", True, f"{checked} (profile, ell) pairs, exact")


def _ie(*xs):
    out = Fraction(1)
    for x in xs:
        out *= 1 - x
    return out


def _closed_single(ell, v, r):
    if v == 0:
        return 1 - Fraction(1, ell**r * (ell - 1))
    lead = Fraction(1, ell ** (v * (r + 1)))
    return lead * Fraction(ell, ell - 1) * (1 - Fraction(1, ell ** (r + 1)))


def _closed_constant(ell, v, prof):
    idx = tuple(range(1, prof.n + 1))
    alt = Fraction(0)
    for size in range(prof.n + 1):
        for sub in combinations(idx, size):
            alt += Fraction((-1) ** size, ell ** prof.of(sub))
    lead = Fraction(1, ell ** (v * (1 + prof.of(idx))))
    return lead * (1 + alt / (ell - 1))


def _closed_pair(ell, v1, v2, r1, r2):
    ie = _ie(Fraction(1, ell**r1), Fraction(1, ell**r2))
    if v1 == v2 == 0:
        return 1 + (ie - 1) / (ell - 1)
    if v1 == v2:
        lead = Fraction(1, ell ** (v1 * (1 + r1 + r2)))
        return lead * Fraction(ell, ell - 1) * (1 + (ie - 1) / ell)
    r_big, r_small = (r1, r2) if v1 > v2 else (r2, r1)
    lead = Fraction(1, ell ** (max(v1, v2) + v1 * r1 + v2 * r2))
    tail = _ie(Fraction(1, ell**r_small), Fraction(1, ell ** (r_big + 1)))
    return lead * Fraction(ell, ell - 1) * tail


def _closed_independent(ell, v, ranks):
    all_ie = _ie(*(Fraction(1, ell**r) for r in ranks))
    if all(x == 0 for x in v):
        return Fraction(ell - 2, ell - 1) + all_ie / (ell - 1)
    off_max_ie = _ie(*(Fraction(1, ell**r) for r, x in zip(ranks, v) if x != max(v)))
    weight = max(v) + sum(x * r for x, r in zip(v, ranks))
    return Fraction(1, ell**weight) * (off_max_ie + all_ie / (ell - 1))


def test_criterion_04_closed_forms():
    ells = (2, 3, 5, 7, 11, 13)
    checked = 0

    for r, gens in ((1, ["2"]), (2, ["2", "3"]), (3, ["2", "3", "5"])):
        prof = profile_of(GroupFamily.from_strings(gens))
        for ell in ells:
            for v in range(4):
                assert local_factor(ell, (v,), prof) == _closed_single(ell, v, r)
                checked += 1

    nested = GroupFamily.from_strings(["2"], ["2", "3"])
    for fam in (FAM22, FAM_DEP, nested, _indep_family((1, 1)), _indep_family((1, 2, 1))):
        prof = profile_of(fam)
        for ell in ells:
            for v in range(1, 4):
                tup = (v,) * prof.n
                assert local_factor(ell, tup, prof) == _closed_constant(ell, v, prof), (
                    fam.fingerprint,
                    ell,
                    v,
                )
                checked += 1

    for r1, r2 in product((1, 2), repeat=2):
        prof = profile_of(_indep_family((r1, r2)))
        for ell in ells:
            for v1, v2 in product(range(4), repeat=2):
                assert local_factor(ell, (v1, v2), prof) == _closed_pair(
                    ell, v1, v2, r1, r2
                ), ((r1, r2), ell, (v1, v2))
                checked += 1

    for n in (1, 2, 3):
        for ranks in product((1, 2), repeat=n):
            prof = profile_of(_indep_family(ranks))
            for ell in ells:
                for v in product(range(4), repeat=n):
                    assert local_factor(ell, v, prof) == _closed_independent(
                        ell, v, ranks
                    ), (ranks, ell, v)
                    checked += 1

    _verdict(4, "closed-forms", True, f"{checked} exact comparisons")


def test_criterion_05_oracle_equivalence():
    t0 = time.time()
    mismatches = []
    for ranks in ((1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)):
        fam = _indep_family(ranks)
        prof = profile_of(fam)
        for ell in (2, 3, 5, 7):
            for v in product(range(3), repeat=len(ranks)):
                target = local_factor(ell, v, prof)
                if prob_model_oracle(ell, v, fam, "exact") != target:
                    mismatches.append((ranks, ell, v))

    target = local_factor(3, (1, 1), profile_of(FAM_DEP))
    assert target == Fraction(38, 2187)
    est = prob_model_oracle(
        3, (1, 1), FAM_DEP, "monte-carlo", samples=10**6, seed=11
    )
    ok_mc = est.agrees_with(target)
    elapsed = time.time() - t0
    ok = not mismatches and ok_mc and elapsed < 60
    _verdict(
        5,
        "oracle-equivalence",
        ok,
        f"mismatches={mismatches}, mc={est.value:.6f} vs {float(target):.6f}, "
        f"{elapsed:.0f}s",
    )
    assert not mismatches
    assert ok_mc
    assert elapsed < 60


def test_criterion_06_degree_oracle():
    model = KummerModel(FAM2)
    got5 = model.degree_estimate(5, (5,))
    got8 = model.degree_estimate(8, (8,))
    cyclo = {m: model.degree_estimate(m, (1,)).value for m in (3, 4, 5, 8, 12)}
    exact = {m: model.degree(m, (m,)) for m in (5, 8)}
    # how far the exact degree of Q(zeta_ell^3, 2^(1/ell)) falls below the
    # generic one, as a power of ell: sqrt 2 lies in Q(zeta_8)
    defs = {
        ell: valuation(
            generic_degree(model, ell**3, (ell,)) // model.degree(ell**3, (ell,)),
            ell,
        )
        for ell in (2, 3, 5)
    }
    ok = (
        got5.value == 20 == exact[5]
        and got8.value == 16 == exact[8]
        and all(cyclo[m] == euler_phi(m) for m in cyclo)
        and defs == {2: 1, 3: 0, 5: 0}
    )
    _verdict(
        6,
        "degree-oracle",
        ok,
        f"deg5={got5.value}, deg8={got8.value}, cyclo={cyclo}, deficiencies={defs}",
    )
    assert got5.value == 20 == exact[5]
    assert got8.value == 16 == exact[8]
    for m, value in cyclo.items():
        assert value == euler_phi(m), m
    assert defs == {2: 1, 3: 0, 5: 0}


def test_criterion_07_prime_index_example(scan2):
    bad = []
    for q in primes_up_to(60):
        expect = Fraction(q * q - 1, q * q * (q * q - q - 1))
        if correction_ratio((q,), FAM2).value != expect:
            bad.append(q)

    analytic = singleton_sum(FAM2, PrimesSet(), bound=1000, cutoff=10**4)
    for label, ratio in analytic.ledger:
        if not label.startswith("h=("):
            continue
        q = int(label[3:].rstrip(",)"))
        assert ratio == Fraction(q * q - 1, q * q * (q * q - q - 1)), label

    # everything past the enumeration bound contributes less than
    # sum_{q > 1000} 2/q^2, bounded by a finite prime sum plus its integral tail
    tail = sum(
        (Fraction(2, q * q) for q in primes_up_to(200000) if q > 1000), Fraction(0)
    ) + Fraction(2, 200000)
    widened = Interval(analytic.value.low, analytic.value.high + tail)

    emp = survey(FAM2, SieveRange.up_to(SCAN_BOUND), PrimesSet(), log_path=scan2["path"])
    w_lo, w_hi = emp.wilson
    ok_joint = w_lo <= float(widened.high) and float(widened.low) <= w_hi
    ok = not bad and ok_joint
    _verdict(
        7,
        "prime-index-example",
        ok,
        f"ratio mismatches={bad}, analytic={widened.decimal_bounds(6)}, "
        f"survey={emp.hits}/{emp.total} wilson=({w_lo:.6f},{w_hi:.6f})",
    )
    assert not bad
    assert ok_joint


def test_criterion_08_impossible_pair(scan22):
    # equal groups have equal indices: the pattern (q, q^2) never occurs,
    # and the corners of each local factor F_q(1, 2) cancel exactly
    pair = named_predicate("prime-square-pair")
    emp = survey(FAM22, SieveRange.up_to(SCAN_BOUND), pair, log_path=scan22["path"])
    analytic = singleton_sum(FAM22, pair, bound=50).value
    ok = emp.hits == 0 and emp.total == 664578 and analytic == Interval(0, 0)
    _verdict(
        8,
        "impossible-pair",
        ok,
        f"hits={emp.hits}/{emp.total}, analytic={analytic.decimal_bounds(6)}",
    )
    assert emp.hits == 0
    assert emp.total == 664578
    assert analytic == Interval(0, 0)


def test_equal_groups_dividing_12_lie_in_the_scan22_survey(scan22):
    # a finite set: the singleton sum is its whole density
    divides = Divides((12, 12))
    srange = SieveRange.up_to(SCAN_BOUND)
    emp = survey(FAM22, srange, divides, log_path=scan22["path"])
    analytic = singleton_sum(FAM22, divides).value
    w_lo, w_hi = emp.wilson
    assert analytic.width < Fraction(1, 10**30)
    assert w_lo <= float(analytic.low) and float(analytic.high) <= w_hi


def test_criterion_09_squarefree_index(scan2):
    series = hooley_series(FAM2.groups[0], KFree((2,)), 10**4)
    euler = valuation_density(FAM2, KFree((2,)), cutoff=10**5)
    ok_routes = (
        series.value.low <= euler.value.high and euler.value.low <= series.value.high
    )

    emp = survey(FAM2, SieveRange.up_to(SCAN_BOUND), KFree((2,)), log_path=scan2["path"])
    w_lo, w_hi = emp.wilson
    ok_survey = w_lo <= float(euler.value.high) and float(euler.value.low) <= w_hi
    ok = ok_routes and ok_survey
    _verdict(
        9,
        "squarefree-index",
        ok,
        f"series={series.value.decimal_bounds(6)}, euler={euler.value.decimal_bounds(6)}, "
        f"survey={emp.hits}/{emp.total}",
    )
    assert ok_routes
    assert ok_survey


def test_criterion_10_method_coherence():
    for index_set in (KFree((2,)), Divides((12,))):
        ceiling = valuation_density(FAM2, index_set, cutoff=2000)
        lows = [
            singleton_sum(FAM2, index_set, bound=b, cutoff=2000).value.low
            for b in (10, 60, 360)
        ]
        assert lows[0] <= lows[1] <= lows[2], index_set.label()
        assert lows[2] <= ceiling.value.high, index_set.label()

        smooth_lows = [
            singleton_sum(
                FAM2,
                index_set,
                bound=360,
                smooth=SquarefreeModulus.from_int(q),
                cutoff=2000,
            ).value.low
            for q in (2, 6, 30)
        ]
        assert smooth_lows[0] <= smooth_lows[1] <= smooth_lows[2], index_set.label()
        assert smooth_lows[2] <= ceiling.value.high, index_set.label()
    _verdict(10, "method-coherence", True, "monotone in bound and smoothness, capped")


@pytest.mark.parametrize(
    "a, ratio",
    [
        (5, Fraction(20, 19)),
        (-3, Fraction(6, 5)),
        (13, Fraction(156, 155)),
        (-7, Fraction(42, 41)),
        (21, Fraction(204, 205)),
    ],
)
def test_hooley_constants_for_entangled_generators(a, ratio):
    # Hooley: for a non-power a whose squarefree part a0 is 1 mod 4, the
    # index-one density is A * (1 - mu(|a0|) prod_{q | a0} 1/(q^2 - q - 1))
    qs = [q for q in primes_up_to(50) if a % q == 0]
    mu = (-1) ** len(qs)
    assert 1 - mu * math.prod(Fraction(1, q * q - q - 1) for q in qs) == ratio
    fam = GroupFamily.from_strings([str(a)])
    euler = valuation_density(fam, Equals((1,)), cutoff=10**4)
    series = hooley_series(fam.groups[0], Equals((1,)), 3000, "corrected")
    assert euler.value.low <= ARTIN * ratio <= euler.value.high, euler.value.decimal_bounds(7)
    assert series.value.low <= ARTIN * ratio <= series.value.high, series.value.decimal_bounds(7)
    assert euler.value.width < Fraction(1, 10**20)


@pytest.mark.parametrize("cutoff", [2000, 20000])
@pytest.mark.parametrize(
    "a, ratio", [(10007, Fraction(1)), (10009, 1 + Fraction(1, 10009**2 - 10009 - 1))]
)
def test_a_support_prime_on_either_side_of_the_cutoff(a, ratio, cutoff):
    # Hooley (1967): 10007 is 3 mod 4, so <10007> gives A; 10009 is 1 mod 4,
    # so <10009> gives A (1 + 1/(10009^2 - 10009 - 1)). The correction is
    # 1.0e-8: a scope prime counted in the tail and in the joint factor fails
    family = GroupFamily.from_strings([str(a)])
    euler = valuation_density(family, Equals((1,)), cutoff=cutoff)
    assert euler.value.low <= ARTIN * ratio <= euler.value.high, euler.value.decimal_bounds(12)
    assert euler.value.width < Fraction(1, 10**20)
