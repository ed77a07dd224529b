"""Degree machinery: difference classes, generic valuations, sampling."""

import random
from itertools import permutations

import pytest

from indexdensity.arith import euler_phi
from indexdensity.errors import InconclusiveError
from indexdensity.groups import GroupFamily, profile_of
from indexdensity.kummer import KummerModel, difference_tuple, generic_exponent

FAM2 = GroupFamily.from_strings(["2"])
# one model per family, so the tests share its sampling runs
MODEL2 = KummerModel(FAM2)
MODEL4 = KummerModel(GroupFamily.from_strings(["4"]))


def test_difference_tuple_partition_rule():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        e = sorted((rng.randint(0, 8) for _ in range(n)), reverse=True)
        for cap in (0, 1, 2, 3):
            d = difference_tuple(tuple(e), cap)
            # intervals tile 1..n in order
            flat = [i for lo, hi in d.intervals for i in range(lo, hi + 1)]
            assert flat == list(range(1, n + 1))
            for (lo, hi), gaps in zip(d.intervals, d.gaps):
                assert len(gaps) == hi - lo
                assert all(0 <= g <= cap for g in gaps)
                assert gaps == tuple(e[i - 1] - e[i] for i in range(lo, hi))
            # a break happens exactly where the drop exceeds the cap
            breaks = {hi for lo, hi in d.intervals[:-1]}
            for i in range(1, n):
                assert (e[i - 1] - e[i] > cap) == (i in breaks)


def test_difference_tuple_requires_non_increasing():
    with pytest.raises(ValueError):
        difference_tuple((1, 2), 1)


def test_class_key_and_representative_are_consistent():
    e = (5, 5, 1)
    d = difference_tuple(e, 2)
    rep = d.lex_smallest()
    assert difference_tuple(rep, 2).key() == d.key()
    assert rep <= e


def _fam(*gens):
    return GroupFamily.from_strings(*gens)


SWEEP_FAMILIES = [
    _fam(["2"]),
    _fam(["2", "3"]),
    _fam(["2"], ["3"]),
    _fam(["2"], ["2"]),
    _fam(["2", "3"], ["3", "5"]),
    _fam(["2"], ["3"], ["6"]),
    _fam(["2"], ["3"], ["5"], ["7"]),
    _fam(["2", "3"], ["6"], ["5"], ["30"]),
]


def test_generic_exponent_invariant_under_tie_permutations():
    rng = random.Random(9)
    for fam in SWEEP_FAMILIES:
        prof = profile_of(fam)
        n = prof.n
        for _ in range(20):
            xs = tuple(rng.choice((0, 1, 1, 2)) for _ in range(n))
            base = generic_exponent(xs, prof)
            for sigma in permutations(range(n)):
                if tuple(sorted(xs, reverse=True)) != tuple(xs[i] for i in sigma):
                    continue
                # evaluate the linear form along this admissible ordering
                val = 0
                seen = frozenset()
                for i in sigma:
                    bigger = seen | {i + 1}
                    val += xs[i] * (prof.of(bigger) - prof.of(seen))
                    seen = bigger
                assert val == base, (fam, xs, sigma)


def test_increment_law_on_partition_intervals():
    rng = random.Random(17)
    for fam in SWEEP_FAMILIES:
        prof = profile_of(fam)
        n = prof.n
        for cap in (0, 1, 2):
            for _ in range(30):
                e = tuple(
                    sorted((rng.randint(0, 7) for _ in range(n)), reverse=True)
                )
                d = difference_tuple(e, cap)
                for lo, hi in d.intervals:
                    if lo != 1 and e[lo - 2] - e[lo - 1] <= cap + 1:
                        continue  # lemma hypothesis: clear gap above the block
                    bumped = tuple(
                        x + 1 if lo <= i + 1 <= hi else x for i, x in enumerate(e)
                    )
                    left = generic_exponent(bumped, prof) - generic_exponent(e, prof)
                    head = frozenset(range(1, hi + 1))
                    tail = frozenset(range(1, lo))
                    assert left == prof.of(head) - prof.of(tail), (fam, e, cap, lo, hi)


def test_generic_exponent_monotone_in_each_coordinate():
    rng = random.Random(23)
    for fam in SWEEP_FAMILIES:
        prof = profile_of(fam)
        n = prof.n
        for _ in range(40):
            e = tuple(rng.randint(0, 4) for _ in range(n))
            base = generic_exponent(e, prof)
            for i in range(n):
                bumped = tuple(x + (j == i) for j, x in enumerate(e))
                assert generic_exponent(bumped, prof) >= base


def test_degree_estimate_known_values():
    assert MODEL2.degree_estimate(5, (5,)).value == 20
    assert MODEL2.degree_estimate(8, (8,)).value == 16


def test_degree_estimate_pure_cyclotomic_is_phi():
    for m in (3, 4, 5, 8, 12):
        est = MODEL2.degree_estimate(m, (1,))
        assert est.value == euler_phi(m), m


def test_degree_estimate_divides_generic_bound():
    cases = [(5, (5,)), (8, (8,)), (12, (4,)), (15, (3,)), (7, (7,))]
    for m, levels in cases:
        est = MODEL2.degree_estimate(m, levels)
        assert est.generic_bound % est.value == 0
        assert est.value % euler_phi(m) == 0
        assert est.hits > 0 and est.total >= est.hits


def test_degree_estimate_needs_enough_expected_splits():
    with pytest.raises(InconclusiveError):
        KummerModel(FAM2, prime_bound=2000).degree_estimate(5, (5,))


def _deficiency(model, ell, e):
    return model.deficiency(ell, difference_tuple(e, model.gap_cap()))


def test_deficiency_values_for_two():
    assert _deficiency(MODEL2, 2, (1,)) == 1
    assert _deficiency(MODEL2, 3, (1,)) == 0
    assert _deficiency(MODEL2, 5, (1,)) == 0


def test_deficiency_sees_perfect_powers():
    fam8 = _fam(["8"])
    model = KummerModel(fam8)
    assert 3 in model.deficiency_scope()
    k = difference_tuple((1,), model.gap_cap())
    assert model.deficiency(3, k) == 1
    assert _deficiency(MODEL4, 2, (1,)) == 1


def test_gap_cap_single_group():
    assert MODEL2.gap_cap() == 2


def test_corrected_degree_direct_and_assembled():
    # inside the direct window the sampler is authoritative
    assert MODEL2.degree(8, (8,), "corrected") == 16
    # beyond it the phi(m) * l-parts assembly carries the deficiency
    assert MODEL2.degree(128, (128,), "generic") == 8192
    assert MODEL2.degree(128, (128,), "corrected") == 4096


def test_local_degree_zero_tuple():
    assert MODEL2.local_degree(2, (0,)) == 1
    assert MODEL2.degree(8, (8,), "generic") == 32
    assert MODEL2.local_degree(2, (3,)) == 16


def test_degree_validates_levels():
    with pytest.raises(ValueError):
        MODEL2.degree(4, (8,))
    with pytest.raises(ValueError):
        MODEL2.degree(8, (8, 8))
    with pytest.raises(ValueError):
        MODEL2.degree(8, (8,), "fancy")
    for check in (MODEL2.degree, MODEL2.degree_estimate):
        with pytest.raises(ValueError):
            check(8, (0,))
