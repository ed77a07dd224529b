"""Degree machinery: exact and generic degrees, and the sampling oracle."""

import random
from itertools import permutations

import pytest

from indexdensity import kummer
from indexdensity.arith import euler_phi, valuation
from indexdensity.errors import InconclusiveError
from indexdensity.groups import GroupFamily, profile_of
from indexdensity.kummer import KummerModel, generic_exponent

FAM2 = GroupFamily.from_strings(["2"])
# one model per family, so the tests share its sampling runs
MODEL2 = KummerModel(FAM2)
MODEL4 = KummerModel(GroupFamily.from_strings(["4"]))


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


def _partition(e, cap):
    """Blocks [lo, hi] (1-based) of a non-increasing tuple, cut where it
    drops by more than cap."""
    cuts = [i for i in range(1, len(e)) if e[i - 1] - e[i] > cap]
    return list(zip([1] + [c + 1 for c in cuts], cuts + [len(e)]))


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
                for lo, hi in _partition(e, cap):
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


def test_a_model_scans_once_for_all_its_estimates(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    scan = kummer._scan
    monkeypatch.setattr(kummer, "_scan", counted)
    model = KummerModel(_fam(["3"]))
    assert model.degree_estimate(8, (2,)).value == 8
    assert model.degree_estimate(12, (2,)).value == 4  # sqrt 3 lies in Q(zeta_12)
    assert len(calls) == 1


def test_degree_estimate_needs_enough_expected_splits():
    # bound phi(27) * 27 = 486: too few of the primes below 10^6 can split
    with pytest.raises(InconclusiveError):
        MODEL2.degree_estimate(27, (27,))


def test_degree_estimate_counts_torsion_generators():
    # [Q(i, sqrt 2) : Q] = 4, though <-1, 2> has rank one
    model = KummerModel(_fam(["2"], ["-1", "2"]))
    est = model.degree_estimate(2, (1, 2))
    assert est.generic_bound == 4
    assert est.value == 4 == model.degree(2, (1, 2), "corrected")


def _deficiency(model, ell, e):
    """log_ell of generic over exact degree at modulus ell^(max e + 2),
    levels ell^e: how far the exact degree falls short of the generic one."""
    modulus = ell ** (max(e) + 2)
    levels = tuple(ell**x for x in e)
    generic = model.degree(modulus, levels, "generic")
    exact = model.degree(modulus, levels, "corrected")
    assert generic % exact == 0
    return valuation(generic // exact, ell)


def test_deficiency_values_for_two():
    assert _deficiency(MODEL2, 2, (1,)) == 1
    assert _deficiency(MODEL2, 2, (2,)) == 1
    assert _deficiency(MODEL2, 3, (1,)) == 0
    assert _deficiency(MODEL2, 5, (1,)) == 0


def test_deficiency_sees_perfect_powers():
    model = KummerModel(_fam(["8"]))
    assert 3 in model.deficiency_scope()
    assert _deficiency(model, 3, (1,)) == 1
    assert _deficiency(MODEL4, 2, (1,)) == 1


TEXTBOOK_DEGREES = [
    # (generators, modulus, levels, [Q(zeta_modulus, W^(1/level)) : Q])
    (["2"], 8, (2,), 4),  # sqrt 2 lies in Q(zeta_8)
    (["2"], 4, (4,), 8),
    (["-4"], 4, (4,), 2),  # -4 = (1+i)^4
    (["5"], 10, (2,), 4),  # sqrt 5 lies in Q(zeta_5)
    (["3"], 12, (2,), 4),  # sqrt 3 lies in Q(zeta_12)
    (["2"], 128, (128,), 4096),
    # 4^2 = sqrt(2)^8 and 9^2 = sqrt(3)^8 with sqrt 2, sqrt 3 in the
    # cyclotomic field, though both generators have squarefree part 1
    (["4"], 8, (8,), 8),
    (["9"], 12, (12,), 12),
]


def test_exact_degrees_match_the_textbook():
    for gens, modulus, levels, expect in TEXTBOOK_DEGREES:
        model = KummerModel(_fam(gens))
        assert model.degree(modulus, levels, "corrected") == expect, gens


TORSION_FREE_FAMILIES = [
    _fam(["2"]),
    _fam(["3"]),
    _fam(["5"]),
    _fam(["6"]),
    _fam(["4"]),
    _fam(["2"], ["3"]),
    _fam(["2"], ["5"]),
]


def test_exact_degree_agrees_with_the_sampling_oracle():
    checked = 0
    for fam in TORSION_FREE_FAMILIES:
        model = KummerModel(fam)
        for modulus in (8, 10, 12):
            for level in (2, 4):
                if modulus % level or euler_phi(modulus) * level ** len(fam) > 64:
                    continue
                levels = (level,) * len(fam)
                exact = model.degree(modulus, levels, "corrected")
                assert model.degree_estimate(modulus, levels).value == exact, (
                    str(fam), modulus, levels
                )
                checked += 1
    assert checked == 35


def test_corrected_degree_direct_and_assembled():
    assert MODEL2.degree(8, (8,), "corrected") == 16
    assert MODEL2.degree(128, (128,), "generic") == 8192
    assert MODEL2.degree(128, (128,), "corrected") == 4096


def test_local_degree_zero_tuple():
    assert MODEL2.degree(1, (1,), "corrected") == 1
    assert MODEL2.degree(8, (8,), "generic") == 32
    assert MODEL2.degree(8, (8,), "corrected") == 16


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
