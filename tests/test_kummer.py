"""Degree machinery: exact and generic degrees, and the sampling oracle."""

import random
from itertools import combinations, permutations, product
from math import prod

import pytest

import oracles
from indexdensity import groups, kummer
from indexdensity.arith import euler_phi, primes_up_to, valuation
from indexdensity.density import hooley_series, valuation_density
from indexdensity.errors import InconclusiveError
from indexdensity.groups import GroupFamily, MultGroup, profile_of
from indexdensity.index_sets import Equals
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
    assert est.value == 4 == model.degree(2, (1, 2))


def _deficiency(model, ell, e):
    """log_ell of generic over exact degree at modulus ell^(max e + 2),
    levels ell^e: how far the exact degree falls short of the generic one."""
    modulus = ell ** (max(e) + 2)
    levels = tuple(ell**x for x in e)
    generic = oracles.generic_degree(model, modulus, levels)
    exact = model.degree(modulus, levels)
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
        assert model.degree(modulus, levels) == expect, gens


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
                exact = model.degree(modulus, levels)
                assert model.degree_estimate(modulus, levels).value == exact, (
                    str(fam), modulus, levels
                )
                checked += 1
    assert checked == 35


def test_corrected_degree_direct_and_assembled():
    assert MODEL2.degree(8, (8,)) == 16
    assert oracles.generic_degree(MODEL2, 128, (128,)) == 8192
    assert MODEL2.degree(128, (128,)) == 4096


def test_local_degree_zero_tuple():
    assert MODEL2.degree(1, (1,)) == 1
    assert oracles.generic_degree(MODEL2, 8, (8,)) == 32
    assert MODEL2.degree(8, (8,)) == 16


def test_degree_validates_levels():
    with pytest.raises(ValueError):
        MODEL2.degree(4, (8,))
    with pytest.raises(ValueError):
        MODEL2.degree(8, (8, 8))
    for check in (MODEL2.degree, MODEL2.degree_estimate):
        with pytest.raises(ValueError):
            check(8, (0,))


def test_degree_defaults_to_exact():
    # the one degree is exact: 4^2 = sqrt(2)^8 in Q(zeta_8)
    assert MODEL4.degree(8, (8,)) == 8
    assert oracles.generic_degree(MODEL4, 8, (8,)) == 32


def _whole_modulus_degree(model, modulus, levels):
    """The degree as first written: one Hermite form over the whole modulus."""
    size, counted = oracles.square_meet(model, modulus, levels)
    return size // sum(2 * modulus % z == 0 for z in counted)


def test_degree_is_the_product_of_its_prime_power_parts():
    # 1-3 groups of 1-2 atoms, moduli over 2, 3, 5, 7 and the support
    rng = random.Random(22)
    cases = 0
    while cases < 2400:
        sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        groups = [rng.sample(oracles.DEGREE_ATOMS, size) for size in sizes]
        if any(g == ["-1"] for g in groups):
            continue  # torsion-only groups are refused
        family = _fam(*groups)
        model, reference = KummerModel(family), KummerModel(family)
        primes = sorted({2, 3, 5, 7} | set(family.support))
        for _ in range(30):
            ks = {ell: rng.choice((0, 0, 1, 1, 2, 3)) for ell in rng.sample(primes, 3)}
            modulus = prod(ell**k for ell, k in ks.items())
            levels = tuple(
                prod(ell ** rng.randint(0, k) for ell, k in ks.items()) for _ in groups
            )
            expect = _whole_modulus_degree(reference, modulus, levels)
            assert model.degree(modulus, levels) == expect, (
                str(family), modulus, levels
            )
            cases += 1


def test_part_takes_the_closed_form_off_two_and_the_lattice_primes(monkeypatch):
    # there the closed form is the Hermite form's part, and part neither
    # builds nor memoizes a form; k = 0, the zero corner, has phi = 1
    calls = []
    form = kummer.hermite_form

    def counted(rows):
        calls.append(rows)
        return form(rows)

    monkeypatch.setattr(kummer, "hermite_form", counted)
    families = [["2"]], [["5"]], [["8"]], [["45"]], [["2"], ["-3"]], [["2", "3"], ["6"]]
    for gens in families:
        model = KummerModel(_fam(*gens))
        odd = {3, 5, 7, *model.family.support} - {2, *model.profile.lattice_primes}
        for ell in sorted(odd):
            for k in range(4):
                for e in product(range(k + 1), repeat=len(gens)):
                    levels = tuple(ell**x for x in e)
                    expect = oracles.square_meet(model, ell**k, levels)
                    assert model.part(ell, k, e) == expect, (gens, ell, k, e)
        assert not calls and not model._parts, gens


def test_one_pass_gives_the_ranks_the_lattice_primes_and_the_square_classes():
    # against the references: one Hermite form pair per subfamily for the
    # lattice primes, and the kernel of the kernel for the saturation
    rng = random.Random(25)
    atoms = (*oracles.DEGREE_ATOMS, "54")
    cases = 0
    while cases < 500:
        gens = [rng.sample(atoms, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        if ["-1"] in gens:
            continue  # torsion-only groups are refused
        family = _fam(*gens)
        model = KummerModel(family)
        profile = model.profile
        for size in range(len(gens) + 1):
            for js in combinations(range(1, len(gens) + 1), size):
                gens_j = [g for j in js for g in family.groups[j - 1].generators]
                expect = oracles.rank(MultGroup(tuple(gens_j))) if gens_j else 0
                assert profile.of(js) == expect, (gens, js)
        assert profile.lattice_primes == oracles.lattice_primes(family), gens
        assert sorted(model._squares) == oracles.square_classes(family), gens
        cases += 1


@pytest.mark.parametrize("gens", [(["2"],), (["2"], ["3"]), (["2"], ["3"], ["5"])])
def test_a_model_reduces_each_subfamily_lattice_twice(monkeypatch, gens):
    # F_J and the form of its transpose per nonempty J give the ranks, the
    # lattice primes and the saturation; no other pass reduces the lattices
    family = _fam(*gens)  # its own validation takes one form per group
    calls = []
    form = groups.hermite_form

    def counted(rows):
        calls.append(rows)
        return form(rows)

    monkeypatch.setattr(groups, "hermite_form", counted)
    monkeypatch.setattr(kummer, "hermite_form", counted)
    profile_of.cache_clear()
    KummerModel(family)
    assert len(calls) <= 2 * (2 ** len(gens) - 1)


def test_wide_supports_build_forms_at_two_and_the_lattice_primes_only(monkeypatch):
    # one form per 2-corner; one form over the whole modulus would take one
    # per S-part (350 here) in the series and one per odd corner (83 here)
    # on the Euler route
    calls = []
    form = kummer.hermite_form

    def counted(rows):
        calls.append(rows)
        return form(rows)

    monkeypatch.setattr(kummer, "hermite_form", counted)
    odd = primes_up_to(420)[1:]
    group = MultGroup.from_strings(f"-{prod(odd[:30])}")
    hooley_series(group, Equals((1,)), 1000)
    assert len(calls) <= 1
    calls.clear()
    family = GroupFamily.from_strings([str(prod(odd[:79]))])
    valuation_density(family, Equals((1,)))
    assert len(calls) <= 2
