"""Exponent-vector linear algebra: ranks, hulls, profiles, saturation."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from indexdensity.groups import (
    FactoredRational,
    GroupFamily,
    MultGroup,
    parse_rational,
    profile_of,
    rank_profile,
)
from indexdensity.arith import primes_up_to
from oracles import is_separated, rank


def test_parse_rational_roundtrip():
    for text in ("2", "10", "3/4", "-6/35", "128", "1", "-1", "22/7"):
        g = parse_rational(text)
        assert g.value == Fraction(text)
    assert parse_rational("10").exponents == ((2, 1), (5, 1))
    assert parse_rational("-1").sign == -1 and parse_rational("-1").exponents == ()


def test_parse_rational_rejects_bad_input():
    for bad in ("0", "abc", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_rank_examples():
    assert rank(MultGroup.from_strings("2")) == 1
    assert rank(MultGroup.from_strings("2", "3")) == 2
    assert rank(MultGroup.from_strings("2", "4")) == 1
    assert rank(MultGroup.from_strings("-1")) == 0
    assert rank(MultGroup.from_strings("4", "8")) == 1
    assert rank(MultGroup.from_strings("2", "3", "6")) == 2


def test_torsion_generator_does_not_change_rank():
    for gens in (("2",), ("2", "3"), ("4", "9"), ("6/5",)):
        with_t = MultGroup.from_strings(*gens, "-1")
        without = MultGroup.from_strings(*gens)
        assert rank(with_t) == rank(without)


def _in_hull(x, group):
    """Does some positive power of x land in the group? Exactly when
    adjoining x keeps the rank: signs and roots of unity are absorbed."""
    return rank(MultGroup((*group.generators, x))) == rank(group)


def test_in_divisible_hull():
    g23 = MultGroup.from_strings("2", "3")
    assert _in_hull(parse_rational("4"), MultGroup.from_strings("2"))
    assert _in_hull(parse_rational("1/2"), MultGroup.from_strings("2"))
    assert _in_hull(parse_rational("6"), g23)
    assert _in_hull(parse_rational("12"), g23)
    assert not _in_hull(parse_rational("2"), MultGroup.from_strings("3"))
    assert not _in_hull(parse_rational("5"), g23)
    # torsion is absorbed: -4 has a power (16) inside <2>
    assert _in_hull(parse_rational("-4"), MultGroup.from_strings("2"))


def _random_family(rng):
    primes = (2, 3, 5, 7)
    n = rng.randint(1, 4)
    groups = []
    for _ in range(n):
        m = rng.randint(1, 2)
        gens = []
        for _ in range(m):
            val = 1
            while val == 1:
                val = 1
                for p in primes:
                    val *= p ** rng.randint(0, 2)
            gens.append(str(val))
        groups.append(gens)
    return GroupFamily.from_strings(*groups)


def test_rank_profile_axioms_on_random_families():
    rng = random.Random(2024)
    for _ in range(25):
        fam = _random_family(rng)
        prof = rank_profile(fam)
        idx = range(1, len(fam) + 1)
        subsets = [frozenset(c) for k in range(len(fam) + 1) for c in combinations(idx, k)]
        assert prof.of(frozenset()) == 0
        ranks = {g: rank(fam.groups[g - 1]) for g in idx}
        for a in subsets:
            assert prof.of(a) <= sum(ranks[i] for i in a)
            for b in subsets:
                if a <= b:
                    assert prof.of(a) <= prof.of(b)
                assert prof.of(a | b) + prof.of(a & b) <= prof.of(a) + prof.of(b)


def test_is_separated_cross_check_with_hull():
    cases = [
        ((["2"], ["3"]), True),
        ((["2"], ["4"]), False),
        ((["2"], ["2"]), False),
        ((["2", "3"], ["3", "5"]), True),
        ((["2", "3"], ["6"]), False),
        ((["2"], ["3"], ["5"]), True),
    ]
    for gens, expect in cases:
        fam = GroupFamily.from_strings(*gens)
        assert is_separated(fam) == expect, gens
        # direct reading: some group entirely inside the hull of the others
        swallowed = False
        for i, grp in enumerate(fam.groups):
            rest = [g for j, other in enumerate(fam.groups) if j != i for g in other.generators]
            if rest and all(_in_hull(g, MultGroup(tuple(rest))) for g in grp.generators):
                swallowed = True
        assert swallowed == (not expect), gens


def test_family_validation():
    with pytest.raises(ValueError):
        GroupFamily.from_strings(["-1"])
    # rank 0 means every generator is +-1, and the message names the group
    with pytest.raises(ValueError, match="group 2 is torsion-only"):
        GroupFamily.from_strings(["2"], ["1", "-1"])
    assert len(GroupFamily.from_strings(["-1", "1/4"], ["-1", "2"])) == 2
    with pytest.raises(Exception):
        GroupFamily.from_strings(*([["2"]] * 13))


def test_fingerprint_distinguishes_and_is_stable():
    a = GroupFamily.from_strings(["2"])
    b = GroupFamily.from_strings(["2"])
    c = GroupFamily.from_strings(["3"])
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_lattice_invariant_primes_against_mod_p_rank():
    rng = random.Random(5)
    for _ in range(60):
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(3))
            for _ in range(rng.randint(1, 4))
        ]
        # one group whose generators have these exponents over 2, 3 and 5
        generators = (
            FactoredRational(1, tuple((p, e) for p, e in zip((2, 3, 5), r) if e))
            for r in rows
        )
        got = rank_profile(GroupFamily((MultGroup(tuple(generators)),))).lattice_primes
        clean = [r for r in rows if any(r)]
        qrank = _rank_q(clean)
        for p in primes_up_to(23):
            drops = qrank > 0 and _rank_mod_p(clean, p) < qrank
            assert (p in got) == drops, (rows, p)


def _rank_q(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(3):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _rank_mod_p(rows, p):
    m = [[x % p for x in r] for r in rows]
    r = 0
    for col in range(3):
        piv = next((i for i in range(r, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        for i in range(r + 1, len(m)):
            if m[i][col] % p:
                f = m[i][col] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_entanglement_primes_examples():
    def lattice_primes(*gens):
        return profile_of(GroupFamily.from_strings(*gens)).lattice_primes

    assert lattice_primes(["2"]) == ()
    assert lattice_primes(["8"]) == (3,)
    assert lattice_primes(["4"]) == (2,)
    assert lattice_primes(["12"]) == ()
    assert lattice_primes(["36"]) == (2,)
    # cross-group: 54 = 2*27 shares a cube root field with 2
    assert lattice_primes(["2"], ["54"]) == (3,)
    assert lattice_primes(["2", "3"], ["3", "5"]) == ()
