import random
from fractions import Fraction

import pytest

from indexdensity.exact import (
    PRECISION_BITS,
    Interval,
    round_down,
    round_up,
    series_sum,
)


def test_directed_rounding_brackets_the_value():
    rng = random.Random(7)
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert round_down(x) <= x <= round_up(x)
    # dyadic inputs pass through unchanged
    d = Fraction(5, 8)
    assert round_down(d) == d == round_up(d)


def test_interval_rejects_inverted_and_negative():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        Interval(Fraction(-1), Fraction(0))


def test_product_contains_exact_value():
    rng = random.Random(11)
    fracs = [Fraction(rng.randint(1, 50), rng.randint(50, 100)) for _ in range(200)]
    exact = Fraction(1)
    for f in fracs:
        exact *= f
    iv = Interval(Fraction(1), Fraction(1))
    for f in fracs:
        iv = iv.times_exact(f)
    assert iv.low <= exact <= iv.high
    assert iv.width < Fraction(1, 10**20)


def test_series_sum_signed_bounds():
    terms = [(1, 1), (-1, 1), (-1, 6), (1, 6)]
    lo, hi = series_sum(terms)
    assert lo <= 0 <= hi
    lo2, hi2 = series_sum([((-1) ** n, n + 1) for n in range(100)])
    exact = sum(Fraction((-1) ** n, n + 1) for n in range(100))
    assert lo2 <= exact <= hi2


def test_series_sum_matches_rounding_every_partial_sum():
    # the integer accumulators must reproduce the per-term outward fold,
    # for terms of either sign, for terms already on the 2^-128 grid and
    # for pairs not in lowest terms
    rng = random.Random(5)
    grid = 1 << PRECISION_BITS
    terms = [(-1, rng.randint(1, 10**6)) for _ in range(50)]
    terms += [(rng.choice((-1, 1)), rng.randint(1, 10**9)) for _ in range(200)]
    terms += [(rng.randint(-(10**40), 10**40), grid) for _ in range(50)]
    terms += [(-1, grid), (1, grid), (-3, 1), (2, 1)]
    rng.shuffle(terms)
    lo = hi = Fraction(0)
    for num, den in terms:
        t = Fraction(num, den)
        lo, hi = round_down(lo + t), round_up(hi + t)
    assert series_sum(terms) == (lo, hi)
    assert series_sum([(-5, grid), (1, 2)]) == (
        Fraction(grid // 2 - 5, grid),
        Fraction(grid // 2 - 5, grid),
    )


def test_decimal_bounds_rounds_outward():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    lo, hi = iv.decimal_bounds(6)
    assert lo == "0.333333"
    assert hi == "0.500000"
    lo, hi = Interval(Fraction(2, 3), Fraction(2, 3)).decimal_bounds(4)
    assert lo == "0.6666" and hi == "0.6667"
