"""Exact rational intervals with directed dyadic rounding.

Long products and series over thousands of exact rational factors would
blow up denominator sizes if accumulated naively. Instead every endpoint
lives on the grid of multiples of 2^-PRECISION_BITS: after each exact
operation, low is rounded down and high up to that grid. Every emitted
interval therefore still rigorously contains the true value, while
arithmetic stays fast. The long loops (series_sum here, which sums the
Moebius series and singleton_sum's per-tuple corrections in density, and
the Euler product in artin) keep the two endpoints as plain integers k
meaning k / 2^PRECISION_BITS and build Fractions only at the end;
series_sum also takes its terms as integer pairs (numerator,
denominator). One-off
operations go through Interval, round_down and round_up. Both give the
same endpoints, since floor(x 2^PRECISION_BITS) does not depend on how x
is written. Decimal rendering rounds low down and high up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PRECISION_BITS = 128
_SCALE = 1 << PRECISION_BITS


def round_down(x: Fraction) -> Fraction:
    return Fraction(x.numerator * _SCALE // x.denominator, _SCALE)


def round_up(x: Fraction) -> Fraction:
    n = x.numerator * _SCALE
    d = x.denominator
    return Fraction(-((-n) // d), _SCALE)


@dataclass(frozen=True)
class Interval:
    """Closed interval [low, high] with nonnegative rational endpoints."""

    low: Fraction
    high: Fraction

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"inverted interval [{self.low}, {self.high}]")
        if self.low < 0:
            raise ValueError("negative endpoints unsupported (not needed here)")

    def times_exact(self, x: Fraction) -> "Interval":
        if x < 0:
            raise ValueError("negative scaling unsupported")
        return Interval(round_down(self.low * x), round_up(self.high * x))

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    def decimal_bounds(self, places: int = 12) -> tuple[str, str]:
        """(low rounded down, high rounded up) as decimal strings."""
        scale = 10**places
        lo = self.low.numerator * scale // self.low.denominator
        hi = -((-self.high.numerator * scale) // self.high.denominator)
        return (_render(lo, places), _render(hi, places))


def _render(scaled: int, places: int) -> str:
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def series_sum(terms) -> tuple[Fraction, Fraction]:
    """Signed bounds on a sum of exact rational terms, rounded outward.

    Each term is an integer pair (num, den) with den > 0, meaning num/den.
    It is added on the 2^-PRECISION_BITS grid as an integer count,
    floor((num << PRECISION_BITS) / den) for low and the ceiling for high:
    the same endpoints as rounding each exact partial sum outward, with no
    Fraction per term.

    Returned as a plain (low, high) pair rather than an Interval because
    partial sums of alternating series may dip below zero even when the
    limit is a density; callers clamp once they have added their tail.
    """
    lo = hi = 0
    for num, den in terms:
        q, r = divmod(num << PRECISION_BITS, den)
        lo += q
        hi += q + (r != 0)
    return (Fraction(lo, _SCALE), Fraction(hi, _SCALE))
