"""Finitely generated multiplicative subgroups of Q* in factored form.

A nonzero rational is stored as a sign together with its prime
factorization (negative exponents for the denominator). Groups are tuples
of such generators; families are tuples of groups. All rank computation is
exact integer linear algebra on exponent vectors, so questions like
"does this element have a power inside that group" are decided exactly,
never through floating point.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import prod

from .arith import factorize
from .errors import SizeLimitError

SUBSET_ENUM_LIMIT = 12  # 2^12 subsets is the ceiling for exact profiles


@dataclass(frozen=True)
class FactoredRational:
    """A nonzero rational as sign * prod(p^e), exponents in Z \\ {0}."""

    sign: int
    exponents: tuple[tuple[int, int], ...]  # sorted by prime, exponent != 0

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        previous = 1
        for p, e in self.exponents:
            if p <= previous:
                raise ValueError("exponent map must be sorted by prime, no dupes")
            if e == 0:
                raise ValueError("zero exponents must be dropped")
            previous = p

    @property
    def value(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.exponents:
            out *= Fraction(p) ** e
        return out

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exponents)

    def exponent_vector(self, primes: tuple[int, ...]) -> tuple[int, ...]:
        lookup = dict(self.exponents)
        return tuple(lookup.get(p, 0) for p in primes)

    def __str__(self):
        v = self.value
        return str(v) if v.denominator > 1 else str(v.numerator)


def parse_rational(text) -> FactoredRational:
    """Parse a nonzero rational ("2", "-12/5", "0.75", Fraction, int).

    Factorization happens here, once, with the package work bound; inputs
    whose numerator or denominator cannot be factored are rejected.
    """
    try:
        value = Fraction(text)
    except (ZeroDivisionError, OverflowError) as exc:  # "2/0", float infinity
        raise ValueError(f"{text!r} is not a finite rational") from exc
    if value == 0:
        raise ValueError("0 generates no multiplicative subgroup of Q*")
    sign = 1 if value > 0 else -1
    exps: dict[int, int] = {}
    for p, e in factorize(value.numerator * sign if sign < 0 else value.numerator).items():
        exps[p] = exps.get(p, 0) + e
    for p, e in factorize(value.denominator).items():
        exps[p] = exps.get(p, 0) - e
    items = tuple(sorted((p, e) for p, e in exps.items() if e != 0))
    return FactoredRational(sign, items)


def hermite_form(rows) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix, zero rows dropped.

    The rows span the same lattice as the input. They are in echelon form
    with positive pivots, and each entry above a pivot is reduced modulo
    it. The number of rows is the rank over Q; for a full-rank square
    result, the product of the pivots is the lattice's index in Z^n.
    """
    work = [list(r) for r in rows if any(r)]
    form: list[list[int]] = []
    width = len(work[0]) if work else 0
    for col in range(width):
        live = [r for r in work if r[col]]
        while len(live) > 1:  # Euclid on the column, one row at a time
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    for j in range(col, width):
                        r[j] -= q * pivot[j]
            live = [r for r in live if r[col]]
        if not live:
            continue
        pivot = live[0]
        work = [r for r in work if r is not pivot and any(r)]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        for r in form:
            q = r[col] // pivot[col]
            if q:
                for j in range(col, width):
                    r[j] -= q * pivot[j]
        form.append(pivot)
    return form


@dataclass(frozen=True)
class MultGroup:
    """Subgroup of Q* given by finitely many generators.

    Torsion-only groups (generated by -1) are allowed here; the
    positive-rank hypothesis of the density theory is enforced at the
    family level.
    """

    generators: tuple[FactoredRational, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a group needs at least one generator")

    @classmethod
    def from_strings(cls, *texts) -> "MultGroup":
        return cls(tuple(parse_rational(t) for t in texts))

    @property
    def support(self) -> tuple[int, ...]:
        primes = set()
        for g in self.generators:
            primes.update(g.support)
        return tuple(sorted(primes))

    def exponent_rows(self, primes: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [g.exponent_vector(primes) for g in self.generators]

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class GroupFamily:
    """An ordered family (W_1, ..., W_n) of positive-rank groups."""

    groups: tuple[MultGroup, ...]

    def __post_init__(self):
        if not self.groups:
            raise ValueError("empty family")
        if len(self.groups) > SUBSET_ENUM_LIMIT:
            raise SizeLimitError(
                f"families larger than {SUBSET_ENUM_LIMIT} exceed the exact "
                "subset-enumeration budget"
            )
        for i, g in enumerate(self.groups):
            if not any(x.exponents for x in g.generators):  # only +-1: rank 0
                raise ValueError(
                    f"group {i + 1} is torsion-only; the density theory "
                    "requires every group to have positive rank"
                )

    @classmethod
    def from_strings(cls, *gen_lists) -> "GroupFamily":
        return cls(tuple(MultGroup.from_strings(*gl) for gl in gen_lists))

    def __len__(self):
        return len(self.groups)

    @property
    def support(self) -> tuple[int, ...]:
        primes = set()
        for g in self.groups:
            primes.update(g.support)
        return tuple(sorted(primes))

    @property
    def fingerprint(self) -> str:
        """Stable hex id that keys observation logs."""
        canon = ";".join(
            ",".join(f"{g.sign}:{g.exponents}" for g in grp.generators)
            for grp in self.groups
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.groups) + ")"


@dataclass(frozen=True)
class RankProfile:
    """rank(W_J) for every subset J of {1..n}, keyed by frozenset, and data
    read off the same Hermite forms: the lattice primes, where some
    subfamily's exponent lattice is unsaturated (8 has a rational cube
    root; 2*27 and 2 share a cube root field), the only odd primes off the
    support where Kummer degrees can fall short of the generic formula,
    and a basis of the saturation (Lambda tensor Q) & Z^support of the
    family's lattice Lambda. Neither is compared: caches see ranks alone.
    """

    n: int
    table: tuple[tuple[frozenset, int], ...]
    lattice_primes: tuple[int, ...] = field(compare=False)
    saturation: tuple[tuple[int, ...], ...] = field(compare=False)

    @cached_property
    def ranks(self) -> dict:
        return dict(self.table)

    def of(self, subset) -> int:
        return self.ranks[frozenset(subset)]


def rank_profile(family: GroupFamily) -> RankProfile:
    """Two Hermite forms per nonempty subfamily J: F_J of J's exponent
    rows, with rank(W_J) rows, and B_J of F_J's transpose, a square upper
    triangular basis of the lattice C_J that F_J's columns span. Its
    determinant [Z^rank : C_J] is the gcd of F_J's maximal minors, so the
    lattice primes are its prime factors. The whole family's saturation
    is {aF : aF integral} = {aF : a in C*}, with the basis B^-T F.
    """
    n = len(family)
    primes = family.support
    rows_by_group = [g.exponent_rows(primes) for g in family.groups]
    table = [(frozenset(), 0)]
    bad: set[int] = set()
    for size in range(1, n + 1):
        for js in combinations(range(1, n + 1), size):
            form = hermite_form([r for j in js for r in rows_by_group[j - 1]])
            columns = hermite_form(zip(*form))
            table.append((frozenset(js), len(form)))
            bad.update(factorize(prod(r[i] for i, r in enumerate(columns))))
    saturation = []
    for i, v in enumerate(form):  # the whole family's F and B come last
        for j, s in enumerate(saturation):
            v = [a - columns[j][i] * b for a, b in zip(v, s)]
        if any(a % columns[i][i] for a in v):
            raise ArithmeticError("the saturation basis is not integral")
        saturation.append(tuple(a // columns[i][i] for a in v))
    return RankProfile(n, tuple(table), tuple(sorted(bad)), tuple(saturation))


@lru_cache(maxsize=256)
def profile_of(family: GroupFamily) -> RankProfile:
    """Cached rank_profile; families are small immutable values."""
    return rank_profile(family)

