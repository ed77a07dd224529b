"""Target sets of index tuples and their valuation structure.

The density machinery never sees raw sets of tuples; it sees descriptors
that know two things about themselves: direct membership and (when it
exists) a per-prime valuation constraint system that the Euler-product
route can consume.

Descriptors also classify themselves into the taxonomy used to route
queries: cut by valuations / almost cut (with a witness modulus) /
determined by valuations / unknown.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product as iproduct

from .arith import (
    factorize,
    is_kfree,
    is_prime,
    primes_up_to,
    squarefree_kernel,
    valuation,
)
from .errors import SizeLimitError, UnsupportedScopeError

IndexTuple = tuple[int, ...]  # entries >= 1
ValuationTuple = tuple[int, ...]  # entries >= 0

ENUMERATION_CAP = 2 * 10**7  # max lattice points a box enumeration may visit


def check_index_tuple(h: IndexTuple, n: int | None = None) -> IndexTuple:
    h = tuple(int(x) for x in h)
    if n is not None and len(h) != n:
        raise ValueError(f"expected {n} coordinates, got {len(h)}")
    if any(x < 1 for x in h):
        raise ValueError("index tuples have positive entries")
    return h


def valuations_at(h: IndexTuple, ell: int) -> ValuationTuple:
    return tuple(valuation(x, ell) for x in h)


@dataclass(frozen=True)
class SquarefreeModulus:
    """A squarefree integer Q > 1, stored as its set of prime divisors."""

    primes: tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise ValueError("Q must be > 1")
        prev = 1
        for p in self.primes:
            if p <= prev or not is_prime(p):
                raise ValueError("primes must be distinct, ascending, prime")
            prev = p

    @classmethod
    def from_int(cls, q: int) -> "SquarefreeModulus":
        if q <= 1:
            raise ValueError("Q must be > 1")
        fac = factorize(q)
        if any(e > 1 for e in fac.values()):
            raise ValueError(f"{q} is not squarefree")
        return cls(tuple(sorted(fac)))

    @property
    def value(self) -> int:
        out = 1
        for p in self.primes:
            out *= p
        return out

    def is_smooth(self, m: int) -> bool:
        """True when every prime factor of m lies in this modulus."""
        if m == 1:
            return True
        for p in self.primes:
            while m % p == 0:
                m //= p
        return m == 1

    def smooth_numbers(self, bound: int):
        """Yield each number <= bound whose primes all lie in this modulus,
        once, in no set order: each is its predecessor times a prime no
        smaller than its predecessor's largest."""
        stack = [(1, 0)]
        while stack:
            x, i = stack.pop()
            yield x
            for j, p in enumerate(self.primes[i:], i):
                if x * p > bound:
                    break
                stack.append((x * p, j))


# ---------------------------------------------------------------------------
# per-prime valuation constraint systems


@dataclass(frozen=True)
class ValuationPattern:
    """A product-form constraint on one prime's valuation tuple.

    bounds[i] = b means coordinate i must satisfy v_i < b; None means
    unconstrained. The all-None pattern is the trivial one.
    """

    bounds: tuple[int | None, ...]

    def __post_init__(self):
        for b in self.bounds:
            if b is not None and b < 1:
                raise ValueError("a bound of 0 would forbid the zero tuple")

    @classmethod
    def anything(cls, n: int) -> "ValuationPattern":
        return cls((None,) * n)

    @classmethod
    def exact_zero(cls, n: int) -> "ValuationPattern":
        return cls((1,) * n)

    @classmethod
    def below(cls, ks) -> "ValuationPattern":
        return cls(tuple(ks))

    @property
    def n(self) -> int:
        return len(self.bounds)

    def allows(self, v: ValuationTuple) -> bool:
        return all(b is None or x < b for x, b in zip(v, self.bounds))

    def is_trivial(self) -> bool:
        return all(b is None for b in self.bounds)


# A constraint at one prime is either a pattern or an explicit finite set
# of valuation tuples (sorted for determinism).
VSpec = ValuationPattern | tuple


def _check_vspec(spec, n: int):
    if isinstance(spec, ValuationPattern):
        if spec.n != n:
            raise ValueError("pattern arity mismatch")
        return spec
    tuples = tuple(sorted({tuple(int(x) for x in t) for t in spec}))
    if not tuples:
        raise ValueError("empty valuation set at a listed prime")
    for t in tuples:
        if len(t) != n or any(x < 0 for x in t):
            raise ValueError(f"bad valuation tuple {t}")
    return tuples


def vspec_allows(spec: VSpec, v: ValuationTuple) -> bool:
    if isinstance(spec, ValuationPattern):
        return spec.allows(v)
    return tuple(v) in spec


@dataclass(frozen=True)
class ValuationMap:
    """Finitely many listed primes with explicit constraints + a default.

    The default must admit the zero tuple, so that only finitely many
    primes actually constrain anything and Euler products make sense.
    """

    n: int
    at: tuple[tuple[int, VSpec], ...]
    default: ValuationPattern

    def __post_init__(self):
        prev = 1
        for ell, spec in self.at:
            if ell <= prev or not is_prime(ell):
                raise ValueError("listed primes must be ascending primes")
            _check_vspec(spec, self.n)
            prev = ell
        if not self.default.allows((0,) * self.n):
            raise ValueError("default pattern must allow the zero tuple")

    @classmethod
    def build(cls, n: int, at: dict, default: ValuationPattern) -> "ValuationMap":
        items = tuple(
            (int(ell), _check_vspec(spec, n)) for ell, spec in sorted(at.items())
        )
        return cls(n, items, default)

    @property
    def listed(self) -> tuple[int, ...]:
        return tuple(ell for ell, _ in self.at)

    def spec_at(self, ell: int) -> VSpec:
        for p, spec in self.at:
            if p == ell:
                return spec
        return self.default

    def allows(self, ell: int, v: ValuationTuple) -> bool:
        return vspec_allows(self.spec_at(ell), v)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    kind: str  # cut | almost-cut | determined | unknown
    witness: int | None = None  # Q_0 for almost-cut

    KINDS = ("cut", "almost-cut", "determined", "unknown")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown classification {self.kind!r}")


# ---------------------------------------------------------------------------
# descriptors


class IndexSet(ABC):
    """A subset of positive integer n-tuples with symbolic structure."""

    n: int

    @abstractmethod
    def contains(self, h: IndexTuple) -> bool: ...

    @abstractmethod
    def label(self) -> str: ...

    def classification(self) -> Classification:
        """The kind read off the valuation map, so one set written two ways
        classifies alike: almost cut when every unlisted prime must be
        absent (an exact-zero default), witnessed by max(2, the product of
        the listed primes); cut otherwise."""
        vmap = self.valuation_map()
        if vmap.default == ValuationPattern.exact_zero(self.n):
            return Classification("almost-cut", witness=max(2, math.prod(vmap.listed)))
        return Classification("cut")

    def valuation_map(self) -> ValuationMap:
        raise UnsupportedScopeError(
            f"{self.label()} has no per-prime product structure"
        )

    def members(
        self, bound: int, smooth: SquarefreeModulus | None = None
    ) -> list[IndexTuple]:
        """All members with entries <= bound (and smooth, if given), lex order.

        Here every tuple of the box of such entries is tested with contains.
        The sets that know their members (Equals, Divides, KFree, PrimesSet
        and FiniteSet) list them instead, with no test.
        """
        entries = _entries(self.n, bound, smooth)
        return [h for h in iproduct(entries, repeat=self.n) if self.contains(h)]


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError("bound must be >= 1")


def _check_box(size: int) -> None:
    if size > ENUMERATION_CAP:
        raise SizeLimitError(
            f"enumeration would visit > {ENUMERATION_CAP} tuples; "
            "lower the bound or pass a smoothness modulus"
        )


def _fits(x: int, bound: int, smooth: SquarefreeModulus | None) -> bool:
    return x <= bound and (smooth is None or smooth.is_smooth(x))


def _entries(n: int, bound: int, smooth: SquarefreeModulus | None):
    """The entries <= bound (and smooth, if given), ascending, refused as
    they are listed once the box of n-tuples over them passes the cap."""
    _check_bound(bound)
    if smooth is None:
        _check_box(bound**n)
        return range(1, bound + 1)
    entries = []
    for x in smooth.smooth_numbers(bound):
        entries.append(x)
        _check_box(len(entries) ** n)
    return sorted(entries)


def _product(lists: list[list[int]]) -> list[IndexTuple]:
    """The tuples of exact per-coordinate lists, in lex order, refused
    before they are built when there are more than the cap."""
    _check_box(math.prod(len(c) for c in lists))
    return list(iproduct(*lists))


@dataclass(frozen=True)
class Equals(IndexSet):
    """The singleton {t}."""

    t: IndexTuple

    def __post_init__(self):
        object.__setattr__(self, "t", check_index_tuple(self.t))

    @property
    def n(self):
        return len(self.t)

    def contains(self, h):
        return tuple(h) == self.t

    def valuation_map(self):
        at = {
            ell: (valuations_at(self.t, ell),)
            for ell in _tuple_support(self.t)
        }
        return ValuationMap.build(self.n, at, ValuationPattern.exact_zero(self.n))

    def members(self, bound, smooth=None):
        _check_bound(bound)
        return [self.t] if all(_fits(x, bound, smooth) for x in self.t) else []

    def label(self):
        return f"equals{self.t}"


@dataclass(frozen=True)
class Divides(IndexSet):
    """Coordinatewise divisors of a fixed tuple t."""

    t: IndexTuple

    def __post_init__(self):
        object.__setattr__(self, "t", check_index_tuple(self.t))

    @property
    def n(self):
        return len(self.t)

    def contains(self, h):
        return all(t % x == 0 for x, t in zip(h, self.t)) and len(h) == self.n

    def valuation_map(self):
        at = {}
        for ell in _tuple_support(self.t):
            caps = valuations_at(self.t, ell)
            at[ell] = ValuationPattern.below(tuple(v + 1 for v in caps))
        return ValuationMap.build(self.n, at, ValuationPattern.exact_zero(self.n))

    def members(self, bound, smooth=None):
        _check_bound(bound)
        lists = []
        for t in self.t:
            divs = [1]  # t's divisors, from its factorization
            for p, e in factorize(t).items():
                divs = [d * p**j for d in divs for j in range(e + 1)]
            lists.append(sorted(d for d in divs if _fits(d, bound, smooth)))
        return _product(lists)

    def label(self):
        return f"divides{self.t}"


@dataclass(frozen=True)
class KFree(IndexSet):
    """Tuples whose i-th entry is k_i-free (no prime to the k_i-th power)."""

    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        if any(x < 1 for x in self.k):
            raise ValueError("k-free needs k >= 1")

    @property
    def n(self):
        return len(self.k)

    def contains(self, h):
        return all(is_kfree(x, k) for x, k in zip(h, self.k))

    def valuation_map(self):
        return ValuationMap.build(
            self.n, {}, ValuationPattern.below(self.k)
        )

    def members(self, bound, smooth=None):
        entries = _entries(self.n, bound, smooth)
        return _product([[x for x in entries if is_kfree(x, k)] for k in self.k])

    def label(self):
        return f"kfree{self.k}"


@dataclass(frozen=True)
class ValuationConstraint(IndexSet):
    """Tuples cut out by an explicit per-prime valuation system."""

    vmap: ValuationMap

    @property
    def n(self):
        return self.vmap.n

    def contains(self, h):
        h = check_index_tuple(h, self.n)
        support = set(_tuple_support(h)) | set(self.vmap.listed)
        return all(
            self.vmap.allows(ell, valuations_at(h, ell)) for ell in sorted(support)
        )

    def valuation_map(self):
        return self.vmap

    def label(self):
        listed = ",".join(str(ell) for ell in self.vmap.listed)
        return f"valuation(at={listed or 'none'})"


@dataclass(frozen=True)
class FiniteSet(IndexSet):
    """An explicit finite collection of tuples."""

    tuples: tuple[IndexTuple, ...]

    def __post_init__(self):
        clean = tuple(sorted({check_index_tuple(t) for t in self.tuples}))
        if not clean:
            raise ValueError("empty finite set")
        arity = {len(t) for t in clean}
        if len(arity) != 1:
            raise ValueError("mixed arities")
        object.__setattr__(self, "tuples", clean)

    @property
    def n(self):
        return len(self.tuples[0])

    def contains(self, h):
        h = tuple(h)
        i = bisect_left(self.tuples, h)
        return i < len(self.tuples) and self.tuples[i] == h

    def classification(self):
        support = math.lcm(*(x for t in self.tuples for x in t))
        return Classification("almost-cut", witness=max(2, squarefree_kernel(support)))

    def valuation_map(self):
        if len(self.tuples) == 1:
            return Equals(self.tuples[0]).valuation_map()
        raise UnsupportedScopeError(
            "a finite set with several tuples is not a per-prime product; "
            "use the singleton-sum route (exact for finite sets)"
        )

    def members(self, bound, smooth=None):
        _check_bound(bound)
        return [t for t in self.tuples if all(_fits(x, bound, smooth) for x in t)]

    def label(self):
        return f"finite[{len(self.tuples)}]"


@dataclass(frozen=True)
class PrimesSet(IndexSet):
    """n = 1: indices that are prime numbers.

    Determined by valuations (the valuation image is the zero vector plus
    the unit vectors) but not almost cut: no single modulus witnesses it.
    """

    n: int = 1

    def __post_init__(self):
        if self.n != 1:
            raise ValueError("the prime-index set is one-dimensional")

    def contains(self, h):
        return len(h) == 1 and is_prime(h[0])

    def classification(self):
        return Classification("determined")

    def members(self, bound, smooth=None):
        _check_bound(bound)
        if smooth is not None:
            return [(p,) for p in smooth.primes if p <= bound]
        _check_box(bound)  # the sieve visits every entry up to the bound
        return [(p,) for p in primes_up_to(bound)]

    def label(self):
        return "primes"


@dataclass(frozen=True)
class PredicateSet(IndexSet):
    """Membership-only descriptor: an opaque predicate on tuples.

    classification() answers unknown; analytic machinery refuses these,
    and the empirical survey is the supported route.
    """

    name: str
    n: int
    fn: object  # callable tuple -> bool; not part of equality/hash

    def __eq__(self, other):
        return (
            isinstance(other, PredicateSet)
            and (self.name, self.n) == (other.name, other.n)
        )

    def __hash__(self):
        return hash((self.name, self.n))

    def contains(self, h):
        return bool(self.fn(tuple(h)))

    def classification(self):
        return Classification("unknown")

    def label(self):
        return f"predicate:{self.name}"


def _tuple_support(t: IndexTuple) -> list[int]:
    primes = set()
    for x in t:
        primes.update(factorize(x))
    return sorted(primes)


# ---------------------------------------------------------------------------
# named predicates available to the CLI (callables cannot be configured)


def _even_prime_divisor_count(h):
    total = sum(factorize(h[0]).values())
    return total % 2 == 0


def _prime_square_pair(h):
    return is_prime(h[0]) and h[1] == h[0] ** 2


NAMED_PREDICATES = {
    "even-omega": (1, _even_prime_divisor_count),
    "prime-square-pair": (2, _prime_square_pair),
}


def named_predicate(name: str) -> PredicateSet:
    if name not in NAMED_PREDICATES:
        raise ValueError(
            f"unknown predicate {name!r}; available: {sorted(NAMED_PREDICATES)}"
        )
    n, fn = NAMED_PREDICATES[name]
    return PredicateSet(name, n, fn)
