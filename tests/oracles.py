"""Independent oracles for the closed forms, shared by the tests.

Not a test module (pytest collects test_*.py only): the tests import it.

The splitting model: each support prime's discrete logarithm is uniform
ell-adic, a generator's splitting depth is the valuation of the matching
integer combination, and a group's index valuation is the minimum depth
over its generators and the cyclotomic variable. Independent families
reduce to a finite product law (enumerated exactly); everything else is
seeded simulation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from indexdensity.arith import euler_phi
from indexdensity.artin import _check_tuple
from indexdensity.errors import SizeLimitError, UnsupportedScopeError
from indexdensity.groups import FactoredRational, GroupFamily, profile_of

ENUMERATION_ATOM_LIMIT = 4_000_000
_SAMPLE_CHUNK = 1 << 19  # monte-carlo samples drawn per pass


@dataclass(frozen=True)
class ProbEstimate:
    """Monte-carlo output: point estimate plus raw counts."""

    value: float
    sigma: float
    hits: int
    samples: int

    def agrees_with(self, target, sigmas: float = 3.0) -> bool:
        """Binomial consistency check against an exact target density."""
        t = float(target)
        if self.samples == 0:
            return False
        null_sigma = math.sqrt(t * (1 - t) / self.samples)
        return abs(self.value - t) <= sigmas * null_sigma + 1.0 / self.samples


def _is_torsion(g: FactoredRational) -> bool:
    """True for +-1: the only torsion in Q*."""
    return not g.exponents


def _group_ranks(profile) -> tuple[int, ...]:
    return tuple(profile.of((i,)) for i in range(1, profile.n + 1))


def _is_independent(profile) -> bool:
    """True when ranks add across the family (no multiplicative relations)."""
    return profile.of(range(1, profile.n + 1)) == sum(_group_ranks(profile))


def _torsion_free_basis(family: GroupFamily):
    basis: list[FactoredRational] = []
    owner: list[int] = []
    profile = profile_of(family)
    for i, group in enumerate(family.groups):
        kept = [g for g in group.generators if not _is_torsion(g)]
        if len(kept) != _group_ranks(profile)[i]:
            raise UnsupportedScopeError(
                "the probabilistic model needs each group's generators to be "
                "a basis (torsion aside); reduce the generating set first"
            )
        basis.extend(kept)
        owner.extend([i] * len(kept))
    return basis, owner


def _pmf_tables(ell: int, top: int):
    """Truncated splitting-depth distributions, exact, summing to 1."""
    pmf_x = [Fraction(1, ell**k) - Fraction(1, ell ** (k + 1)) for k in range(top)]
    pmf_x.append(Fraction(1, ell**top))
    pmf_z = [
        Fraction(1, euler_phi(ell**k)) - Fraction(1, euler_phi(ell ** (k + 1)))
        for k in range(top)
    ] + [Fraction(1, euler_phi(ell**top))]
    if sum(pmf_x) != 1 or sum(pmf_z) != 1:
        raise ArithmeticError("truncated distributions fail to normalize")
    return pmf_x, pmf_z


def prob_model_oracle(
    ell: int,
    v_I,
    family: GroupFamily,
    method: str = "exact",
    *,
    samples: int = 10**6,
    seed: int = 0,
):
    """Independent estimate of the local factor from the splitting model.

    Monte-carlo samples a uniform ell-adic logarithm (top+1 digits) for
    every prime in the family's support; a generator's splitting depth is
    the ell-valuation of the corresponding integer combination of logs,
    and group i's index valuation is the minimum depth over its
    generators and the shared cyclotomic depth. Multiplicative relations
    between groups are then automatic (shared logs), which is what makes
    the sample law match the rank-profile closed form. Exact enumeration
    is the independent-family shortcut: depths are then independent
    truncated geometrics and the joint law is a finite product.
    """
    profile = profile_of(family)
    v = _check_tuple(v_I, profile.n)
    basis, owner = _torsion_free_basis(family)
    top = max(v) + 1
    pmf_x, pmf_z = _pmf_tables(ell, top)
    m = len(basis)
    cols = [[j for j in range(m) if owner[j] == i] for i in range(profile.n)]

    if method == "exact":
        if not _is_independent(profile):
            raise UnsupportedScopeError(
                "exact enumeration is only valid for multiplicatively "
                "independent families; use method='monte-carlo'"
            )
        if (top + 1) ** (m + 1) > ENUMERATION_ATOM_LIMIT:
            raise SizeLimitError("joint distribution too large to enumerate")
        total = Fraction(0)
        for z, *xs in iproduct(range(top + 1), repeat=m + 1):
            if all(min([xs[j] for j in c] + [z]) == v[i] for i, c in enumerate(cols)):
                total += pmf_z[z] * math.prod(pmf_x[x] for x in xs)
        return total

    if method != "monte-carlo":
        raise ValueError("method is 'exact' or 'monte-carlo'")

    modulus = ell**top
    if modulus > 1 << 40:
        raise SizeLimitError("ell^(max v + 1) too large for the sampler")
    support = family.support
    coeffs = np.array(
        [b.exponent_vector(support) for b in basis], dtype=np.int64
    ).T  # one column per basis element, one row per support prime
    cdf_z = np.cumsum([float(p) for p in pmf_z])
    rng = np.random.default_rng(seed)

    hits = 0
    left = samples
    while left > 0:
        size = min(_SAMPLE_CHUNK, left)
        left -= size
        logs = rng.integers(0, modulus, size=(size, len(support)), dtype=np.int64)
        combo = (logs @ coeffs) % modulus
        depth = np.zeros(combo.shape, dtype=np.int64)
        alive = np.ones(combo.shape, dtype=bool)
        rem = combo.copy()
        for _ in range(top):
            alive &= rem % ell == 0
            depth += alive
            rem[alive] //= ell
        z = np.searchsorted(cdf_z, rng.random(size), side="right")
        target = np.ones(size, dtype=bool)
        for i, c in enumerate(cols):
            psi = np.minimum(depth[:, c].min(axis=1), z)
            target &= psi == v[i]
        hits += int(target.sum())

    p = hits / samples
    sigma = math.sqrt(p * (1 - p) / samples) if 0 < p < 1 else 1.0 / samples
    return ProbEstimate(p, sigma, hits, samples)
