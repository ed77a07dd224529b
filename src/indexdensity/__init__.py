"""Densities of primes classified by the index of multiplicative groups.

Given finitely generated subgroups W_1, ..., W_n of Q*, each prime p (away
from finitely many) yields an index tuple: the i-th entry is the index of
W_i's reduction inside the full multiplicative group mod p. The package
computes the natural densities of primes whose index tuple lands in a
given set by three analytic routes (Moebius series, Euler products of
local factors, per-tuple singleton sums), uses exact cyclotomic-Kummer
degrees at the finitely many primes where the generic formulas can be off
(entanglement such as sqrt(5) inside Q(zeta_5) included), and checks
every route against direct sieve counts (the survey).
"""

from .arith import (
    euler_phi,
    factorize,
    is_prime,
    moebius,
    moebius_sieve,
    primes_up_to,
    squarefree_kernel,
    valuation,
)
from .artin import (
    EulerProduct,
    corner_degree,
    euler_product,
    local_factor,
    local_series,
)
from .density import (
    CorrectionRatio,
    DensityReport,
    correction_ratio,
    hooley_series,
    singleton_sum,
    valuation_density,
)
from .empirical import (
    Congruence,
    DistributionReport,
    FrequencyReport,
    IndexObservation,
    SieveRange,
    distribution,
    index_tuple,
    observations,
    survey,
    survey_many,
    wilson_interval,
)
from .errors import (
    ConfigError,
    FactorizationError,
    InconclusiveError,
    SizeLimitError,
    UnsupportedScopeError,
)
from .exact import Interval
from .groups import (
    FactoredRational,
    GroupFamily,
    MultGroup,
    RankProfile,
    parse_rational,
    profile_of,
    rank_profile,
)
from .index_sets import (
    Classification,
    Divides,
    Equals,
    FiniteSet,
    IndexSet,
    KFree,
    PredicateSet,
    PrimesSet,
    SquarefreeModulus,
    ValuationConstraint,
    ValuationMap,
    ValuationPattern,
    named_predicate,
)
from .kummer import DegreeEstimate, KummerModel, generic_exponent

__all__ = [
    "Classification",
    "ConfigError",
    "Congruence",
    "CorrectionRatio",
    "DegreeEstimate",
    "DensityReport",
    "DistributionReport",
    "Divides",
    "Equals",
    "EulerProduct",
    "FactorizationError",
    "FactoredRational",
    "FiniteSet",
    "FrequencyReport",
    "GroupFamily",
    "InconclusiveError",
    "IndexObservation",
    "IndexSet",
    "Interval",
    "KFree",
    "KummerModel",
    "MultGroup",
    "PredicateSet",
    "PrimesSet",
    "RankProfile",
    "SieveRange",
    "SizeLimitError",
    "SquarefreeModulus",
    "UnsupportedScopeError",
    "ValuationConstraint",
    "ValuationMap",
    "ValuationPattern",
    "corner_degree",
    "correction_ratio",
    "distribution",
    "euler_phi",
    "euler_product",
    "factorize",
    "generic_exponent",
    "hooley_series",
    "index_tuple",
    "is_prime",
    "local_factor",
    "local_series",
    "moebius",
    "moebius_sieve",
    "named_predicate",
    "observations",
    "parse_rational",
    "primes_up_to",
    "profile_of",
    "rank_profile",
    "singleton_sum",
    "squarefree_kernel",
    "survey",
    "survey_many",
    "valuation",
    "valuation_density",
    "wilson_interval",
]
