#!/usr/bin/env python3
"""A pattern that never occurs, priced exactly.

Take the same group twice and ask for index tuples (q, q^2) with q
prime. Both indices come from the same subgroup, so they are equal at
every p and the pattern never occurs. The singleton sum prices each
tuple with exact local factors, and at every q the four corners of
F_q(1, 2) cancel, so the analytic density is exactly 0. The sieve
confirms there is nothing to find.
"""

from indexdensity import (
    GroupFamily,
    Interval,
    SieveRange,
    named_predicate,
    singleton_sum,
    survey,
)

family = GroupFamily.from_strings(["2"], ["2"])
pattern = named_predicate("prime-square-pair")

rep = survey(family, SieveRange.up_to(10**6), pattern)
value = singleton_sum(family, pattern, bound=100).value
print(f"sieve to 1e6: {rep.hits} hits out of {rep.total} primes")
print(f"singleton sum to q^2 <= 100: [{value.low}, {value.high}]")
assert rep.hits == 0
assert value == Interval(0, 0)
