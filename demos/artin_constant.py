#!/usr/bin/env python3
"""The density of primes where 2 generates, three independent ways.

Route 1 multiplies certified local factors, route 2 sums the classical
inclusion-exclusion series over field degrees, route 3 just counts. The
first two produce intervals that provably contain the limit density;
the sieve gives a Wilson 95% interval around the finite-range frequency.
"""

import argparse

from indexdensity import (
    Equals,
    GroupFamily,
    SieveRange,
    hooley_series,
    survey,
    valuation_density,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truncation", type=int, default=3000)
    parser.add_argument("--sieve-bound", type=int, default=300000)
    args = parser.parse_args()

    family = GroupFamily.from_strings(["2"])
    target = Equals((1,))

    euler = valuation_density(family, target)
    lo, hi = euler.value.decimal_bounds(20)
    print(f"euler product:                   [{lo}, {hi}]")

    series = hooley_series(
        family.groups[0], Equals((1,)), args.truncation
    )
    lo, hi = series.value.decimal_bounds(8)
    print(f"degree series (truncation {args.truncation}): [{lo}, {hi}]")
    for label, term in series.ledger[:5]:
        print(f"    {label:<16} {term}")
    print("    ...")

    rep = survey(family, SieveRange.up_to(args.sieve_bound), target)
    w_lo, w_hi = rep.wilson
    print(
        f"sieve to {args.sieve_bound}: {rep.hits}/{rep.total} = "
        f"{rep.estimate:.8f}, wilson [{w_lo:.8f}, {w_hi:.8f}]"
    )


if __name__ == "__main__":
    main()
