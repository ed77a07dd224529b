#!/usr/bin/env python3
"""Where the generic degree formula breaks and how the model notices.

[Q(zeta_m, W^{1/n}) : Q] is phi(m) * n^rank for most inputs, but
radicals can collide with roots of unity (sqrt(2) inside zeta_8) or
with each other (8 = 2^3 is already a cube up to rationals). The model
computes the exact degree from one Hermite form over the exponent
vectors; counting split primes is shown as an independent check.
"""

from indexdensity import (
    Equals,
    GroupFamily,
    KummerModel,
    euler_phi,
    hooley_series,
)


def show(family, label):
    model = KummerModel(family)
    print(f"{label}: scope={model.deficiency_scope()}", end="")
    print(f" lattice primes={model.profile.lattice_primes}")
    rank = model.profile.of({1})
    for modulus, levels in ((8, (8,)), (9, (9,)), (25, (5,))):
        generic = euler_phi(modulus) * levels[0] ** rank
        corrected = model.degree(modulus, levels)
        flag = "  <- below generic" if generic != corrected else ""
        print(
            f"  Q(zeta_{modulus}, W^(1/{levels[0]})): generic {generic:>5},"
            f" corrected {corrected:>5}{flag}"
        )


show(GroupFamily.from_strings(["2"]), "W = <2>")
show(GroupFamily.from_strings(["8"]), "W = <8>")
show(GroupFamily.from_strings(["4"]), "W = <4>")

est = KummerModel(GroupFamily.from_strings(["2"])).degree_estimate(8, (8,))
print(
    f"\nsampling run for (zeta_8, 2^(1/8)): {est.hits} splits in "
    f"{est.total} primes -> degree {est.value} (bound {est.generic_bound})"
)

# a wrong degree is not cosmetic: it shifts densities
g8 = GroupFamily.from_strings(["8"]).groups[0]
for mode in ("generic", "corrected"):
    rep = hooley_series(g8, Equals((1,)), 3000, mode)
    lo, hi = rep.value.decimal_bounds(6)
    print(f"density of index 1 for <8>, {mode:<9} degrees: [{lo}, {hi}]")
