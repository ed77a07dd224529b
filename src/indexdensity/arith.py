"""Integer arithmetic plumbing: sieves, primality, factorization.

Everything downstream (group parsing, degree computation, empirical scans)
funnels through these helpers, so they are deliberately boring: numpy for
bulk sieving, pure-integer Miller-Rabin and Brent-Pollard rho for the
occasional large cofactor. Factorization refuses rather than guess when
the work bound runs out.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import FactorizationError

TRIAL_BOUND = 10**6
RHO_WORK_BOUND = 10**6


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n, ascending.

    Cached, since a few bounds repeat a lot; bounded, since each entry
    holds a whole prime list.
    """
    if n < 2:
        return ()
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(int(p) for p in np.flatnonzero(sieve))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed base set)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, work_bound: int) -> int | None:
    # Brent's cycle variant. Returns a nontrivial factor or None if the
    # work budget is exhausted. n must be odd composite, not a prime power
    # caught earlier.
    if n % 2 == 0:
        return 2
    steps = 0
    for c in (1, 3, 5, 7, 11, 13):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps += min(128, r - k)
                if steps > work_bound:
                    return None
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def factorize(n: int, *, work_bound: int = RHO_WORK_BOUND) -> dict[int, int]:
    """Full prime factorization of n >= 1 as {prime: exponent}.

    Trial division up to TRIAL_BOUND, then Miller-Rabin plus Brent rho.
    Raises FactorizationError when a cofactor resists the work bound,
    rather than returning a partial answer.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    # wheel over 7, 11, 13, ... avoiding multiples of 2/3/5
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += incs[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if d * d > n or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _brent_rho(m, work_bound)
        if f is None or f in (1, m):
            raise FactorizationError(
                f"cofactor {m} not factored within work bound {work_bound}"
            )
        stack.extend((f, m // f))
    return out


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def euler_phi(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        out = -out
    return out


def moebius_sieve(n: int) -> np.ndarray:
    """mu(0..n) as an int8 array; mu[0] set to 0 by convention."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(math.isqrt(n)):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    # remaining prime factor > sqrt(n) flips sign once for numbers whose
    # sieved part left a cofactor; recover it by tracking magnitudes
    residue = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(n)):
        q = p
        while q <= n:
            residue[q::q] //= p
            q *= p
    mu[1:][residue[1:] > 1] *= -1
    return mu


def squarefree_kernel(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1)."""
    out = 1
    for p in factorize(abs(n)):
        out *= p
    return out


def is_kfree(n: int, k: int) -> bool:
    """True when no prime appears in n with exponent >= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n == 1:
        return True
    if k == 1:
        return n == 1
    return all(e < k for e in factorize(n).values())
