"""Sieve scans, observation logs, and the frequency/distribution reports."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from indexdensity import empirical
from indexdensity.empirical import (
    SIEVE_CAP,
    Congruence,
    FrequencyReport,
    SieveRange,
    distribution,
    index_tuple,
    observations,
    skipped_in,
    survey,
    survey_many,
    wilson_interval,
)
from indexdensity.arith import is_prime, primes_up_to, valuation
from indexdensity.errors import ConfigError
from indexdensity.groups import GroupFamily
from indexdensity.index_sets import Divides, Equals, KFree, PrimesSet
from oracles import trial_factors

FAM2 = GroupFamily.from_strings(["2"])
FAM3 = GroupFamily.from_strings(["3"])
FAM23 = GroupFamily.from_strings(["2", "3"])
FAM6 = GroupFamily.from_strings(["6"])


def _residue(g, p):
    """g mod an odd prime p outside its support, by pow on each factor."""
    out = 1 if g.sign > 0 else p - 1
    for q, e in g.exponents:
        out = out * pow(q, e % (p - 1), p) % p
    return out


def _subgroup_size(p, residues):
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for r in residues:
            y = x * r % p
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def _psi(p, family):
    """index_tuple's row for the one prime p, as a tuple."""
    batch = np.array([p])
    return tuple(index_tuple(batch, family, trial_factors(batch - 1))[0].tolist())


@pytest.mark.parametrize("shape", [(96,), (1, 96), (2, 96)])
def test_powmod_matches_pow(shape):
    # the longest exponent's bit length runs 0..31, so the last digit is a
    # lone bit (odd lengths) or two bits (even); the arrays shrink as slots do
    rng = np.random.default_rng(sum(shape))
    mod = rng.choice([3, 5, 2147483579, 2147483587, 2147483629, SIEVE_CAP], 96)
    base = rng.integers(0, mod, shape)
    for top in range(32):
        edges = [e for k in range(top + 1) for e in (2**k - 1, 2**k) if e < 2**top]
        lengths = rng.integers(0, top + 1, 96)
        drawn = rng.integers(2**lengths >> 1, 2**lengths)  # exactly that many bits
        x = np.concatenate([edges, drawn])[:96]
        assert int(x.max()).bit_length() == top
        exps = [x] + [rng.permutation(x)[:n] for n in (72, 48, 24)[: 2 + top % 2]]
        outs = empirical._powmod(base, exps, mod)
        for x, out in zip(exps, outs):
            assert out.shape == base[..., : x.size].shape
            for b, y in zip(base.reshape(-1, 96), out.reshape(-1, x.size)):
                want = [pow(int(c), int(e), int(m)) for c, e, m in zip(b, x, mod)]
                assert y.tolist() == want


def test_index_tuple_worked_examples():
    assert _psi(7, FAM2) == (2,)
    assert _psi(11, FAM2) == (1,)
    assert _psi(11, FAM23) == (1,)
    assert _psi(13, GroupFamily.from_strings(["-3"])) == (2,)
    assert _psi(7, GroupFamily.from_strings(["-2"])) == (1,)
    # support primes have no well-defined reduction
    with pytest.raises(ValueError):
        _psi(2, FAM2)
    with pytest.raises(ValueError):
        _psi(3, FAM6)


def test_index_tuple_inverse_generator_is_equivalent():
    half = GroupFamily.from_strings(["1/2"])
    for p in (3, 5, 7, 11, 13, 97, 101, 193):
        assert _psi(p, half) == _psi(p, FAM2), p


def test_index_tuple_against_subgroup_enumeration():
    fams = [FAM2, FAM23, GroupFamily.from_strings(["2"], ["3"])]
    for p in primes_up_to(400):
        for fam in fams:
            if p in fam.support:
                continue
            got = _psi(p, fam)
            for group, idx in zip(fam.groups, got):
                residues = [_residue(g, p) for g in group.generators]
                assert idx == (p - 1) // _subgroup_size(p, residues), (p, fam)


def _factor(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.cache
def _divisors(n):
    divs = [1]
    for q, e in _factor(n).items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _oracle_psi(p, gen_lists):
    """The index tuple from orders found by pow over the divisors of p - 1."""
    divs = _divisors(p - 1)
    psi = []
    for gens in gen_lists:
        joint = 1
        for g in gens:
            value = Fraction(g)
            r = value.numerator * pow(value.denominator, -1, p) % p
            joint = math.lcm(joint, next(d for d in divs if pow(r, d, p) == 1))
        psi.append((p - 1) // joint)
    return tuple(psi)


ORACLE_FAMILIES = [
    (["-2"],),
    (["1/2"],),
    (["4"],),
    (["2", "3"],),
    (["-3/10", "7"], ["2/9"]),
    (["2"], ["2"]),
]


@pytest.mark.parametrize("gen_lists", ORACLE_FAMILIES, ids=str)
def test_scan_matches_the_pow_oracle(gen_lists, monkeypatch):
    # a small block makes the scan cross many block boundaries
    monkeypatch.setattr(empirical, "BLOCK", 4096)
    family = GroupFamily.from_strings(*gen_lists)
    got = {obs.p: obs.psi for obs in observations(family, SieveRange.up_to(200000))}
    primes = [p for p in primes_up_to(200000) if p not in family.support]
    assert len(primes) > 4 * 4096
    assert list(got) == primes
    for p in primes:
        assert got[p] == _oracle_psi(p, gen_lists), p


def _assert_scan_is_exact(rows, gen_lists, srange):
    """rows (p, Psi(p)) hold every prime of the range outside the support, each
    with the oracle's index tuple and index_tuple's own."""
    family = GroupFamily.from_strings(*gen_lists)
    primes = [p for p in primes_up_to(srange.high) if p >= srange.low]
    primes = [p for p in primes if p not in family.support]
    assert [p for p, _ in rows] == primes
    primes = np.array(primes, dtype=np.int64)
    batch = index_tuple(primes, family, trial_factors(primes - 1)).tolist()
    for (p, psi), row in zip(rows, batch):
        assert psi == tuple(row) == _oracle_psi(p, gen_lists), p


# (window, range, generators): a range from 30, where sieving primes up to
# the square root lie inside the range, and one from 12345, where every
# sieve and stride starts at an arbitrary offset; support primes that end a
# window (4093 in [2, 4094)) and start one (4099 in [4099, 8196));
# p = 2 and 3 in the first window; and windows of 3 and 2 integers: [2, 5)
# holds p = 2 alone once the support prime 3 is skipped, windows of 3 start
# on an even and an odd lo by turns, and [300, 301) holds no odd integer
WINDOW_CASES = [
    (3000, (30, 20000), (["2", "3"],)),
    (3000, (12345, 40000), (["-3/10", "7"], ["2/9"])),
    (4092, (2, 20000), (["4093"], ["-2"])),
    (4097, (2, 20000), (["4099/7"],)),
    (2500, (2, 12000), (["5"], ["-7"])),
    (3, (2, 400), (["3"],)),
    (2, (2, 300), (["-3/10", "7"], ["2/9"])),
]


@pytest.mark.parametrize("window, bounds, gen_lists", WINDOW_CASES, ids=str)
def test_scan_is_exact_across_window_edges(window, bounds, gen_lists, monkeypatch):
    monkeypatch.setattr(empirical, "_WINDOW", window)
    monkeypatch.setattr(empirical, "BLOCK", 1000)
    family, srange = GroupFamily.from_strings(*gen_lists), SieveRange(*bounds)
    assert srange.high - srange.low > 3 * window
    rows = [(obs.p, obs.psi) for obs in observations(family, srange)]
    _assert_scan_is_exact(rows, gen_lists, srange)


def test_log_extended_from_inside_a_window(tmp_path, monkeypatch):
    # the log stops at 5000, inside the second window [3002, 6002); the
    # extension sieves from there alone
    monkeypatch.setattr(empirical, "_WINDOW", 3000)
    monkeypatch.setattr(empirical, "BLOCK", 1000)
    gen_lists, path = (["2"], ["-3/10", "7"]), str(tmp_path / "scan.log")
    family = GroupFamily.from_strings(*gen_lists)
    assert sum(1 for _ in observations(family, SieveRange.up_to(5000), log_path=path))
    srange = SieveRange.up_to(30000)
    rows = [(obs.p, obs.psi) for obs in observations(family, srange, log_path=path)]
    _assert_scan_is_exact(rows, gen_lists, srange)
    logged = [tuple(row) for row in _log_rows(path, 3)[1].tolist()]
    assert logged == [(p, *psi) for p, psi in rows]


def _log_rows(path, width):
    """The log's header line, then its body as int32 rows of width entries."""
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        return header, np.fromfile(fh, "<i4").reshape(-1, width)


def _survey_peak(bound):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        survey(FAM2, SieveRange.up_to(bound), Equals((1,)))
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_survey_memory_does_not_grow_with_the_range():
    # the scan holds a window and a block, both of a fixed size, so its peak
    # is a few MiB at any bound: 4.00 MiB at 10^7 with blocks of 2^14 primes
    # and windows of 2^17 integers, 8.49 MiB with blocks of 2^16 and windows
    # of 2^18
    small, large = _survey_peak(10**6), _survey_peak(10**7)
    assert large <= 5 * 2**20
    assert large <= small + 2 * 2**20


def test_counts_match_independent_prime_counts():
    # hits frozen from orders computed with sympy, independently of this package
    pair = GroupFamily.from_strings(["2"], ["3"])
    both = survey(pair, SieveRange.up_to(2 * 10**6), Equals((1, 1)))
    assert (both.hits, both.total) == (21886, 148931)
    kfree = survey(FAM2, SieveRange.up_to(3 * 10**6), KFree((2,)))
    assert (kfree.hits, kfree.total) == (185741, 216815)


@functools.cache
def _primes_below_the_cap():
    return [p for p in range(SIEVE_CAP - 2000, SIEVE_CAP + 1) if is_prime(p)]


@pytest.mark.parametrize("gen_lists", ORACLE_FAMILIES, ids=str)
def test_index_map_stays_exact_at_the_sieve_cap(gen_lists):
    family = GroupFamily.from_strings(*gen_lists)
    primes = _primes_below_the_cap()
    assert len(primes) == 87 and primes[-1] == SIEVE_CAP == 2**31 - 1
    batch = np.array(primes, dtype=np.int64)
    batch = index_tuple(batch, family, trial_factors(batch - 1))
    assert batch.shape == (87, len(gen_lists))
    for p, row in zip(primes, batch.tolist()):
        assert tuple(row) == _psi(p, family) == _oracle_psi(p, gen_lists), p


def test_scan_below_the_sieve_cap_matches_the_index_map():
    # the windows' sieve and factors of p - 1 against trial division
    srange = SieveRange(SIEVE_CAP - 2 * 10**5, SIEVE_CAP)
    family = GroupFamily.from_strings(["2"], ["-3/10", "7"])
    blocks = list(empirical._scan(family, srange, None))
    primes = np.concatenate([p for p, _ in blocks])
    assert primes.size == 9316 and primes[-1] == SIEVE_CAP
    psi = index_tuple(primes, family, trial_factors(primes - 1))
    assert (np.concatenate([psi for _, psi in blocks]) == psi).all()


def test_index_map_reduces_generators_beyond_int64():
    # 777777777777777777777787 is a prime above 2^79
    big = "777777777777777777777787"
    gen_lists = ([f"{big}/3"], ["-2", big])
    family = GroupFamily.from_strings(*gen_lists)
    primes = [p for p in primes_up_to(3000) if p > 3] + _primes_below_the_cap()
    batch = np.array(primes, dtype=np.int64)
    batch = index_tuple(batch, family, trial_factors(batch - 1))
    for p, row in zip(primes, batch.tolist()):
        assert tuple(row) == _oracle_psi(p, gen_lists), p


# p = 2 has omega(p - 1) = 0, the Fermat primes have p - 1 a power of 2,
# 13123111, 14804791 and 16546531 are the first primes with eight distinct
# primes in p - 1, and the last four have v_2(p - 1) = 23, 25, 26 and 27, so
# the squaring lifts of the 2-part climb 22 to 26 levels
EXTREME_PRIMES = [2, 3, 5, 17, 257, 65537, 13123111, 14804791, 16546531]
EXTREME_PRIMES += [998244353, 167772161, 469762049, 2013265921]
EXTREME_FAMILIES = [
    (["2"],),
    (["4096"],),
    (["-1", "2"],),
    (["2", "3"], ["5"]),
    (["-3"], ["7/5"]),  # keeps p = 2 in the batch
]


@pytest.mark.parametrize("gen_lists", EXTREME_FAMILIES, ids=str)
def test_index_map_at_extreme_factorisations(gen_lists):
    family = GroupFamily.from_strings(*gen_lists)
    primes = [p for p in EXTREME_PRIMES if p not in family.support]
    batch = np.array(primes, dtype=np.int64)
    batch = index_tuple(batch, family, trial_factors(batch - 1))
    for p, row in zip(primes, batch.tolist()):
        assert tuple(row) == _psi(p, family) == _oracle_psi(p, gen_lists), p


def test_index_map_at_65537():
    assert _psi(65537, FAM2) == (2048,)
    assert _psi(65537, GroupFamily.from_strings(["4096"])) == (8192,)


def test_index_map_temporaries_stay_small():
    # 8 MiB: the 7.95 MiB that the order-descent kernel needed here, rounded up
    low = 10**7 - (1 << 21)  # the last 2^16 primes below 10^7 lie above this
    small = primes_up_to(math.isqrt(10**7))
    primes, *factors = empirical._window(low, 10**7, small, [])
    k = primes.size - (1 << 16)
    primes, factors = primes[k:], empirical._split(factors, k)[1]
    assert primes.size == 1 << 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        index_tuple(primes, FAM2, factors)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_index_map_refuses_primes_above_the_cap():
    # each batch is refused before its factors are read: those of 4 and 6 stand in
    factors = trial_factors(np.array([4, 6]))
    for batch in ([SIEVE_CAP + 7], [2**70], [5, SIEVE_CAP + 7]):
        with pytest.raises(ValueError):
            index_tuple(np.array(batch), FAM2, factors)
    with pytest.raises(ValueError):  # a batch holds no support primes
        index_tuple(np.array([2, 5]), FAM2, factors)


def test_observations_respect_range_and_divisibility():
    count = 0
    for obs in observations(FAM2, SieveRange(10, 2000)):
        count += 1
        assert 10 <= obs.p <= 2000
        assert len(obs.psi) == 1
        assert (obs.p - 1) % obs.psi[0] == 0
    assert count == sum(1 for _ in observations(FAM2, SieveRange(10, 2000)))
    assert count > 250


def test_skip_counting():
    assert skipped_in(FAM6, SieveRange.up_to(100)) == 2
    assert skipped_in(FAM2, SieveRange(3, 100)) == 0
    rep = survey(FAM6, SieveRange.up_to(100), Equals((1,)))
    assert rep.skipped == 2


def test_survey_loose_artin_frequency():
    rep = survey(FAM2, SieveRange.up_to(30000), Equals((1,)))
    lo, hi = rep.wilson
    assert lo < 0.374 < hi
    assert rep.label == Equals((1,)).label()


def test_survey_many_matches_individual_surveys():
    sets = [Equals((1,)), KFree((2,)), PrimesSet()]
    srange = SieveRange.up_to(4000)
    batch = survey_many(FAM2, srange, sets)
    for rep, s in zip(batch, sets):
        assert rep == survey(FAM2, srange, s)
    assert len({rep.total for rep in batch}) == 1


def test_survey_refuses_a_set_of_another_arity(tmp_path):
    # read as they stand, a one-entry set would test only the first index
    # of (<2>, <3>), and a three-entry k-free set would count as two-entry
    fam23 = GroupFamily.from_strings(["2"], ["3"])
    srange = SieveRange.up_to(10**4)
    log_path = tmp_path / "scan.log"
    for sets in (
        [KFree((2,))],
        [Equals((1, 1)), KFree((2, 2, 2))],
        [Equals((1,))],
        [Divides((12,))],
        [PrimesSet()],
    ):
        with pytest.raises(ValueError, match="arity"):
            survey_many(fam23, srange, sets, log_path=str(log_path))
    with pytest.raises(ValueError, match="arity"):
        survey(FAM2, srange, Equals((1, 1)))
    assert not log_path.exists()  # refused before the scan


def test_congruence_validation_and_label():
    with pytest.raises(ValueError):
        Congruence(8, frozenset({2}))
    with pytest.raises(ValueError):
        Congruence(8, frozenset({9}))
    with pytest.raises(ValueError):
        Congruence(0, frozenset())
    assert Congruence.trivial().allows(7)
    assert "mod 8" in Congruence(8, frozenset({1})).label()


def test_congruence_kills_primitive_root_hits():
    # p = 1 mod 8 makes 2 a square mod p, so its index is always even
    cong = Congruence(8, frozenset({1}))
    rep = survey(FAM2, SieveRange.up_to(5000), Equals((1,)), cong)
    assert rep.total > 100
    assert rep.hits == 0


def test_congruence_classes_partition_the_scan():
    srange = SieveRange.up_to(5000)
    whole = survey(FAM2, srange, Equals((1,)))
    parts = [
        survey(FAM2, srange, Equals((1,)), Congruence(8, frozenset({r})))
        for r in (1, 3, 5, 7)
    ]
    assert sum(rep.total for rep in parts) == whole.total
    assert sum(rep.hits for rep in parts) == whole.hits


TALLY_CASES = [
    (FAM2, [Equals((1,)), KFree((2,)), PrimesSet(), Divides((12,))]),
    (
        GroupFamily.from_strings(["2"], ["-3/10", "7"]),
        [Equals((1, 1)), KFree((2, 2)), Divides((12, 12))],
    ),
]


def _tally(family, srange, sets, congruence, ell, max_v):
    """Hits per set and valuation buckets, counted one observation at a time."""
    hits, buckets = [0] * len(sets), {}
    for obs in observations(family, srange):
        if obs.p % congruence.modulus not in congruence.residues:
            continue
        for j, s in enumerate(sets):
            hits[j] += s.contains(obs.psi)
        key = tuple(min(valuation(x, ell), max_v + 1) for x in obs.psi)
        buckets[key] = buckets.get(key, 0) + 1
    return hits, tuple(sorted(buckets.items()))


@pytest.mark.parametrize("family, sets", TALLY_CASES, ids=["<2>", "<2>,<-3/10,7>"])
def test_array_consumers_match_a_per_prime_tally(family, sets, tmp_path, monkeypatch):
    # blocks of 1000 primes: the log is written and extended in many blocks
    monkeypatch.setattr(empirical, "BLOCK", 1000)
    srange = SieveRange.up_to(40000)
    cong = Congruence(12, frozenset({1, 7, 11}))
    path = str(tmp_path / "scan.log")
    survey_many(family, SieveRange.up_to(15000), sets, cong, log_path=path)
    for log_path in (None, path):  # a fresh scan, then a replayed-and-extended log
        reports = survey_many(family, srange, sets, cong, log_path=log_path)
        for ell in (2, 3):
            hits, buckets = _tally(family, srange, sets, cong, ell, 2)
            assert [rep.hits for rep in reports] == hits
            assert {rep.total for rep in reports} == {sum(c for _, c in buckets)}
            dist = distribution(family, srange, ell, 2, cong, log_path=log_path)
            assert dist.buckets == buckets
    logged = _log_rows(path, len(family.groups) + 1)[1][:, 0].tolist()
    assert logged == [obs.p for obs in observations(family, srange)]


def test_wilson_interval_shape():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 100)
    assert lo < 1e-12 and 0 < hi < 0.06
    lo, hi = wilson_interval(100, 100)
    assert hi > 1 - 1e-12 and lo > 0.94
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(30, 100)[0] < wilson_interval(40, 100)[0]


def test_wilson_interval_is_exact_at_the_ends():
    # center - half and center + half are 0 and 1 only up to rounding: at
    # 148,932 trials the low end came out 1.7e-21 with no hit, and at 9,591
    # the high end 0.9999999999999999 with every trial a hit
    for n in (*range(1, 20001), 148932, 664578):
        assert wilson_interval(0, n)[0] == 0.0, n
        assert wilson_interval(n, n)[1] == 1.0, n
        assert 0.0 < wilson_interval(0, n)[1] and wilson_interval(n, n)[0] < 1.0, n


def test_frequency_report_validation():
    with pytest.raises(ValueError):
        FrequencyReport(5, 3, 0)
    rep = FrequencyReport(3, 12, 1, label="x")
    assert rep.estimate == 0.25
    assert rep.wilson == wilson_interval(3, 12)


def test_distribution_partition_and_clamp():
    rep = distribution(FAM2, SieveRange.up_to(500), 2, 0)
    assert set(k for k, _ in rep.buckets) <= {(0,), (1,)}
    assert rep.count((0,)) + rep.count((1,)) == rep.total
    assert rep.frequency((9,)) == 0
    total_freq = sum((rep.frequency(k) for k, _ in rep.buckets), Fraction(0))
    assert total_freq == 1
    with pytest.raises(ValueError):
        distribution(FAM2, SieveRange.up_to(100), 4, 1)


def test_distribution_tracks_generic_local_law():
    # density of v_3(index) = 1 for a generic rank-1 group is 4/27
    rep = distribution(FAM2, SieveRange.up_to(200000), 3, 2)
    assert abs(float(rep.frequency((1,))) - 4 / 27) < 0.02
    lo, hi = wilson_interval(rep.count((0,)), rep.total)
    assert lo < 5 / 6 < hi


def test_observation_log_replay_and_extension(tmp_path):
    path = str(tmp_path / "scan.log")
    first = survey(FAM2, SieveRange.up_to(3000), Equals((1,)), log_path=path)
    header, body = _log_rows(path, 2)
    assert header.startswith("#indexscan-i4\t")

    replay = survey(FAM2, SieveRange.up_to(3000), Equals((1,)), log_path=path)
    assert replay == first
    assert _log_rows(path, 2)[1].tolist() == body.tolist()

    extended = survey(FAM2, SieveRange.up_to(8000), Equals((1,)), log_path=path)
    fresh = survey(FAM2, SieveRange.up_to(8000), Equals((1,)))
    assert extended == fresh

    shrunk = survey(FAM2, SieveRange.up_to(1000), Equals((1,)), log_path=path)
    assert shrunk == survey(FAM2, SieveRange.up_to(1000), Equals((1,)))


@pytest.mark.parametrize(
    "low, rows, message",
    [
        (2, [[3, 1], [5, 1], [5, 1]], "do not strictly increase"),
        (2, [[5, 1], [3, 2]], "do not strictly increase"),
        (5, [[3, 1], [5, 1]], "below its start"),
        (2, [[3, 1], [5, 0]], "does not divide"),
        (2, [[3, 1], [7, 4]], "does not divide"),
    ],
)
def test_observation_log_refuses_rows_that_break_the_checks(
    low, rows, message, tmp_path, monkeypatch
):
    # blocks of two rows: the first case repeats a prime across blocks
    monkeypatch.setattr(empirical, "BLOCK", 2)
    path = tmp_path / "scan.log"
    path.write_bytes(
        f"#indexscan-i4\t{FAM2.fingerprint}\t{low}\n".encode()
        + np.array(rows, "<i4").tobytes()
    )
    with pytest.raises(ConfigError, match=message):
        survey(FAM2, SieveRange(low, 1000), Equals((1,)), log_path=str(path))


def test_observation_log_rejects_mismatches(tmp_path):
    path = str(tmp_path / "scan.log")
    survey(FAM2, SieveRange.up_to(1000), Equals((1,)), log_path=path)
    with pytest.raises(ConfigError):
        survey(FAM3, SieveRange.up_to(1000), Equals((1,)), log_path=path)
    with pytest.raises(ConfigError):
        survey(FAM2, SieveRange(5, 1000), Equals((1,)), log_path=path)
