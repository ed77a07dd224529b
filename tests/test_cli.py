"""End-to-end runs of the command-line harness with temp configs."""

import json
import math
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from indexdensity import cli, empirical
from indexdensity.cli import main
from indexdensity.empirical import wilson_interval
from indexdensity.exact import PRECISION_BITS
from indexdensity.groups import GroupFamily
from test_acceptance import ARTIN


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_density_decimals_show_every_certified_digit(tmp_path, capsys):
    cfg = _write_config(tmp_path, "eq1.json", {"groups": [["2"]], "set": EQ1})
    code, payload, _ = _run(capsys, "density", "--config", cfg)
    assert code == 0
    lo = payload["result"]["value"]["decimal_low"]
    hi = payload["result"]["value"]["decimal_high"]
    assert lo[:22] == hi[:22]  # "0." and 20 places
    assert Fraction(lo) <= ARTIN <= Fraction(hi)


def test_singleton_decimals_keep_twelve_places(tmp_path, capsys):
    # the singleton interval leaves out the primes past the bound, so a
    # narrow width must not be printed as certified digits of the density
    cfg = _write_config(
        tmp_path,
        "primes.json",
        {
            "groups": [["2"]],
            "set": {"kind": "primes"},
            "method": "singletons",
            "bound": 100,
            "cutoff": 2000,
        },
    )
    code, payload, _ = _run(capsys, "density", "--config", cfg)
    assert code == 0
    value = payload["result"]["value"]
    assert payload["result"]["method"] == "singleton-sum"
    assert Fraction(value["high"]) - Fraction(value["low"]) < Fraction(1, 10**30)
    assert len(value["decimal_low"]) == len(value["decimal_high"]) == 14


def test_density_series_vs_euler_payloads(tmp_path, capsys):
    base = {"groups": [["2"]], "cutoff": 2000}
    cfg_e = _write_config(
        tmp_path,
        "euler.json",
        base | {"set": {"kind": "kfree", "k": 2}, "method": "euler"},
    )
    code, euler, _ = _run(capsys, "density", "--config", cfg_e)
    assert code == 0
    assert euler["result"]["method"] == "euler-product"

    cfg_s = _write_config(
        tmp_path,
        "series.json",
        {
            "groups": [["2"]],
            "method": "series",
            "level_map": {"kind": "power", "k": 2},
            "truncation": 2000,
        },
    )
    code, series, _ = _run(capsys, "density", "--config", cfg_s)
    assert code == 0
    assert series["result"]["method"] == "series"

    def bounds(p):
        num = lambda s: int(s.split("/")[0]) / int(s.split("/")[1])
        return num(p["result"]["value"]["low"]), num(p["result"]["value"]["high"])

    e_lo, e_hi = bounds(euler)
    s_lo, s_hi = bounds(series)
    assert e_lo <= s_hi and s_lo <= e_hi


def test_generic_series_at_default_truncation_is_rounded(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "series.json",
        {"groups": [["2"]], "method": "series", "mode": "generic"},
    )
    code, payload, _ = _run(capsys, "density", "--config", cfg)
    assert code == 0
    value = payload["result"]["value"]
    low = Fraction(value["low"])
    high = Fraction(value["high"])
    assert (1 << 128) % low.denominator == 0
    assert (1 << 128) % high.denominator == 0
    assert low <= ARTIN <= high


def test_series_defaults_to_exact_degrees(tmp_path, capsys):
    # sqrt 5 lies in Q(zeta_5): generic degrees give about 0.3738 for <5>
    # at the default truncation, which misses Hooley's 20A/19 = 0.393638
    cfg = _write_config(tmp_path, "five.json", {"groups": [["5"]], "method": "series"})
    code, payload, _ = _run(capsys, "density", "--config", cfg)
    assert code == 0
    value = payload["result"]["value"]
    assert Fraction(value["low"]) <= ARTIN * Fraction(20, 19) <= Fraction(value["high"])
    assert "mode=corrected" in payload["result"]["notes"]


@pytest.mark.parametrize(
    "extra",
    [
        {"set": {"kind": "equals", "tuple": [1]}, "method": "euler"},
        {"method": "series", "mode": "corrected", "truncation": 3000},
        # at this bound the exact sum of the m_h has a denominator of more
        # than 4,300 digits, which cannot be printed
        {"set": {"kind": "primes"}, "method": "singletons", "bound": 10**4},
    ],
    ids=["euler", "series", "singletons"],
)
def test_every_route_emits_endpoints_on_the_grid(tmp_path, capsys, extra):
    cfg = _write_config(tmp_path, "route.json", {"groups": [["2"]], **extra})
    code, payload, _ = _run(capsys, "density", "--config", cfg)
    assert code == 0
    value = payload["result"]["value"]
    for end in ("low", "high"):
        assert (1 << PRECISION_BITS) % Fraction(value[end]).denominator == 0


EQ1 = {"kind": "equals", "tuple": [1]}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("degree", {"modulus": 8, "levels": [0]}),
        ("artin-oracle", {"ell": 4, "v": [1]}),
        ("degree", {"deficiency": {"ell": 4, "e": [1]}}),
        ("density", {"set": {"kind": "equals", "tuple": 5}}),
        ("density", {"set": EQ1, "cutoff": None}),
        ("density", {"groups": [[{}]], "set": EQ1}),
        ("density", {"set": {"kind": "valuations", "map": {"default": {"bounds": 5}}}}),
        ("density", {"set": EQ1, "congruence": {"modulus": 4, "residues": 3}}),
        (
            "density",
            {"method": "series", "level_map": {"kind": "prime-powers", "table": [1]}},
        ),
        ("density", {"set": EQ1, "mode": "weird"}),
    ],
)
def test_hostile_degree_and_oracle_configs_exit_2(tmp_path, capsys, command, extra):
    cfg = _write_config(tmp_path, "hostile.json", {"groups": [["2"]], **extra})
    code, payload, err = _run(capsys, command, "--config", cfg)
    assert code == 2
    assert payload is None
    assert err.startswith("config error:")


def test_each_command_has_flags_only_for_its_keys(capsys):
    parser = cli._build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert set(commands) == set(cli._COMMANDS)
    for name, sub in commands.items():
        dests = {a.dest for a in sub._actions} - {"help"}
        assert dests <= cli._COMMANDS[name][1] | {"config", "output"}, name
    # a flag for a key the command does not read is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--mode", "corrected"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "bad.json",
        {"groups": [["2"]], "set": {"kind": "primes"}, "sieve_bound": 100},
    )
    code, payload, err = _run(capsys, "density", "--config", cfg)
    assert code == 2
    assert payload is None
    assert "sieve_bound" in err


def test_keys_the_command_does_not_read_exit_2(tmp_path, capsys):
    out = tmp_path / "never.json"
    cfg = _write_config(
        tmp_path,
        "survey_extra.json",
        {
            "groups": [["2"]],
            "set": {"kind": "equals", "tuple": [1]},
            "sieve_bound": 1000,
            "output": str(out),
            "threads": 4,
            "seed": 1,
            "mode": "corrected",
            "cache_dir": str(tmp_path / "cache"),
        },
    )
    code, payload, err = _run(capsys, "survey", "--config", cfg)
    assert code == 2
    assert payload is None
    assert "cache_dir, mode, seed, threads" in err
    assert not out.exists()


def test_bad_output_path_exits_2(tmp_path, capsys):
    base = {
        "groups": [["2"]],
        "set": {"kind": "equals", "tuple": [1]},
        "sieve_bound": 100,
    }
    for output in (5, str(tmp_path / "missing" / "out.json")):
        cfg = _write_config(tmp_path, "out.json", base | {"output": output})
        code, _, err = _run(capsys, "survey", "--config", cfg)
        assert code == 2
        assert "config error" in err


def test_unusable_log_path_exits_2(tmp_path, capsys):
    base = {"groups": [["2"]], "set": {"kind": "equals", "tuple": [1]}}
    # a log in a missing directory, and a log path that names a directory
    for log_path in (tmp_path / "missing" / "scan.log", tmp_path):
        for command, extra in (("survey", {}), ("compare", {"cutoff": 2000})):
            keys = base | extra | {"sieve_bound": 2000, "log_path": str(log_path)}
            cfg = _write_config(tmp_path, "log.json", keys)
            code, payload, err = _run(capsys, command, "--config", cfg)
            assert code == 2, (command, log_path)
            assert payload is None
            assert err.startswith("config error: cannot use the observation log")
            assert "Traceback" not in err


def test_malformed_log_row_exits_2(tmp_path, capsys, monkeypatch):
    # small blocks put the bad rows in the log's fourth block
    monkeypatch.setattr(empirical, "BLOCK", 100)
    log_path = tmp_path / "scan.log"
    fingerprint = GroupFamily.from_strings(["2"]).fingerprint
    cfg = _write_config(
        tmp_path,
        "log.json",
        {
            "groups": [["2"]],
            "set": {"kind": "equals", "tuple": [1]},
            "sieve_bound": 3000,
            "log_path": str(log_path),
        },
    )
    for tail, message in (
        (b"\x01\x02\x03", "ends in a partial row"),  # a scan stopped mid-write
        (np.array([3001, 7], "<i4").tobytes(), "does not divide p - 1"),
    ):
        log_path.unlink(missing_ok=True)
        assert _run(capsys, "survey", "--config", cfg)[0] == 0
        with open(log_path, "ab") as fh:
            fh.write(tail)
        code, payload, err = _run(capsys, "survey", "--config", cfg)
        assert (code, payload) == (2, None)
        assert message in err
        assert "Traceback" not in err
    # a text log written before the rows were binary
    log_path.write_text(f"#indexscan\t{fingerprint}\t2\n3 1\n5 1\n")
    code, payload, err = _run(capsys, "survey", "--config", cfg)
    assert (code, payload) == (2, None)
    assert "is not an observation log" in err
    assert "Traceback" not in err


def test_malformed_set_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "bad_set.json",
        {"groups": [["2"]], "set": {"kind": "equals", "tuple": [0]}},
    )
    code, _, err = _run(capsys, "density", "--config", cfg)
    assert code == 2
    assert "config error" in err


def test_refused_scope_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "refuse.json",
        {
            "groups": [["2"]],
            "set": {"kind": "predicate", "name": "even-omega"},
            "cutoff": 200,
        },
    )
    code, _, err = _run(capsys, "density", "--config", cfg)
    assert code == 3
    assert "refused" in err


def test_compare_consistent_and_inconsistent(tmp_path, capsys):
    good = _write_config(
        tmp_path,
        "good.json",
        {
            "groups": [["2"]],
            "set": {"kind": "equals", "tuple": [1]},
            "cutoff": 2000,
            "sieve_bound": 20000,
        },
    )
    code, payload, _ = _run(capsys, "compare", "--config", good)
    assert code == 0
    assert payload["result"]["verdict"] == "consistent"

    # the generic series thinks 4 is index 1 about 37% of the time; the
    # sieve knows better, since 4 is a square
    bad = _write_config(
        tmp_path,
        "bad.json",
        {
            "groups": [["4"]],
            "set": {"kind": "equals", "tuple": [1]},
            "method": "series",
            "mode": "generic",
            "truncation": 2000,
            "sieve_bound": 20000,
        },
    )
    code, payload, _ = _run(capsys, "compare", "--config", bad)
    assert code == 4
    assert payload["result"]["verdict"] == "inconsistent"


def test_compare_states_its_resolution(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "resolution.json",
        {"groups": [["2"]], "set": EQ1, "cutoff": 2000, "sieve_bound": 20000},
    )
    code, payload, _ = _run(capsys, "compare", "--config", cfg)
    result = payload["result"]
    assert (code, result["verdict"]) == (0, "consistent")
    # 840 of the 2261 odd primes below 20000 have 2 as a primitive root
    assert (result["empirical"]["hits"], result["empirical"]["total"]) == (840, 2261)
    p_hat, (w_low, w_high) = 840 / 2261, wilson_interval(840, 2261)
    sigma = math.sqrt(p_hat * (1 - p_hat) / 2261)
    assert result["sigma"] == pytest.approx(sigma, rel=1e-12)
    assert result["resolution"] == pytest.approx((w_high - w_low) / 2, rel=1e-12)
    low = float(Fraction(result["analytic"]["value"]["low"]))
    assert p_hat < low  # 840/2261 = 0.3715... lies below A = 0.3739...
    assert result["z"] == pytest.approx((low - p_hat) / sigma, rel=1e-9)
    assert 0.2 < result["z"] < 0.3
    assert result["z"] * sigma < result["resolution"]

    # 4 is a square: no prime has index 1, so sigma is 0, and so is the gap
    square = {"groups": [["4"]], "set": EQ1, "cutoff": 2000, "sieve_bound": 20000}
    cfg = _write_config(tmp_path, "square.json", square)
    code, payload, _ = _run(capsys, "compare", "--config", cfg)
    result = payload["result"]
    assert (result["verdict"], result["sigma"], result["z"]) == ("consistent", 0.0, 0.0)

    # the generic series on <4> claims about A for index one, and no prime
    # is a hit: sigma is 0, so z is measured at the nearest analytic endpoint
    generic = {
        "groups": [["4"]],
        "set": EQ1,
        "method": "series",
        "mode": "generic",
        "truncation": 2000,
        "sieve_bound": 20000,
    }
    cfg = _write_config(tmp_path, "generic.json", generic)
    code, payload, _ = _run(capsys, "compare", "--config", cfg)
    result = payload["result"]
    assert (code, result["verdict"], result["sigma"]) == (4, "inconsistent", 0.0)
    assert (result["empirical"]["hits"], result["empirical"]["total"]) == (0, 2261)
    low = float(Fraction(result["analytic"]["value"]["low"]))
    assert result["z"] == pytest.approx(low / math.sqrt(low * (1 - low) / 2261))
    assert 30 < result["z"] < math.inf


def test_series_compare_surveys_the_set_of_its_level_map(tmp_path, capsys):
    # f(n) = 2n gives the density of index exactly 2 and f(n) = n^2 that of
    # a squarefree index; the survey counts the same set
    base = {"groups": [["2"]], "method": "series", "truncation": 2000}
    for level_map, index_set in (
        ({"kind": "times", "t": 2}, None),
        ({"kind": "power", "k": 2}, {"kind": "kfree", "k": 2}),
    ):
        extra = {"set": index_set} if index_set else {}
        cfg = _write_config(
            tmp_path,
            "series.json",
            {**base, "level_map": level_map, "sieve_bound": 2 * 10**5, **extra},
        )
        code, payload, _ = _run(capsys, "compare", "--config", cfg)
        assert code == 0
        assert payload["result"]["verdict"] == "consistent"
    assert payload["result"]["empirical"]["set"] == "kfree(2,)"

    # a 'set' other than the level map's, or a level map with no such set
    for extra in (
        {"level_map": {"kind": "times", "t": 2}, "set": EQ1},
        {"level_map": {"kind": "times-local", "t": 2}},
        {"level_map": {"kind": "prime-powers", "table": {"2": 2}}},
    ):
        cfg = _write_config(tmp_path, "mismatch.json", {**base, **extra})
        code, payload, err = _run(capsys, "compare", "--config", cfg)
        assert code == 2
        assert payload is None and "config error" in err


@pytest.mark.parametrize("method", ["euler", "singletons"])
def test_generic_mode_outside_the_series_exits_2(tmp_path, capsys, method):
    cfg = _write_config(
        tmp_path,
        "generic.json",
        {
            "groups": [["4"]],
            "set": {"kind": "equals", "tuple": [1]},
            "method": method,
            "mode": "generic",
        },
    )
    for argv in (("density",), ("compare", "--sieve-bound", "20000")):
        code, payload, err = _run(capsys, *argv, "--config", cfg)
        assert code == 2
        assert payload is None
        assert "series method" in err


def _squarefree_part(g):
    """d and its primes, for g = d * m^2 with d squarefree (sign kept)."""
    d, m, primes, p = (1 if g > 0 else -1), abs(g), [], 2
    while m > 1:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            d *= p
            primes.append(p)
        p += 1
    return d, primes


def _is_rational_power(g):
    """Whether g = b^h for an integer b and some h >= 2."""
    m = abs(g)
    for h in range(2, m.bit_length() + 1):
        b = round(m ** (1 / h))
        if any(c**h == m for c in (b - 1, b, b + 1)) and (g > 0 or h % 2):
            return True
    return False


HOOLEY_GRID = [
    g
    for g in range(-60, 61)
    if abs(g) > 1
    and not _is_rational_power(g)
    and not (g < 0 and _squarefree_part(g)[0] == -1)
]


def _hooley_factor(g) -> Fraction:
    """Hooley (1967): dens(index 1 for <g>) / A, for g not a power or -k^2."""
    d, primes = _squarefree_part(g)
    if d % 4 != 1:
        return Fraction(1)
    mu = (-1) ** len(primes)
    return 1 - Fraction(mu, prod(p * p - p - 1 for p in primes))


def test_default_density_is_hooleys_constant(tmp_path, capsys):
    # 50 positive and 50 negative generators; 5, -3, 13, -7 and 21 carry
    # the factors 20/19, 6/5, 156/155, 42/41 and 204/205
    assert len(HOOLEY_GRID) == 100
    assert sum(g > 0 for g in HOOLEY_GRID) == 50
    assert [_hooley_factor(g) for g in (5, -3, 13, -7, 21)] == [
        Fraction(20, 19),
        Fraction(6, 5),
        Fraction(156, 155),
        Fraction(42, 41),
        Fraction(204, 205),
    ]
    # the 37-digit A is truncated, so A lies in [ARTIN, ARTIN + 10^-37]
    for g in HOOLEY_GRID:
        cfg = _write_config(
            tmp_path, "hooley.json", {"groups": [[str(g)]], "set": EQ1}
        )
        code, payload, _ = _run(capsys, "density", "--config", cfg)
        assert code == 0, g
        low = Fraction(payload["result"]["value"]["low"])
        high = Fraction(payload["result"]["value"]["high"])
        factor = _hooley_factor(g)
        assert high - low < Fraction(1, 10**30), g
        assert low <= (ARTIN + Fraction(1, 10**37)) * factor, g
        assert ARTIN * factor <= high, g


@pytest.mark.parametrize(
    "groups, extra",
    [
        ([["5"]], {"set": EQ1, "sieve_bound": 10**6}),
        (
            [["2"], ["3"]],
            {
                "set": {"kind": "divides", "tuple": [12, 12]},
                "method": "singletons",
                "sieve_bound": 2 * 10**6,
            },
        ),
    ],
)
def test_default_compare_sees_the_entanglement(tmp_path, capsys, groups, extra):
    # sqrt(5) lies in Q(zeta_5) and sqrt(3) in Q(zeta_12): generic degrees
    # give A for <5> and 0.7414 for the divisors of 12, the sieve about
    # 20A/19 and 0.721
    cfg = _write_config(tmp_path, "default.json", {"groups": groups, **extra})
    code, payload, _ = _run(capsys, "compare", "--config", cfg)
    assert code == 0
    assert payload["result"]["verdict"] == "consistent"


@pytest.mark.parametrize(
    "groups, sieve_bound",
    [
        ([["2"], ["5"]], 2 * 10**6),
        ([["3"], ["5"]], 2 * 10**6),
        ([["2", "3"], ["5", "7"], ["11"]], 2 * 10**5),
        ([["2", "3"], ["5", "7"], ["11", "13"]], 2 * 10**5),
    ],
)
def test_corrected_compare_sees_entanglement(tmp_path, capsys, groups, sieve_bound):
    # sqrt 5 lies in Q(zeta_5): a per-prime correction gives 0.1473 for both
    # pairs, while about 0.1619 of the primes make both generators primitive
    cfg = _write_config(
        tmp_path,
        "entangled.json",
        {
            "groups": groups,
            "set": {"kind": "equals", "tuple": [1] * len(groups)},
            "mode": "corrected",
            "cutoff": 10**4,
            "sieve_bound": sieve_bound,
        },
    )
    code, payload, _ = _run(capsys, "compare", "--config", cfg)
    assert code == 0
    assert payload["result"]["verdict"] == "consistent"


def test_degree_command_generic_and_corrected(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "deg.json",
        {"groups": [["2"]], "modulus": 8, "levels": [8], "mode": "generic"},
    )
    code, payload, _ = _run(capsys, "degree", "--config", cfg)
    assert code == 0
    assert payload["result"]["degree"] == 32

    cfg2 = _write_config(
        tmp_path,
        "deg2.json",
        {
            "groups": [["2"]],
            "modulus": 8,
            "levels": [8],
            "mode": "corrected",
        },
    )
    code, payload, _ = _run(capsys, "degree", "--config", cfg2)
    assert code == 0
    assert payload["result"]["degree"] == 16


def test_artin_oracle_seeded_runs_are_identical(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "oracle.json",
        {
            "groups": [["2"], ["2"]],
            "ell": 3,
            "v": [1, 1],
            "method": "monte-carlo",
            "samples": 20000,
        },
    )
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    code, _, _ = _run(
        capsys, "artin-oracle", "--config", cfg, "--seed", "7", "--output", out1
    )
    assert code == 0
    code, _, _ = _run(
        capsys, "artin-oracle", "--config", cfg, "--seed", "7", "--output", out2
    )
    assert code == 0
    with open(out1, encoding="utf-8") as fh:
        text1 = fh.read()
    with open(out2, encoding="utf-8") as fh:
        text2 = fh.read()
    assert text1 == text2
    assert json.loads(text1)["result"]["agrees"] is True


def test_artin_oracle_exact_matches_closed_form(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "oracle_exact.json",
        {"groups": [["2"]], "ell": 5, "v": [1], "method": "exact"},
    )
    code, payload, _ = _run(capsys, "artin-oracle", "--config", cfg)
    assert code == 0
    assert payload["result"]["agrees"] is True
    assert payload["result"]["oracle"] == payload["result"]["target"]


def test_classify_command(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "cls.json", {"set": {"kind": "kfree", "k": 2}}
    )
    code, payload, _ = _run(capsys, "classify", "--config", cfg)
    assert code == 0
    assert payload["result"]["kind"] == "cut"
    assert payload["result"]["listed_primes"] == []

    cfg2 = _write_config(
        tmp_path,
        "cls2.json",
        {"set": {"kind": "equals", "tuple": [4]}},
    )
    code, payload, _ = _run(capsys, "classify", "--config", cfg2)
    assert code == 0
    assert payload["result"]["kind"] == "almost-cut"
    assert payload["result"]["witness"] is not None


def test_survey_output_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "survey.json")
    cfg = _write_config(
        tmp_path,
        "survey.json",
        {
            "groups": [["6"]],
            "set": {"kind": "divides", "tuple": [4]},
            "sieve_bound": 2000,
        },
    )
    code, payload, _ = _run(capsys, "survey", "--config", cfg, "--output", out)
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == payload
    assert on_disk["result"]["skipped"] == 2
    assert on_disk["result"]["hits"] <= on_disk["result"]["total"]

    # the config file's own output key writes the same payload
    out2 = str(tmp_path / "from_config.json")
    cfg2 = _write_config(
        tmp_path,
        "survey_out.json",
        {
            "groups": [["6"]],
            "set": {"kind": "divides", "tuple": [4]},
            "sieve_bound": 2000,
            "output": out2,
        },
    )
    code, payload2, _ = _run(capsys, "survey", "--config", cfg2)
    assert code == 0
    with open(out2, encoding="utf-8") as fh:
        assert json.load(fh) == payload2 == payload


def test_bundled_examples_smoke(tmp_path, capsys):
    code, payload, _ = _run(capsys, "paper-examples", "--sieve-bound", "20000")
    assert code == 0
    rows = payload["result"]["rows"]
    assert len(rows) == 6
    for row in rows:
        assert row["agrees"] is True, row["example"]
