"""End-to-end runs of the command-line harness with temp configs."""

import json
import math
import sys
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from indexdensity import cli, empirical
from indexdensity.cli import main
from indexdensity.density import valuation_density
from indexdensity.empirical import SieveRange, survey_many
from indexdensity.exact import PRECISION_BITS
from indexdensity.groups import GroupFamily
from indexdensity.index_sets import Divides, Equals, KFree
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
INF = float("inf")


@pytest.mark.parametrize(
    "command, extra",
    [
        ("degree", {"modulus": 8, "levels": [0]}),
        ("degree", {"modulus": 8, "levels": ["x"]}),
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
        ("density", {"groups": [["2/0"]], "set": EQ1}),
        ("density", {"groups": [[INF]], "set": EQ1}),
        # non-finite numbers in every kind of numeric key
        ("density", {"set": EQ1, "cutoff": INF}),
        ("density", {"set": EQ1, "cutoff": -INF}),
        ("density", {"set": EQ1, "cutoff": float("nan")}),
        ("density", {"method": "series", "truncation": INF}),
        ("density", {"set": EQ1, "method": "singletons", "bound": INF}),
        ("density", {"set": EQ1, "method": "singletons", "smooth": INF}),
        ("survey", {"set": EQ1, "sieve_bound": INF}),
        ("density", {"method": "series", "level_map": {"kind": "times", "t": INF}}),
        ("density", {"set": EQ1, "congruence": {"modulus": INF, "residues": [1]}}),
        ("density", {"set": {"kind": "equals", "tuple": [INF]}}),
        ("density", {"set": {"kind": "valuations", "map": {"at": {2: [[INF]]}}}}),
        (
            "density",
            {"set": {"kind": "valuations", "map": {"default": {"bounds": [INF]}}}},
        ),
        ("degree", {"modulus": INF, "levels": [1]}),
        ("degree", {"modulus": 8, "levels": [INF]}),
        # a density key the chosen method does not read
        ("density", {"set": EQ1, "truncation": "x"}),
        ("density", {"set": EQ1, "level_map": {"kind": "identity"}}),
        ("density", {"set": EQ1, "bound": 100}),
        ("density", {"set": EQ1, "smooth": 6}),
        ("density", {"method": "series", "set": EQ1}),
        ("density", {"method": "series", "cutoff": 100}),
        ("density", {"method": "series", "bound": 100}),
        ("density", {"method": "series", "smooth": 6}),
        ("density", {"set": EQ1, "method": "singletons", "truncation": 100}),
        ("compare", {"set": EQ1, "truncation": 100}),
        ("compare", {"method": "series", "cutoff": 100}),
        ("density", {"set": EQ1, "method": ["euler"]}),
        # config numbers read as integers are JSON integers: no fraction or
        # exponent part, no true or false, and no string where a list is read
        ("density", {"set": EQ1, "method": "singletons", "bound": 100.9}),
        ("density", {"set": EQ1, "cutoff": 100000.0}),
        ("density", {"set": EQ1, "cutoff": 1e300}),
        ("density", {"set": {"kind": "equals", "tuple": [1.5]}}),
        ("density", {"groups": [[0.1]], "set": EQ1}),
        ("degree", {"modulus": 8, "levels": [True]}),
        ("degree", {"modulus": True, "levels": [1]}),
        ("degree", {"groups": [["2"], ["3"]], "modulus": 12, "levels": "12"}),
        ("degree", {"modulus": 8, "levels": [8], "mode": "corrected"}),
        (
            "density",
            {"groups": [["2"], ["3"]], "set": {"kind": "equals", "tuple": "11"}},
        ),
        ("density", {"set": {"kind": "divides", "tuple": "6"}}),
        ("density", {"set": {"kind": "kfree", "k": True}}),
        ("density", {"set": {"kind": "kfree", "k": "2"}}),
        (
            "density",
            {"method": "singletons", "set": {"kind": "finite", "tuples": ["1"]}},
        ),
        ("density", {"method": "singletons", "set": {"kind": "finite", "tuples": "1"}}),
        ("density", {"set": EQ1, "congruence": {"modulus": 1, "residues": "0"}}),
        ("density", {"set": EQ1, "congruence": {"modulus": True, "residues": [0]}}),
        ("density", {"set": {"kind": "valuations", "map": {"at": {3: ["0"]}}}}),
        (
            "density",
            {"set": {"kind": "valuations", "map": {"default": {"bounds": [True]}}}},
        ),
        ("density", {"set": EQ1, "method": "singletons", "smooth": False}),
        ("density", {"method": "series", "level_map": {"kind": "times", "t": True}}),
        ("density", {"method": "series", "level_map": {"kind": "power", "k": 2.0}}),
        (
            "density",
            {
                "method": "series",
                "level_map": {"kind": "prime-powers", "table": {2: True}},
            },
        ),
        ("survey", {"set": EQ1, "sieve_bound": True}),
        # each set and level map kind refuses the keys it does not read
        ("density", {"set": {"kind": "equals", "tuple": [1], "k": 3}}),
        ("density", {"set": {"kind": "kfree", "k": 2, "tuple": [3]}}),
        ("density", {"set": {"kind": "primes", "name": "even-omega"}}),
        ("density", {"set": {"kind": ["equals"], "tuple": [1]}}),
        ("density", {"method": "series", "level_map": {"kind": "identity", "t": 5}}),
        (
            "density",
            {"method": "series", "level_map": {"kind": "times", "t": 2, "k": 9}},
        ),
        ("density", {"method": "series", "level_map": {"kind": {}}}),
        # a prime-powers key that is not prime, and a smoothness modulus of 0
        (
            "density",
            {"method": "series", "level_map": {"kind": "prime-powers", "table": {4: 2}}},
        ),
        (
            "density",
            {"method": "series", "level_map": {"kind": "prime-powers", "table": {1: 2}}},
        ),
        (
            "density",
            {
                "method": "series",
                "level_map": {"kind": "prime-powers", "table": {-2: 2}},
            },
        ),
        ("density", {"set": EQ1, "method": "singletons", "smooth": 0}),
        ("density", {"set": EQ1, "method": "singletons", "smooth": 1}),
        # an index set whose arity is not the family's
        ("survey", {"groups": [["2"], ["3"]], "set": {"kind": "kfree", "k": [2]}}),
        (
            "survey",
            {"groups": [["2"], ["3"]], "set": {"kind": "kfree", "k": [2, 2, 2]}},
        ),
        ("survey", {"groups": [["2"], ["3"]], "set": EQ1}),
        ("survey", {"groups": [["2"], ["3"]], "set": {"kind": "divides", "tuple": [12]}}),
        ("survey", {"groups": [["2"], ["3"]], "set": {"kind": "primes"}}),
        ("survey", {"set": {"kind": "predicate", "name": "prime-square-pair"}}),
        (
            "density",
            {
                "groups": [["2"], ["3"]],
                "method": "singletons",
                "set": {"kind": "finite", "tuples": [[1]]},
            },
        ),
        (
            "compare",
            {
                "groups": [["2"], ["3"]],
                "method": "singletons",
                "set": {"kind": "finite", "tuples": [[1]]},
                "sieve_bound": 10**4,
            },
        ),
        ("classify", {"groups": [["2"], ["3"]], "set": {"kind": "equals", "tuple": [4]}}),
        # one prime under two keys, in either order: neither may silently win
        (
            "density",
            {"set": {"kind": "valuations", "map": {"at": {"2": [[0]], "02": [[1]]}}}},
        ),
        (
            "density",
            {"set": {"kind": "valuations", "map": {"at": {"02": [[1]], "2": [[0]]}}}},
        ),
        (
            "density",
            {
                "method": "series",
                "level_map": {"kind": "prime-powers", "table": {"2": 2, "02": 1}},
            },
        ),
        (
            "density",
            {
                "method": "series",
                "level_map": {"kind": "prime-powers", "table": {"02": 1, "2": 2}},
            },
        ),
    ],
)
def test_hostile_degree_configs_exit_2(tmp_path, capsys, command, extra):
    # JSON has no infinity, but a number past the float range such as 1e400
    # parses to one: each non-finite case runs as written and as 1e400
    text = json.dumps({"groups": [["2"]], **extra})
    for variant in dict.fromkeys((text, text.replace("Infinity", "1e400"))):
        path = tmp_path / "hostile.json"
        path.write_text(variant, encoding="utf-8")
        code, payload, err = _run(capsys, command, "--config", str(path))
        assert code == 2, variant
        assert payload is None
        assert err.startswith("config error:"), err


def test_a_ledger_past_the_digit_limit_is_printed_exactly(tmp_path, capsys):
    # the local series of a 4097-free index have denominators of some 57,000
    # bits, past Python's limit on int-to-str conversion (4300 digits)
    k_free = {"groups": [["2"]], "set": {"kind": "kfree", "k": 4097}}
    cfg = _write_config(tmp_path, "kfree.json", k_free)
    limit = sys.get_int_max_str_digits()
    code, payload, err = _run(capsys, "density", "--config", cfg)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    report = valuation_density(GroupFamily.from_strings(["2"]), KFree((4097,)))
    assert max(x.denominator for _, x in report.ledger) > 10**limit
    sys.set_int_max_str_digits(0)
    try:
        ledger = [(label, Fraction(x)) for label, x in payload["result"]["ledger"]]
    finally:
        sys.set_int_max_str_digits(limit)
    assert ledger == list(report.ledger)


@pytest.mark.parametrize("groups, k", [([["2"], ["3"]], 64), ([["2"]], 5000)])
def test_large_k_free_euler_densities_are_certified(tmp_path, capsys, groups, k):
    # a shape is its merged corner terms, whatever the size of its box
    cfg = {"groups": groups, "set": {"kind": "kfree", "k": k}, "method": "euler"}
    path = _write_config(tmp_path, "kfree.json", cfg)
    code, payload, err = _run(capsys, "density", "--config", path)
    assert code == 0, err
    value = payload["result"]["value"]
    assert Fraction(value["high"]) - Fraction(value["low"]) < Fraction(1, 10**30)


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


def test_the_oracle_command_and_its_flags_are_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["artin-oracle"])
    assert exc.value.code == 2
    assert "invalid choice: 'artin-oracle'" in capsys.readouterr().err
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    for name, sub in commands.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert not flags & {"--seed", "--samples"}, name


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


@pytest.mark.parametrize("log_path", [1, True, ["a"]])
def test_a_log_path_that_is_not_a_string_exits_2(
    tmp_path, capsys, monkeypatch, log_path
):
    # open() would take 1 and true as file descriptors, stdout for both
    opened = []
    monkeypatch.setattr(empirical, "open", opened.append, raising=False)
    base = {"groups": [["2"]], "set": EQ1, "sieve_bound": 2000, "log_path": log_path}
    for command, extra in (("survey", {}), ("compare", {"cutoff": 2000})):
        cfg = _write_config(tmp_path, "log.json", base | extra)
        code, payload, err = _run(capsys, command, "--config", cfg)
        assert (code, payload) == (2, None), command
        assert err.startswith("config error: 'log_path' must be a file path")
    assert opened == []


def test_a_log_that_could_pass_the_cap_exits_2_unwritten(tmp_path, capsys):
    # 8 bytes a row for <2>, about 0.85 GB of rows to the sieve cap
    log_path = tmp_path / "scan.log"
    cfg = _write_config(
        tmp_path,
        "big.json",
        {
            "groups": [["2"]],
            "set": {"kind": "equals", "tuple": [1]},
            "sieve_bound": empirical.SIEVE_CAP,
            "log_path": str(log_path),
        },
    )
    code, payload, err = _run(capsys, "survey", "--config", cfg)
    assert code == 2
    assert payload is None
    assert err.startswith("config error: an observation log")
    assert not log_path.exists()


def test_malformed_log_row_exits_2(tmp_path, capsys, monkeypatch):
    # blocks of 100 rows put the bad rows in the fifth block of the 429-row log
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


def test_compare_agrees_with_an_exact_zero_and_an_exact_one(tmp_path, capsys):
    # p = 1 mod 3 makes -3 a square, so 2 divides the index: index 3 has
    # density exactly 0 for <-3>. Every index lies in the set with no
    # constraint, density exactly 1. The Wilson interval ends exactly at 0
    # and at 1 for these counts, so both verdicts are consistent
    for extra, hits in (
        ({"groups": [["-3"]], "set": {"kind": "equals", "tuple": [3]}}, 0),
        ({"set": {"kind": "valuations", "map": {"default": {"bounds": [None]}}}}, 17983),
    ):
        cfg = _write_config(
            tmp_path, "edge.json", {"groups": [["2"]], **extra, "sieve_bound": 2 * 10**5}
        )
        code, payload, _ = _run(capsys, "compare", "--config", cfg)
        result = payload["result"]
        assert (code, result["verdict"]) == (0, "consistent")
        assert (result["empirical"]["hits"], result["empirical"]["total"]) == (hits, 17983)
        assert result["z"] == 0.0


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
    p_hat = 840 / 2261
    sigma = math.sqrt(p_hat * (1 - p_hat) / 2261)
    assert result["sigma"] == pytest.approx(sigma, rel=1e-12)
    assert result["z_level"] == cli.Z_LEVEL == 4
    assert result["resolution"] == pytest.approx(4 * sigma, rel=1e-12)
    low = float(Fraction(result["analytic"]["value"]["low"]))
    assert p_hat < low  # 840/2261 = 0.3715... lies below A = 0.3739...
    assert result["z"] == pytest.approx((low - p_hat) / sigma, rel=1e-9)
    assert 0.2 < result["z"] < 0.3
    assert result["z"] * sigma < result["resolution"]

    # 4 is a square: no prime has index 1, and the interval is [0, 0], so
    # sigma, the gap and the resolution are all 0
    square = {"groups": [["4"]], "set": EQ1, "cutoff": 2000, "sieve_bound": 20000}
    cfg = _write_config(tmp_path, "square.json", square)
    code, payload, _ = _run(capsys, "compare", "--config", cfg)
    result = payload["result"]
    assert (result["verdict"], result["sigma"], result["z"]) == ("consistent", 0.0, 0.0)
    assert result["resolution"] == 0.0

    # the generic series on <4> claims about A for index one, and no prime
    # is a hit: sigma is taken at the nearest analytic endpoint
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
    assert (code, result["verdict"]) == (4, "inconsistent")
    assert (result["empirical"]["hits"], result["empirical"]["total"]) == (0, 2261)
    low = float(Fraction(result["analytic"]["value"]["low"]))
    assert result["sigma"] == pytest.approx(math.sqrt(low * (1 - low) / 2261))
    assert result["z"] == pytest.approx(low / result["sigma"])
    assert 30 < result["z"] < math.inf
    assert result["resolution"] == pytest.approx(4 * result["sigma"])


# the sweep's rank-one generators: cubes (8, 27), negatives, and some whose
# quadratic field lies in a cyclotomic one (5, 13, -3)
SWEEP_GENERATORS = (
    2, 3, 5, 6, 7, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23,
    -2, -3, -5, -6, -7, -10, -11, -13, 8, 27, 24, 28,
)


def test_the_verdict_does_not_flag_exact_values():
    # 150 exact Euler values against their counts to 2*10^5: at the 95%
    # Wilson level <23> divides(6,) (z = 2.01) was flagged; no z reaches 4
    sets = [Equals((1,)), Equals((2,)), Equals((3,)), KFree((2,)), Divides((6,))]
    srange = SieveRange.up_to(2 * 10**5)
    for g in SWEEP_GENERATORS:
        fam = GroupFamily.from_strings([str(g)])
        for index_set, rep in zip(sets, survey_many(fam, srange, sets)):
            value = valuation_density(fam, index_set).value
            result = cli._verdict(value.low, value.high, rep.hits, rep.total)
            assert result["verdict"] == "consistent", (g, index_set, result)
            if (g, index_set) == (-3, Equals((3,))):
                # exactly 0: -3 is a square mod p = 1 mod 3, so 2 | index
                assert value.high == 0
                assert (rep.hits, result["z"]) == (0, 0.0)


def test_compare_still_catches_a_wrong_value(tmp_path, capsys):
    # the generic series gives about A for <5>, whose index-one density is
    # 20A/19 (5 = 1 mod 4 entangles the 2 and 5 layers)
    cfg = _write_config(
        tmp_path,
        "five.json",
        {
            "groups": [["5"]],
            "method": "series",
            "mode": "generic",
            "truncation": 2000,
            "sieve_bound": 2 * 10**5,
        },
    )
    code, payload, _ = _run(capsys, "compare", "--config", cfg)
    result = payload["result"]
    assert (code, result["verdict"]) == (4, "inconsistent")
    assert result["z"] > 4


def test_series_compare_surveys_the_set_of_its_level_map(tmp_path, capsys):
    # each level map names a set: f(n) = 2n index exactly 2, f(n) = n^2 a
    # squarefree index, times-local 2 an index dividing 2, prime-powers
    # {2: 2} an index dividing 2 written by valuations; the survey counts it.
    # A 'set' that describes the same set another way is accepted
    base = {"groups": [["2"]], "method": "series", "truncation": 2000}
    for level_map, index_set, label in (
        ({"kind": "times", "t": 2}, None, "equals(2,)"),
        ({"kind": "power", "k": 2}, {"kind": "kfree", "k": 2}, "kfree(2,)"),
        ({"kind": "times-local", "t": 2}, None, "divides(2,)"),
        ({"kind": "prime-powers", "table": {"2": 2}}, None, "valuation(at=2)"),
        (
            {"kind": "prime-powers", "table": {"2": 2}},
            {"kind": "divides", "tuple": [2]},
            "valuation(at=2)",
        ),
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
        assert payload["result"]["empirical"]["set"] == label
        assert f"set={label}" in payload["result"]["analytic"]["notes"]

    # a 'set' other than the level map's, or one with no valuation map
    for extra in (
        {"level_map": {"kind": "times", "t": 2}, "set": EQ1},
        {"level_map": {"kind": "times-local", "t": 2}, "set": {"kind": "equals", "tuple": [2]}},
        {"level_map": {"kind": "prime-powers", "table": {"2": 2}}, "set": EQ1},
        {"level_map": {"kind": "times-local", "t": 2}, "set": {"kind": "primes"}},
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
    # the degree command is exact only: a mode is an unknown key, and the
    # subcommand has no --mode flag
    degree = {"groups": [["2"]], "modulus": 8, "levels": [8]}
    for mode in ("generic", "corrected"):
        cfg = _write_config(tmp_path, "deg.json", {**degree, "mode": mode})
        code, payload, err = _run(capsys, "degree", "--config", cfg)
        assert (code, payload) == (2, None)
        assert "unknown config keys for degree: mode" in err
        with pytest.raises(SystemExit) as exc:
            main(["degree", "--config", cfg, "--mode", mode])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    cfg = _write_config(tmp_path, "deg.json", degree)
    code, payload, _ = _run(capsys, "degree", "--config", cfg)
    assert code == 0
    assert payload["result"] == {"modulus": 8, "levels": [8], "degree": 16}


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
    assert payload["result"]["z_level"] == cli.Z_LEVEL
    rows = payload["result"]["rows"]
    assert len(rows) == 6
    for row in rows:
        assert row["verdict"] == "consistent", row["example"]
        assert 0 <= row["z"] < 4, row["example"]
        assert row["resolution"] == pytest.approx(4 * row["sigma"])


def test_bundled_examples_with_no_counted_prime_are_inconclusive(capsys):
    # below 3 the sieve counts no odd prime, so no row has a verdict
    code, payload, _ = _run(capsys, "paper-examples", "--sieve-bound", "2")
    assert code == 0
    rows = payload["result"]["rows"]
    assert len(rows) == 6
    for row in rows:
        assert (row["verdict"], row["z"], row["sigma"]) == ("inconclusive", None, None)
