#!/usr/bin/env python3
"""One digest of the command line's behaviour over a fixed grid of configs.

Runs ``cli.main`` in process on every config below and prints the sha256
of each run's stdout, stderr and exit code, taken in order. A change that
claims no change in behaviour reports this digest before and after. A
second digest is taken with the ledger removed from each JSON result (and
from a compare's analytic part), so a change that touches only ledgers
shows its values, notes, refusals and verdicts unchanged. ``--lines``
prints one line per config (exit code, a short hash of its output, the
same hash without ledgers, the command and the config), so two runs can
be diffed.

    python tests/grid_digest.py [--lines]

The grid covers density on all three methods, survey, compare, classify,
degree and paper-examples, every level map kind, and ten families. It
takes a few seconds. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from indexdensity import cli  # noqa: E402

RANK_ONE = (["2"], ["5"], ["-3"], ["13"], ["27"], ["4"], ["-1", "2"])
PAIRS = ([["2"], ["3"]], [["2"], ["8"]], [["5"], ["-3"]])
SIEVE = 20000


def _sets(n: int):
    """Set descriptors of arity n, with a few of every kind."""
    one, two = [1] * n, [2] + [1] * (n - 1)
    return [
        {"kind": "equals", "tuple": one},
        {"kind": "equals", "tuple": two},
        {"kind": "equals", "tuple": [12] * n},
        {"kind": "divides", "tuple": [12] * n},
        {"kind": "kfree", "k": 2},
        {"kind": "finite", "tuples": [one, two]},
        {"kind": "valuations", "map": {"at": {"2": {"bounds": [2] * n}}}},
        {"kind": "primes"},
        {"kind": "predicate", "name": "even-omega"},
    ]


LEVEL_MAPS = [
    None,
    {"kind": "identity"},
    {"kind": "times", "t": 2},
    {"kind": "times", "t": 12},
    {"kind": "times-local", "t": 2},
    {"kind": "times-local", "t": 12},
    {"kind": "power", "k": 2},
    {"kind": "power", "k": 3},
    {"kind": "prime-powers", "table": {"2": 2}},
    {"kind": "prime-powers", "table": {"2": 3, "3": 2}},
]
REFUSED_LEVEL_MAPS = [  # each exits 2
    {"kind": "times", "t": 0},
    {"kind": "power", "k": 0},
    {"kind": "prime-powers", "table": {"4": 2}},
    {"kind": "prime-powers", "table": {"2": 0}},
]


def configs():
    """(command, config) pairs, in a fixed order."""
    out = []
    families = [[g] for g in RANK_ONE] + list(PAIRS)
    for groups in families:
        for desc in _sets(len(groups)):
            base = {"groups": groups, "set": desc}
            out.append(("density", {**base, "cutoff": 2000}))
            out.append(("density", {**base, "method": "singletons", "bound": 40}))
            out.append(("survey", {**base, "sieve_bound": SIEVE}))
            out.append(("classify", base))
        out.append(("compare", {"groups": groups, "set": _sets(len(groups))[0],
                                "sieve_bound": SIEVE}))
        out.append(("degree", {"groups": groups, "modulus": 24,
                               "levels": [8] * len(groups)}))
    for groups in ([g] for g in RANK_ONE):
        for level_map in LEVEL_MAPS:
            base = {"groups": groups, "method": "series", "truncation": 300}
            if level_map is not None:
                base["level_map"] = level_map
            for mode in ("generic", "corrected"):
                out.append(("density", {**base, "mode": mode}))
            out.append(("compare", {**base, "sieve_bound": SIEVE}))
    for level_map in REFUSED_LEVEL_MAPS:
        out.append(("density", {"groups": [["2"]], "method": "series",
                                "level_map": level_map}))
    # a set given next to a level map, an arity the family does not have,
    # and an impossible index, whose exact density is 0
    out.append(("compare", {"groups": [["2"]], "method": "series",
                            "level_map": {"kind": "times", "t": 2},
                            "set": {"kind": "equals", "tuple": [2]},
                            "truncation": 300, "sieve_bound": SIEVE}))
    out.append(("compare", {"groups": [["2"]], "method": "series",
                            "level_map": {"kind": "times", "t": 2},
                            "set": {"kind": "equals", "tuple": [1]},
                            "truncation": 300, "sieve_bound": SIEVE}))
    out.append(("classify", {"groups": [["2"], ["3"]],
                             "set": {"kind": "equals", "tuple": [4]}}))
    out.append(("compare", {"groups": [["-3"]], "set": {"kind": "equals", "tuple": [3]},
                            "sieve_bound": 10**6}))
    out.append(("paper-examples", {"sieve_bound": SIEVE}))
    return out


def run(command: str, config: dict, folder: Path) -> tuple[int, str, str]:
    path = folder / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def without_ledgers(out: str) -> str:
    """stdout with the ledgers taken out of its JSON result; other output as is."""
    try:
        document = json.loads(out)
    except json.JSONDecodeError:
        return out
    result = document["result"]
    for part in (result, result.get("analytic", {})):
        part.pop("ledger", None)
    return json.dumps(document, indent=2, sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true", help="one line per config")
    args = parser.parse_args()
    total, bare = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as folder:
        for command, config in configs():
            code, out, err = run(command, config, Path(folder))
            text = f"{code}\n{out}\n{err}\n"
            text_bare = f"{code}\n{without_ledgers(out)}\n{err}\n"
            total.update(text.encode())
            bare.update(text_bare.encode())
            if args.lines:
                short = hashlib.sha256(text.encode()).hexdigest()[:12]
                short_bare = hashlib.sha256(text_bare.encode()).hexdigest()[:12]
                print(code, short, short_bare, command, json.dumps(config, sort_keys=True))
    print(total.hexdigest())
    print(bare.hexdigest(), "(without ledgers)")


if __name__ == "__main__":
    main()
