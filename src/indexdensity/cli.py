"""Command-line harness: config in, deterministic result files out.

Config is JSON (a command has flags only for keys it reads, they override
file values, and it rejects every key it does not read), rationals
serialize as "num/den" strings so nothing is lost to floating point, and
every command writes the same payload it printed when an output path is
given (--output or the config's "output" key). Exit codes: 0 success, 2
bad config, 3 refused or inconclusive scope, 4 compare found an
inconsistency.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .arith import is_prime
from .artin import local_factor, prob_model_oracle
from .density import (
    DensityReport,
    LevelMap,
    hooley_series,
    singleton_sum,
    valuation_density,
)
from .empirical import Congruence, SieveRange, survey, survey_many
from .errors import ConfigError, UnsupportedScopeError
from .exact import Interval
from .groups import GroupFamily, profile_of
from .index_sets import (
    Divides,
    Equals,
    FiniteSet,
    KFree,
    PrimesSet,
    SquarefreeModulus,
    ValuationConstraint,
    ValuationMap,
    ValuationPattern,
    named_predicate,
)
from .kummer import KummerModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3
EXIT_INCONSISTENT = 4


# ---------------------------------------------------------------------------
# serialization


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def interval_payload(iv: Interval, *, certified: bool = True) -> dict:
    """Exact endpoints, and decimals to the place where the width shows.

    Enough places that 10^-places is at most the width, and at least 12.
    An interval that is not certified to enclose the value the caller
    reports (a partial sum) gets the 12 places only: its width says
    nothing about how many digits of that value are right.
    """
    places = 12
    if certified and iv.width:
        places = max(places, len(str(iv.width.denominator // iv.width.numerator)))
    lo, hi = iv.decimal_bounds(places)
    return {
        "low": frac_str(iv.low),
        "high": frac_str(iv.high),
        "decimal_low": lo,
        "decimal_high": hi,
    }


def report_payload(report: DensityReport) -> dict:
    # the singleton route encloses the sum over the members up to its
    # bound: a lower bound on the density when the set has more members
    certified = report.method != "singleton-sum"
    return {
        "value": interval_payload(report.value, certified=certified),
        "method": report.method,
        "ledger": [[label, frac_str(x)] for label, x in report.ledger],
        "notes": list(report.notes),
    }


# ---------------------------------------------------------------------------
# config handling


def load_config(command: str, args) -> dict:
    """The config file, overridden by the command's flags, checked against
    the keys its runner reads; "mode" defaults to corrected where read."""
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            cfg[key] = value
    keys = _COMMANDS[command][1]
    unknown = sorted(set(cfg) - keys - {"output"})
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {', '.join(unknown)}"
        )
    if not isinstance(cfg.get("output", ""), str):
        raise ConfigError("'output' must be a file path")
    if "mode" in keys:
        cfg.setdefault("mode", "corrected")
        if cfg["mode"] not in ("generic", "corrected"):
            raise ConfigError("'mode' is 'generic' or 'corrected'")
    return cfg


def _int(cfg: dict, key: str, default: int) -> int:
    try:
        return int(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{key}' must be an integer") from exc


def build_family(cfg: dict) -> GroupFamily:
    groups = cfg.get("groups")
    if not groups:
        raise ConfigError("config needs 'groups': a list of generator lists")
    if isinstance(groups, str) or not all(
        isinstance(g, (list, tuple)) for g in groups
    ):
        raise ConfigError("'groups' must be a list of lists of rationals")
    try:
        return GroupFamily.from_strings(*groups)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator in 'groups': {exc}") from exc


def _parse_pattern(obj, n: int) -> ValuationPattern:
    if not isinstance(obj, dict) or set(obj) != {"bounds"}:
        raise ConfigError("a pattern is {'bounds': [int-or-null, ...]}")
    bounds = obj["bounds"]
    if not isinstance(bounds, list):
        raise ConfigError("pattern bounds are a list")
    if len(bounds) != n:
        raise ConfigError(f"pattern arity {len(bounds)} != {n}")
    try:
        return ValuationPattern(tuple(None if b is None else int(b) for b in bounds))
    except TypeError as exc:
        raise ConfigError(f"bad pattern bound: {exc}") from exc


def _parse_vspec(obj, n: int):
    if isinstance(obj, dict):
        return _parse_pattern(obj, n)
    if isinstance(obj, list):
        try:
            return tuple(tuple(int(x) for x in t) for t in obj)
        except TypeError as exc:
            raise ConfigError(f"bad valuation tuple list: {exc}") from exc
    raise ConfigError("a valuation spec is a pattern object or a tuple list")


def build_valuation_map(obj: dict, n: int) -> ValuationMap:
    if not isinstance(obj, dict) or not isinstance(obj.get("at") or {}, dict):
        raise ConfigError("a valuation map is {'at': {ell: spec}, 'default': pattern}")
    keys = set(obj) - {"at", "default"}
    if keys:
        raise ConfigError(f"unknown valuation map keys: {sorted(keys)}")
    at = {
        int(ell): _parse_vspec(spec, n)
        for ell, spec in (obj.get("at") or {}).items()
    }
    default_obj = obj.get("default")
    default = (
        ValuationPattern.exact_zero(n)
        if default_obj is None
        else _parse_pattern(default_obj, n)
    )
    try:
        return ValuationMap.build(n, at, default)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_index_set(cfg: dict, n: int):
    desc = cfg.get("set")
    if desc is None:
        raise ConfigError("config needs 'set': an index set descriptor")
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("'set' must be an object with a 'kind'")
    kind = desc["kind"]
    extra = set(desc) - {"kind", "tuple", "tuples", "k", "map", "name"}
    if extra:
        raise ConfigError(f"unknown set keys: {sorted(extra)}")
    try:
        if kind == "equals":
            return Equals(tuple(int(x) for x in desc["tuple"]))
        if kind == "divides":
            return Divides(tuple(int(x) for x in desc["tuple"]))
        if kind == "kfree":
            k = desc["k"]
            ks = (int(k),) * n if isinstance(k, int) else tuple(map(int, k))
            return KFree(ks)
        if kind == "finite":
            return FiniteSet(
                tuple(tuple(int(x) for x in t) for t in desc["tuples"])
            )
        if kind == "primes":
            return PrimesSet()
        if kind == "valuations":
            return ValuationConstraint(build_valuation_map(desc["map"], n))
        if kind == "predicate":
            return named_predicate(desc["name"])
    except KeyError as exc:
        raise ConfigError(f"set descriptor missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad set descriptor: {exc}") from exc
    raise ConfigError(f"unknown set kind {kind!r}")


def build_congruence(cfg: dict) -> Congruence:
    obj = cfg.get("congruence")
    if obj is None:
        return Congruence.trivial()
    if not isinstance(obj, dict) or set(obj) != {"modulus", "residues"}:
        raise ConfigError("congruence is {'modulus': m, 'residues': [...]}")
    try:
        return Congruence(int(obj["modulus"]), frozenset(map(int, obj["residues"])))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad congruence: {exc}") from exc


def build_level_map(cfg: dict) -> LevelMap:
    obj = cfg.get("level_map")
    if obj is None:
        return LevelMap.identity()
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("'level_map' must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "identity":
            return LevelMap.identity()
        if kind == "times":
            return LevelMap.times(int(obj["t"]))
        if kind == "times-local":
            return LevelMap.times_local(int(obj["t"]))
        if kind == "power":
            return LevelMap.power(int(obj["k"]))
        if kind == "prime-powers":
            table = obj["table"]
            if not isinstance(table, dict):
                raise ConfigError("a prime-powers table maps primes to exponents")
            return LevelMap.prime_powers({int(ell): int(k) for ell, k in table.items()})
    except KeyError as exc:
        raise ConfigError(f"level map missing {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"bad level map: {exc}") from exc
    raise ConfigError(f"unknown level map kind {kind!r}")


def _prime_ell(value, command: str) -> int:
    ell = int(value)
    if not is_prime(ell):
        raise ConfigError(f"{command} needs a prime 'ell'")
    return ell


def _require_trivial_congruence(congruence: Congruence):
    if not congruence.is_trivial():
        raise UnsupportedScopeError(
            "analytic densities support only the trivial congruence "
            "condition; nontrivial classes interact with the cyclotomic "
            "layers and are measured empirically instead (use survey)"
        )


# ---------------------------------------------------------------------------
# commands


def run_degree(cfg: dict) -> dict:
    family = build_family(cfg)
    mode = cfg["mode"]
    modulus = _int(cfg, "modulus", 0)
    try:
        levels = tuple(int(x) for x in cfg.get("levels", ()))
    except (TypeError, ValueError) as exc:
        raise ConfigError("'levels' is a list of integers") from exc
    if modulus < 1 or not levels:
        raise ConfigError("degree needs 'modulus' and 'levels'")
    value = KummerModel(family).degree(modulus, levels, mode)
    return {"modulus": modulus, "levels": list(levels), "mode": mode, "degree": value}


def run_artin_oracle(cfg: dict) -> dict:
    family = build_family(cfg)
    profile = profile_of(family)
    ell = _prime_ell(_int(cfg, "ell", 0), "artin-oracle")
    try:
        v = tuple(int(x) for x in cfg.get("v", ()))
    except (TypeError, ValueError) as exc:
        raise ConfigError("'v' is a list of integers") from exc
    if len(v) != profile.n:
        raise ConfigError(f"'v' must have {profile.n} coordinates")
    method = cfg.get("method", "exact")
    target = local_factor(ell, v, profile)
    payload = {"ell": ell, "v": list(v), "target": frac_str(target)}
    if method == "exact":
        value = prob_model_oracle(ell, v, family, "exact")
        payload["oracle"] = frac_str(value)
        payload["agrees"] = value == target
    else:
        est = prob_model_oracle(
            ell,
            v,
            family,
            "monte-carlo",
            samples=_int(cfg, "samples", 10**6),
            seed=_int(cfg, "seed", 0),
        )
        payload["oracle"] = est.value
        payload["sigma"] = est.sigma
        payload["kept"] = est.samples
        payload["agrees"] = est.agrees_with(target)
    return payload


def run_density(cfg: dict) -> dict:
    family = build_family(cfg)
    _require_trivial_congruence(build_congruence(cfg))
    method = cfg.get("method", "euler")
    exact_only = method in ("euler", "singletons")
    if exact_only and cfg["mode"] != "corrected":
        raise ConfigError(
            f"method {method} uses exact degrees at every prime; "
            "'mode': 'generic' applies only to the series method"
        )
    if method == "series":
        if len(family) != 1:
            raise ConfigError("series method needs a single group")
        report = hooley_series(
            family.groups[0],
            build_level_map(cfg),
            _int(cfg, "truncation", 10**4),
            cfg["mode"],
        )
    elif method == "euler":
        index_set = build_index_set(cfg, len(family))
        report = valuation_density(
            family, index_set, cutoff=_int(cfg, "cutoff", 10**5)
        )
    elif method == "singletons":
        index_set = build_index_set(cfg, len(family))
        smooth = _int(cfg, "smooth", 0) if cfg.get("smooth") else 0
        report = singleton_sum(
            family,
            index_set,
            bound=_int(cfg, "bound", 10**3),
            smooth=SquarefreeModulus.from_int(smooth) if smooth else None,
            cutoff=_int(cfg, "cutoff", 10**5),
        )
    else:
        raise ConfigError("method is one of series, euler, singletons")
    return report_payload(report)


def run_survey(cfg: dict, index_set=None) -> dict:
    family = build_family(cfg)
    srange = SieveRange.up_to(_int(cfg, "sieve_bound", 10**6))
    if index_set is None:
        index_set = build_index_set(cfg, len(family))
    congruence = build_congruence(cfg)
    try:
        rep = survey(
            family, srange, index_set, congruence, log_path=cfg.get("log_path")
        )
    except OSError as exc:  # only the observation log is a file here
        raise ConfigError(f"cannot use the observation log: {exc}") from exc
    lo, hi = rep.wilson
    return {
        "set": rep.label,
        "congruence": congruence.label(),
        "range": [srange.low, srange.high],
        "hits": rep.hits,
        "total": rep.total,
        "skipped": rep.skipped,
        "estimate": rep.estimate,
        "wilson_low": lo,
        "wilson_high": hi,
    }


def _series_set(cfg: dict):
    """The set whose density the level map gives: index 1, index t, or k-free."""
    level_map = build_level_map(cfg)
    if level_map.kind not in ("identity", "times", "power"):
        raise ConfigError(f"compare cannot survey the set of a {level_map.kind} map")
    own = KFree((level_map.k,)) if level_map.k else Equals((level_map.t or 1,))
    if "set" in cfg and build_index_set(cfg, 1) != own:
        raise ConfigError(f"the level map gives the set {own.label()}; 'set' differs")
    return own


def run_compare(cfg: dict) -> tuple[dict, int]:
    index_set = _series_set(cfg) if cfg.get("method") == "series" else None
    analytic = run_density(cfg)
    empirical = run_survey(cfg, index_set)
    verdict, sigma, z, resolution = "inconclusive", None, None, None
    if empirical["total"] > 0:
        low, high = (float(Fraction(analytic["value"][end])) for end in ("low", "high"))
        w_low, w_high = empirical["wilson_low"], empirical["wilson_high"]
        verdict = "consistent" if low <= w_high and w_low <= high else "inconsistent"
        # sigma of the estimate, p_hat's distance to the analytic interval in
        # sigmas, and the Wilson half-width: the smallest deviation from the
        # truth this count can flag. When no or every prime is a hit, sigma is
        # 0, so the gap is measured in the sigma of the nearest endpoint e
        p_hat, total = empirical["estimate"], empirical["total"]
        sigma = math.sqrt(p_hat * (1 - p_hat) / total)
        gap = max(low - p_hat, p_hat - high, 0.0)
        e = low if p_hat < low else high
        spread = sigma or math.sqrt(e * (1 - e) / total)
        z = gap / spread if spread else (0.0 if gap == 0 else None)
        resolution = (w_high - w_low) / 2
    payload = {"analytic": analytic, "empirical": empirical, "verdict": verdict}
    payload |= {"sigma": sigma, "z": z, "resolution": resolution}
    exits = {"consistent": EXIT_OK, "inconsistent": EXIT_INCONSISTENT}
    return payload, exits.get(verdict, EXIT_REFUSED)


def run_classify(cfg: dict) -> dict:
    family_given = bool(cfg.get("groups"))
    n = len(build_family(cfg)) if family_given else 1
    index_set = build_index_set(cfg, n)
    klass = index_set.classification()
    payload = {
        "set": index_set.label(),
        "kind": klass.kind,
        "witness": klass.witness,
    }
    try:
        vmap = index_set.valuation_map()
        payload["listed_primes"] = list(vmap.listed)
    except UnsupportedScopeError:
        payload["listed_primes"] = None
    return payload


def run_paper_examples(cfg: dict) -> dict:
    """The bundled worked examples, analytic next to empirical."""
    bound = _int(cfg, "sieve_bound", 10**5)
    rows = []

    fam2 = GroupFamily.from_strings(["2"])
    srange = SieveRange.up_to(bound)
    sets = [Equals((1,)), Equals((2,)), KFree((2,)), PrimesSet()]
    reports = survey_many(fam2, srange, sets)

    artin = valuation_density(fam2, Equals((1,)), cutoff=10**4)
    rows.append(_example_row("index 1 (primitive root)", artin, reports[0]))

    ziegler = hooley_series(fam2.groups[0], LevelMap.times(2), 3000)
    rows.append(_example_row("index exactly 2", ziegler, reports[1]))

    sqfree = valuation_density(fam2, KFree((2,)), cutoff=10**4)
    rows.append(_example_row("squarefree index", sqfree, reports[2]))

    prime_index = singleton_sum(fam2, PrimesSet(), bound=200, cutoff=10**4)
    rows.append(_example_row("prime index", prime_index, reports[3]))

    fam23 = GroupFamily.from_strings(["2"], ["3"])
    both = valuation_density(fam23, Equals((1, 1)), cutoff=10**4)
    both_emp = survey(fam23, srange, Equals((1, 1)))
    rows.append(_example_row("both primitive roots", both, both_emp))

    fam22 = GroupFamily.from_strings(["2"], ["2"])
    pair = named_predicate("prime-square-pair")
    pair_emp = survey(fam22, srange, pair)
    try:
        singleton_sum(fam22, pair, bound=50)
        refusal = "unexpectedly accepted"
    except UnsupportedScopeError as exc:
        refusal = f"refused: {exc}"
    rows.append(
        {
            "example": "impossible pair (q, q^2), equal groups",
            "analytic": refusal,
            "empirical": f"{pair_emp.hits}/{pair_emp.total}",
            "agrees": pair_emp.hits == 0,
        }
    )
    return {"sieve_bound": bound, "rows": rows}


def _example_row(name: str, report: DensityReport, freq) -> dict:
    lo, hi = report.value.decimal_bounds(6)
    w_lo, w_hi = freq.wilson
    agrees = float(report.value.low) <= w_hi and w_lo <= float(report.value.high)
    return {
        "example": name,
        "analytic": f"[{lo}, {hi}]",
        "empirical": f"{freq.estimate:.6f} ({freq.hits}/{freq.total})",
        "agrees": agrees,
    }


# ---------------------------------------------------------------------------
# entry point


_DENSITY_KEYS = {
    "groups",
    "set",
    "congruence",
    "mode",
    "method",
    "truncation",
    "cutoff",
    "bound",
    "smooth",
    "level_map",
}
_SURVEY_KEYS = {"groups", "set", "congruence", "sieve_bound", "log_path"}

# Each command's help, the config keys its runner reads (main reads
# "output" for all), and its runner.
_COMMANDS = {
    "degree": (
        "cyclotomic-Kummer degrees, generic or exact",
        {"groups", "mode", "modulus", "levels"},
        run_degree,
    ),
    "artin-oracle": (
        "probabilistic model vs the closed form",
        {"groups", "ell", "v", "method", "samples", "seed"},
        run_artin_oracle,
    ),
    "density": (
        "analytic density by series, euler, or singletons",
        _DENSITY_KEYS,
        run_density,
    ),
    "survey": ("sieve primes and measure index frequencies", _SURVEY_KEYS, run_survey),
    "compare": (
        "run density and survey, check consistency",
        _DENSITY_KEYS | _SURVEY_KEYS,
        run_compare,
    ),
    "classify": ("classify an index set descriptor", {"groups", "set"}, run_classify),
    "paper-examples": (
        "run the bundled worked examples",
        {"sieve_bound"},
        run_paper_examples,
    ),
}

# The config keys that also have a flag, --key with "_" read as "-".
_FLAGS = {
    "mode": {
        "choices": ["generic", "corrected"],
        "help": "generic or exact (corrected) Kummer degrees, for the series "
        "method and the degree command (default corrected); the euler and "
        "singletons methods are always exact and refuse generic",
    },
    "seed": {"type": int},
    "cutoff": {
        "type": int,
        "help": "where the crude Euler tail 1 - 2^n/cutoff starts, for a "
        "default factor with no accelerated tail; the exact product "
        "otherwise stops at a split of a few hundred, whatever the cutoff",
    },
    "truncation": {"type": int},
    "bound": {"type": int},
    "sieve_bound": {"type": int},
    "samples": {"type": int},
    "log_path": {},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexdensity",
        description="Densities of primes filtered by multiplicative index",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", help="write the result payload as JSON")
        for key, options in _FLAGS.items():
            if key in keys:
                p.add_argument("--" + key.replace("_", "-"), dest=key, **options)
    return parser


_PARSER = None  # built by the first main call, then reused


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.command, args)
        result = _COMMANDS[args.command][2](cfg)
        payload, code = result if args.command == "compare" else (result, EXIT_OK)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedScopeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    text = json.dumps(
        {"command": args.command, "result": payload}, indent=2, sort_keys=True
    )
    print(text)
    if cfg.get("output"):
        try:
            with open(cfg["output"], "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"config error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
