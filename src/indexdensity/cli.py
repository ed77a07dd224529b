"""Command-line harness: config in, deterministic result files out.

Config is JSON (a command has flags only for keys it reads, they override
file values, and it rejects every key it does not read) with integer
numbers, rationals serialize as "num/den" strings so nothing is lost to
floating point, and every command writes the same payload it printed when
an output path is given (--output or the config's "output" key). Exit
codes: 0 success, 2 bad config, 3 refused or inconclusive scope, 4
compare found an inconsistency.

compare and paper-examples judge an analytic interval against a prime
count by one z test at a stated level, Z_LEVEL sigmas (two-sided rate
6e-5 under the binomial model), and report the z they judge by; the
resolution is Z_LEVEL sigma, the smallest gap that level flags. The
survey's Wilson interval stays a 95% interval and judges nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .density import (
    DensityReport,
    hooley_series,
    singleton_sum,
    valuation_density,
)
from .empirical import Congruence, SieveRange, survey, survey_many
from .errors import ConfigError, UnsupportedScopeError
from .exact import Interval
from .groups import GroupFamily
from .index_sets import (
    Divides,
    Equals,
    FiniteSet,
    IndexSet,
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

# the verdict's level: a correct value lies more than Z_LEVEL sigmas from
# its count at a two-sided rate of 6e-5 under the binomial model
Z_LEVEL = 4


# ---------------------------------------------------------------------------
# serialization


def _plain(obj):
    """obj with each Fraction, in dicts and lists too, as "p/q" for json."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return [_plain(v) for v in obj] if isinstance(obj, list) else obj


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
        "low": iv.low,
        "high": iv.high,
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
        "ledger": [[label, x] for label, x in report.ledger],
        "notes": list(report.notes),
    }


# ---------------------------------------------------------------------------
# config handling


def _no_float(text: str):
    """Refuses a JSON number with a fraction or exponent part, or a constant."""
    raise ConfigError(f"config numbers are integers, not {text}")


def load_config(command: str, args) -> dict:
    """The config file, overridden by the command's flags, checked against
    the keys its runner reads; "mode" defaults to corrected where read."""
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh, parse_float=_no_float, parse_constant=_no_float)
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
    for key in ("output", "log_path"):
        if not isinstance(cfg.get(key, ""), str):
            raise ConfigError(f"'{key}' must be a file path")
    if "mode" in keys:
        cfg.setdefault("mode", "corrected")
        if cfg["mode"] not in ("generic", "corrected"):
            raise ConfigError("'mode' is 'generic' or 'corrected'")
    return cfg


def _integer(value, name: str) -> int:
    """value, refused unless it is a JSON integer (true and false are not)."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer")
    return value


def _integers(value, name: str) -> tuple[int, ...]:
    """value as a tuple, refused unless it is a JSON list of integers."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of integers")
    return tuple(_integer(x, name) for x in value)


def _int(cfg: dict, key: str, default: int) -> int:
    return _integer(cfg.get(key, default), f"'{key}'")


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
    return ValuationPattern(
        tuple(None if b is None else _integer(b, "a pattern bound") for b in bounds)
    )


def _parse_vspec(obj, n: int):
    if isinstance(obj, dict):
        return _parse_pattern(obj, n)
    if isinstance(obj, list):
        return tuple(_integers(t, "a valuation tuple") for t in obj)
    raise ConfigError("a valuation spec is a pattern object or a tuple list")


def _by_prime(table: dict, parse) -> dict:
    """table's values parsed, keyed by int(key); refused when two keys name
    one prime, as "2" and "02" do, since the later would silently win."""
    out = {}
    for key, value in table.items():
        ell = int(key)
        if ell in out:
            raise ConfigError(f"the prime {ell} is listed twice")
        out[ell] = parse(value)
    return out


def build_valuation_map(obj: dict, n: int) -> ValuationMap:
    if not isinstance(obj, dict) or not isinstance(obj.get("at") or {}, dict):
        raise ConfigError("a valuation map is {'at': {ell: spec}, 'default': pattern}")
    keys = set(obj) - {"at", "default"}
    if keys:
        raise ConfigError(f"unknown valuation map keys: {sorted(keys)}")
    at = _by_prime(obj.get("at") or {}, lambda spec: _parse_vspec(spec, n))
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


def _kind(desc, name: str, keys: dict) -> str:
    """desc's kind, refused unless desc is an object whose kind keys lists
    and whose other keys are exactly the ones that kind reads."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"'{name}' must be an object with a 'kind' in {sorted(keys)}")
    if set(desc) != keys[kind] | {"kind"}:
        raise ConfigError(f"{name} kind {kind} reads the keys {sorted(keys[kind])}")
    return kind


# the keys each set kind and each level map kind reads besides "kind"
_SET_KEYS = {
    "equals": {"tuple"},
    "divides": {"tuple"},
    "kfree": {"k"},
    "finite": {"tuples"},
    "primes": set(),
    "valuations": {"map"},
    "predicate": {"name"},
}
_LEVEL_MAP_KEYS = {
    "identity": set(),
    "times": {"t"},
    "times-local": {"t"},
    "power": {"k"},
    "prime-powers": {"table"},
}


def build_index_set(cfg: dict, n: int):
    desc = cfg.get("set")
    kind = _kind(desc, "set", _SET_KEYS)
    try:
        if kind == "equals":
            return Equals(_integers(desc["tuple"], "'tuple'"))
        if kind == "divides":
            return Divides(_integers(desc["tuple"], "'tuple'"))
        if kind == "kfree":
            k = desc["k"]
            return KFree(_integers(k if isinstance(k, list) else [k] * n, "'k'"))
        if kind == "finite":
            return FiniteSet(tuple(_integers(t, "a member") for t in desc["tuples"]))
        if kind == "primes":
            return PrimesSet()
        if kind == "valuations":
            return ValuationConstraint(build_valuation_map(desc["map"], n))
        return named_predicate(desc["name"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad set descriptor: {exc}") from exc


def build_congruence(cfg: dict) -> Congruence:
    obj = cfg.get("congruence")
    if obj is None:
        return Congruence.trivial()
    if not isinstance(obj, dict) or set(obj) != {"modulus", "residues"}:
        raise ConfigError("congruence is {'modulus': m, 'residues': [...]}")
    try:
        residues = frozenset(_integers(obj["residues"], "'residues'"))
        return Congruence(_integer(obj["modulus"], "'modulus'"), residues)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad congruence: {exc}") from exc


def build_level_map(cfg: dict) -> IndexSet:
    """The one-index set whose density the level map's series gives. A bad
    t, k or table raises the set constructors' ValueError: exit 2."""
    obj = cfg.get("level_map")
    kind = "identity" if obj is None else _kind(obj, "level_map", _LEVEL_MAP_KEYS)
    if kind == "identity":
        return Equals((1,))
    if kind == "times":
        return Equals((_integer(obj["t"], "'t'"),))
    if kind == "times-local":
        return Divides((_integer(obj["t"], "'t'"),))
    if kind == "power":
        return KFree((_integer(obj["k"], "'k'"),))
    table = obj["table"]
    if not isinstance(table, dict):
        raise ConfigError("a prime-powers table maps primes to exponents")
    at = _by_prime(table, lambda k: ValuationPattern((_integer(k, "an exponent"),)))
    return ValuationConstraint(ValuationMap.build(1, at, ValuationPattern.exact_zero(1)))


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
    modulus = _int(cfg, "modulus", 0)
    levels = _integers(cfg.get("levels", []), "'levels'")
    if modulus < 1 or not levels:
        raise ConfigError("degree needs 'modulus' and 'levels'")
    value = KummerModel(family).degree(modulus, levels)
    return {"modulus": modulus, "levels": list(levels), "degree": value}


def run_density(cfg: dict, survey_keys=frozenset()) -> dict:
    """The chosen method's report. Refuses the density keys that only other
    methods read, apart from survey_keys, which compare reads."""
    family = build_family(cfg)
    _require_trivial_congruence(build_congruence(cfg))
    method = cfg.get("method", "euler")
    if not isinstance(method, str) or method not in _METHOD_KEYS:
        raise ConfigError("method is one of series, euler, singletons")
    unread = sorted((_METHOD_ONLY - _METHOD_KEYS[method] - survey_keys) & set(cfg))
    if unread:
        raise ConfigError(f"method {method} does not read {', '.join(unread)}")
    if method != "series" and cfg["mode"] != "corrected":
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
    else:
        index_set = build_index_set(cfg, len(family))
        smooth = cfg.get("smooth")
        if smooth is not None:
            smooth = SquarefreeModulus.from_int(_integer(smooth, "'smooth'"))
        report = singleton_sum(
            family,
            index_set,
            bound=_int(cfg, "bound", 10**3),
            smooth=smooth,
            cutoff=_int(cfg, "cutoff", 10**5),
        )
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
    """The level map's set, refused when a given 'set' is another set.

    The two are compared by their valuation maps, so one set described
    two ways (prime-powers {2: 2} and divides [2]) is the same; a given
    set with no valuation map differs.
    """
    own = build_level_map(cfg)
    if "set" in cfg:
        try:
            same = build_index_set(cfg, 1).valuation_map() == own.valuation_map()
        except UnsupportedScopeError:
            same = False
        if not same:
            raise ConfigError(
                f"the level map gives the set {own.label()}; 'set' differs"
            )
    return own


def run_compare(cfg: dict) -> tuple[dict, int]:
    index_set = _series_set(cfg) if cfg.get("method") == "series" else None
    analytic = run_density(cfg, _SURVEY_KEYS)
    empirical = run_survey(cfg, index_set)
    low, high = analytic["value"]["low"], analytic["value"]["high"]
    verdict = _verdict(low, high, empirical["hits"], empirical["total"])
    payload = {"analytic": analytic, "empirical": empirical, "z_level": Z_LEVEL}
    exits = {"consistent": EXIT_OK, "inconsistent": EXIT_INCONSISTENT}
    return payload | verdict, exits.get(verdict["verdict"], EXIT_REFUSED)


def run_classify(cfg: dict) -> dict:
    family_given = bool(cfg.get("groups"))
    n = len(build_family(cfg)) if family_given else 1
    index_set = build_index_set(cfg, n)
    if family_given and index_set.n != n:
        raise ConfigError(f"the set has arity {index_set.n}, the family {n}")
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

    ziegler = valuation_density(fam2, Equals((2,)), cutoff=10**4)
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
    impossible = singleton_sum(fam22, pair, bound=50)
    name = "impossible pair (q, q^2), equal groups"
    rows.append(_example_row(name, impossible, pair_emp))
    return {"sieve_bound": bound, "z_level": Z_LEVEL, "rows": rows}


def _example_row(name: str, report: DensityReport, freq) -> dict:
    lo, hi = report.value.decimal_bounds(6)
    return {
        "example": name,
        "analytic": f"[{lo}, {hi}]",
        "empirical": f"{freq.estimate:.6f} ({freq.hits}/{freq.total})",
    } | _verdict(report.value.low, report.value.high, freq.hits, freq.total)


def _verdict(low, high, hits: int, total: int) -> dict:
    """The verdict of compare and paper-examples on the analytic interval
    [low, high] against hits of total primes, with the spread it reads.

    sigma is the standard error sqrt(p(1 - p)/total) of p = hits/total, or,
    when no or every prime is a hit, of the analytic endpoint nearest p.
    z is p's distance to the interval in sigmas (0 inside it, None when
    sigma is 0 and p lies outside), and resolution, Z_LEVEL sigma, is the
    smallest gap the verdict flags: inconsistent exactly when the gap
    exceeds it. With no counted prime the verdict is inconclusive.
    """
    if total == 0:
        return {"verdict": "inconclusive", "sigma": None, "z": None, "resolution": None}
    low, high, p_hat = float(low), float(high), hits / total
    gap = max(low - p_hat, p_hat - high, 0.0)
    e = low if p_hat < low else high
    sigma = math.sqrt(p_hat * (1 - p_hat) / total) or math.sqrt(e * (1 - e) / total)
    resolution = Z_LEVEL * sigma
    return {
        "verdict": "inconsistent" if gap > resolution else "consistent",
        "sigma": sigma,
        "z": gap / sigma if sigma else (0.0 if gap == 0 else None),
        "resolution": resolution,
    }


# ---------------------------------------------------------------------------
# entry point


# the density keys each method reads besides groups, congruence, mode, method
_METHOD_KEYS = {
    "series": {"truncation", "level_map"},
    "euler": {"set", "cutoff"},
    "singletons": {"set", "cutoff", "bound", "smooth"},
}
_METHOD_ONLY = set().union(*_METHOD_KEYS.values())
_DENSITY_KEYS = {"groups", "congruence", "mode", "method"} | _METHOD_ONLY
_SURVEY_KEYS = {"groups", "set", "congruence", "sieve_bound", "log_path"}

# Each command's help, the config keys its runner reads (main reads
# "output" for all), and its runner.
_COMMANDS = {
    "degree": (
        "exact cyclotomic-Kummer degrees",
        {"groups", "modulus", "levels"},
        run_degree,
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
        "help": "generic or exact (corrected) Kummer degrees for the series "
        "method (default corrected); the euler and singletons methods are "
        "always exact and refuse generic",
    },
    "cutoff": {
        "type": int,
        "help": "where the crude Euler tail 1 - 2^n/cutoff starts, for a "
        "default factor with no accelerated tail; the exact product "
        "otherwise stops at a split of a few hundred, whatever the cutoff",
    },
    "truncation": {"type": int},
    "bound": {"type": int},
    "sieve_bound": {"type": int},
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

    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit:  # exact payloads can pass Python's int-to-str digit limit
        sys.set_int_max_str_digits(0)
    try:
        document = _plain({"command": args.command, "result": payload})
        text = json.dumps(document, indent=2, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
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
