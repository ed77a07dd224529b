"""Spans around the package's layers, recorded from outside the package.

``install`` replaces each listed function with a wrapper that records a
span (name, start, end, parent) in every module that bound the function,
including through ``from ... import``, and on every class that defines a
listed method; ``Installed.restore`` puts the originals back.  Generator
functions get one span per resume, so a scan's self time excludes the
consumer's work between items.  Spans live in flat arrays until the run
writes them out; self times and ratios are computed from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = {
    "arith": ("primes_up_to", "factorize", "euler_phi", "moebius_sieve"),
    "groups": ("RankProfile.of", "profile_of"),
    "index_sets": ("IndexSet.contains", "IndexSet.members"),
    "kummer": (
        "generic_exponent",
        "KummerModel.degree",
        "KummerModel.degree_estimate",
    ),
    "artin": ("local_series", "local_factor", "corner_degree", "euler_product"),
    "density": ("valuation_density", "hooley_series", "singleton_sum"),
    "empirical": ("spf_table", "index_tuple", "observations", "survey_many"),
    "exact": ("Interval.times_exact", "series_sum"),
    "cli": ("main",),
}

# Per-layer metrics reported from a traced pass, as "<span>.<stat>".
CALLS = (
    "arith.primes_up_to",
    "arith.factorize",
    "arith.euler_phi",
    "groups.RankProfile.of",
    "groups.profile_of",
    "index_sets.IndexSet.contains",
    "kummer.generic_exponent",
    "kummer.KummerModel.degree",
    "kummer.KummerModel.degree_estimate",
    "artin.local_series",
    "artin.local_factor",
    "artin.corner_degree",
    "empirical.index_tuple",
    "exact.Interval.times_exact",
)
SELF_S = tuple(
    f"{module}.{name}" for module, names in LAYERS.items() for name in names
    if f"{module}.{name}" != "groups.profile_of"
)

DEGREE_ESTIMATE = "kummer.KummerModel.degree_estimate"


class Tracer:
    """In-memory span store; one tracer per traced pass."""

    def __init__(self):
        self.labels: list[str] = []
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.job = 0  # index of the running job, set by the caller
        # (job, modulus, levels) of every degree_estimate call: a repeated
        # key is work the model's estimate cache should have saved.
        self.keys: set = set()

    def label_id(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def enter(self, label_id: int) -> None:
        self.stack.append(len(self.names))
        self.names.append(label_id)
        self.parents.append(self.stack[-2] if len(self.stack) > 1 else -1)
        self.ends.append(0.0)
        self.starts.append(perf_counter())

    def exit(self) -> None:
        self.ends[self.stack.pop()] = perf_counter()

    def wrap(self, label: str, fn):
        label_id = self.label_id(label)
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):

            def resumes(gen):
                try:
                    while True:
                        enter(label_id)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            exit_()
                        yield item
                finally:
                    gen.close()

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return resumes(fn(*args, **kwargs))

            return gen_wrapper

        keyed = label == DEGREE_ESTIMATE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                self.keys.add((self.job, args[1], tuple(args[2])))
            enter(label_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.frombuffer(self.names, dtype=np.uint16),
            "parents": np.frombuffer(self.parents, dtype=np.int32),
            "starts": np.frombuffer(self.starts, dtype=np.float64),
            "ends": np.frombuffer(self.ends, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        a = self.arrays()
        duration = a["ends"] - a["starts"]
        child = a["parents"] >= 0
        covered = np.bincount(
            a["parents"][child], weights=duration[child], minlength=duration.size
        )
        return duration - covered

    def stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span label."""
        names = self.arrays()["names"]
        width = len(self.labels)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=self.self_times(), minlength=width)
        out: dict[str, tuple[int, float]] = {}
        for i, label in enumerate(self.labels):
            c, s = out.get(label, (0, 0.0))
            out[label] = (c + int(calls[i]), s + float(self_s[i]))
        return out

    def save(self, path: str) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())


def layer_metrics(tracer: Tracer, log_written: int, log_read: int) -> dict[str, float]:
    stats = tracer.stats()
    out: dict[str, float] = {}
    for label in CALLS:
        out[f"{label}.calls"] = stats[label][0]
    for label in SELF_S:
        out[f"{label}.self_s"] = stats[label][1]
    estimates = stats[DEGREE_ESTIMATE][0]
    out["kummer.degree_estimate.distinct_ratio"] = (
        len(tracer.keys) / estimates if estimates else 0.0
    )
    series = stats["artin.local_series"][0]
    out["artin.local_factor.per_series"] = (
        stats["artin.local_factor"][0] / series if series else 0.0
    )
    out["empirical.log_bytes_written"] = log_written
    out["empirical.log_bytes_read"] = log_read
    return out


def _package_modules(package: str) -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Installed:
    """The wrappers one ``install`` call put in place."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(tracer: Tracer, package: str = "indexdensity") -> Installed:
    """Wrap every function in LAYERS wherever the package binds it."""
    modules = _package_modules(package)
    installed = Installed()
    for module_name, names in LAYERS.items():
        home = sys.modules[f"{package}.{module_name}"]
        for name in names:
            label = f"{module_name}.{name}"
            if "." in name:
                cls_name, method = name.split(".")
                for cls in _subclasses(getattr(home, cls_name)):
                    if method in vars(cls):
                        installed.set(cls, method, tracer.wrap(label, vars(cls)[method]))
                continue
            original = getattr(home, name)
            wrapped = tracer.wrap(label, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        installed.set(module, attr, wrapped)
    return installed
