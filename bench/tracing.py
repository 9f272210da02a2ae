"""In-process tracing of ``lrdustat``'s public functions.

:class:`Tracer` wraps each function in ``TARGETS`` at every place it is
bound: the defining module's attribute, each ``from ... import`` copy in
another ``lrdustat`` module, or the class attribute for methods.  A wrapper
records one span (name, job, parent, start, end, attributes) per call in
memory; :func:`layer_metrics` turns the spans into self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _n_data(a):
    return {"n": len(a["data"])}


#: (module, attribute or Class.method, span name, attributes from the
#: bound arguments, evaluated after the call)
TARGETS = [
    ("lrd_sim", "CirculantEmbedding.__init__", "lrd_sim.embed", lambda a: {"n": a["n"]}),
    ("lrd_sim", "CirculantEmbedding.sample", "lrd_sim.sample", lambda a: {"n": a["self"].n}),
    ("lrd_sim", "read_path_csv", "lrd_sim.read", None),
    ("lrd_sim", "read_path_binary", "lrd_sim.read", None),
    ("hermite", "coeffs_2d", "hermite.table", None),
    ("hermite", "closed_form_table", "hermite.table", None),
    ("hermite", "hermite_eval", "hermite.eval", None),
    ("hermite", "hermite_sum_std", "hermite.sum_std", None),
    ("ustat", "ustat_wilcoxon", "ustat.wilcoxon", _n_data),
    ("ustat", "ustat_cusum", "ustat.cusum", _n_data),
    ("ustat", "ustat_incremental", "ustat.incremental", _n_data),
    ("limit_law", "limit_thm1", "limit_law.thm1", lambda a: {"reps": a["reps"]}),
    ("limit_law", "critical_values", "limit_law.cv", None),
    ("verify", "check_reduction", "verify.reduction", None),
    ("verify", "check_weak_convergence", "verify.weak", None),
    ("verify", "normalized_sup_statistics", "verify.sups", None),
    ("verify", "rank_projection_path", "verify.projection", None),
    ("cli", "main", "cli.main", None),
    ("cli", "limit_table", "cli.limit_table", None),
]

#: per-layer metric -> unit; every traced run reports all of them
UNITS = {
    "lrd_sim.sample_s": "s", "lrd_sim.draws": "count",
    "lrd_sim.ms_per_draw": "ms", "lrd_sim.embed_s": "s", "lrd_sim.read_s": "s",
    "hermite.table_s": "s", "hermite.table_calls": "count",
    "hermite.eval_s": "s", "hermite.sum_std_s": "s",
    "ustat.wilcoxon_s": "s", "ustat.cusum_s": "s", "ustat.incremental_s": "s",
    "ustat.paths": "count", "ustat.pairs": "count",
    "limit_law.thm1_s": "s", "limit_law.reps": "count",
    "limit_law.ms_per_rep": "ms", "limit_law.cv_s": "s",
    "verify.reduction_s": "s", "verify.weak_s": "s", "verify.sups_s": "s",
    "verify.projection_s": "s",
    "cli.import_s": "s", "cli.self_s": "s", "cli.cache_hits": "count",
    "cli.cache_misses": "count", "cli.cache_hit_ratio": "ratio",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
    "anchor.draw_ms_n32768": "ms", "anchor.draw_ms_n2000": "ms",
    "anchor.wilcoxon_s_n100000": "s", "anchor.incremental_s_n4000": "s",
}


@dataclass
class Span:
    name: str
    job: str | None
    parent: int | None
    start: float
    end: float
    attrs: dict


class Tracer:
    """Spans of every traced call made between :meth:`install` and
    :meth:`uninstall`; ``job`` labels the spans of the job being run."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, attrs):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = {}
                if attrs:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = attrs(bound.arguments)
                self.spans[idx] = Span(name, self.job, parent, start, end, extra)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "lrdustat" or key.startswith("lrdustat.")]
        for mod_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(f"lrdustat.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, attrs))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            obj, key, orig = self._restore.pop()
            setattr(obj, key, orig)


def layer_metrics(spans: list) -> dict:
    """Self times, counts and per-call figures of each layer (values only;
    ``UNITS`` gives the units).  ``cli.import_s`` and ``trace.*`` are
    measured by the caller."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    count = defaultdict(int)
    for i, s in enumerate(spans):
        self_s[s.name] += s.end - s.start - child_time[i]
        count[s.name] += 1

    def incl(name, **match):
        hits = [s.end - s.start for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]
        return sum(hits), len(hits)

    def per_call(name, scale, **match):
        total, calls = incl(name, **match)
        return scale * total / calls if calls else 0.0

    # a limit_table call missed the cache when a limit_thm1 ran inside it
    misses = set()
    for s in spans:
        if s.name == "limit_law.thm1":
            p = s.parent
            while p is not None:
                if spans[p].name == "cli.limit_table":
                    misses.add(p)
                p = spans[p].parent
    lookups = count["cli.limit_table"]
    reps = sum(s.attrs["reps"] for s in spans if s.name == "limit_law.thm1")
    return {
        "lrd_sim.sample_s": self_s["lrd_sim.sample"],
        "lrd_sim.draws": count["lrd_sim.sample"],
        "lrd_sim.ms_per_draw": per_call("lrd_sim.sample", 1e3),
        "lrd_sim.embed_s": self_s["lrd_sim.embed"],
        "lrd_sim.read_s": self_s["lrd_sim.read"],
        "hermite.table_s": self_s["hermite.table"],
        "hermite.table_calls": count["hermite.table"],
        "hermite.eval_s": self_s["hermite.eval"],
        "hermite.sum_std_s": self_s["hermite.sum_std"],
        "ustat.wilcoxon_s": self_s["ustat.wilcoxon"],
        "ustat.cusum_s": self_s["ustat.cusum"],
        "ustat.incremental_s": self_s["ustat.incremental"],
        "ustat.paths": sum(count[f"ustat.{k}"]
                           for k in ("wilcoxon", "cusum", "incremental")),
        "ustat.pairs": sum(s.attrs["n"] * (s.attrs["n"] - 1) // 2
                           for s in spans if s.name == "ustat.incremental"),
        "limit_law.thm1_s": self_s["limit_law.thm1"],
        "limit_law.reps": reps,
        "limit_law.ms_per_rep": (1e3 * incl("limit_law.thm1")[0] / reps
                                 if reps else 0.0),
        "limit_law.cv_s": self_s["limit_law.cv"],
        "verify.reduction_s": self_s["verify.reduction"],
        "verify.weak_s": self_s["verify.weak"],
        "verify.sups_s": self_s["verify.sups"],
        "verify.projection_s": self_s["verify.projection"],
        "cli.self_s": self_s["cli.main"] + self_s["cli.limit_table"],
        "cli.cache_hits": lookups - len(misses),
        "cli.cache_misses": len(misses),
        "cli.cache_hit_ratio": (lookups - len(misses)) / lookups if lookups else 0.0,
        "trace.spans": len(spans),
        "anchor.draw_ms_n32768": per_call("lrd_sim.sample", 1e3, n=2 ** 15),
        "anchor.draw_ms_n2000": per_call("lrd_sim.sample", 1e3, n=2000),
        "anchor.wilcoxon_s_n100000": per_call("ustat.wilcoxon", 1.0, n=100_000),
        "anchor.incremental_s_n4000": per_call("ustat.incremental", 1.0, n=4000),
    }
