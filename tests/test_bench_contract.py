"""The benchmark's tracer wraps package functions by name; these tests fail
when a refactor renames one of them, instead of ``bench/run.py --trace 1``
failing later."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    try:
        spec.loader.exec_module(module)  # standard library imports only
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves(tracing):
    missing = []
    for mod_name, attr, _, _ in tracing.TARGETS:
        obj = importlib.import_module(f"lrdustat.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("mod_name, attr, argument", [
    ("ustat", "ustat_wilcoxon", "data"),
    ("ustat", "ustat_cusum", "data"),
    ("ustat", "ustat_incremental", "data"),
    ("limit_law", "limit_thm1", "reps"),
    ("lrd_sim", "CirculantEmbedding.__init__", "n"),
], ids=["ustat_wilcoxon", "ustat_cusum", "ustat_incremental", "limit_thm1",
        "CirculantEmbedding.__init__"])
def test_traced_functions_take_bound_arguments(mod_name, attr, argument):
    # the tracer reads span attributes from these arguments by name
    obj = importlib.import_module(f"lrdustat.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert argument in inspect.signature(obj).parameters
