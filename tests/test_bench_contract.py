"""The benchmark binds package functions by name and checks the outputs of
its jobs; these tests fail when a refactor renames one of those functions,
or when a U-statistic path would fail the benchmark's output check, instead
of ``bench/run.py`` failing later."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from lrdustat.ustat import builtin_kernel, ustat_fast

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


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


def test_tracer_sees_the_builtin_paths(tracing):
    # a kernel reads its path from the module when it is built, so a tracer
    # installed first records the call; a kernel built at import time would
    # hold the untraced function
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x = np.linspace(-1.0, 1.0, 50)
        for spec in ("wilcoxon", "cusum"):
            ustat_fast(x, builtin_kernel(spec))
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.spans] == ["ustat.wilcoxon",
                                                    "ustat.cusum"]


def test_tracer_times_detects_read(tracing, tmp_path, monkeypatch):
    # detect reads its input through read_path alone; the tracer's read
    # targets must wrap that function, or the parse is booked to cli.main
    from lrdustat import cli, lrd_sim

    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    values = lrd_sim.simulate_gaussian(lrd_sim.LrdParams(D=0.4), 200, seed=1)
    lrd_sim.write_path_csv(values, tmp_path / "path.csv")
    lrd_sim.write_path_binary(values, tmp_path / "path.bin")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["detect", "--input", str(tmp_path / name),
                           "--D", "0.4", "--reps", "100", "--grid-size", "8"])
                 for name in ("path.csv", "path.bin")]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert "lrd_sim.read" in {span.name for span in tracer.spans}
    assert tracing.layer_metrics(tracer.spans)["lrd_sim.read_s"] > 0


@pytest.fixture(scope="module")
def bench_checks():
    """``bench/inputs.py`` and ``bench/checks.py`` (standard library and
    numpy only), under the names ``checks.py`` imports them by."""
    saved = {name: sys.modules.get(name) for name in ("inputs", "checks")}
    try:
        for name in ("inputs", "checks"):
            spec = importlib.util.spec_from_file_location(name,
                                                          BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        yield sys.modules["inputs"], sys.modules["checks"]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _tukey(c):
    def h(x, y):
        t = x - y
        return np.where(np.abs(t) <= c, t * (1.0 - (t / c) ** 2) ** 2, 0.0)
    return h


@pytest.mark.parametrize("spec", ["huber:1.345", "tukey:4.685"])
def test_score_paths_pass_the_bench_check(bench_checks, spec):
    # detect_warm's n = 4000 series at seed 1, against the benchmark's own
    # pair-matrix path, with the tolerance its detect check applies
    inputs, checks = bench_checks
    x, _ = inputs.shifted_series(4000, np.random.default_rng([1, 2]))
    h = inputs.huber(1.345) if spec.startswith("huber") else _tukey(4.685)
    ref = inputs.pair_path(x, h)
    got = ustat_fast(x, builtin_kernel(spec))
    assert np.max(np.abs(got - ref)) <= checks.STAT_RTOL * np.max(np.abs(ref))
    _, stat, k_ref = inputs.detector(ref, 0.0, 1)
    _, value, k_star = inputs.detector(got, 0.0, 1)
    assert abs(value - stat) <= checks.STAT_RTOL * stat
    assert k_star == k_ref
