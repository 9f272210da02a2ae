"""The package namespace resolves its exports on first access (PEP 562):
every name it exports resolves, in a fresh interpreter, to the object its
submodule defines."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lrdustat

#: the names the package exports, by the submodule that defines them
EXPORTS = {
    "errors": ["NonEmbeddableError", "ParameterError", "RegimeError"],
    "hermite": ["ClassCoeffs", "HermiteCoeffTable", "ScalingConstants",
                "class_coeffs", "coeffs_2d", "coeffs_2d_montecarlo",
                "hermite_eval", "kernel_table", "rank_2d", "scaling",
                "summability_diagnostic", "wilcoxon_coeff_closed_form"],
    "limit_law": ["CriticalValueTable", "LimitEnsemble", "critical_values",
                  "default_grid", "limit_thm1", "limit_thm2",
                  "simulate_hermite"],
    "lrd_sim": ["FGN", "TWEAKED_POWER_LAW", "LrdParams", "Subordinator",
                "asymptotic_L", "build_covariance", "replication_rng",
                "simulate_gaussian"],
    "ustat": ["Kernel", "OddScore", "builtin_kernel", "changepoint_statistic",
              "cusum_kernel", "gaussian_bump_kernel", "huber_kernel",
              "tukey_kernel", "ustat_cusum", "ustat_factored",
              "ustat_incremental", "ustat_naive", "ustat_score",
              "ustat_wilcoxon", "wilcoxon_kernel"],
    "verify": ["check_reduction", "check_variance", "check_weak_convergence"],
}

NAMESPACE_SCRIPT = textwrap.dedent("""
    import importlib, json, sys
    import lrdustat

    exports = json.loads(sys.argv[1])
    star = {}
    exec("from lrdustat import *", star)
    del star["__builtins__"]
    mismatched = [
        name for module, names in exports.items() for name in names
        if not getattr(lrdustat, name)
        is star.get(name)
        is getattr(importlib.import_module(f"lrdustat.{module}"), name)]
    submodules = [module for module in exports
                  if getattr(lrdustat, module)
                  is not sys.modules[f"lrdustat.{module}"]]
    try:
        lrdustat.no_such_name
        unknown = "resolved"
    except AttributeError as exc:
        unknown = str(exc)
    print(json.dumps({"star": sorted(star), "all": sorted(lrdustat.__all__),
                      "mismatched": mismatched, "submodules": submodules,
                      "unknown": unknown}))
""")


def test_every_export_resolves_in_a_fresh_interpreter():
    src = str(Path(lrdustat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NAMESPACE_SCRIPT, json.dumps(EXPORTS)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    names = {name for names in EXPORTS.values() for name in names}
    submodules = set(EXPORTS) - {"errors"}
    assert set(result["all"]) == names | submodules
    assert set(result["star"]) == names | submodules
    assert result["mismatched"] == []
    assert result["submodules"] == []
    assert result["unknown"] == ("module 'lrdustat' has no attribute "
                                 "'no_such_name'")
