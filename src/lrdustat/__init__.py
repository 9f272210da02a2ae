"""Two-sample U-statistic processes for long-range dependent time series.

Importing the package loads no numpy: the exceptions are bound here, and
every other exported name, and each submodule, is imported on first access
(PEP 562).  So ``lrdustat.cli`` parses a command before it pays for the
numeric modules, and a command that never runs ``verify`` never imports it.
"""

import importlib

__version__ = "0.1.0"

from .errors import NonEmbeddableError, ParameterError, RegimeError

#: submodule -> the names the package exports from it
_EXPORTS = {
    "hermite": ("ClassCoeffs", "HermiteCoeffTable", "ScalingConstants",
                "class_coeffs", "coeffs_2d", "coeffs_2d_montecarlo",
                "hermite_eval", "kernel_table", "rank_2d", "scaling",
                "summability_diagnostic", "wilcoxon_coeff_closed_form"),
    "limit_law": ("CriticalValueTable", "LimitEnsemble", "critical_values",
                  "default_grid", "limit_thm1", "limit_thm2",
                  "simulate_hermite"),
    "lrd_sim": ("FGN", "TWEAKED_POWER_LAW", "LrdParams", "Subordinator",
                "asymptotic_L", "build_covariance", "replication_rng",
                "simulate_gaussian"),
    "ustat": ("Kernel", "OddScore", "builtin_kernel", "changepoint_statistic",
              "cusum_kernel", "gaussian_bump_kernel", "huber_kernel",
              "tukey_kernel", "ustat_cusum", "ustat_factored",
              "ustat_incremental", "ustat_naive", "ustat_score",
              "ustat_wilcoxon", "wilcoxon_kernel"),
    "verify": ("check_reduction", "check_variance", "check_weak_convergence"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["NonEmbeddableError", "ParameterError", "RegimeError",
           *_EXPORTS, *_SUBMODULE]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SUBMODULE:
        module = importlib.import_module(f"{__name__}.{_SUBMODULE[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
