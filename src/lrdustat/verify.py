"""Monte Carlo harnesses checking the asymptotic theory at desk scale.

Three experiments: partial-sum variance asymptotics of Hermite polynomials
(exact quadratic form vs the LRD/SRD asymptote), the reduction principle
(distance between the U-statistic process and its rank-diagonal
projection), and weak convergence of normalized sup-statistics to the
simulated limit distribution.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import ParameterError, RegimeError
from .hermite import (HermiteCoeffTable, c_constant, hermite_eval,
                      hermite_sum_std, kernel_table)
from .limit_law import limit_thm1
from .lrd_sim import CirculantEmbedding, LrdParams, asymptotic_L, \
    build_covariance, replication_draws
from .ustat import Kernel, changepoint_statistic, ustat_factored, ustat_fast


def _srd_series_constant(k: int, params: LrdParams, tail: int = 10 ** 6) -> float:
    """sum over all integer lags of gamma(d)^k (converges when Dk > 1)."""
    gamma = build_covariance(params, tail)
    return 1.0 + 2.0 * float(np.sum(gamma[1:] ** k))


#: largest Hermite degree of the variance check: its constants hold k!,
#: and 170! < 1.8e308 < 171!
MAX_VARIANCE_DEGREE = 170


def check_variance(k: int, params: LrdParams, n_list, reps: int = 0,
                   seed: int = 0) -> dict:
    """Exact (and optionally Monte Carlo) partial-sum variance vs asymptote.

    In the LRD branch (Dk < 1) the asymptote is c_k n^(2-Dk) L(n)^k; in the
    SRD branch (Dk > 1) the variance grows linearly and the report tracks
    Var/n.  reps = 0 runs the exact quadratic form only; a Monte Carlo
    cross-check needs reps >= 100 and every n >= 2.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k > MAX_VARIANCE_DEGREE:
        raise ParameterError(f"k! overflows float64 at k = {k}; the largest "
                             f"supported degree is {MAX_VARIANCE_DEGREE}")
    if reps != 0 and reps < 100:
        raise ParameterError("Monte Carlo cross-check needs reps >= 100 "
                             "(use reps=0 for exact-only)")
    short = [int(n) for n in n_list if int(n) < 2]
    if reps and short:
        raise ParameterError(
            f"Monte Carlo cross-check needs n >= 2 for every --n, got "
            f"{short[0]} (use reps=0 for exact-only)")
    lrd = params.D * k < 1.0
    # the SRD slope k! sum_d gamma(d)^k does not depend on n
    slope = None if lrd else math.factorial(k) * _srd_series_constant(k, params)
    per_n = {}
    for n in n_list:
        n = int(n)
        exact = hermite_sum_std(params, k, n) ** 2
        row = {"exact_var": exact}
        if lrd:
            asym = (c_constant(params.D, k)
                    * n ** (2.0 - params.D * k)
                    * asymptotic_L(params, n) ** k)
            row["asymptote"] = asym
            row["ratio"] = exact / asym
        else:
            row["var_over_n"] = exact / n
            row["asymptote_slope"] = slope
        if reps:
            emb = CirculantEmbedding(params, n)
            sums = np.empty(reps)
            for r, (xi,) in enumerate(replication_draws([emb], reps, seed)):
                sums[r] = np.sum(hermite_eval(k, xi))
            # squares of sums near k = 170 overflow to inf, reported as
            # a non-finite result
            with np.errstate(over="ignore", invalid="ignore"):
                mc = float(np.var(sums, ddof=1))
            row["mc_var"] = mc
            # variance of the sample variance for approximately normal sums
            row["mc_stderr"] = mc * math.sqrt(2.0 / (reps - 1))
        per_n[n] = row
    return {"name": "variance_asymptotics",
            "params": {"k": k, "D": params.D, "family": params.family,
                       "branch": "lrd" if lrd else "srd", "reps": reps},
            "per_n": per_n, "seed": seed}


def rank_projection_path(data_xi: np.ndarray, table: HermiteCoeffTable) -> np.ndarray:
    """Degree-m projection process at every split,

        P(b) = sum_{k+l=m} a_{kl}/(k! l!) (sum_{i<=b} H_k)(sum_{j>b} H_l),

    the U-statistic path of the finite-rank projection kernel
    sum a_{kl}/(k! l!) H_k(x) H_l(y), by :func:`ustat_factored` in O(n) per
    diagonal entry.
    """
    m = table.rank
    if m is None:
        raise ParameterError("kernel rank not detectable from its table")
    return ustat_factored(data_xi, [
        (a / (math.factorial(k) * math.factorial(l)),
         partial(hermite_eval, k), partial(hermite_eval, l))
        for (k, l), a in table.diagonal(m).items()])


def check_reduction(kernel: Kernel, params: LrdParams, n_list,
                    reps: int, seed: int = 0) -> dict:
    """E[sup_lambda |U_n - k(n-k) a00 - rank-m projection| / (d'_n n)]
    across n.

    The theory predicts this discrepancy vanishes; the report tracks its
    decay over n_list.
    """
    if reps < 2:
        raise ParameterError("reps must be >= 2 for a standard error")
    table = kernel_table(kernel)
    m = table.rank
    if m * params.D >= 1.0:
        raise RegimeError(f"reduction regime violated: m*D = {m * params.D}")
    per_n = {}
    for n in n_list:
        n = int(n)
        emb = CirculantEmbedding(params, n)
        sups = np.empty(reps)
        for r, (xi,) in enumerate(replication_draws([emb], reps, seed)):
            u = ustat_fast(xi, kernel)
            proj = rank_projection_path(xi, table)
            sups[r] = changepoint_statistic(u - proj, table, params)[0]
        per_n[n] = {"mean_sup_discrepancy": float(np.mean(sups)),
                    "stderr": float(np.std(sups, ddof=1) / math.sqrt(reps))}
    return {"name": "reduction_principle",
            "params": {"kernel": kernel.name, "D": params.D,
                       "family": params.family, "m": m, "reps": reps},
            "per_n": per_n, "seed": seed}


def normalized_sup_statistics(kernel: Kernel, table: HermiteCoeffTable,
                              params: LrdParams, n: int, reps: int,
                              seed: int) -> np.ndarray:
    """Sup-statistics of the U-statistic process, centred and normalized by
    the kernel's ``table``, for ``reps`` independent simulated datasets."""
    emb = CirculantEmbedding(params, n)
    sups = np.empty(reps)
    for r, (xi,) in enumerate(replication_draws([emb], reps, seed)):
        sups[r] = changepoint_statistic(ustat_fast(xi, kernel), table,
                                        params)[0]
    return sups


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)| of the
    empirical CDFs; the sup is attained at a pooled sample point."""
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def check_weak_convergence(kernel: Kernel, params: LrdParams, n: int,
                           reps: int, limit_reps: int, grid_size: int,
                           seed: int = 0) -> dict:
    """Two-sample KS distance between ``reps`` normalized sup-statistics at
    sample size ``n`` and ``limit_reps`` sups of the kernel's Theorem-1 limit
    law on a grid of ``grid_size`` points, drawn from ``seed + 1``."""
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    table = kernel_table(kernel)
    limit = limit_thm1(table.diagonal(table.rank), params.D,
                       grid_size=grid_size, reps=limit_reps, seed=seed + 1)
    sups = normalized_sup_statistics(kernel, table, params, n, reps, seed)
    limit_sups = limit.sup_abs()
    ks = ks_statistic(sups, limit_sups)
    per_n = {n: {"ks_distance": ks,
                 "data_reps": reps,
                 "limit_reps": int(limit_sups.size),
                 "mean_sup_data": float(np.mean(sups)),
                 "mean_sup_limit": float(np.mean(limit_sups))}}
    return {"name": "weak_convergence",
            "params": {"kernel": kernel.name, "D": params.D,
                       "family": params.family, "n": n, "reps": reps,
                       "limit_descriptor": limit.descriptor},
            "per_n": per_n, "seed": seed}
