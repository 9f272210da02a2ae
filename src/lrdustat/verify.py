"""Monte Carlo harnesses checking the asymptotic theory at desk scale.

Three experiments: partial-sum variance asymptotics of Hermite polynomials
(exact quadratic form vs the LRD/SRD asymptote), the reduction principle
(distance between the U-statistic process and its rank-diagonal
projection), and weak convergence of normalized sup-statistics to the
simulated limit distribution.  Each keeps one number per dataset drawn
by :func:`lrd_sim.replicate`: a Hermite sum or a sup-statistic.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import ParameterError
from .hermite import (HermiteCoeffTable, check_regime, hermite_eval,
                      hermite_sum_std, kernel_table)
from .limit_law import limit_thm1
from .lrd_sim import FGN, CirculantEmbedding, LrdParams, asymptotic_L, \
    build_covariance, replicate
from .ustat import Kernel, changepoint_statistic, ustat_factored, ustat_fast


def _series_constant(k: int, params: LrdParams, cut: int = 10 ** 4) -> float:
    """sum over all integer lags of gamma(d)^k, which converges when Dk > 1:
    the lags up to ``cut`` term by term, the rest by Euler-Maclaurin from
    the family's tail, gamma(d)^k ~ L^k d^(-Dk) for fgn and = (1+d)^(-Dk)
    for tweaked.  At Dk = 1.02 the lags past 10^6 hold 69% of the sum.
    Below Dk = 1 the same tail continues the sum analytically (as zeta(s)
    continues sum d^-s): the coefficient of n in the two-term expansion of
    the partial-sum variance."""
    gamma = build_covariance(params, cut)
    s = params.D * k
    if params.family == FGN:
        scale, t = asymptotic_L(params, cut) ** k, float(cut)
    else:
        scale, t = 1.0, cut + 1.0
    # sum_{x > t} x^-s = int_t^inf x^-s dx - t^-s / 2 - (B_2 / 2!) f'(t)
    # - (B_4 / 4!) f'''(t) - ..., f = x^-s, B_2 = 1/6, B_4 = -1/30
    tail = scale * t ** -s * (t / (s - 1.0) - 0.5 + s / (12.0 * t)
                              - s * (s + 1.0) * (s + 2.0) / (720.0 * t ** 3))
    return 1.0 + 2.0 * (float(np.sum(gamma[1:] ** k)) + tail)


#: largest Hermite degree of the variance check: its constants hold k!,
#: and 170! < 1.8e308 < 171!
MAX_VARIANCE_DEGREE = 170


def check_variance(k: int, params: LrdParams, n_list, reps: int = 0,
                   seed: int = 0) -> dict:
    """Exact (and optionally Monte Carlo) partial-sum variance vs asymptote.

    In the LRD branch (Dk < 1) the asymptote is c_k n^(2-Dk) L(n)^k; in the
    SRD branch (Dk > 1) the variance grows linearly and the report tracks
    Var/n.  Both branches also report the two-term asymptote k! C n +
    c_k L(n)^k n^(2-Dk), C = sum_d gamma(d)^k (null at Dk = 2, where the
    second term is logarithmic, and wherever it is not finite): near
    Dk = 1 each branch's leading term alone is far from the variance.
    reps = 0 runs the exact quadratic form only; a Monte Carlo
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
    s = params.D * k
    if s == 1.0:  # gamma(d)^k ~ L^k / d
        raise ParameterError(
            f"D*k = 1 (D = {params.D}, k = {k}): the variance grows like "
            "n log n, with no asymptote of either branch")
    lrd = s < 1.0
    # k! sum_d gamma(d)^k, the SRD slope; it does not depend on n
    slope = math.factorial(k) * _series_constant(k, params)
    # Var ~ slope n + c_k L(n)^k n^(2-Dk) on both branches, with
    # c_k = 2 k!/((1-Dk)(2-Dk)) written out, as c_constant refuses Dk >= 1;
    # at Dk = 2 the second term is logarithmic, and the sum is reported null
    c_k = (math.nan if s == 2.0
           else 2.0 * math.factorial(k) / ((1.0 - s) * (2.0 - s)))
    per_n = {}
    for n in n_list:
        n = int(n)
        exact = hermite_sum_std(params, k, n) ** 2
        # the LRD asymptote, and the second term of the two-term one
        lead = c_k * n ** (2.0 - s) * asymptotic_L(params, n) ** k
        row = {"exact_var": exact}
        if lrd:
            row["asymptote"] = lead
            row["ratio"] = exact / lead
        else:
            row["var_over_n"] = exact / n
            row["asymptote_slope"] = slope
        # Python floats: an overflow is inf or nan, reported as null
        two_term = slope * n + lead
        ratio = exact / two_term if two_term else math.nan
        finite = math.isfinite(two_term) and math.isfinite(ratio)
        row["two_term_asymptote"] = two_term if finite else None
        row["two_term_ratio"] = ratio if finite else None
        if reps:
            sums = replicate([CirculantEmbedding(params, n)], reps, seed,
                             lambda xi: np.sum(hermite_eval(k, xi)))
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
    check_regime(params.D, m)
    per_n = {}
    for n in n_list:
        n = int(n)
        sups = replicate(
            [CirculantEmbedding(params, n)], reps, seed,
            lambda xi: changepoint_statistic(
                ustat_fast(xi, kernel) - rank_projection_path(xi, table),
                table, params)[0])
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
    return replicate([CirculantEmbedding(params, n)], reps, seed,
                     lambda xi: changepoint_statistic(ustat_fast(xi, kernel),
                                                      table, params)[0])


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
    if seed + 1 >= 1 << 64:  # the limit law's seed must fit the key too
        raise ParameterError(
            f"seed and rep must be in [0, 2^64), got seed {seed}: the limit "
            f"law draws from seed + 1 = {seed + 1}")
    table = kernel_table(kernel)
    # the data first: replicate refuses reps < 1 before any limit-law draw
    sups = normalized_sup_statistics(kernel, table, params, n, reps, seed)
    limit = limit_thm1(table.diagonal(table.rank), params.D,
                       grid_size=grid_size, reps=limit_reps, seed=seed + 1)
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
