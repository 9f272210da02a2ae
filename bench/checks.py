"""Output checks for benchmark jobs.  Each check returns a list of problems;
an empty list means the job's output is correct."""

from __future__ import annotations

import functools
import math

import numpy as np

from inputs import detector

STAT_RTOL = 1e-8       # statistic against the numpy reference path
LOCATE_TOL = 0.1       # |k* - shift| allowed, as a share of n
ALPHA = 1e-6           # two-sided miss rate of each Monte Carlo band
REF_Z = 5.0            # standard errors allowed for the reference's own noise


def _binom_sf(j: int, reps: int, u: float) -> float:
    """P(Binomial(reps, u) >= j)."""
    if u <= 0.0:
        return 0.0 if j > 0 else 1.0
    if u >= 1.0:
        return 1.0
    log_u, log_v = math.log(u), math.log1p(-u)
    return sum(math.exp(math.lgamma(reps + 1) - math.lgamma(i + 1)
                        - math.lgamma(reps - i + 1) + i * log_u
                        + (reps - i) * log_v)
               for i in range(j, reps + 1))


def _order_stat_quantile(j: int, reps: int, prob: float) -> float:
    """u with P(F(X_(j)) <= u) = prob, where X_(j) is the j-th of ``reps``
    order statistics: F(X_(j)) ~ Beta(j, reps + 1 - j)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _binom_sf(j, reps, mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=None)
def cv_band(level: float, reps: int):
    """Interval that F(c) falls in, with probability 1 - ALPHA, when c is the
    linear-interpolation ``level`` quantile of ``reps`` draws from F."""
    j = int(math.floor((reps - 1) * level)) + 1   # c lies in [X_(j), X_(j+1)]
    return (_order_stat_quantile(j, reps, ALPHA / 2.0),
            _order_stat_quantile(min(j + 1, reps), reps, 1.0 - ALPHA / 2.0))


def check_cv(cv: float, level: float, reps: int, reference: dict,
             ref_reps: int) -> str | None:
    """Critical value ``cv`` (``level`` quantile from ``reps`` replications)
    against the reference quantile grid of the same limit law."""
    if not math.isfinite(cv):
        return f"critical value at {level} is not finite"
    f_ref = float(np.interp(cv, reference["values"], reference["levels"],
                            left=0.0, right=1.0))
    lo, hi = cv_band(level, reps)
    margin = REF_Z * math.sqrt(max(f_ref * (1.0 - f_ref), 1.0 / ref_reps)
                               / ref_reps) + 0.002
    if not lo - margin <= f_ref <= hi + margin:
        return (f"critical value {cv:.5g} at level {level} sits at reference "
                f"level {f_ref:.4f}, outside [{lo - margin:.4f}, "
                f"{hi + margin:.4f}]")
    return None


def check_detect(report: dict, exp: dict, reference: dict) -> list:
    """``detect`` JSON against the numpy path, the planted shift and the
    reference critical values.  ``exp`` holds n, kernel, path, a00, m, tau
    (None to skip the location check), levels and reps."""
    bad = []
    n = exp["n"]
    if report.get("n") != n or report.get("kernel") != exp["kernel"]:
        return [f"unexpected n/kernel {report.get('n')}/{report.get('kernel')}"]
    values, stat, k_ref = detector(exp["path"], exp["a00"], exp["m"])
    got, k_star = report["statistic"], report["k_star"]
    if not abs(got - stat) <= STAT_RTOL * stat:
        bad.append(f"statistic {got!r} != reference {stat!r}")
    if not (isinstance(k_star, int) and 1 <= k_star < n
            and (k_star == k_ref or values[k_star - 1] >= stat * (1 - STAT_RTOL))):
        bad.append(f"k* {k_star} != reference {k_ref}")
    if exp["tau"] is not None and abs(k_star - exp["tau"]) > LOCATE_TOL * n:
        bad.append(f"k* {k_star} far from the planted shift at {exp['tau']}")
    if report.get("table_reps") != exp["reps"]:
        bad.append(f"table_reps {report.get('table_reps')} != {exp['reps']}")
    levels = report.get("levels", {})
    if sorted(float(lv) for lv in levels) != sorted(exp["levels"]):
        return bad + [f"levels {sorted(levels)} != {exp['levels']}"]
    table = reference["kernels"][exp["cli_kernel"]]
    for lv, row in levels.items():
        cv = row["critical_value"]
        problem = check_cv(cv, float(lv), exp["reps"], table, reference["reps"])
        if problem:
            bad.append(problem)
        elif row["reject"] != (got > cv):
            bad.append(f"reject flag at {lv} disagrees with the statistic")
    return bad


def ks_bound(n1: int, n2: int) -> float:
    """Two-sample KS distance exceeded with probability about ALPHA when both
    samples come from one law.  At criterion 6's sizes (1000 and 5000) it
    is 0.093, next to that criterion's threshold of 0.1."""
    return math.sqrt(-math.log(ALPHA / 2.0) * (n1 + n2) / (2.0 * n1 * n2))


def _finite_in(value, lo: float, hi: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo < value < hi


def check_reduction(report: dict, n_list, reps: int) -> list:
    """Mean sup-discrepancy finite, positive and below 0.5 for each n."""
    per_n = report.get("per_n", {})
    if report.get("name") != "reduction_principle" \
            or report.get("params", {}).get("m") != 2 \
            or sorted(per_n, key=int) != [str(n) for n in n_list] \
            or report["params"].get("reps") != reps:
        return [f"unexpected reduction report header {report.get('params')}"]
    bad = []
    for n, row in per_n.items():
        mean, err = row.get("mean_sup_discrepancy"), row.get("stderr")
        if not (_finite_in(mean, 0.0, 0.5) and _finite_in(err, 0.0, mean)):
            bad.append(f"n={n}: mean_sup {mean} stderr {err} out of range")
    return bad


def check_weak(report: dict, n: int, reps: int, limit_reps: int) -> list:
    """KS distance inside the ALPHA bound for these sample sizes and both
    mean sups finite and positive."""
    row = report.get("per_n", {}).get(str(n))
    if report.get("name") != "weak_convergence" or row is None \
            or row.get("data_reps") != reps or row.get("limit_reps") != limit_reps:
        return [f"unexpected weak-convergence report {report.get('params')}"]
    bad = []
    bound = ks_bound(reps, limit_reps)
    if not _finite_in(row.get("ks_distance"), -1e-12, bound):
        bad.append(f"KS distance {row.get('ks_distance')} not below {bound:.3f}")
    for key in ("mean_sup_data", "mean_sup_limit"):
        if not _finite_in(row.get(key), 0.0, 1.0):
            bad.append(f"{key} {row.get(key)} out of (0, 1)")
    return bad
