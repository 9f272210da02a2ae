"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Several criteria share the large Wilcoxon limit-law
ensemble, which is built once per session.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from lrdustat.hermite import (class_coeffs, closed_form_table, coeffs_2d,
                              coeffs_2d_montecarlo, kernel_table, scaling,
                              summability_diagnostic,
                              wilcoxon_coeff_closed_form)
from lrdustat.limit_law import limit_thm1, limit_thm2, simulate_hermite
from lrdustat.lrd_sim import (CirculantEmbedding, LrdParams, Subordinator,
                              asymptotic_L, replication_rng)
from lrdustat.ustat import (cusum_kernel, gaussian_bump_kernel, ustat_cusum,
                            ustat_incremental, ustat_naive, ustat_wilcoxon,
                            wilcoxon_kernel)
from lrdustat.verify import (check_reduction, check_variance,
                             normalized_sup_statistics)

D = 0.4
PARAMS = LrdParams(D=D)
A10 = -1.0 / (2.0 * math.sqrt(math.pi))

WILCOXON_ENTRIES = {(1, 0): A10, (0, 1): -A10}


def _check(label: str, ok: bool, detail: str = "") -> None:
    print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def wilcoxon_limit():
    """Rank-one limit functional ensemble for the Wilcoxon kernel,
    5000 replications; shared by the weak-convergence and detector
    criteria."""
    return limit_thm1(WILCOXON_ENTRIES, D, grid_size=256, reps=5000,
                      seed=101)


@pytest.fixture(scope="module")
def wilcoxon_data_sups():
    """Normalized sup-statistics of 1000 simulated null datasets, n=2000."""
    return normalized_sup_statistics(wilcoxon_kernel(),
                                     kernel_table(wilcoxon_kernel()), PARAMS,
                                     2000, reps=1000, seed=55)


def test_criterion_1_hermite_coefficients():
    """Coefficient computation: quadrature, closed form and Monte Carlo
    agree on the rank-one entries."""
    table = coeffs_2d(cusum_kernel(), 3)
    quad_ok = (abs(table.get(1, 0) - 1.0) <= 1e-8
               and abs(table.get(0, 1) + 1.0) <= 1e-8
               and table.rank == 1)

    cf_ok = (abs(wilcoxon_coeff_closed_form(1, 0) - A10) <= 1e-12
             and abs(wilcoxon_coeff_closed_form(0, 1) + A10) <= 1e-12
             and abs(wilcoxon_coeff_closed_form(2, 1)
                     + math.gamma(1.5) / (2.0 * math.pi)) <= 1e-12
             and wilcoxon_coeff_closed_form(1, 1) == 0.0)

    mc, err = coeffs_2d_montecarlo(wilcoxon_kernel(), 1, pairs=10 ** 7,
                                   seed=77)
    mc_ok = (abs(mc.get(1, 0) - A10) < 3 * err[1, 0]
             and abs(mc.get(0, 1) + A10) < 3 * err[0, 1])

    _check("criterion-1 coefficients", quad_ok and cf_ok and mc_ok,
           f"quad={quad_ok} closed_form={cf_ok} montecarlo={mc_ok}")


def test_criterion_2_summability_diagnostic():
    """Summability: constant partial sums for CUSUM, steady growth for
    Wilcoxon."""
    cusum_rep = summability_diagnostic(cusum_kernel().coeff_provider,
                                       [8, 16, 32])
    cusum_ok = all(abs(s - 2.0) < 1e-12 for s in cusum_rep.partial_sums)

    wil_rep = summability_diagnostic(wilcoxon_coeff_closed_form,
                                     [8, 16, 32])
    incs = np.diff(wil_rep.partial_sums)
    wil_ok = bool(np.all(incs > 0.2)) and \
        wil_rep.classification == "DivergentLikely"

    _check("criterion-2 summability", cusum_ok and wil_ok,
           f"cusum_sums={[round(float(s), 6) for s in cusum_rep.partial_sums]} "
           f"wilcoxon_increments={[round(float(i), 3) for i in incs]}")


def test_criterion_3_variance_asymptotics():
    """Partial-sum variance matches the LRD asymptote within 10% at
    n = 2^14, and the SRD slope is stable within 5%."""
    details = []
    ok = True
    for k, d in [(1, 0.4), (2, 0.3)]:
        rep = check_variance(k, LrdParams(D=d), [2 ** 14])
        ratio = rep["per_n"][2 ** 14]["ratio"]
        ok = ok and 0.9 < ratio < 1.1
        details.append(f"lrd(k={k},D={d})ratio={ratio:.4f}")
    srd = check_variance(3, LrdParams(D=0.5), [2 ** 13, 2 ** 14])
    s1 = srd["per_n"][2 ** 13]["var_over_n"]
    s2 = srd["per_n"][2 ** 14]["var_over_n"]
    ok = ok and abs(s2 - s1) / s1 < 0.05
    details.append(f"srd_slopes=({s1:.3f},{s2:.3f})")
    _check("criterion-3 variance", ok, " ".join(details))


def test_criterion_4_algorithm_equivalence():
    """Fast U-statistic paths agree with the naive double sum on 50
    datasets at n = 50 and n = 200."""
    worst_inc = worst_cusum = 0.0
    wil_exact = True
    for n in (50, 200):
        for rep in range(50):
            rng = replication_rng(1234 + n, rep)
            data = rng.standard_normal(n)
            if rep % 2:
                data = np.round(data, 1)  # force ties for Wilcoxon

            ref_c = ustat_naive(data, cusum_kernel())
            scale = np.maximum(np.abs(ref_c), 1.0)
            worst_cusum = max(worst_cusum, float(np.max(
                np.abs(ustat_cusum(data) - ref_c) / scale)))

            bump = gaussian_bump_kernel()
            ref_b = ustat_naive(data, bump)
            scale = np.maximum(np.abs(ref_b), 1.0)
            worst_inc = max(worst_inc, float(np.max(
                np.abs(ustat_incremental(data, bump) - ref_b) / scale)))

            ref_w = ustat_naive(data, wilcoxon_kernel())
            wil_exact = wil_exact and np.array_equal(
                ustat_wilcoxon(data), ref_w)

    ok = worst_inc <= 1e-9 and worst_cusum <= 1e-10 and wil_exact
    _check("criterion-4 equivalence", ok,
           f"incremental_rel={worst_inc:.2e} cusum_rel={worst_cusum:.2e} "
           f"wilcoxon_exact={wil_exact}")


def test_criterion_5_reduction_principle():
    """The normalized distance between the smooth-kernel process and its
    rank projection decreases monotonically in n and shrinks by a factor
    consistent with the slowest residual component.

    The centered bump kernel is even in each argument, so its residual
    starts at total degree 4, and the (4,0)/(0,4) components there have
    short-range dependent partial sums at D = 0.4 (4D > 1).  That bounds
    the achievable decay over an 8x span of n near 8^(-0.1) ~ 0.8; the
    check therefore asserts strict monotone decay plus a 0.85x factor.
    """
    rep = check_reduction(gaussian_bump_kernel(), PARAMS,
                          [500, 1000, 2000, 4000], reps=200, seed=31)
    means = [rep["per_n"][n]["mean_sup_discrepancy"]
             for n in (500, 1000, 2000, 4000)]
    monotone = all(a > b for a, b in zip(means, means[1:]))
    ok = monotone and means[-1] <= 0.85 * means[0]
    _check("criterion-5 reduction", ok,
           "mean_sup(n=500..4000)=" + ",".join(f"{m:.4f}" for m in means)
           + f" ratio={means[-1] / means[0]:.3f} (<=0.85, monotone={monotone})")


def test_criterion_6_weak_convergence(wilcoxon_limit, wilcoxon_data_sups):
    """Normalized Wilcoxon sup-statistics match the simulated limit law
    (KS <= 0.1) and reject a mismatched control law (KS > 0.2)."""
    limit_sups = wilcoxon_limit.sup_abs()
    ks = ks_2samp(wilcoxon_data_sups, limit_sups).statistic

    # negative control: same functional driven by plain Brownian motion
    # instead of fractional Brownian motion
    rng = replication_rng(909)
    n_steps = 1024
    grid_idx = np.arange(0, n_steps + 1)
    w = np.cumsum(rng.standard_normal((5000, n_steps)), axis=1)
    w = np.hstack([np.zeros((5000, 1)), w]) / math.sqrt(n_steps)
    lam = grid_idx / n_steps
    c1 = 2.0 / ((1.0 - D) * (2.0 - D))
    control = math.sqrt(c1) * abs(A10) * (lam * w[:, -1:] - w)
    control_sups = np.max(np.abs(control), axis=1)
    ks_control = ks_2samp(wilcoxon_data_sups, control_sups).statistic

    ok = ks <= 0.1 and ks_control > 0.2
    _check("criterion-6 weak-convergence", ok,
           f"ks={ks:.4f} (<=0.1) control_ks={ks_control:.4f} (>0.2)")


# only the KS statistic is read; scipy warns that its exact p-value, which
# is not, gives up at 1000 against 1000 draws
@pytest.mark.filterwarnings(
    "ignore:ks_2samp. Exact calculation unsuccessful:RuntimeWarning")
def test_criterion_7_route_consistency():
    """The rank-diagonal and empirical-process limit routes give the same
    CUSUM functional after rescaling by sqrt(c_1)."""
    reps, seed = 1000, 17
    thm1 = limit_thm1({(1, 0): 1.0, (0, 1): -1.0}, D, grid_size=64,
                      reps=reps, seed=seed)
    driver = simulate_hermite(1, D, 64, reps=reps, seed=seed)
    cls = class_coeffs(Subordinator.identity(), 1,
                       np.linspace(-8.0, 8.0, 2001))
    thm2 = limit_thm2(cusum_kernel(), Subordinator.identity(), cls, driver)
    c1 = 2.0 / ((1.0 - D) * (2.0 - D))
    sups1 = thm1.sup_abs()
    sups2 = math.sqrt(c1) * thm2.sup_abs()
    ks = ks_2samp(sups1, sups2).statistic
    ok = ks <= 0.03
    _check("criterion-7 route-consistency", ok, f"ks={ks:.4f} (<=0.03)")


def test_criterion_8_detector_size_and_power(wilcoxon_limit):
    """Level-0.95 detector: empirical size in [0.03, 0.08] under the null,
    power > 0.95 under a mid-sample shift of 2.0 with the estimated break
    within 10% of the true location in >= 90% of rejections."""
    cv = float(np.quantile(wilcoxon_limit.sup_abs(), 0.95))
    n, runs = 2000, 500
    kernel = wilcoxon_kernel()
    sc = scaling(D, 1, n, asymptotic_L(PARAMS, n))
    k_idx = np.arange(1, n, dtype=float)
    offset = k_idx * (n - k_idx) * 0.5  # a00 of the Wilcoxon kernel
    emb = CirculantEmbedding(PARAMS, n)

    null_sups = normalized_sup_statistics(kernel, kernel_table(kernel), PARAMS,
                                          n, reps=runs, seed=321)
    size = float(np.mean(null_sups > cv))

    rejections = 0
    localized = 0
    for r in range(runs):
        data = emb.sample(replication_rng(654, r))
        data[n // 2:] += 2.0
        u = ustat_wilcoxon(data)
        path = np.abs(u - offset) / (sc.d_n_prime * n)
        stat = float(np.max(path))
        if stat > cv:
            rejections += 1
            k_star = int(np.argmax(path)) + 1
            if abs(k_star - n // 2) <= 0.1 * n:
                localized += 1
    power = rejections / runs
    loc_rate = localized / max(rejections, 1)

    ok = 0.03 <= size <= 0.08 and power > 0.95 and loc_rate >= 0.9
    _check("criterion-8 detector", ok,
           f"cv95={cv:.4f} size={size:.3f} power={power:.3f} "
           f"localization={loc_rate:.3f}")
