import json
import math

import numpy as np
import pytest

from lrdustat.cli import to_json
from lrdustat.errors import ParameterError, RegimeError
from lrdustat.hermite import (hermite_eval, hermite_sum_std, kernel_table,
                              scaling)
from lrdustat.limit_law import simulate_hermite
from lrdustat.lrd_sim import (TWEAKED_POWER_LAW, CirculantEmbedding, LrdParams,
                              asymptotic_L, replication_rng)
from lrdustat.verify import (check_reduction, check_variance,
                             check_weak_convergence, ks_statistic,
                             normalized_sup_statistics, rank_projection_path)
from lrdustat.ustat import (Kernel, builtin_kernel, cusum_kernel,
                            gaussian_bump_kernel, ustat_naive,
                            wilcoxon_kernel)


def _direct_sups(kernel, params, n, reps, seed, m, a00):
    """max_k |U(k) - k(n-k) a00| / (n d'_n) from the O(n^3) oracle, on the
    same replications the verify harness draws."""
    emb = CirculantEmbedding(params, n)
    sc = scaling(params.D, m, n, asymptotic_L(params, n))
    k = np.arange(1, n, dtype=float)
    return np.array([
        np.max(np.abs(ustat_naive(emb.sample(replication_rng(seed, r)),
                                  kernel) - k * (n - k) * a00))
        / (n * sc.d_n_prime)
        for r in range(reps)])


class TestExactVariance:
    def test_hand_example_n3(self):
        # n = 3, tweaked family, D = 0.5: gamma = (1, 2^-.5, 3^-.5);
        # Var = 3 + 2*(2/sqrt(2) + 1/sqrt(3)), evaluated independently
        params = LrdParams(D=0.5, family=TWEAKED_POWER_LAW)
        expected = 3.0 + 4.0 / math.sqrt(2.0) + 2.0 / math.sqrt(3.0)
        assert hermite_sum_std(params, 1, 3) ** 2 == pytest.approx(
            expected, rel=1e-14)
        assert expected == pytest.approx(6.983127663125441, rel=1e-14)

    def test_k2_n1(self):
        # a single term: Var(H_2(xi)) = 2! = 2
        assert hermite_sum_std(
            LrdParams(D=0.3), 2, 1) ** 2 == pytest.approx(2.0)

    def test_iid_limit_structure(self):
        # for k large the cross terms vanish and Var ~ n * k!
        params = LrdParams(D=0.9, family=TWEAKED_POWER_LAW)
        v = hermite_sum_std(params, 8, 50) ** 2
        # the lag-1 cross term still contributes ~1.4%
        assert v == pytest.approx(50 * math.factorial(8), rel=0.02)


class TestCheckVariance:
    def test_lrd_ratio_near_one(self):
        report = check_variance(1, LrdParams(D=0.4), [2 ** 12, 2 ** 14])
        for n, row in report.per_n.items():
            assert 0.9 < row["ratio"] < 1.1
        assert report.params["branch"] == "lrd"

    def test_srd_branch_slope(self):
        report = check_variance(3, LrdParams(D=0.5), [2 ** 10])
        row = report.per_n[2 ** 10]
        assert row["var_over_n"] == pytest.approx(row["asymptote_slope"],
                                                  rel=0.1)
        assert report.params["branch"] == "srd"

    def test_mc_within_4_sigma(self):
        report = check_variance(1, LrdParams(D=0.4), [512], reps=200, seed=3)
        row = report.per_n[512]
        assert abs(row["mc_var"] - row["exact_var"]) < 4 * row["mc_stderr"]

    def test_small_reps_rejected(self):
        with pytest.raises(ParameterError):
            check_variance(1, LrdParams(D=0.4), [64], reps=10)

    def test_report_roundtrip(self):
        report = check_variance(1, LrdParams(D=0.4), [64])
        back = json.loads(to_json(report.to_json_dict()))
        assert back["name"] == "variance_asymptotics"
        assert back["per_n"] == {"64": report.per_n[64]}
        assert back["params"] == report.params

    def test_reproducible(self):
        a = check_variance(1, LrdParams(D=0.4), [256], reps=120, seed=9)
        b = check_variance(1, LrdParams(D=0.4), [256], reps=120, seed=9)
        assert a.per_n == b.per_n


class TestRankProjectionPath:
    @pytest.mark.parametrize("name", ["cusum", "wilcoxon", "gaussian_bump",
                                      "huber:1.345", "tukey:4.685"])
    def test_matches_oracle_on_projection_kernel(self, name):
        # the O(n^3) oracle on sum_{k+l=m} a_kl/(k! l!) H_k(x) H_l(y)
        table = kernel_table(builtin_kernel(name))
        terms = [(a / (math.factorial(k) * math.factorial(l)), k, l)
                 for (k, l), a in table.diagonal(table.rank).items()]
        projection = Kernel(name="projection", eval=lambda x, y: sum(
            w * hermite_eval(k, x) * hermite_eval(l, y) for w, k, l in terms))
        emb = CirculantEmbedding(LrdParams(D=0.3), 150)
        for r in range(3):
            xi = emb.sample(replication_rng(4, r))
            ref = ustat_naive(xi, projection)
            got = rank_projection_path(xi, table)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(got - ref)) / scale <= 1e-9


class TestCheckReduction:
    def test_cusum_projection_is_exact(self):
        # the CUSUM kernel *is* its own rank-one projection, so the
        # discrepancy is pure floating-point noise at any n
        report = check_reduction(cusum_kernel(), LrdParams(D=0.4),
                                 [64, 256], reps=5, seed=1)
        for row in report.per_n.values():
            assert row["mean_sup_discrepancy"] < 1e-10

    def test_bump_discrepancy_decays(self):
        report = check_reduction(gaussian_bump_kernel(), LrdParams(D=0.4),
                                 [100, 400], reps=20, seed=2)
        d_small = report.per_n[100]["mean_sup_discrepancy"]
        d_large = report.per_n[400]["mean_sup_discrepancy"]
        assert d_large < d_small

    def test_wilcoxon_centered_discrepancy_decays(self):
        # the projection omits the mean term k(n-k) a00, so an uncentred
        # discrepancy would grow with n
        report = check_reduction(wilcoxon_kernel(), LrdParams(D=0.4),
                                 [250, 500, 1000, 2000], reps=20, seed=3)
        means = [report.per_n[n]["mean_sup_discrepancy"]
                 for n in (250, 500, 1000, 2000)]
        assert all(a > b for a, b in zip(means, means[1:])), means

    def test_regime_violation(self):
        class SecondOrder:
            pass

        from lrdustat.ustat import Kernel

        kernel = Kernel(name="h1h1",
                        eval=lambda x, y: np.asarray(x, dtype=float) * y)
        with pytest.raises(RegimeError):
            check_reduction(kernel, LrdParams(D=0.6), [64], reps=2)

    def test_zero_reps_rejected(self):
        with pytest.raises(ParameterError):
            check_reduction(cusum_kernel(), LrdParams(D=0.4), [64], reps=0)

    def test_one_rep_rejected(self):
        # a standard error needs two replications
        with pytest.raises(ParameterError, match="reps must be >= 2"):
            check_reduction(cusum_kernel(), LrdParams(D=0.4), [64], reps=1)


class TestWeakConvergence:
    def test_identical_samples_have_zero_ks(self):
        params = LrdParams(D=0.4)
        limit = simulate_hermite(1, params.D, 32, reps=150, seed=5)
        sups = limit.sup_abs()
        # degenerate check: comparing the ensemble against itself
        assert ks_statistic(sups, sups) == 0.0

    def test_ks_statistic_matches_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(2000):
            na, nb = rng.integers(1, 301, size=2)
            a = rng.standard_normal(na)
            b = rng.standard_normal(nb) + rng.uniform(-1.0, 1.0)
            if rng.random() < 0.5:  # ties within and across the samples
                a, b = np.round(a, 1), np.round(b, 1)
            worst = max(worst, abs(ks_statistic(a, b)
                                   - ks_2samp(a, b).statistic))
        assert worst <= 1e-15

    def test_wilcoxon_report_fields(self):
        params = LrdParams(D=0.4)
        limit = simulate_hermite(1, params.D, 64, reps=300, seed=5)
        # scale the fBm by the known rank-one functional factor before use:
        # here we only exercise the harness plumbing on a modest run
        kernel = wilcoxon_kernel()
        report = check_weak_convergence(kernel, kernel_table(kernel), params,
                                        n=256, reps=60, limit=limit, seed=6)
        row = report.per_n[256]
        assert 0.0 <= row["ks_distance"] <= 1.0
        assert row["data_reps"] == 60
        assert row["limit_reps"] == 300

    def test_normalized_sups_center_defaults_to_a00(self):
        params = LrdParams(D=0.4)
        kernel = wilcoxon_kernel()
        a = normalized_sup_statistics(kernel, kernel_table(kernel), params,
                                      128, reps=5, seed=7)
        b = _direct_sups(wilcoxon_kernel(), params, 128, reps=5, seed=7,
                         m=1, a00=0.5)
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    def test_normalized_sups_use_kernel_rank(self):
        # the Gaussian bump has Hermite rank 2 and mean a00 = 0
        params = LrdParams(D=0.4)
        kernel = gaussian_bump_kernel()
        a = normalized_sup_statistics(kernel, kernel_table(kernel), params,
                                      96, reps=4, seed=8)
        b = _direct_sups(gaussian_bump_kernel(), params, 96, reps=4, seed=8,
                         m=2, a00=0.0)
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    def test_reproducible(self):
        params = LrdParams(D=0.4)
        kernel = cusum_kernel()
        table = kernel_table(kernel)
        a = normalized_sup_statistics(kernel, table, params, 128, reps=8,
                                      seed=11)
        b = normalized_sup_statistics(kernel, table, params, 128, reps=8,
                                      seed=11)
        assert np.array_equal(a, b)
