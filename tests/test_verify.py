import json
import math

import numpy as np
import pytest

from lrdustat import verify
from lrdustat.cli import to_json
from lrdustat.errors import ParameterError, RegimeError
from lrdustat.hermite import (closed_form_table, hermite_eval,
                              hermite_sum_std, kernel_table, scaling)
from lrdustat.limit_law import limit_thm1, simulate_hermite
from lrdustat.lrd_sim import (TWEAKED_POWER_LAW, CirculantEmbedding, LrdParams,
                              asymptotic_L, replication_rng)
from lrdustat.verify import (_series_constant, check_reduction,
                             check_variance, check_weak_convergence,
                             ks_statistic, normalized_sup_statistics,
                             rank_projection_path)
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
        for n, row in report["per_n"].items():
            assert 0.9 < row["ratio"] < 1.1
        assert report["params"]["branch"] == "lrd"

    def test_srd_branch_slope(self):
        report = check_variance(3, LrdParams(D=0.5), [2 ** 10])
        row = report["per_n"][2 ** 10]
        assert row["var_over_n"] == pytest.approx(row["asymptote_slope"],
                                                  rel=0.1)
        assert report["params"]["branch"] == "srd"

    @pytest.mark.parametrize("family", ["fgn", "tweaked"])
    @pytest.mark.parametrize("D, k", [(0.51, 2), (0.35, 3), (0.4, 3),
                                      (0.5, 3)],
                             ids=["Dk-1.02", "Dk-1.05", "Dk-1.2", "Dk-1.5"])
    def test_srd_constant_does_not_depend_on_the_cut(self, family, D, k):
        # without its tail the sum to 10^6 lags was 69% low at D k = 1.02
        params = LrdParams(D=D, family=family)
        assert _series_constant(k, params, 10 ** 4) == pytest.approx(
            _series_constant(k, params, 10 ** 6), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("family", ["fgn", "tweaked"])
    def test_dk_1_refused(self, family):
        with pytest.raises(ParameterError, match=r"D\*k = 1"):
            check_variance(2, LrdParams(D=0.5, family=family), [100, 10000])

    def test_mc_within_4_sigma(self):
        report = check_variance(1, LrdParams(D=0.4), [512], reps=200, seed=3)
        row = report["per_n"][512]
        assert abs(row["mc_var"] - row["exact_var"]) < 4 * row["mc_stderr"]

    def test_small_reps_rejected(self):
        with pytest.raises(ParameterError):
            check_variance(1, LrdParams(D=0.4), [64], reps=10)

    def test_repeated_n_refused_before_any_row(self, monkeypatch):
        # the report keys its rows by n: a second run of one n would be lost
        def no_work(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(verify, "hermite_sum_std", no_work)
        monkeypatch.setattr(verify, "replicate", no_work)
        with pytest.raises(ParameterError, match="n = 64 is repeated"):
            check_variance(1, LrdParams(D=0.4), [64, 128, 64], reps=100)

    def test_report_roundtrip(self):
        report = check_variance(1, LrdParams(D=0.4), [64])
        assert list(report) == ["name", "params", "per_n", "seed"]
        back = json.loads(to_json(report))
        assert back["name"] == "variance_asymptotics"
        assert back["per_n"] == {"64": report["per_n"][64]}
        assert back["params"] == report["params"]

    def test_reproducible(self):
        a = check_variance(1, LrdParams(D=0.4), [256], reps=120, seed=9)
        b = check_variance(1, LrdParams(D=0.4), [256], reps=120, seed=9)
        assert a == b

    @pytest.mark.parametrize("D", [0.4, 0.45, 0.49, 0.51, 0.6],
                             ids=["Dk-0.8", "Dk-0.9", "Dk-0.98", "Dk-1.02",
                                  "Dk-1.2"])
    def test_two_term_asymptote_fgn(self, D):
        # at D k = 0.98 the leading term alone gives ratio 0.186
        row = check_variance(2, LrdParams(D=D), [1000])["per_n"][1000]
        assert abs(row["two_term_ratio"] - 1.0) <= 1e-3

    def test_two_term_asymptote_tweaked_approaches_the_variance(self):
        params = LrdParams(D=0.49, family=TWEAKED_POWER_LAW)
        rows = check_variance(2, params, [10 ** 3, 10 ** 5])["per_n"]
        gaps = [abs(rows[n]["two_term_ratio"] - 1.0)
                for n in (10 ** 3, 10 ** 5)]
        assert gaps[1] < gaps[0]

    @pytest.mark.parametrize("D, k", [(0.5, 4), (0.4, 5), (2 / 170, 170),
                                      (math.nextafter(2 / 170, 1.0), 170)],
                             ids=["Dk-2", "Dk-2-k-5", "Dk-2-k-170",
                                  "c_k-overflows"])
    def test_two_term_asymptote_null(self, D, k):
        # at D k = 2 the second term is logarithmic; just above it c_k
        # overflows.  Every other field is finite.
        row = check_variance(k, LrdParams(D=D), [2, 100])["per_n"][2]
        assert row["two_term_asymptote"] is None
        assert row["two_term_ratio"] is None
        assert all(math.isfinite(v) for v in row.values() if v is not None)

    @pytest.mark.parametrize("family, D, k, n, fields", [
        ("fgn", 0.4, 1, 4096, {"exact_var": 602248.7631446893,
                               "asymptote": 602248.763144686,
                               "ratio": 1.0000000000000053}),
        ("fgn", 0.49, 2, 1000, {"exact_var": 6209.2138560378835,
                                "asymptote": 33378.28967278176,
                                "ratio": 0.1860255248818567}),
        ("tweaked", 0.3, 3, 500, {"exact_var": 42078.88096428891,
                                  "asymptote": 101361.87049956637,
                                  "ratio": 0.4151352057425669}),
        ("fgn", 0.51, 2, 1000, {"exact_var": 5409.667161668265,
                                "var_over_n": 5.409667161668265,
                                "asymptote_slope": 29.096478522250273}),
        ("tweaked", 0.35, 3, 2000, {"exact_var": 136515.31460442184,
                                    "var_over_n": 68.25765730221092,
                                    "asymptote_slope": 240.97013162444486}),
        ("fgn", 0.5, 4, 100, {"exact_var": 2598.266471371035,
                              "var_over_n": 25.98266471371035,
                              "asymptote_slope": 26.04650438695029}),
    ])
    def test_leading_term_fields_are_pinned(self, family, D, k, n, fields):
        # the leading-term fields keep their values; the tolerance leaves
        # room for the last bits of another BLAS
        row = check_variance(k, LrdParams(D=D, family=family), [n])["per_n"][n]
        assert list(row) == [*fields, "two_term_asymptote", "two_term_ratio"]
        for name, value in fields.items():
            assert row[name] == pytest.approx(value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("family", ["fgn", "tweaked"])
    @pytest.mark.parametrize("D, k", [(0.2, 1), (0.3, 2), (0.1, 4),
                                      (0.49, 2)],
                             ids=["Dk-0.2", "Dk-0.6", "Dk-0.4", "Dk-0.98"])
    def test_lrd_two_term_asymptote_adds_the_slope(self, family, D, k):
        # the LRD asymptote is the second term of the two-term one
        params = LrdParams(D=D, family=family)
        slope = math.factorial(k) * _series_constant(k, params)
        for n, row in check_variance(k, params, [2, 100, 10 ** 4])[
                "per_n"].items():
            two_term = row["two_term_asymptote"]
            assert abs(two_term - row["asymptote"] - slope * n) \
                <= 1e-12 * abs(two_term)

    @pytest.mark.parametrize("family", ["fgn", "tweaked"])
    @pytest.mark.parametrize("D, k", [(0.51, 2), (0.4, 3), (0.3, 5)],
                             ids=["Dk-1.02", "Dk-1.2", "Dk-1.5"])
    def test_srd_two_term_asymptote_adds_the_lrd_term(self, family, D, k):
        params = LrdParams(D=D, family=family)
        c_k = 2.0 * math.factorial(k) / ((1.0 - D * k) * (2.0 - D * k))
        for n, row in check_variance(k, params, [2, 100, 10 ** 4])[
                "per_n"].items():
            two_term = row["two_term_asymptote"]
            lead = c_k * asymptotic_L(params, n) ** k * n ** (2.0 - D * k)
            assert abs(two_term - row["asymptote_slope"] * n - lead) \
                <= 1e-12 * abs(two_term)

    def test_degree_0_rejected(self):
        with pytest.raises(ParameterError, match="k must be >= 1"):
            check_variance(0, LrdParams(D=0.4), [10])

    @pytest.mark.parametrize("D", [0.4, 0.005])
    def test_degree_above_170_rejected(self, D):
        # 171! overflows float64, in both the SRD and the LRD branch
        with pytest.raises(ParameterError, match="170"):
            check_variance(171, LrdParams(D=D), [2])


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

    def test_table_without_a_rank_refused(self):
        flat = closed_form_table(lambda k, l: 0.0, 2)
        assert flat.rank is None
        with pytest.raises(ParameterError,
                           match=r"^kernel rank not detectable from its "
                                 r"table$"):
            rank_projection_path(np.zeros(8), flat)


class TestCheckReduction:
    def test_cusum_projection_is_exact(self):
        # the CUSUM kernel *is* its own rank-one projection, so the
        # discrepancy is pure floating-point noise at any n
        report = check_reduction(cusum_kernel(), LrdParams(D=0.4),
                                 [64, 256], reps=5, seed=1)
        for row in report["per_n"].values():
            assert row["mean_sup_discrepancy"] < 1e-10

    def test_bump_discrepancy_decays(self):
        report = check_reduction(gaussian_bump_kernel(), LrdParams(D=0.4),
                                 [100, 400], reps=20, seed=2)
        d_small = report["per_n"][100]["mean_sup_discrepancy"]
        d_large = report["per_n"][400]["mean_sup_discrepancy"]
        assert d_large < d_small

    def test_wilcoxon_centered_discrepancy_decays(self):
        # the projection omits the mean term k(n-k) a00, so an uncentred
        # discrepancy would grow with n
        report = check_reduction(wilcoxon_kernel(), LrdParams(D=0.4),
                                 [250, 500, 1000, 2000], reps=20, seed=3)
        means = [report["per_n"][n]["mean_sup_discrepancy"]
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

    def test_repeated_n_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("replicate called")

        monkeypatch.setattr(verify, "replicate", no_draw)
        with pytest.raises(ParameterError, match="n = 10 is repeated"):
            check_reduction(cusum_kernel(), LrdParams(D=0.4), [10, 10],
                            reps=2)

    def test_reproducible(self):
        a = check_reduction(gaussian_bump_kernel(), LrdParams(D=0.4),
                            [64, 96], reps=3, seed=5)
        b = check_reduction(gaussian_bump_kernel(), LrdParams(D=0.4),
                            [64, 96], reps=3, seed=5)
        assert list(a) == ["name", "params", "per_n", "seed"]
        assert a == b


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
        kernel = wilcoxon_kernel()
        report = check_weak_convergence(kernel, LrdParams(D=0.4), n=256,
                                        reps=60, limit_reps=300,
                                        grid_size=64, seed=6)
        assert list(report) == ["name", "params", "per_n", "seed"]
        row = report["per_n"][256]
        assert 0.0 <= row["ks_distance"] <= 1.0
        assert row["data_reps"] == 60
        assert row["limit_reps"] == 300
        assert report["params"]["limit_descriptor"]["m"] == 1

    def test_limit_law_drawn_from_the_next_seed(self):
        # the limit ensemble is limit_thm1 of the kernel's rank diagonal at
        # seed + 1, and the data sups are the harness's at seed
        params = LrdParams(D=0.4)
        kernel = cusum_kernel()
        table = kernel_table(kernel)
        limit = limit_thm1(table.diagonal(table.rank), params.D,
                           grid_size=16, reps=40, seed=8)
        sups = normalized_sup_statistics(kernel, table, params, 128, reps=10,
                                         seed=7)
        report = check_weak_convergence(kernel, params, 128, 10, 40, 16,
                                        seed=7)
        row = report["per_n"][128]
        assert row["ks_distance"] == ks_statistic(sups, limit.sup_abs())
        assert row["mean_sup_limit"] == float(np.mean(limit.sup_abs()))
        assert report["params"]["limit_descriptor"] == limit.descriptor

    def test_zero_reps_refused_before_the_limit_law(self, monkeypatch):
        def no_limit_law(*args, **kwargs):
            raise AssertionError("limit_thm1 called")

        monkeypatch.setattr(verify, "limit_thm1", no_limit_law)
        with pytest.raises(ParameterError, match="reps must be >= 1"):
            check_weak_convergence(cusum_kernel(), LrdParams(D=0.4), 64, 0,
                                   40, 16)

    def test_largest_seed_refused(self):
        # the limit law's seed + 1 = 2^64 would draw seed 0's stream
        with pytest.raises(ParameterError, match=r"2\^64"):
            check_weak_convergence(cusum_kernel(), LrdParams(D=0.4), 64, 2,
                                   20, 8, seed=2 ** 64 - 1)

    def test_largest_seed_refused_before_the_data(self, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("normalized_sup_statistics called")

        monkeypatch.setattr(verify, "normalized_sup_statistics", no_data)
        with pytest.raises(ParameterError) as info:
            check_weak_convergence(wilcoxon_kernel(), LrdParams(D=0.4), 2000,
                                   300, 20, 8, seed=2 ** 64 - 1)
        message = str(info.value)
        assert message.startswith("seed and rep must be in [0, 2^64)")
        assert "got seed 18446744073709551615:" in message
        assert "limit law draws from seed + 1" in message

    def test_second_largest_seed_runs(self):
        report = check_weak_convergence(cusum_kernel(), LrdParams(D=0.4), 64,
                                        2, 20, 8, seed=2 ** 64 - 2)
        assert report["seed"] == 2 ** 64 - 2
        assert math.isfinite(report["per_n"][64]["ks_distance"])

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

    def test_first_reps_are_a_shorter_run(self):
        params = LrdParams(D=0.4)
        kernel = wilcoxon_kernel()
        table = kernel_table(kernel)
        short = normalized_sup_statistics(kernel, table, params, 128,
                                          reps=6, seed=13)
        full = normalized_sup_statistics(kernel, table, params, 128,
                                         reps=12, seed=13)
        assert np.array_equal(full[:6], short)

    def test_report_reproducible(self):
        a = check_weak_convergence(cusum_kernel(), LrdParams(D=0.4), 128, 8,
                                   50, 16, seed=11)
        b = check_weak_convergence(cusum_kernel(), LrdParams(D=0.4), 128, 8,
                                   50, 16, seed=11)
        assert a == b
