import dataclasses
import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from lrdustat import limit_law
from lrdustat.cli import to_json
from lrdustat.errors import ParameterError, RegimeError
from lrdustat.hermite import (c_constant, class_coeffs, cycle_traces,
                              gauss_hermite_prob, hermite2_sum_skewness,
                              hermite_sum_std, kernel_table,
                              rosenblatt_skewness)
from lrdustat.limit_law import (CriticalValueTable, critical_values,
                                default_grid, limit_thm1, limit_thm2,
                                order_statistic_ranks, simulate_hermite)
from lrdustat.lrd_sim import (QUAD_ORDER, CirculantEmbedding, LrdParams,
                              Subordinator, build_covariance,
                              replication_rng)
from lrdustat.ustat import (Kernel, builtin_kernel, cusum_kernel,
                            gaussian_bump_kernel, wilcoxon_kernel)

H = 0.8  # fBm index of the rank-one limit at D = 2(1 - H) = 0.4
D_ONE = 2.0 * (1.0 - H)


def fbm_covariance(s, t, h=H):
    """Brute oracle: Cov(B(s), B(t)) = (s^2H + t^2H - |t-s|^2H) / 2."""
    return 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h))


@pytest.fixture(scope="module")
def ensemble():
    return simulate_hermite(1, D_ONE, 64, reps=3000, seed=17)


@pytest.fixture(scope="module")
def identity_class():
    return class_coeffs(Subordinator.identity(), 1,
                        np.linspace(-8.0, 8.0, 2001))


@pytest.fixture(scope="module")
def driver():
    return simulate_hermite(1, 0.4, 32, reps=60, seed=21)


@pytest.fixture(scope="module")
def cv_ensemble():
    return simulate_hermite(1, D_ONE, 64, reps=500, seed=33)


@pytest.fixture(scope="module")
def bump_ensemble():
    table = kernel_table(gaussian_bump_kernel())
    return limit_thm1(table.diagonal(table.rank), 0.4, 32, reps=200, seed=35)


class TestFbm:
    def test_starts_at_zero(self, ensemble):
        assert np.all(ensemble.paths[:, 0] == 0.0)

    def test_mean_zero(self, ensemble):
        end = ensemble.paths[:, -1]
        assert abs(end.mean()) < 4 * end.std(ddof=1) / math.sqrt(ensemble.reps)

    def test_unit_variance_at_one(self, ensemble):
        # Var(B(1)) = 1 exactly in distribution; the sample variance of
        # R Gaussians has standard error sqrt(2/R) ~ 0.026
        assert np.var(ensemble.paths[:, -1], ddof=1) == pytest.approx(
            1.0, abs=0.08)

    def test_covariance_structure(self, ensemble):
        # the rank-one law is exact fBm at every grid point
        grid = ensemble.grid
        for i, j in [(32, 64), (16, 48), (8, 64)]:
            est = np.mean(ensemble.paths[:, i] * ensemble.paths[:, j])
            assert est == pytest.approx(fbm_covariance(grid[i], grid[j]),
                                        abs=0.1)

    def test_half_point_variance(self, ensemble):
        assert np.var(ensemble.paths[:, 32], ddof=1) == pytest.approx(
            0.5 ** (2 * H), abs=0.05)

    def test_self_similarity(self):
        a = simulate_hermite(1, D_ONE, 2, reps=2000, seed=1)
        b = simulate_hermite(1, D_ONE, 2, reps=2000, seed=2)
        rescaled = a.paths[:, 1] * 2.0 ** H
        assert ks_2samp(rescaled, b.paths[:, -1]).statistic <= 0.05

    def test_h_out_of_range(self):
        # H = 0.5, 1 and 0.3 are D = 1, 0 and 1.4 (RegimeError is a
        # ParameterError)
        for h in (0.5, 1.0, 0.3):
            with pytest.raises(ParameterError):
                simulate_hermite(1, 2.0 * (1.0 - h), 8, reps=1, seed=0)

    def test_deterministic(self):
        a = simulate_hermite(1, D_ONE, 8, reps=3, seed=5)
        b = simulate_hermite(1, D_ONE, 8, reps=3, seed=5)
        assert np.array_equal(a.paths, b.paths)


@pytest.fixture
def draw_sizes(monkeypatch):
    """Lengths of the fGn paths the limit laws embed, in order."""
    sizes = []

    class Recording(CirculantEmbedding):
        def __init__(self, params, n):
            sizes.append(n)
            super().__init__(params, n)

    monkeypatch.setattr(limit_law, "CirculantEmbedding", Recording)
    return sizes


class TestHermiteProcess:
    def test_starts_at_zero(self):
        ens = simulate_hermite(2, 0.3, 16, reps=5, seed=0)
        assert np.all(ens.paths[:, 0] == 0.0)

    def test_order_one_unit_variance(self):
        ens = simulate_hermite(1, 0.4, 2, reps=2000, seed=3)
        assert np.var(ens.paths[:, -1], ddof=1) == pytest.approx(1.0,
                                                                 abs=0.1)

    def test_order_two_unit_variance(self):
        # S is normalized by the exact partial-sum standard deviation and
        # mixed with unit-variance fBm at a^2 + b^2 = 1, so E[Z_2(1)^2] = 1
        # exactly; the estimator is noisier than in the Gaussian case
        # because of heavier tails
        ens = simulate_hermite(2, 0.3, 2, reps=1500, seed=4)
        assert np.var(ens.paths[:, -1], ddof=1) == pytest.approx(1.0,
                                                                 abs=0.25)

    def test_regime_violation(self):
        with pytest.raises(RegimeError):
            simulate_hermite(2, 0.5, 8, reps=1)


class TestThm1:
    def test_cusum_reduces_to_closed_combination(self):
        # for a rank-one kernel with a10 = 1, a01 = -1 the functional must
        # equal sqrt(c1) ((1-lam) Z(lam) - lam (Z(1) - Z(lam))) path by path
        d = 0.4
        grid = default_grid(32)
        reps, seed = 50, 9
        ens = limit_thm1({(1, 0): 1.0, (0, 1): -1.0}, d, 32, reps=reps,
                         seed=seed)
        z = simulate_hermite(1, d, 32, reps=reps, seed=seed).paths
        z1 = z[:, -1:]
        expected = math.sqrt(c_constant(d, 1)) * ((1.0 - grid) * z
                                                  - grid * (z1 - z))
        assert np.allclose(ens.paths, expected, atol=1e-12)

    def test_linearity_in_coefficients(self):
        d = 0.4
        one = limit_thm1({(1, 0): 1.0}, d, 16, reps=20, seed=2)
        two = limit_thm1({(1, 0): 2.0}, d, 16, reps=20, seed=2)
        assert np.allclose(two.paths, 2.0 * one.paths, atol=1e-14)

    def test_boundary_values(self):
        ens = limit_thm1({(1, 0): 1.0, (0, 1): -1.0}, 0.4, 16, reps=10,
                         seed=0)
        # Z_k(0) = 0 and the second factor vanishes at lam = 1
        assert np.allclose(ens.paths[:, 0], 0.0)
        assert np.allclose(ens.paths[:, -1], 0.0, atol=1e-12)

    def test_mixed_diagonals_rejected(self):
        with pytest.raises(ParameterError):
            limit_thm1({(1, 0): 1.0, (1, 1): 0.5}, 0.3, reps=1)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            limit_thm1({}, 0.3, reps=1)

    def test_regime_rejected(self):
        with pytest.raises(RegimeError):
            limit_thm1({(1, 1): 1.0}, 0.5, reps=1)
        # m D < 1 holds at D <= 0 too: the law checks 0 < D < 1 itself
        for d in (-0.3, 0.0, 1.0, math.nan):
            with pytest.raises(ParameterError):
                limit_law.thm1_law({(1, 0): 1.0, (0, 1): -1.0}, d, 16)


class TestThm1Law:
    # the law the descriptor begins with, and the key of a cached table
    @pytest.mark.parametrize("entries, N_aux, drawn", [
        (kernel_table(wilcoxon_kernel()).diagonal(1), None, []),
        (kernel_table(gaussian_bump_kernel()).diagonal(2), None,
         ["a", "b", "g1_N"]),
        ({(2, 0): 0.5, (1, 1): -1.0}, 2 ** 12, []),
    ], ids=["wilcoxon", "bump", "mixed-rank-2"])
    def test_is_the_descriptor(self, entries, N_aux, drawn):
        law = limit_law.thm1_law(entries, 0.3, 16, N_aux)
        desc = limit_thm1(entries, 0.3, 16, reps=2, N_aux=N_aux,
                          seed=1).descriptor
        assert list(law) == ["process", "m", "D", "N_aux", *drawn,
                             "entries"]
        assert law["entries"] == sorted(law["entries"])
        assert list(desc.items()) == list(law.items())

    @pytest.mark.parametrize("kernel", ["cusum", "wilcoxon", "gaussian_bump",
                                        "huber:1.345", "tukey:4.685"])
    def test_every_builtin_kernel_law_is_its_descriptor(self, kernel):
        table = kernel_table(builtin_kernel(kernel))
        diagonal = table.diagonal(table.rank)
        desc = limit_thm1(diagonal, 0.4, 16, reps=2, seed=0).descriptor
        law = limit_law.thm1_law(diagonal, 0.4, 16)
        assert list(desc.items()) == list(law.items())


class TestRankOneGridDraw:
    """Order 1 alone is drawn as fGn of length G, read at the grid points
    and rescaled by the exact partial-sum deviation of the drawn length."""

    @pytest.mark.parametrize("d", [0.1, 0.4, 0.6, 0.9])
    @pytest.mark.parametrize("n", [2, 256, 2 ** 15])
    def test_normalisation_is_exact_power(self, d, n):
        # for fGn the partial-sum variance telescopes to n^(2H)
        h = 1.0 - d / 2.0
        assert hermite_sum_std(LrdParams(D=d), 1, n) == pytest.approx(
            n ** h, rel=1e-12)

    @pytest.mark.parametrize("grid_size, drawn", [(256, 256), (200, 200),
                                                  (2, 2)])
    def test_rank_one_draws_at_grid_resolution(self, draw_sizes, grid_size,
                                               drawn):
        limit_thm1({(1, 0): 1.0, (0, 1): -1.0}, 0.4, grid_size, reps=2,
                   seed=0)
        assert draw_sizes == [drawn]

    def test_rank_one_takes_no_n_aux(self):
        with pytest.raises(ParameterError):
            limit_thm1({(1, 0): 1.0, (0, 1): -1.0}, 0.4, 8, reps=1,
                       N_aux=2 ** 15)

    def test_mixed_orders_draw_at_n_aux(self, draw_sizes):
        limit_thm1({(2, 0): 0.5, (1, 1): -1.0, (0, 2): 0.25}, 0.3, 256,
                   reps=2, N_aux=2 ** 15, seed=0)
        assert draw_sizes == [2 ** 15]

    def test_default_n_aux_per_law(self, draw_sizes):
        # order 2 alone draws its auxiliary path at the smallest multiple
        # of G that is at least 2^8, then fBm with H = 1 - D at the grid;
        # order 1 alone draws no auxiliary path; every other law keeps 2^15
        def n_aux(orders, g, given=None):
            return limit_law.resolve_draw(orders, 0.4, g, given)["N_aux"]

        assert [n_aux([2], g) for g in (2, 7, 200, 256, 300, 1024)] == \
            [256, 259, 400, 256, 300, 1024]
        assert n_aux([1], 200) is None
        assert n_aux([1, 2], 200) == 2 ** 15
        assert n_aux([1, 2, 3], 200) == 2 ** 15
        assert n_aux([2], 200, 2 ** 14) == 2 ** 14
        bump = limit_thm1({(2, 0): 1.0, (0, 2): 1.0}, 0.4, 256, reps=2,
                          seed=0)
        limit_thm1({(2, 0): 0.5, (1, 1): -1.0, (0, 2): 0.25}, 0.3, 256,
                   reps=2, seed=0)
        rank_one = limit_thm1({(1, 0): 1.0, (0, 1): -1.0}, 0.4, 256, reps=2,
                              seed=0)
        assert draw_sizes == [256, 256, 2 ** 15, 256]
        assert bump.descriptor["N_aux"] == 256
        assert rank_one.descriptor["N_aux"] is None

    @pytest.mark.parametrize("grid_size, drawn", [(200, [400, 200]),
                                                  (2, [256, 2])])
    def test_bump_draws_fbm_at_grid(self, draw_sizes, grid_size, drawn):
        limit_thm1({(2, 0): 1.0, (0, 2): 1.0}, 0.4, grid_size, reps=2,
                   seed=0)
        assert draw_sizes == drawn

    def test_bump_reads_auxiliary_path_at_grid_points(self):
        # at G = 200 the bump draws S at N_aux = 400 and reads every
        # second point, j/G exactly: Z = a S + b B with S from the H_2
        # sums of the whole auxiliary path and B the fBm drawn after it
        d, reps, seed = 0.4, 3, 7
        bump = simulate_hermite(2, d, 200, reps=reps, seed=seed)
        law = bump.descriptor
        assert law["N_aux"] == 400
        aux = limit_law._PartialSums(d, 400, [2], 400)
        fbm = limit_law._PartialSums(2.0 * d, 200, [1], 200)
        for r in range(reps):
            rng = replication_rng(seed, r)
            s = aux.read(aux.emb.sample(rng))[2]
            b = fbm.read(fbm.emb.sample(rng))[1]
            assert np.array_equal(bump.paths[r],
                                  law["a"] * s[::2] + law["b"] * b)

    def test_auxiliary_path_read_at_integer_index(self):
        # on the grid j/200 a mixed law reads its 2^12-point auxiliary path
        # at j 2^12 // 200: the columns of the same draw at full resolution
        def orders(z):
            return np.stack([z[1], z[2]])

        draw = {"N_aux": 2 ** 12}
        full = limit_law._hermite_partial_paths([1, 2], 0.3, 2 ** 12, 3,
                                                draw, 7, orders)
        coarse = limit_law._hermite_partial_paths([1, 2], 0.3, 200, 3, draw,
                                                  7, orders)
        idx = np.arange(201) * 2 ** 12 // 200
        assert np.array_equal(coarse, full[:, :, idx])

    @pytest.mark.parametrize("grid_size", [64, 200])
    def test_agrees_in_law_with_fbm(self, grid_size):
        # the grid draw against fBm from the Cholesky factor of the brute
        # covariance oracle at the grid points: both are exact, so the
        # two-sample KS distances of Z(1) and of the sup stay below the
        # bound exceeded with probability about 1e-6 under one law, which
        # for two samples of equal size r is sqrt(-log(1e-6 / 2) / r)
        reps = 10000
        rank_one = simulate_hermite(1, D_ONE, grid_size, reps=reps, seed=61)
        grid = default_grid(grid_size)
        inner = grid[1:]
        chol = np.linalg.cholesky(fbm_covariance(inner[:, None],
                                                 inner[None, :]))
        normals = np.random.default_rng(62).standard_normal((reps,
                                                             inner.size))
        fbm = limit_law.LimitEnsemble(
            grid=grid, paths=np.hstack([np.zeros((reps, 1)),
                                        normals @ chol.T]),
            descriptor={})
        bound = math.sqrt(-math.log(1e-6 / 2.0) / reps)
        assert ks_2samp(rank_one.paths[:, -1],
                        fbm.paths[:, -1]).statistic < bound
        assert ks_2samp(rank_one.sup_abs(), fbm.sup_abs()).statistic < bound

    def test_reps_floor(self):
        with pytest.raises(ParameterError):
            simulate_hermite(1, 0.4, 8, reps=0)
        with pytest.raises(ParameterError):
            limit_thm1({(1, 0): 1.0}, 0.4, 8, reps=0)

    def test_grid_size_floor(self):
        # every law is 0 at lambda = 0 and 1, so on the grid {0, 1} of
        # G = 1 each sup would be 0
        for g in (0, 1):
            with pytest.raises(ParameterError):
                limit_law.resolve_draw([2], 0.4, g)
            with pytest.raises(ParameterError):
                limit_law.thm1_law({(1, 0): 1.0, (0, 1): -1.0}, 0.4, g)
            with pytest.raises(ParameterError):
                simulate_hermite(1, 0.4, g, reps=1)
            with pytest.raises(ParameterError):
                limit_thm1({(2, 0): 1.0, (0, 2): 1.0}, 0.4, g, reps=1)


class TestReplicationPrefix:
    # replication r draws from (seed, r) alone, so the first R rows of a
    # 2R-replication law are the R-replication law bit for bit
    @pytest.mark.parametrize("entries", [
        {(1, 0): -0.3, (0, 1): 0.3},
        kernel_table(gaussian_bump_kernel()).diagonal(2),
    ], ids=["rank-1", "bump"])
    def test_limit_thm1(self, entries):
        short = limit_thm1(entries, 0.4, 64, reps=15, seed=5)
        full = limit_thm1(entries, 0.4, 64, reps=30, seed=5)
        assert np.array_equal(full.paths[:15], short.paths)

    @pytest.mark.parametrize("m, d", [(1, 0.4), (2, 0.4), (3, 0.2)])
    def test_simulate_hermite(self, m, d):
        short = simulate_hermite(m, d, 32, reps=6, seed=8)
        full = simulate_hermite(m, d, 32, reps=12, seed=8)
        assert np.array_equal(full.paths[:6], short.paths)


class TestCorrectedOrderTwo:
    """Order 2 alone is drawn at N_aux = G ceil(2^8 / G) as a S + b B, with
    the third cumulant of Z_2(1) matched to the Rosenblatt limit's."""

    D = 0.45

    @pytest.mark.parametrize("d", [0.1, 0.4])
    @pytest.mark.parametrize("n", [2, 3, 17, 512])
    def test_cycle_traces_match_dense(self, n, d):
        gamma = build_covariance(LrdParams(D=d), n - 1)
        lags = np.arange(n)
        g = gamma[np.abs(lags[:, None] - lags[None, :])]
        tr2, tr3 = cycle_traces(gamma)
        assert tr2 == pytest.approx(np.trace(g @ g), rel=1e-12, abs=0.0)
        assert tr3 == pytest.approx(np.trace(g @ g @ g), rel=1e-12, abs=0.0)

    def test_skewness_values(self):
        assert [round(rosenblatt_skewness(d), 3)
                for d in (0.2, 0.3, 0.4, 0.45)] == [2.548, 2.067, 1.183, 0.560]
        assert round(hermite2_sum_skewness(LrdParams(D=0.4), 2 ** 12),
                     4) == 1.3741

    @pytest.fixture(scope="class")
    def z_one(self):
        # Z(1) of the corrected law and, from the same (seed, rep) streams,
        # the uncorrected H_2 sums S(1), which a draw of orders 1 and 2
        # leaves as they are
        reps, seed = 2000, 71
        corrected = simulate_hermite(2, self.D, 2, reps=reps, seed=seed)
        raw = limit_law._hermite_partial_paths(
            [1, 2], self.D, 2, reps, {"N_aux": corrected.descriptor["N_aux"]},
            seed, lambda z: z[2][-1])
        return corrected.descriptor, corrected.paths[:, -1], raw

    @staticmethod
    def assert_skewness(x, target):
        # E Z(1) = 0 and Var Z(1) = 1 exactly, so mean(x^3) is an unbiased
        # estimate of the skewness; 4 of its standard errors
        cubes = x ** 3
        stderr = cubes.std(ddof=1) / math.sqrt(x.size)
        assert abs(cubes.mean() - target) < 4.0 * stderr

    def test_uncorrected_skewness_is_exact_finite_n(self, z_one):
        law, _, raw = z_one
        assert law["N_aux"] == 256
        assert law["g1_N"] == hermite2_sum_skewness(LrdParams(D=self.D),
                                                    law["N_aux"])
        self.assert_skewness(raw, law["g1_N"])

    def test_corrected_skewness_is_the_limit(self, z_one):
        law, z, _ = z_one
        g1 = rosenblatt_skewness(self.D)
        assert law["a"] ** 3 * law["g1_N"] == pytest.approx(g1, rel=1e-12)
        assert law["a"] ** 2 + law["b"] ** 2 == pytest.approx(1.0,
                                                               rel=1e-12)
        self.assert_skewness(z, g1)

    def test_correction_adds_independent_fbm(self, z_one):
        # (seed, rep) fixes S and then B, so (Z - a S) / b is B(1):
        # unit variance and uncorrelated with S
        law, z, raw = z_one
        b_one = (z - law["a"] * raw) / law["b"]
        reps = b_one.size
        assert np.var(b_one) == pytest.approx(1.0,
                                              abs=4.0 * math.sqrt(2.0 / reps))
        assert abs(np.corrcoef(b_one, raw)[0, 1]) < 4.0 / math.sqrt(reps)

    def test_q99_stable_in_n_aux(self):
        # each 800-replication q99, at the default N_aux (256 at G = 64)
        # and at 2^12, lies in the other's order-statistic interval
        entries = {(2, 0): 1.0, (0, 2): 1.0}
        tables = [critical_values(limit_thm1(entries, self.D, 64, reps=800,
                                             N_aux=n_aux, seed=seed))
                  for n_aux, seed in ((None, 5), (2 ** 12, 6))]
        assert tables[0].descriptor["N_aux"] == 256
        for mine, other in (tables, tables[::-1]):
            lo, hi = other.interval_at(0.99)
            assert lo <= mine.value_at(0.99) <= hi

    @pytest.mark.parametrize("d", [0.3, 0.4, 0.45])
    def test_upper_quantiles_match_the_2_12_law(self, d):
        # the corrected law at the default grid's N_aux = 256 against the
        # same law at 2^12, on seeds other than the one N_aux = 256 was
        # chosen on: at q90, q95 and q99 the two 95% order-statistic
        # intervals overlap.  That is a two-sample test at about the
        # Bonferroni level of the nine comparisons; one law's value inside
        # the other's interval is not, since it fails for 2^12 against
        # itself on seeds 12 and 22 (q95 at D = 0.3, 20000 replications).
        # At 4000 replications it misses shifts below about 6%, so the
        # 1-2% lower mean sup of the 256-point law goes unseen here
        # (measured from 40000 replications per law)
        entries = {(2, 0): 1.0, (0, 2): 1.0}
        tables = [critical_values(limit_thm1(entries, d, reps=4000,
                                             N_aux=n_aux, seed=seed))
                  for n_aux, seed in ((None, 11), (2 ** 12, 12))]
        assert tables[0].descriptor["N_aux"] == 256
        for level in (0.9, 0.95, 0.99):
            (lo, hi), (other_lo, other_hi) = (t.interval_at(level)
                                              for t in tables)
            assert lo <= other_hi and other_lo <= hi, level

    def test_mixed_rank_two_warns_of_skewness_gap(self):
        mixed = limit_thm1({(2, 0): 0.5, (1, 1): -1.0, (0, 2): 0.25}, 0.3,
                           8, reps=2, N_aux=2 ** 12, seed=0)
        (warning,) = mixed.warnings
        assert f"{hermite2_sum_skewness(LrdParams(D=0.3), 2 ** 12):.4f}" \
            in warning
        assert f"{rosenblatt_skewness(0.3):.4f}" in warning
        assert "a" not in mixed.descriptor
        bump = limit_thm1({(2, 0): 1.0, (0, 2): 1.0}, 0.3, 8, reps=2,
                          seed=0)
        assert bump.warnings == []


class TestThm2:
    def test_wilcoxon_integrals(self, identity_class, driver):
        ens = limit_thm2(wilcoxon_kernel(), Subordinator.identity(),
                         identity_class, driver)
        a = 1.0 / (2.0 * math.sqrt(math.pi))
        assert ens.descriptor["A"] == pytest.approx(a, abs=1e-3)
        assert ens.descriptor["B"] == pytest.approx(-a, abs=1e-3)

    def test_cusum_matches_formal_bridge(self, identity_class, driver):
        # for h(x, y) = x - y the functional collapses to Z(lam) - lam Z(1)
        ens = limit_thm2(cusum_kernel(), Subordinator.identity(),
                         identity_class, driver)
        lam = driver.grid
        z = driver.paths
        expected = z - lam * z[:, -1:]
        assert np.allclose(ens.paths, expected, atol=1e-4)
        # the CUSUM kernel is unbounded, so a TV warning must be attached
        assert ens.warnings

    def test_tv_probe_above_the_declared_bound_warns(self, identity_class,
                                                     driver):
        # the Wilcoxon indicator varies by 1 in each argument
        kernel = dataclasses.replace(wilcoxon_kernel(), tv_bound=0.5)
        ens = limit_thm2(kernel, Subordinator.identity(), identity_class,
                         driver)
        assert ens.warnings == ["TV probe 1 exceeds declared bound 0.5"]
        assert limit_thm2(wilcoxon_kernel(), Subordinator.identity(),
                          identity_class, driver).warnings == []

    def test_zero_kernel(self, identity_class, driver):
        zero = Kernel(name="zero",
                      eval=lambda x, y: np.zeros(np.broadcast(
                          np.asarray(x), np.asarray(y)).shape),
                      tv_bound=0.0)
        ens = limit_thm2(zero, Subordinator.identity(), identity_class,
                         driver)
        assert np.allclose(ens.paths, 0.0)

    @pytest.mark.parametrize("name", ["cusum", "wilcoxon", "gaussian_bump",
                                      "huber:1.345", "tukey:4.685"])
    def test_integrals_and_tv_match_one_call_per_point(self, name,
                                                       identity_class,
                                                       driver):
        # the reference evaluates the kernel at one grid point or node per
        # call; the matrix products sum in another order, so A and B agree
        # to a few ulps and the TV probe, summed row by row, exactly
        kernel = builtin_kernel(name)
        grid = identity_class.grid
        nodes, weights = gauss_hermite_prob(QUAD_ORDER)  # G = identity
        j = identity_class.J_rank
        j_mid = 0.5 * (j[1:] + j[:-1])
        h_tilde = [np.dot(weights, kernel.eval(x, nodes)) for x in grid]
        a_int = np.dot(j_mid, np.diff(h_tilde))
        b_int = np.dot(weights, [np.dot(j_mid, np.diff(kernel.eval(x, grid)))
                                 for x in nodes])
        sections = np.linspace(grid[0], grid[-1], 9)
        tv = max(float(np.sum(np.abs(np.diff(values)))) for values in
                 [kernel.eval(grid, y) for y in sections]
                 + [kernel.eval(x, grid) for x in sections])
        desc = limit_thm2(kernel, Subordinator.identity(), identity_class,
                          driver).descriptor
        tol = 100 * np.finfo(float).eps
        assert desc["A"] == pytest.approx(a_int, rel=tol, abs=tol)
        assert desc["B"] == pytest.approx(b_int, rel=tol, abs=tol)
        assert limit_law.probe_tv(kernel, grid) == tv

    def test_driver_order_mismatch(self, identity_class):
        driver2 = simulate_hermite(2, 0.3, 8, reps=5, seed=0)
        # a rank-2 functional is no Hermite process of any order
        functional2 = limit_thm1({(2, 0): 1.0, (0, 2): 1.0}, 0.3, 8, reps=5,
                                 seed=0)
        for driver in (driver2, functional2):
            with pytest.raises(ParameterError):
                limit_thm2(wilcoxon_kernel(), Subordinator.identity(),
                           identity_class, driver)


class TestReducedReplications:
    def test_sup_abs_is_max_of_abs_bit_for_bit(self):
        # |x| and -x are exact, so max(max x, -min x) is max |x|, also on
        # rows of mixed signs, zeros and -0.0
        paths = replication_rng(3).standard_normal((60, 7))
        paths[::3, ::2] = 0.0
        paths[1::3, 1::2] = -0.0
        paths[:4] = [[0.0] * 7, [-0.0] * 7, [0.0, -0.0] * 3 + [0.0],
                     [-0.0, 0.0] * 3 + [-0.0]]
        ens = limit_law.LimitEnsemble(grid=default_grid(6), paths=paths,
                                      descriptor={})
        want = np.max(np.abs(paths), axis=1)
        assert ens.sup_abs().tobytes() == want.tobytes()

    @pytest.mark.parametrize("entries, N_aux", [
        ({(1, 0): -0.3, (0, 1): 0.3}, None),
        (kernel_table(gaussian_bump_kernel()).diagonal(2), None),
        ({(2, 0): 0.5, (1, 1): -0.25}, 2 ** 12),
    ], ids=["rank-1", "bump", "mixed"])
    def test_table_holds_little_more_than_its_paths(self, entries, N_aux):
        # each replication is reduced to its path as it is drawn, so no
        # per-order (reps, G + 1) array or full-size temporary exists
        tracemalloc.start()
        try:
            ens = limit_thm1(entries, 0.4, grid_size=4096, reps=200,
                             N_aux=N_aux, seed=2)
            critical_values(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.descriptor["N_aux"] in (None, 2 ** 12)
        assert peak <= 1.5 * ens.paths.nbytes


class TestCriticalValues:
    def test_monotone_in_level(self, cv_ensemble):
        table = critical_values(cv_ensemble)
        values = [table.value_at(lv) for lv in (0.8, 0.9, 0.95, 0.99)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("fixture", ["cv_ensemble", "bump_ensemble"])
    def test_value_and_interval_at_any_level(self, fixture, request):
        # at any level, np.quantile of the sorted sup sample and its order
        # statistics, bit for bit: on and between order statistics, at
        # interpolation weights on both sides of 1/2, and next to 0 and 1
        ens = request.getfixturevalue(fixture)
        table = critical_values(ens)
        sups = np.sort(ens.sup_abs())
        assert np.array_equal(table.sups, sups)
        assert table.reps == ens.reps == sups.size
        on_ranks = [j / (sups.size - 1) for j in (1, 7, sups.size - 2)]
        for level in (1e-12, 0.25, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999,
                      *np.linspace(0.013, 0.987, 31).tolist(), *on_ranks,
                      float(np.nextafter(1.0, 0.0))):
            assert table.value_at(level) == float(np.quantile(sups, level))
            assert table.interval_at(level) == [
                None if j is None else float(sups[j - 1])
                for j in order_statistic_ranks(level, sups.size)]

    def test_levels_validated(self, cv_ensemble):
        table = critical_values(cv_ensemble)
        for level in (0.0, 1.0, float("nan")):
            with pytest.raises(ParameterError):
                table.value_at(level)
            with pytest.raises(ParameterError):
                table.interval_at(level)

    def test_reps_floor(self):
        small = simulate_hermite(1, D_ONE, 8, reps=10, seed=0)
        with pytest.raises(ParameterError):
            critical_values(small)

    def test_seed_reproducible(self):
        a = simulate_hermite(1, D_ONE, 32, reps=200, seed=44)
        b = simulate_hermite(1, D_ONE, 32, reps=200, seed=44)
        assert np.array_equal(critical_values(a).sups,
                              critical_values(b).sups)

    def test_grid_refinement_stability(self):
        # refining the grid from 64 to 256 steps moves the 95% quantile of
        # the sup by less than its Monte Carlo error: each 400-replication
        # q95 lies in the other grid's order-statistic interval
        tables = [critical_values(simulate_hermite(1, D_ONE, grid_size,
                                                   reps=400, seed=seed))
                  for grid_size, seed in ((64, 8), (256, 9))]
        for mine, other in (tables, tables[::-1]):
            lo, hi = other.interval_at(0.95)
            assert lo <= mine.value_at(0.95) <= hi

    def test_json_roundtrip(self, cv_ensemble):
        table = critical_values(cv_ensemble)
        saved = json.loads(to_json(table.to_json_dict()))
        back = CriticalValueTable.from_json_dict(saved)
        assert np.array_equal(back.sups, table.sups)
        assert back.reps == table.reps == 500
        assert back.grid_size == table.grid_size == 64
        assert back.descriptor == table.descriptor
        saved["sups"].reverse()  # an unsorted sample is no table
        with pytest.raises(ValueError):
            CriticalValueTable.from_json_dict(saved)

    @pytest.mark.parametrize("level, reps", [(0.25, 100), (0.5, 200),
                                             (0.9, 200), (0.95, 2000),
                                             (0.99, 200), (0.99, 1000)])
    def test_order_statistic_ranks_are_tightest(self, level, reps):
        # X_(l) > x when fewer than l draws are <= x, so the miss below is
        # P(B <= l - 1) and the miss above P(B >= u), B ~ Binomial(reps,
        # level): l is the largest and u the smallest rank within the tail
        tail = (1.0 - limit_law.CV_COVERAGE) / 2.0
        lo, hi = order_statistic_ranks(level, reps)
        assert binom.cdf(lo - 1, reps, level) <= tail \
            < binom.cdf(lo, reps, level)
        if hi is None:  # even the maximum falls short too often
            assert binom.sf(reps - 1, reps, level) > tail
        else:
            assert binom.sf(hi - 1, reps, level) <= tail \
                < binom.sf(hi - 2, reps, level)

    def test_intervals_cover_the_quantile(self):
        # on the grid {0, 1}, the ends of a G = 2 draw, the rank-one sup is
        # |Z(1)|, |N(0, 1)|, whose level-p quantile is exact.  Twenty
        # 200-replication tables at three levels: each interval misses with
        # probability at most 0.05, so 50 covers of 60 is a loose floor
        levels = [0.5, 0.9, 0.95]
        exact = [NormalDist().inv_cdf((1.0 + p) / 2.0) for p in levels]
        ens = simulate_hermite(1, D_ONE, 2, reps=4000, seed=91)
        covers = 0
        for paths in np.split(ens.paths[:, [0, -1]], 20):
            part = limit_law.LimitEnsemble(grid=default_grid(1), paths=paths,
                                           descriptor={})
            table = critical_values(part)
            covers += sum(lo <= q <= hi for (lo, hi), q in
                          zip(map(table.interval_at, levels), exact))
        assert covers >= 50

    def test_p_value(self, cv_ensemble):
        # (1 + #{sup >= statistic}) / (reps + 1): in [1/(reps+1), 1], not
        # increasing in the statistic, 1 at or below the smallest sup and
        # 1/(reps+1) above the largest
        table = critical_values(cv_ensemble)
        sups, floor = table.sups, 1.0 / (table.reps + 1)
        stats = np.concatenate([[0.0, sups[0]], sups[::7],
                                np.linspace(0.0, 2.0 * sups[-1], 101),
                                [sups[-1], np.nextafter(sups[-1], np.inf)]])
        stats.sort()
        p = [table.p_value(x) for x in stats]
        assert all(floor <= v <= 1.0 for v in p)
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert [table.p_value(x) for x in (0.0, sups[0])] == [1.0, 1.0]
        assert table.p_value(sups[-1]) == 2.0 / (table.reps + 1)
        assert table.p_value(np.nextafter(sups[-1], np.inf)) == floor
        for x in stats:
            assert table.p_value(x) == (1 + np.sum(sups >= x)) \
                / (table.reps + 1)

    def test_interval_brackets_the_value(self, cv_ensemble):
        table = critical_values(cv_ensemble)
        for level in (0.5, 0.9, 0.99):
            lo, hi = table.interval_at(level)
            assert lo <= table.value_at(level) <= hi
