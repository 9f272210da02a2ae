import math
import re

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import expon, norm

from lrdustat import hermite
from lrdustat.errors import ParameterError, RegimeError
from lrdustat.hermite import (CONVERGENT_LIKELY, DIVERGENT_LIKELY,
                              class_coeffs, closed_form_table, coeffs_2d,
                              coeffs_2d_montecarlo, gauss_hermite_prob,
                              hermite_design, hermite_eval, rank_2d, scaling,
                              summability_diagnostic,
                              wilcoxon_coeff_closed_form)
from lrdustat.lrd_sim import QUAD_ORDER, Subordinator
from lrdustat.ustat import (cusum_kernel, gaussian_bump_kernel,
                            wilcoxon_kernel)


class TestHermiteEval:
    def test_degree_zero(self):
        assert hermite_eval(0, 3.7) == 1.0

    def test_degree_two_at_zero(self):
        assert hermite_eval(2, 0.0) == -1.0

    def test_degree_three(self):
        assert hermite_eval(3, 2.0) == 2.0

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(hermite_eval(3, x), x ** 3 - 3 * x)

    def test_negative_degree_rejected(self):
        with pytest.raises(ParameterError):
            hermite_eval(-1, 0.0)

    def test_orthonormality_under_quadrature(self):
        # quadrature on h = H_k H_l / sqrt(k! l!) recovers sqrt(k! l!)
        # on the diagonal and 0 elsewhere, within 1e-8, for k+l <= 12
        x, w = gauss_hermite_prob(64)
        d = hermite_design(12, x)
        gram = (d * w) @ d.T
        for k in range(13):
            for l in range(13):
                expected = 1.0 if k == l else 0.0
                scale = math.sqrt(math.factorial(k) * math.factorial(l))
                assert abs(gram[k, l] / scale - expected) <= 1e-8


class TestCoeffs2d:
    def test_cusum(self):
        table = coeffs_2d(cusum_kernel(), 3)
        assert table.get(1, 0) == pytest.approx(1.0, abs=1e-10)
        assert table.get(0, 1) == pytest.approx(-1.0, abs=1e-10)
        for k in range(4):
            for l in range(4 - k):
                if (k, l) not in ((1, 0), (0, 1)):
                    assert abs(table.get(k, l)) <= 1e-10

    def test_hermite_product_orthogonality(self):
        class HK:
            @staticmethod
            def eval(x, y):
                return hermite_eval(2, x) * hermite_eval(1, y)

        table = coeffs_2d(HK(), 4)
        assert table.get(2, 1) == pytest.approx(2.0, abs=1e-8)
        for k in range(5):
            for l in range(5 - k):
                if (k, l) != (2, 1):
                    assert abs(table.get(k, l)) <= 1e-8

    def test_quadrature_matches_closed_form_providers(self):
        table = coeffs_2d(cusum_kernel(), 4)
        provider = cusum_kernel().coeff_provider
        for k in range(5):
            for l in range(5 - k):
                assert table.get(k, l) == pytest.approx(provider(k, l),
                                                        abs=1e-8)

    def test_discontinuous_kernel_attaches_warning(self):
        table = coeffs_2d(wilcoxon_kernel(), 2)
        assert table.warnings

    def test_nonfinite_kernel_rejected(self):
        class Bad:
            @staticmethod
            def eval(x, y):
                return np.where(np.asarray(x) > 0, np.inf, 0.0)

        with pytest.raises(ParameterError):
            coeffs_2d(Bad(), 2)

    @pytest.mark.parametrize("Q", [0, QUAD_ORDER])
    def test_degree_beyond_rule_rejected(self, Q):
        with pytest.raises(ParameterError):
            coeffs_2d(cusum_kernel(), Q)

    def test_parseval_bound(self):
        # sum a_{kl}^2/(k! l!) increases in Q, bounded by E[h^2] + slack
        kernel = gaussian_bump_kernel()
        x, w = gauss_hermite_prob(200)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        hv = kernel.eval(xx, yy)
        second_moment = float(np.einsum("i,ij,j->", w, hv * hv, w))
        prev = 0.0
        for q in (2, 4, 8, 12):
            table = coeffs_2d(kernel, q)
            total = 0.0
            for k in range(q + 1):
                for l in range(q + 1 - k):
                    if k + l == 0:
                        continue
                    total += table.get(k, l) ** 2 / (
                        math.factorial(k) * math.factorial(l))
            assert total >= prev - 1e-12
            assert total <= second_moment + 1e-6
            prev = total

    def test_wilcoxon_montecarlo(self):
        table, err = coeffs_2d_montecarlo(wilcoxon_kernel(), 1,
                                          pairs=10 ** 6, seed=42)
        a = 1.0 / (2.0 * math.sqrt(math.pi))
        assert abs(table.get(1, 0) + a) < 3 * err[1, 0]
        assert abs(table.get(0, 1) - a) < 3 * err[0, 1]

    # numpy warns as the sums overflow, before the ParameterError:
    # CHANGES.md, "FOUND: `hermite.coeffs_2d_montecarlo`'s standard errors
    # overflow long before its means"
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    def test_montecarlo_overflow_names_the_degree(self):
        # H_k(x) overflows float64 near k = 300, where sqrt(k!) ~ 1e308:
        # the error names the first total degree with a non-finite mean,
        # and every degree below it is finite
        with pytest.raises(ParameterError, match="overflow") as info:
            coeffs_2d_montecarlo(wilcoxon_kernel(), 340, pairs=1000, seed=1)
        s = int(re.search(r"total degree (\d+)", str(info.value)).group(1))
        assert 250 < s <= 340
        with np.errstate(over="ignore", invalid="ignore"):
            table, _ = coeffs_2d_montecarlo(wilcoxon_kernel(), s - 1,
                                            pairs=1000, seed=1)
        assert np.all(np.isfinite(table.entries[hermite._triangle(s - 1)]))

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_montecarlo_needs_a_pair(self, pairs):
        with pytest.raises(ParameterError):
            coeffs_2d_montecarlo(wilcoxon_kernel(), 1, pairs=pairs)


class TestWilcoxonClosedForm:
    def test_a10(self):
        assert wilcoxon_coeff_closed_form(1, 0) == pytest.approx(
            -1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-15)

    def test_even_positive_is_zero(self):
        assert wilcoxon_coeff_closed_form(2, 2) == 0.0
        for k in range(21):
            for l in range(21 - k):
                if (k + l) > 0 and (k + l) % 2 == 0:
                    assert wilcoxon_coeff_closed_form(k, l) == 0.0

    def test_a00(self):
        assert wilcoxon_coeff_closed_form(0, 0) == 0.5

    def test_a21_against_numeric_integration_oracle(self):
        # independent oracle: adaptive 2D integration of
        # E[1{x<=y} H_2(x) H_1(y)] against the bivariate normal density
        oracle, _ = dblquad(
            lambda y, x: (x * x - 1.0) * y * norm.pdf(x) * norm.pdf(y),
            -9, 9, lambda x: x, 9)
        assert oracle == pytest.approx(-math.gamma(1.5) / (2 * math.pi),
                                       abs=1e-9)
        assert wilcoxon_coeff_closed_form(2, 1) == pytest.approx(oracle,
                                                                 abs=1e-9)

    def test_largest_total_degree(self):
        # Gamma(171.5) is finite in float64, Gamma(172.5) is not
        assert hermite.WILCOXON_MAX_DEGREE == 344
        assert math.isfinite(wilcoxon_coeff_closed_form(0, 343))
        assert wilcoxon_coeff_closed_form(200, 144) == 0.0
        for k, l in [(0, 345), (200, 145), (346, 0)]:
            with pytest.raises(ParameterError, match="largest supported "
                               "total degree is 344"):
                wilcoxon_coeff_closed_form(k, l)


class TestRank:
    def test_cusum_rank_one(self):
        assert coeffs_2d(cusum_kernel(), 3).rank == 1

    def test_centered_wilcoxon_rank_one(self):
        table = closed_form_table(wilcoxon_coeff_closed_form, 4)
        assert table.rank == 1

    def test_h1h1_rank_two(self):
        class HK:
            @staticmethod
            def eval(x, y):
                return np.asarray(x, dtype=float) * y

        assert coeffs_2d(HK(), 3).rank == 2

    def test_rank_not_found(self):
        table = closed_form_table(lambda k, l: 0.0, 3)
        assert table.rank is None
        assert rank_2d(table) is None

    @pytest.mark.parametrize("c", [1e-6, 0.5, 3.0, 1e4])
    def test_rank_invariant_under_scaling(self, c):
        class Scaled:
            @staticmethod
            def eval(x, y):
                return c * (np.asarray(x, dtype=float) * y)

        table = coeffs_2d(Scaled(), 3)
        assert table.rank == 2


class TestClassCoeffs:
    def test_identity_J1(self):
        grid = np.linspace(-8.0, 8.0, 161)
        cc = class_coeffs(Subordinator.identity(), 2, grid)
        # J_1(x) = -phi(x): antiderivative oracle for int s phi(s) ds
        assert np.allclose(cc.J(1), -norm.pdf(grid), atol=1e-10)
        assert cc.rank == 1

    def test_identity_J2_integration_by_parts(self):
        grid = np.linspace(-8.0, 8.0, 161)
        cc = class_coeffs(Subordinator.identity(), 2, grid)
        # int_{-inf}^{x} (s^2 - 1) phi(s) ds = -x phi(x)
        assert np.allclose(cc.J(2), -grid * norm.pdf(grid), atol=1e-10)
        i0 = np.argmin(np.abs(grid))
        assert cc.J(2)[i0] == pytest.approx(0.0, abs=1e-12)

    def test_J1_integral_against_wilcoxon_coefficient(self):
        grid = np.linspace(-8.0, 8.0, 2001)
        cc = class_coeffs(Subordinator.identity(), 1, grid)
        j_mid = 0.5 * (cc.J(1)[1:] + cc.J(1)[:-1])
        integral = float(np.dot(j_mid, np.diff(norm.cdf(grid))))
        assert integral == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)),
                                         abs=1e-4)

    # centred exponential: G has range (-offset, inf), offset about 1, so
    # the grid starts below the range, where G^{-1} = -inf
    EXP_GRID = np.linspace(-2.0, 6.0, 33)

    def test_below_range_is_zero_and_finite(self):
        g = Subordinator.from_distribution(expon())
        cc = class_coeffs(g, 3, self.EXP_GRID)
        below = np.isneginf(g.inverse(self.EXP_GRID))
        assert 0 < below.sum() < below.size
        assert np.all(np.isfinite(cc.values))
        assert np.all(cc.values[:, below] == 0.0)
        assert cc.rank == 1

    def test_matches_quadrature_oracle(self):
        # J_k(x) = int_{-inf}^{G^{-1}(x)} H_k(s) phi(s) ds by adaptive
        # quadrature, with H_1..H_3 written out
        g = Subordinator.from_distribution(expon())
        cc = class_coeffs(g, 3, self.EXP_GRID)
        polys = [lambda s: s, lambda s: s * s - 1.0, lambda s: s ** 3 - 3 * s]
        for k, poly in enumerate(polys, start=1):
            oracle = [quad(lambda s: poly(s) * norm.pdf(s), -np.inf, t,
                           limit=200)[0]
                      for t in g.inverse(self.EXP_GRID)]
            assert np.allclose(cc.J(k), oracle, rtol=0.0, atol=1e-10)

    def test_grid_outside_range_rejected(self):
        g = Subordinator.from_distribution(expon())
        with pytest.raises(ParameterError):
            class_coeffs(g, 3, np.linspace(-3.0, -1.5, 5))


class TestSummability:
    def test_cusum_constant(self):
        rep = summability_diagnostic(cusum_kernel().coeff_provider,
                                     [1, 2, 4, 8])
        assert all(s == pytest.approx(2.0) for s in rep.partial_sums)
        assert rep.classification == CONVERGENT_LIKELY

    def test_wilcoxon_divergent(self):
        rep = summability_diagnostic(wilcoxon_coeff_closed_form,
                                     [8, 16, 32])
        incs = np.diff(rep.partial_sums)
        assert np.all(incs > 0.2)
        assert rep.classification == DIVERGENT_LIKELY

    def test_gaussian_bump_convergent(self):
        tables = {q: coeffs_2d(gaussian_bump_kernel(), q)
                  for q in (4, 8, 16, 32)}

        def provider(k, l):
            for q in (4, 8, 16, 32):
                if k + l <= q:
                    return 0.0 if k + l == 0 else tables[q].get(k, l)
            return 0.0

        rep = summability_diagnostic(provider, [4, 8, 16, 32])
        incs = np.diff(rep.partial_sums)
        # increments collapse once the geometric tail takes over
        assert incs[-1] < 0.5 * incs[-2]
        assert rep.classification == CONVERGENT_LIKELY


class TestScaling:
    def test_c1(self):
        sc = scaling(0.4, 1, 1000, 1.0)
        assert sc.c_m == pytest.approx(2.0 / (0.6 * 1.6))

    def test_dn_prime(self):
        sc = scaling(0.4, 1, 1000, 1.0)
        assert sc.d_n_prime == pytest.approx(1000 ** 0.8)
        assert sc.d_n == pytest.approx(math.sqrt(sc.c_m) * sc.d_n_prime)

    def test_hurst(self):
        assert scaling(0.4, 1, 10, 1.0).H == pytest.approx(0.8)
        assert scaling(0.3, 2, 10, 1.0).H == pytest.approx(0.7)

    def test_regime_violation(self):
        with pytest.raises(RegimeError):
            scaling(0.5, 2, 100, 1.0)
