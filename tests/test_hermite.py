import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import eval_hermitenorm
from scipy.stats import expon, norm

from lrdustat import hermite
from lrdustat.errors import ParameterError, RegimeError
from lrdustat.hermite import (CONVERGENT_LIKELY, DIVERGENT_LIKELY,
                              check_regime, class_coeffs, closed_form_table, coeffs_2d,
                              coeffs_2d_montecarlo, gauss_hermite_prob,
                              gaussian_bump_coeff_closed_form,
                              hermite_design, hermite_eval, kernel_table,
                              odd_score_coeff_closed_form, rank_2d, scaling,
                              summability_diagnostic,
                              wilcoxon_coeff_closed_form)
from lrdustat.limit_law import limit_thm1, simulate_hermite, thm1_law
from lrdustat.lrd_sim import QUAD_ORDER, TWEAKED_POWER_LAW, Subordinator
from lrdustat.ustat import (Kernel, OddScore, builtin_kernel,
                            changepoint_statistic, cusum_kernel,
                            gaussian_bump_kernel, wilcoxon_kernel)
from lrdustat.verify import check_reduction


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

    def test_montecarlo_overflow_names_the_degree(self):
        # the Monte Carlo a_kl ~ sqrt(k! l!) overflows float64 near
        # k + l = 300: the error names the first total degree with a
        # non-finite mean, and every mean and standard error below it is
        # finite, with no numpy warning on the way
        with pytest.raises(ParameterError, match="overflow") as info:
            coeffs_2d_montecarlo(wilcoxon_kernel(), 340, pairs=1000, seed=1)
        s = int(re.search(r"total degree (\d+)", str(info.value)).group(1))
        assert 250 < s <= 340
        table, err = coeffs_2d_montecarlo(wilcoxon_kernel(), s - 1,
                                          pairs=1000, seed=1)
        inside = hermite._triangle(s - 1)
        assert np.all(np.isfinite(table.entries[inside]))
        assert np.all(np.isfinite(err[inside]))

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_montecarlo_needs_a_pair(self, pairs):
        with pytest.raises(ParameterError):
            coeffs_2d_montecarlo(wilcoxon_kernel(), 1, pairs=pairs)

    @pytest.mark.parametrize("Q", [0, -2])
    def test_montecarlo_needs_degree_one(self, Q):
        with pytest.raises(ParameterError, match=r"^Q must be >= 1$"):
            coeffs_2d_montecarlo(wilcoxon_kernel(), Q, pairs=10)


#: the three table constructors, each at total degree Q
TABLES = {
    "closed_form": lambda Q: closed_form_table(wilcoxon_coeff_closed_form, Q),
    "quadrature": lambda Q: coeffs_2d(wilcoxon_kernel(), Q),
    "monte_carlo": lambda Q: coeffs_2d_montecarlo(wilcoxon_kernel(), Q,
                                                  pairs=1000, seed=1)[0],
}


class TestTableDegree:
    @pytest.mark.parametrize("Q", [1, 4, 8])
    @pytest.mark.parametrize("source", list(TABLES))
    def test_q_is_the_matrix_size(self, source, Q):
        table = TABLES[source](Q)
        assert table.Q == table.entries.shape[0] - 1 == Q
        assert table.entries.shape == (Q + 1, Q + 1)
        q = table.to_json_dict()["Q"]
        assert type(q) is int and q == Q

    def test_degree_zero_refused(self):
        # a (1, 1) matrix holds a00 alone, which has no rank to look for
        for build in (lambda: closed_form_table(wilcoxon_coeff_closed_form, 0),
                      lambda: hermite.HermiteCoeffTable(
                          np.zeros((1, 1)), hermite.CLOSED_FORM, 1e-12)):
            with pytest.raises(ParameterError, match=r"^table must be "
                               r"populated to degree Q >= 1$"):
                build()

    @pytest.mark.parametrize("entries", [
        np.ones((3, 5)), np.ones((5, 3)), np.ones((2, 2, 2)),
        np.array([0.5, 1.0, -1.0, 0.0]),
    ], ids=["3x5", "5x3", "2x2x2", "vector"])
    def test_entries_must_be_a_square_matrix(self, entries):
        with pytest.raises(ParameterError, match=re.escape(
                f"entries must be a square matrix, got shape {entries.shape}")):
            hermite.HermiteCoeffTable(entries, hermite.CLOSED_FORM, 1e-12)


@pytest.mark.parametrize("provider", [
    wilcoxon_coeff_closed_form, gaussian_bump_coeff_closed_form,
    builtin_kernel("huber:1.345").coeff_provider,
], ids=["wilcoxon", "gaussian_bump", "odd_score"])
@pytest.mark.parametrize("k, l", [(-1, 0), (0, -1), (-2, 3)])
def test_negative_degree_refused(provider, k, l):
    with pytest.raises(ParameterError, match=r"^degrees must be >= 0$"):
        provider(k, l)


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


class TestGaussianBumpClosedForm:
    def test_matches_quadrature(self):
        table = coeffs_2d(gaussian_bump_kernel(), 8)
        for k in range(9):
            for l in range(9 - k):
                assert abs(gaussian_bump_coeff_closed_form(k, l)
                           - table.get(k, l)) <= 1e-14

    def test_a00_and_diagonal_exact(self):
        table = kernel_table(gaussian_bump_kernel())
        assert table.source == hermite.CLOSED_FORM
        assert table.a00 == 0.0
        assert table.rank == 2
        assert table.diagonal(2) == {(2, 0): -2 / 9, (0, 2): -2 / 9}

    def test_largest_total_degree(self):
        # a_{s0} = s!/(s/2)!/3^(s/2+1) is finite at s = 324, not at 326
        assert hermite.BUMP_MAX_DEGREE == 325
        assert math.isfinite(gaussian_bump_coeff_closed_form(324, 0))
        assert gaussian_bump_coeff_closed_form(0, 325) == 0.0
        for k, l in [(326, 0), (1, 325), (200, 200)]:
            with pytest.raises(ParameterError, match="largest supported "
                               "total degree is 325"):
                gaussian_bump_coeff_closed_form(k, l)


HUBER_POLY = (0.0, 1.0)
TUKEY_POLY = (0.0, 1.0, 0.0, -2.0, 0.0, 1.0)


def _score_reference(score, s):
    """2^(-s/2) E[psi(sqrt(2) Z) H_s(Z)] by adaptive quadrature, split at
    the kinks z = -+c/sqrt(2): a_{s0} by integration by parts on one
    Gaussian instead of s derivatives of psi."""
    c = score.c

    def psi(t):
        if abs(t) > c:
            return math.copysign(score.tail, t)
        return c * sum(p * (t / c) ** j for j, p in enumerate(score.poly))

    def integrand(z):
        return psi(math.sqrt(2.0) * z) * eval_hermitenorm(s, z) * norm.pdf(z)

    a = c / math.sqrt(2.0)
    total = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11,
                     limit=200)[0]
                for lo, hi in [(-np.inf, -a), (-a, a), (a, np.inf)])
    return 2.0 ** (-s / 2.0) * total


def _tukey_a10_series(c):
    """Tukey's a10 = E[psi'(W)], W ~ N(0, 2), by expanding the density in
    powers of t^2: c / sqrt(4 pi) sum_{j>=1} (-c^2/4)^j / j!
    2 (1/(2j+1) - 6/(2j+3) + 5/(2j+5)).  The j = 0 term is exactly 0, and
    at small c the rest converge fast without cancelling."""
    total = sum((-c * c / 4.0) ** j / math.factorial(j) * 2.0
                * (1.0 / (2 * j + 1) - 6.0 / (2 * j + 3) + 5.0 / (2 * j + 5))
                for j in range(1, 40))
    return c / math.sqrt(4.0 * math.pi) * total


class TestOddScoreClosedForm:
    @pytest.mark.parametrize("score", [
        OddScore(c=0.2, poly=HUBER_POLY, tail=0.2),
        OddScore(c=1.345, poly=HUBER_POLY, tail=1.345),
        OddScore(c=1.0, poly=TUKEY_POLY, tail=0.0),
        OddScore(c=4.685, poly=TUKEY_POLY, tail=0.0),
    ], ids=["huber-0.2", "huber-1.345", "tukey-1.0", "tukey-4.685"])
    def test_matches_quad_reference(self, score):
        for s in range(16):
            if s % 2 == 0:
                assert all(odd_score_coeff_closed_form(score, k, s - k)
                           == 0.0 for k in range(s + 1))
                continue
            ref = _score_reference(score, s)
            for k in range(s + 1):
                value = odd_score_coeff_closed_form(score, k, s - k)
                assert value == pytest.approx((-1) ** (s - k) * ref,
                                              rel=1e-10)

    @pytest.mark.parametrize("spec, tol", [("tukey:4.685", 1e-5),
                                           ("huber:1.345", 3e-3)])
    def test_near_the_tensor_rule(self, spec, tol):
        # signs and sizes of every a_kl, k + l <= 5; the rule converges
        # slowly across psi's kinks, Huber's worst
        kernel = builtin_kernel(spec)
        rule = coeffs_2d(kernel, 5)
        exact = closed_form_table(kernel.coeff_provider, 5)
        assert np.nanmax(np.abs(rule.entries - exact.entries)) <= tol

    def test_huber_a10_is_erf(self):
        # the 200-node rule gives 0.659083, 0.1% high across the kink
        for delta in (0.2, 1.345, 3.0):
            a10 = kernel_table(builtin_kernel(f"huber:{delta}")).get(1, 0)
            assert a10 == pytest.approx(math.erf(delta / 2.0), abs=1e-15)

    def test_huge_huber_is_cusum(self):
        # kernel_table stops at rank 1, where Huber's score has no boundary
        # terms; degree 8 reaches those dropped where phi(a) underflows
        huge = closed_form_table(builtin_kernel("huber:1e300").coeff_provider,
                                 8)
        cusum = closed_form_table(cusum_kernel().coeff_provider, 8)
        assert np.array_equal(huge.entries, cusum.entries, equal_nan=True)
        assert (kernel_table(builtin_kernel("huber:1e300")).diagonal(1)
                == kernel_table(cusum_kernel()).diagonal(1))

    @pytest.mark.parametrize("c", [0.12, 0.13, 0.14])
    def test_small_tukey_scale_resolves_at_its_rank(self, c):
        # a coefficient of degree 3, 5 or 7 cancels at these scales, but
        # the table stops at the rank, and a10 is within the 1e-6 guard
        table = kernel_table(builtin_kernel(f"tukey:{c}"))
        assert table.Q == table.rank == 1
        assert table.get(1, 0) == pytest.approx(_tukey_a10_series(c),
                                                rel=1e-6)

    def test_cancelling_small_scale_raises(self):
        # at c = 0.01 the terms of Tukey's a10 cancel to a value 4% off (a30:
        # 85%); the 200-node rule finds no rank at this scale either
        with pytest.raises(ParameterError, match="cancel below 1e-6"):
            kernel_table(builtin_kernel("tukey:0.01"))
        assert kernel_table(builtin_kernel("tukey:0.3")).rank == 1

    @pytest.mark.parametrize("spec, first", [("huber:1.345", 345),
                                             ("tukey:4.685", 343)])
    def test_overflow_names_the_first_degree(self, spec, first):
        provider = builtin_kernel(spec).coeff_provider
        assert math.isfinite(provider(first - 2, 0))
        for k, l in [(first, 0), (2, first)]:
            with pytest.raises(ParameterError, match=f"total degree {first} "
                               "overflow float64; the largest supported "
                               f"total degree is {first - 1}"):
                provider(k, l)


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

    def test_kernel_table_without_a_rank_refused(self):
        flat = Kernel(name="flat", eval=lambda x, y: 0.0 * (x - y),
                      coeff_provider=lambda k, l: 0.0)
        with pytest.raises(ParameterError,
                           match="cannot detect rank of kernel 'flat'"):
            kernel_table(flat)

    def test_entry_beyond_total_degree_refused(self):
        table = closed_form_table(wilcoxon_coeff_closed_form, 2)
        assert table.get(1, 1) == 0.0
        with pytest.raises(ParameterError, match="beyond total degree 2"):
            table.get(2, 1)

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

    def test_closed_form_exp_matches_scipy(self):
        cc = class_coeffs(Subordinator.exp(), 3, self.EXP_GRID)
        ref = class_coeffs(Subordinator.from_distribution(expon()), 3,
                           self.EXP_GRID)
        assert cc.rank == ref.rank
        np.testing.assert_allclose(cc.values, ref.values, rtol=0.0,
                                   atol=1e-15)

    def test_grid_outside_range_rejected(self):
        g = Subordinator.from_distribution(expon())
        with pytest.raises(ParameterError):
            class_coeffs(g, 3, np.linspace(-3.0, -1.5, 5))

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_rejected(self, k_max):
        with pytest.raises(ParameterError, match=r"^k_max must be >= 1$"):
            class_coeffs(Subordinator.identity(), k_max,
                         np.linspace(-1.0, 1.0, 5))

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 0.5], [1.0, -1.0], [0.0]])
    def test_unsorted_or_single_point_grid_rejected(self, grid):
        with pytest.raises(ParameterError, match=r"^grid must be sorted$"):
            class_coeffs(Subordinator.identity(), 2, grid)


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
        rep = summability_diagnostic(gaussian_bump_coeff_closed_form,
                                     [4, 8, 16, 32])
        incs = np.diff(rep.partial_sums)
        # increments collapse once the geometric tail takes over
        assert incs[-1] < 0.5 * incs[-2]
        assert rep.classification == CONVERGENT_LIKELY

    @pytest.mark.parametrize("q_list", [[], [0, 2], [-1]])
    def test_degrees_below_one_rejected(self, q_list):
        with pytest.raises(ParameterError,
                           match=r"^Q_list must contain integers >= 1$"):
            summability_diagnostic(wilcoxon_coeff_closed_form, q_list)

    def test_one_degree_is_inconclusive(self):
        rep = summability_diagnostic(wilcoxon_coeff_closed_form, [3])
        assert rep.classification == hermite.INCONCLUSIVE

    @pytest.mark.parametrize("partial", [
        [1.0],            # no increment
        [1.0, 2.0],       # one increment, still growing
        [1.0, 1.0, 2.0],  # growth after a flat step: no ratio
        [0.0, 1.0, 1.7],  # ratio 0.7, between the two thresholds
    ])
    def test_inconclusive_increments(self, partial):
        assert hermite._classify_increments(partial) == hermite.INCONCLUSIVE


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

    @pytest.mark.parametrize("n", [0, -4])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ParameterError, match=r"^n must be >= 1$"):
            scaling(0.4, 1, n, 1.0)

    @pytest.mark.parametrize("L", [0.0, -0.5])
    def test_nonpositive_L_rejected(self, L):
        with pytest.raises(ParameterError, match=r"^L\(n\) must be positive$"):
            scaling(0.4, 1, 100, L)


def _rank_kernel(m):
    return wilcoxon_kernel() if m == 1 else gaussian_bump_kernel()


def _model(D):
    # check_reduction and changepoint_statistic take a model; one built
    # around LrdParams' own check must still be refused
    return SimpleNamespace(D=D, family=TWEAKED_POWER_LAW)


#: every function whose result exists only in the regime, called at (D, m)
REGIME_CALLS = {
    "c_constant": lambda D, m: hermite.c_constant(D, m),
    "scaling": lambda D, m: scaling(D, m, 100, 1.0),
    "simulate_hermite": lambda D, m: simulate_hermite(m, D, 8, reps=1),
    "thm1_law": lambda D, m: thm1_law({(m, 0): 1.0, (0, m): 1.0}, D, 8),
    "limit_thm1": lambda D, m: limit_thm1({(m, 0): 1.0, (0, m): 1.0}, D, 8,
                                          reps=1),
    "check_reduction": lambda D, m: check_reduction(
        _rank_kernel(m), _model(D), [64], reps=2),
    "changepoint_statistic": lambda D, m: changepoint_statistic(
        np.zeros(63), kernel_table(_rank_kernel(m)), _model(D)),
}


class TestCheckRegime:
    @pytest.mark.parametrize("name", list(REGIME_CALLS))
    @pytest.mark.parametrize("D", [0.0, 1.0, -0.5, math.nan])
    def test_d_out_of_range(self, name, D):
        with pytest.raises(ParameterError, match=r"D must lie in \(0, 1\)"):
            REGIME_CALLS[name](D, 1)

    @pytest.mark.parametrize("name", list(REGIME_CALLS))
    def test_one_message_at_the_boundary(self, name):
        with pytest.raises(RegimeError) as info:
            REGIME_CALLS[name](0.5, 2)
        assert str(info.value) == "reduction regime violated: m*D = 1.0 >= 1"

    def test_rank_below_one(self):
        for m in (0, -1):
            with pytest.raises(ParameterError, match="m must be >= 1") as info:
                check_regime(0.4, m)
            assert not isinstance(info.value, RegimeError)

    def test_admissible(self):
        assert check_regime(0.3, 3) is None
        assert check_regime(0.99, 1) is None
