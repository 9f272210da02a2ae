import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrdustat import ustat
from lrdustat.errors import ParameterError
from lrdustat.hermite import kernel_table, scaling
from lrdustat.lrd_sim import (CirculantEmbedding, LrdParams, asymptotic_L,
                              replication_draws, replication_rng,
                              simulate_gaussian)
from lrdustat.ustat import (BUILTIN_KERNELS, builtin_kernel,
                            changepoint_statistic, cusum_kernel,
                            gaussian_bump_kernel, huber_kernel,
                            tukey_kernel, ustat_cusum, ustat_factored,
                            ustat_fast, ustat_incremental, ustat_naive,
                            ustat_score, ustat_wilcoxon, wilcoxon_kernel)

finite_data = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
)


def _builtin_kernels():
    return [make() for make in BUILTIN_KERNELS.values()] + [
        builtin_kernel("huber:1.345"), builtin_kernel("tukey:4.685")]


class TestHandExamples:
    def test_cusum_123(self):
        # U(1) = (1-2)+(1-3) = -3; U(2) = (1-3)+(2-3) = -3
        assert np.array_equal(ustat_cusum([1.0, 2.0, 3.0]), [-3.0, -3.0])

    def test_wilcoxon_132(self):
        # data 1,3,2: U(1) = #{j>1: 1<=x_j} = 2; U(2) = 1{1<=2} + 1{3<=2} = 1
        assert np.array_equal(ustat_wilcoxon([1.0, 3.0, 2.0]), [2.0, 1.0])

    def test_wilcoxon_sorted_four(self):
        assert np.array_equal(ustat_wilcoxon([1.0, 2.0, 3.0, 4.0]),
                              [3.0, 4.0, 3.0])

    def test_wilcoxon_ties_use_leq(self):
        # all equal: every pair counts, U(k) = k (n - k)
        assert np.array_equal(ustat_wilcoxon([5.0, 5.0, 5.0, 5.0]),
                              [3.0, 4.0, 3.0])


class TestOracleEquivalence:
    @pytest.mark.parametrize("kernel_fn", [cusum_kernel, wilcoxon_kernel,
                                           gaussian_bump_kernel,
                                           lambda: huber_kernel(1.345),
                                           lambda: tukey_kernel(4.685)])
    def test_incremental_matches_naive(self, kernel_fn):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(60)
        kernel = kernel_fn()
        a = ustat_naive(data, kernel)
        b = ustat_incremental(data, kernel)
        scale = np.maximum(np.abs(a), 1.0)
        assert np.max(np.abs(a - b) / scale) < 1e-12

    def test_fast_cusum_matches_naive(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal(80)
        a = ustat_naive(data, cusum_kernel())
        b = ustat_cusum(data)
        scale = np.maximum(np.abs(a), 1.0)
        assert np.max(np.abs(a - b) / scale) < 1e-12

    def test_fast_wilcoxon_matches_naive_exactly(self):
        rng = np.random.default_rng(7)
        data = np.round(rng.standard_normal(80), 1)  # force ties
        a = ustat_naive(data, wilcoxon_kernel())
        b = ustat_wilcoxon(data)
        assert np.array_equal(a, b)

    def test_fast_dispatch(self):
        data = np.array([0.3, -1.0, 2.0, 0.1])
        for kernel in _builtin_kernels():
            assert kernel.path is not None
            assert np.array_equal(ustat_fast(data, kernel), kernel.path(data))

    def test_factored_bump_matches_naive(self):
        # criterion 4's data and bound for the bump's fast path
        bump = gaussian_bump_kernel()
        worst = 0.0
        for n in (50, 200):
            for rep in range(50):
                data = replication_rng(1234 + n, rep).standard_normal(n)
                if rep % 2:
                    data = np.round(data, 1)
                ref = ustat_naive(data, bump)
                scale = np.maximum(np.abs(ref), 1.0)
                worst = max(worst, float(np.max(
                    np.abs(bump.path(data) - ref) / scale)))
        assert worst <= 1e-9

    def test_factors_reproduce_eval(self):
        # the bump's path is ustat_factored over a sum of separable terms
        factored = [k for k in _builtin_kernels()
                    if getattr(k.path, "func", None) is ustat_factored]
        assert [k.name for k in factored] == ["gaussian_bump"]
        x, y = np.meshgrid(np.linspace(-4.0, 4.0, 41),
                           np.linspace(-4.0, 4.0, 41), indexing="ij")
        for kernel in factored:
            expanded = sum(w * f(x) * g(y)
                           for w, f, g in kernel.path.keywords["factors"])
            assert np.max(np.abs(expanded - kernel.eval(x, y))) <= 1e-14

    def test_score_reproduces_eval(self):
        # the Huber and Tukey paths are ustat_score over an odd score psi
        scored = [k for k in _builtin_kernels()
                  if getattr(k.path, "func", None) is ustat_score]
        assert [k.name for k in scored] == ["huber_1.345", "tukey_4.685"]
        x, y = np.meshgrid(np.linspace(-8.0, 8.0, 81),
                           np.linspace(-8.0, 8.0, 81), indexing="ij")
        for kernel in scored:
            score = kernel.path.keywords["score"]
            c, poly, tail = score.c, score.poly, score.tail
            t = np.concatenate([(x - y).ravel(), [-c, c]])
            psi = np.where(np.abs(t) <= c,
                           c * np.polynomial.polynomial.polyval(t / c, poly),
                           np.sign(t) * tail)
            assert np.max(np.abs(psi - kernel.eval(t, 0.0))) <= 1e-14

    def test_path_reproduces_eval(self):
        # a two-point path is U(1) = h(x, y); the points include the Huber
        # and Tukey corners at +-c
        points = np.concatenate([np.linspace(-8.0, 8.0, 41),
                                 [-4.685, -1.345, 1.345, 4.685]])
        for kernel in _builtin_kernels():
            for x in points:
                for y in points:
                    assert abs(kernel.path([x, y])[0]
                               - kernel.eval(x, y)) <= 1e-13, (kernel.name,
                                                               x, y)

    def test_short_data_rejected(self):
        with pytest.raises(ParameterError):
            ustat_cusum([1.0])
        with pytest.raises(ParameterError):
            ustat_naive([np.nan, 1.0], cusum_kernel())


SCORE_KERNELS = ["huber:1.345", "tukey:4.685"]


def _worst_score_error(kernel, datasets):
    worst = 0.0
    for data in datasets:
        ref = ustat_naive(data, kernel)
        scale = np.maximum(np.abs(ref), 1.0)
        worst = max(worst, float(np.max(
            np.abs(kernel.path(data) - ref) / scale)))
    return worst


class TestScorePath:
    """The one-sort path for h(x, y) = psi(x - y) (Huber, Tukey) against the
    oracles, at criterion 4's bound."""

    @pytest.mark.parametrize("spec", SCORE_KERNELS)
    def test_matches_naive_on_criterion_4_data(self, spec):
        def datasets():
            for n in (50, 200):
                for rep in range(50):
                    data = replication_rng(1234 + n, rep).standard_normal(n)
                    yield np.round(data, 1) if rep % 2 else data

        assert _worst_score_error(builtin_kernel(spec), datasets()) <= 1e-9

    @pytest.mark.parametrize("spec", SCORE_KERNELS)
    @pytest.mark.parametrize("power", [1.0, 2.0, 3.0])
    def test_matches_naive_on_heavy_tails(self, spec, power):
        # exp-subordinated LRD data, whose top values lie up to 5, 150 and
        # 3900 Tukey c above the median: power sums expanded around one
        # centre lose all accuracy here
        def datasets():
            for n in (50, 200):
                emb = CirculantEmbedding(LrdParams(D=0.4), n)
                for (xi,) in replication_draws([emb], 10, seed=9):
                    yield np.exp(power * xi)

        assert _worst_score_error(builtin_kernel(spec), datasets()) <= 1e-9

    @pytest.mark.parametrize("spec", SCORE_KERNELS)
    def test_taylor_terms_match_polynomial_deriv(self, spec, monkeypatch):
        # binom(j, p) c_j by Horner's rule gives numpy.polynomial's
        # q^(p) / p! bit for bit on small integer coefficients, so the path
        # is unchanged on the criterion-4 and heavy-tailed data
        kernel = builtin_kernel(spec)
        datasets = [replication_rng(1234 + n, rep).standard_normal(n)
                    for n in (50, 200) for rep in range(50)]
        emb = CirculantEmbedding(LrdParams(D=0.4), 200)
        datasets += [np.exp(power * xi) for power in (1.0, 2.0, 3.0)
                     for (xi,) in replication_draws([emb], 10, seed=9)]
        datasets = [np.round(x, 1) if i % 2 else x
                    for i, x in enumerate(datasets)]
        paths = [kernel.path(x) for x in datasets]
        monkeypatch.setattr(ustat, "_taylor_terms", lambda poly: [
            np.polynomial.Polynomial(poly).deriv(p) / math.factorial(p)
            for p in range(len(poly))])
        for x, path in zip(datasets, paths):
            assert np.array_equal(kernel.path(x), path)

    @pytest.mark.parametrize("spec", SCORE_KERNELS)
    def test_shift_invariance(self, spec):
        # dyadic data with 20 fraction bits: x + 1e6 is exact, so every
        # difference x_i - x_j, and the exact path, are unchanged
        kernel = builtin_kernel(spec)
        xi = replication_rng(11, 0).standard_normal(300)
        data = np.round(xi * 2.0 ** 20) / 2.0 ** 20
        base = kernel.path(data)
        shifted = kernel.path(data + 1e6)
        scale = np.maximum(np.abs(base), 1.0)
        assert np.max(np.abs(shifted - base) / scale) <= 1e-9

    @pytest.mark.parametrize("spec", SCORE_KERNELS)
    def test_matches_incremental_at_n_4000(self, spec):
        kernel = builtin_kernel(spec)
        data = simulate_gaussian(LrdParams(D=0.4), 4000, seed=5).copy()
        data[1500:] += 1.0
        ref = ustat_incremental(data, kernel)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(kernel.path(data) - ref) / scale) <= 1e-9

    @pytest.mark.parametrize("spec, factor", [
        *((spec, factor) for spec in SCORE_KERNELS for factor in (1e-6, 1e-9)),
        *((f"{family}:{c!r}", 1.0) for family in ("huber", "tukey")
          for c in (1e6, 1e12, 1e300))])
    def test_matches_naive_on_small_spread_against_c(self, spec, factor):
        # the data span a small part of one bin of width c, where psi(t) = t
        # almost or exactly
        data = simulate_gaussian(LrdParams(D=0.4), 400, seed=1) * factor
        kernel = builtin_kernel(spec)
        ref = ustat_naive(data, kernel)
        assert np.max(np.abs(kernel.path(data) - ref)) \
            <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("spec, outliers", [
        *((spec, outliers) for spec in SCORE_KERNELS
          for outliers in ({200: 1e100}, {7: -1e100}, {10: 1e100, 20: 1e100})),
        *((f"{family}:{c!r}", {}) for family in ("huber", "tukey")
          for c in (1e-70, 1e-300))])
    def test_matches_naive_on_spread_large_against_c(self, spec, outliers):
        # points 2^53 or more c from the median: z +- 1 rounds to z, the
        # bins next to a point are empty, and the next data point lies far
        # beyond them, where Tukey's q overflows
        data = simulate_gaussian(LrdParams(D=0.4), 400, seed=1).copy()
        for i, x in outliers.items():
            data[i] = x
        kernel = builtin_kernel(spec)
        with np.errstate(over="ignore"):  # eval's Tukey branch off |t| <= c
            ref = ustat_naive(data, kernel)
        got = kernel.path(data)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("path", [
    lambda x: ustat_naive(x, huber_kernel(1.0)),
    lambda x: ustat_incremental(x, huber_kernel(1.0)),
    ustat_cusum,
    ustat_wilcoxon,
    gaussian_bump_kernel().path,
    huber_kernel(1.0).path,
    lambda x: ustat_fast(x, tukey_kernel(4.685)),
], ids=["naive", "incremental", "cusum", "wilcoxon", "factored", "score",
        "fast"])
@pytest.mark.parametrize("n", [2, 3, 50])
def test_path_is_float_vector_of_n_minus_1_splits(path, n):
    u = path(replication_rng(3, n).standard_normal(n))
    assert isinstance(u, np.ndarray)
    assert u.dtype == np.float64
    assert u.shape == (n - 1,)


class _Fenwick:
    """Binary indexed tree over 1..size for prefix counts."""

    def __init__(self, size):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, idx, delta):
        while idx <= self.size:
            self.tree[idx] += delta
            idx += idx & (-idx)

    def prefix(self, idx):
        total = 0
        while idx > 0:
            total += self.tree[idx]
            idx -= idx & (-idx)
        return total


def fenwick_wilcoxon(data):
    """The earlier O(n log n) Wilcoxon path, kept as a reference: a
    left-to-right split sweep with order-statistic trees over the prefix
    and suffix ranks."""
    data = np.asarray(data, dtype=float)
    n = data.size
    ranks = np.searchsorted(np.unique(data), data) + 1
    prefix = _Fenwick(int(ranks.max()))
    suffix = _Fenwick(int(ranks.max()))
    for r in ranks[1:]:
        suffix.add(int(r), 1)
    prefix.add(int(ranks[0]), 1)
    suffix_count = n - 1
    u = suffix_count - suffix.prefix(int(ranks[0]) - 1)
    out = np.empty(n - 1)
    out[0] = u
    for k in range(1, n - 1):
        r = int(ranks[k])
        suffix.add(r, -1)
        suffix_count -= 1
        u -= prefix.prefix(r)
        u += suffix_count - suffix.prefix(r - 1)
        prefix.add(r, 1)
        out[k] = u
    return out


class TestWilcoxonAgainstFenwick:
    @pytest.mark.parametrize("n", [2, 3, 7, 2000, 10 ** 5])
    def test_same_integers(self, n):
        rng = np.random.default_rng(n)
        continuous = rng.standard_normal(n)
        cases = {
            "continuous": continuous,
            "tied": np.round(continuous, 1),
            "constant": np.full(n, 0.25),
            "signed_zeros": rng.choice([-0.0, 0.0, 1.0, -1.0], size=n),
        }
        for name, data in cases.items():
            assert np.array_equal(ustat_wilcoxon(data),
                                  fenwick_wilcoxon(data)), name


class TestProperties:
    @given(finite_data, st.floats(min_value=-100, max_value=100,
                                  allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_cusum_shift_invariance(self, data, c):
        base = ustat_cusum(data)
        shifted = ustat_cusum(data + c)
        tol = 1e-9 * (1.0 + np.max(np.abs(base))) + 1e-6 * abs(c) * data.size ** 2
        assert np.max(np.abs(base - shifted)) <= tol

    @given(finite_data)
    @settings(max_examples=60, deadline=None)
    def test_wilcoxon_monotone_transform_invariance(self, data):
        # scaling by a power of two is exact in floats, so it is a strictly
        # monotone transform even for subnormal-scale differences
        base = ustat_wilcoxon(data)
        transformed = ustat_wilcoxon(data * 4.0)
        assert np.array_equal(base, transformed)
        # rank transform is also order-preserving
        ranks = np.searchsorted(np.unique(data), data).astype(float)
        assert np.array_equal(base, ustat_wilcoxon(ranks))

    @given(finite_data)
    @settings(max_examples=60, deadline=None)
    def test_cusum_reversal_antisymmetry(self, data):
        # h(x,y) = x - y is antisymmetric, so reversing the sample maps
        # U(k) to -U(n-k)
        fwd = ustat_cusum(data)
        rev = ustat_cusum(data[::-1])
        # prefix-sum rounding grows like n^3 * eps * max|data| (dominant
        # when the exact path is identically zero, e.g. constant data)
        n = data.size
        tol = (1e-9 * (1.0 + np.max(np.abs(fwd)))
               + 1e-14 * n ** 3 * (1.0 + np.max(np.abs(data))))
        assert np.max(np.abs(fwd + rev[::-1])) <= tol

    @given(finite_data)
    @settings(max_examples=60, deadline=None)
    def test_wilcoxon_complement_identity(self, data):
        # counting the complementary pairs: U_{<=}(k) + U_reflected = k(n-k)
        # where the reflection uses 1{x > y} = 1 - 1{x <= y}
        n = data.size
        u = ustat_wilcoxon(data)
        gt = ustat_naive(data, _strict_greater_kernel())
        k = np.arange(1, n, dtype=float)
        assert np.array_equal(u + gt, k * (n - k))


def _strict_greater_kernel():
    from lrdustat.ustat import Kernel
    return Kernel(name="gt",
                  eval=lambda x, y: (np.asarray(x, dtype=float) > y)
                  .astype(float))


PARAMS = LrdParams(D=0.4)


def _d_n_prime(n, m=1):
    return scaling(PARAMS.D, m, n, asymptotic_L(PARAMS, n)).d_n_prime


class TestChangepoint:
    def _statistic(self, data):
        return changepoint_statistic(
            ustat_cusum(np.asarray(data, dtype=float)),
            kernel_table(cusum_kernel()), PARAMS)

    def test_constant_data_statistic_zero(self):
        stat, _ = self._statistic([2.0] * 10)
        assert stat == 0.0

    def test_shift_argmax_at_break(self):
        data = [0.0] * 10 + [5.0] * 10
        stat, k_star = self._statistic(data)
        assert k_star == 10
        assert stat > 0

    def test_tie_break_first_index(self):
        # U = [-2, 1, -1, 2]: |U| ties at the first and the last split
        data = [0.0, 1.0, 0.0, 1.0, 0.0]
        assert np.array_equal(ustat_cusum(data), [-2.0, 1.0, -1.0, 2.0])
        stat, k_star = self._statistic(data)
        assert k_star == 1
        assert stat == pytest.approx(2.0 / (5 * _d_n_prime(5)))

    def test_overflowing_cusum_path_is_non_finite_without_warning(self):
        # positive values near the float64 limit overflow the prefix sums;
        # the path says so with inf or NaN, and neither step warns
        data = 1e306 * (1.0 + np.random.default_rng(9).random(300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = ustat_cusum(data)
            stat, _ = self._statistic(data)
        assert not np.all(np.isfinite(path))
        assert not math.isfinite(stat)

    @pytest.mark.parametrize("n", [2, 2000])
    @pytest.mark.parametrize("kernel", _builtin_kernels(),
                             ids=lambda k: k.name)
    def test_matches_direct_formula(self, kernel, n):
        # reference: centre, divide, then abs and the first argmax; dividing
        # after the max could split ties differently
        data = simulate_gaussian(PARAMS, n, seed=7)
        u = ustat_fast(data, kernel)
        table = kernel_table(kernel)
        k = np.arange(1, n, dtype=float)
        absvals = np.abs((u - k * (n - k) * table.a00)
                         / (n * _d_n_prime(n, table.rank)))
        k_star = int(np.argmax(absvals)) + 1
        assert changepoint_statistic(u, table, PARAMS) == (
            float(absvals[k_star - 1]), k_star)


class TestNormalize:
    def test_thm1_scale(self):
        path = ustat_cusum([1.0, 2.0, 3.0])
        stat, k_star = changepoint_statistic(
            path, kernel_table(cusum_kernel()), PARAMS)
        assert stat == pytest.approx(3.0 / (_d_n_prime(3) * 3))
        assert k_star == 1
        assert np.array_equal(path, [-3.0, -3.0])

    def test_thm2_centering(self):
        # sorted Wilcoxon path [3, 4, 3] centered by a00 = 1/2:
        # k(n-k)/2 = [1.5, 2, 1.5]
        table = kernel_table(wilcoxon_kernel())
        assert table.a00 == pytest.approx(0.5)
        stat, k_star = changepoint_statistic(
            ustat_wilcoxon([1.0, 2.0, 3.0, 4.0]), table, PARAMS)
        expected = (np.array([3.0, 4.0, 3.0])
                    - np.array([1.5, 2.0, 1.5])) / (4 * _d_n_prime(4))
        assert stat == pytest.approx(np.max(np.abs(expected)))
        assert k_star == 2


class TestBuiltinLookup:
    def test_names(self):
        assert builtin_kernel("cusum").name == "cusum"
        assert builtin_kernel("huber:1.5").tv_bound == pytest.approx(3.0)
        with pytest.raises(ParameterError):
            builtin_kernel("nope")
        for spec in ("huber:abc", "huber:", "tukey:nan", "huber:inf"):
            with pytest.raises(ParameterError):
                builtin_kernel(spec)

    @pytest.mark.parametrize("spec, name", [
        ("huber:1.345", "huber_1.345"), ("huber:1.3450001", "huber_1.3450001"),
        ("huber:2", "huber_2.0"), ("tukey:4.685", "tukey_4.685"),
        ("tukey:4.6850000001", "tukey_4.6850000001")])
    def test_scale_names_keep_every_digit(self, spec, name):
        # the name keys the critical-value cache: two scales, two names
        assert builtin_kernel(spec).name == name

    def test_tukey_tv_bound(self):
        c = 4.685
        k = tukey_kernel(c)
        t = np.linspace(-c, c, 200001)
        v = np.asarray(k.eval(t, 0.0))
        tv = float(np.sum(np.abs(np.diff(v))))
        assert tv == pytest.approx(k.tv_bound, rel=1e-6)

    @pytest.mark.parametrize("make", [huber_kernel, tukey_kernel])
    @pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf, 0.0,
                                       -1.0])
    def test_scale_must_be_positive_finite(self, make, param):
        with pytest.raises(ParameterError):
            make(param)

    @pytest.mark.parametrize("make", [huber_kernel, tukey_kernel])
    @pytest.mark.parametrize("param", [0.1, 1.0, 1.345, 4.685, 30.0])
    def test_score_within_half_tv_bound(self, make, param):
        # both scores are odd with sup |Psi| = tv_bound / 2
        kernel = make(param)
        t = np.concatenate([np.linspace(-50.0, 50.0, 4001),
                            np.linspace(-param, param, 2001)])
        vals = np.abs(kernel.eval(t, 0.0))
        assert np.all(np.isfinite(vals))
        assert np.max(vals) <= 0.5 * kernel.tv_bound * (1 + 1e-9)

