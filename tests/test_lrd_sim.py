import csv
import decimal
import io
import math
import os
import queue
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.stats import expon

from lrdustat import lrd_sim
from lrdustat.errors import NonEmbeddableError, ParameterError
from lrdustat.lrd_sim import (FGN, TWEAKED_POWER_LAW, CirculantEmbedding,
                              LrdParams, Subordinator, asymptotic_L,
                              build_covariance, embedding_length,
                              replicate, replication_rng,
                              simulate_gaussian)

# closed-form FGN autocovariance at lag 1 for H = 0.8, evaluated with
# 50-digit arithmetic (mpmath) as an independent oracle:
# (2**1.6 - 2) / 2
FGN_D04_GAMMA1 = 0.5157165665103982


def non_embeddable_cov(params, max_lag):
    """A covariance whose circulant embedding has a negative eigenvalue at
    n = 3: gamma = (1, 0.9, 0, ...)."""
    gamma = np.zeros(max_lag + 1)
    gamma[0] = 1.0
    gamma[1] = 0.9
    return gamma


class TestBuildCovariance:
    def test_tweaked_lag3(self):
        gamma = build_covariance(LrdParams(D=0.5, family=TWEAKED_POWER_LAW), 3)
        assert gamma[3] == pytest.approx(0.5, abs=1e-15)

    def test_lag0_unit_variance(self):
        for family in (FGN, TWEAKED_POWER_LAW):
            assert build_covariance(LrdParams(D=0.3, family=family), 5)[0] == 1.0

    def test_fgn_lag1_against_high_precision_oracle(self):
        gamma = build_covariance(LrdParams(D=0.4), 1)
        assert gamma[1] == pytest.approx(FGN_D04_GAMMA1, abs=1e-14)

    @pytest.mark.parametrize("D", [0.2, 0.51, 0.9])
    def test_fgn_against_a_50_digit_reference(self, D):
        # the three-power form lost digits like k^2: 4e-7 to 5e-6 relative
        # at lag 10^5, 4e-5 to 5e-4 at 10^6
        lags = [1, 2, 10, 10 ** 3, 10 ** 5, 10 ** 6]
        gamma = build_covariance(LrdParams(D=D), lags[-1])[lags]
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            two_h = decimal.Decimal(2.0 * LrdParams(D=D).hurst)
            reference = [float(((k + 1) ** two_h - 2 * k ** two_h
                                + (k - 1) ** two_h) / 2)
                         for k in map(decimal.Decimal, lags)]
        np.testing.assert_allclose(gamma, reference, rtol=1e-9, atol=0.0)

    def test_fgn_embedding_at_a_million_points(self):
        # fGn's embedding is nonnegative definite; with the three-power
        # covariance this one had 25,650 negative eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb = CirculantEmbedding(LrdParams(D=0.05), 10 ** 6)
        assert emb.n == 10 ** 6

    def test_invalid_D(self):
        with pytest.raises(ParameterError):
            LrdParams(D=1.5)
        with pytest.raises(ParameterError):
            LrdParams(D=0.0)

    def test_negative_lag_rejected(self):
        with pytest.raises(ParameterError):
            build_covariance(LrdParams(D=0.4), -1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError,
                           match=r"^unknown covariance family 'gauss'$"):
            LrdParams(D=0.4, family="gauss")

    def test_cumsum_variance_is_n_pow_2h(self):
        # self-similarity proxy: Var(sum xi_i) = n^{2H} exactly for FGN,
        # checked against the quadratic form of the generated covariance
        params = LrdParams(D=0.4)
        n = 257
        gamma = build_covariance(params, n - 1)
        lags = np.arange(1, n)
        var = n + 2.0 * np.dot(n - lags, gamma[1:])
        assert var == pytest.approx(n ** (2 * params.hurst), rel=1e-12)


class TestAsymptoticL:
    def test_fgn_constant(self):
        assert asymptotic_L(LrdParams(D=0.4), 100) == pytest.approx(0.48)

    def test_fgn_matches_tail_of_covariance(self):
        # numeric oracle: k^D gamma(k) at large k (k = 10^4 keeps the
        # float64 cancellation in the second difference below 1e-7)
        params = LrdParams(D=0.4)
        k = 10 ** 4
        gamma_k = build_covariance(params, k)[k]
        assert k ** params.D * gamma_k == pytest.approx(
            asymptotic_L(params, k), rel=1e-5)

    def test_tweaked(self):
        params = LrdParams(D=0.5, family=TWEAKED_POWER_LAW)
        assert asymptotic_L(params, 1) == pytest.approx(math.sqrt(0.5))
        assert asymptotic_L(params, 10 ** 9) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("family", [FGN, TWEAKED_POWER_LAW])
    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, family, n):
        with pytest.raises(ParameterError, match=r"^n must be >= 1$"):
            asymptotic_L(LrdParams(D=0.4, family=family), n)


def complex_fft_sample(params, n, rng):
    """Reference draw: the full complex FFT of size M = 2(n-1) applied to
    the Hermitian-symmetrised normal vector, the form the real-FFT sampler
    must reproduce for the seeded streams to keep their meaning."""
    gamma = build_covariance(params, n - 1)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    m = row.size
    sqrt_eig = np.sqrt(np.maximum(np.fft.fft(row).real, 0.0) / m)
    z = np.empty(m, dtype=complex)
    z[0] = rng.standard_normal()
    z[n - 1] = rng.standard_normal()
    if n > 2:
        v = rng.standard_normal((n - 2, 2))
        half = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
        z[1:n - 1] = half
        z[n:] = np.conj(half[::-1])
    return np.fft.fft(sqrt_eig * z).real[:n]


class UnitVectorRng:
    """Stand-in generator whose normals, in the order the sampler draws
    them, form the unit vector e_j (j < 0 gives all zeros).  ``count`` is
    the number of normals drawn so far."""

    def __init__(self, j):
        self.j = j
        self.count = 0

    def standard_normal(self, out=None):
        if out is None:
            self.count += 1
            return float(self.count - 1 == self.j)
        out[...] = 0.0
        if 0 <= self.j - self.count < out.size:
            out.flat[self.j - self.count] = 1.0
        self.count += out.size
        return out


def five_smooth_up_to(limit):
    """The set of 2^a 3^b 5^c <= limit, built by enumeration."""
    out = set()
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                out.add(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return out


class TestCirculantStreams:
    @pytest.mark.parametrize("n", [2, 3, 7, 2000, 2 ** 15])
    def test_matches_complex_fft_reference(self, n):
        # the reference is drawn at the embedded length n' and cut to n
        params = LrdParams(D=0.4)
        emb = CirculantEmbedding(params, n)
        n_emb = embedding_length(n)
        for rep in range(5):
            got = emb.sample(replication_rng(3, rep))
            want = complex_fft_sample(params, n_emb,
                                      replication_rng(3, rep))[:n]
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestReplicate:
    def test_one_embedding_is_the_open_coded_loop(self):
        emb = CirculantEmbedding(LrdParams(D=0.4), 300)
        draws = replicate([emb], 5, 3, lambda x: x)
        assert draws.shape == (5, 300)
        for r, x in enumerate(draws):
            assert np.array_equal(x, emb.sample(replication_rng(3, r)))

    def test_two_embeddings_drawn_in_turn(self):
        # the second embedding's normals follow the first's in one stream
        first = CirculantEmbedding(LrdParams(D=0.3), 256)
        second = CirculantEmbedding(
            LrdParams(D=0.6, family=TWEAKED_POWER_LAW), 100)
        draws = replicate([first, second], 4, 9,
                          lambda x, y: np.concatenate([x, y]))
        assert draws.shape == (4, 356)
        for r, row in enumerate(draws):
            rng = replication_rng(9, r)
            assert np.array_equal(row[:256], first.sample(rng))
            assert np.array_equal(row[256:], second.sample(rng))

    def test_scalar_and_row_reductions(self):
        emb = CirculantEmbedding(LrdParams(D=0.4), 50)
        sums = replicate([emb], 6, 4, np.sum)
        rows = replicate([emb], 6, 4, np.cumsum)
        assert sums.shape == (6,) and rows.shape == (6, 50)
        for r in range(6):
            x = emb.sample(replication_rng(4, r))
            assert sums[r] == np.sum(x)
            assert np.array_equal(rows[r], np.cumsum(x))

    def test_first_replications_are_a_shorter_run(self):
        emb = CirculantEmbedding(LrdParams(D=0.2), 64)
        full = replicate([emb], 8, 11, np.cumsum)
        assert np.array_equal(full[:4], replicate([emb], 4, 11, np.cumsum))

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_floor(self, reps):
        emb = CirculantEmbedding(LrdParams(D=0.4), 10)
        with pytest.raises(ParameterError, match="reps must be >= 1"):
            replicate([emb], reps, 0, lambda x: x)

    def test_simulate_gaussian_is_replication_zero(self):
        params = LrdParams(D=0.4)
        values = simulate_gaussian(params, 500, seed=12)
        want = CirculantEmbedding(params, 500).sample(replication_rng(12, 0))
        assert np.array_equal(values, want)
        assert not values.flags.writeable


class TestReplicationRng:
    # masked to 64 bits, seed -1 drew seed 2^64 - 1's stream and seed 2^64
    # drew seed 0's
    @pytest.mark.parametrize("seed, rep", [(-1, 0), (2 ** 64, 0), (0, -1),
                                           (0, 2 ** 64)],
                             ids=["seed-minus-1", "seed-2^64", "rep-minus-1",
                                  "rep-2^64"])
    def test_outside_the_key_range_refused(self, seed, rep):
        with pytest.raises(ParameterError, match=r"\[0, 2\^64\)"):
            replication_rng(seed, rep)

    def test_range_ends_are_streams_of_their_own(self):
        top = 2 ** 64 - 1
        draws = [replication_rng(seed, rep).standard_normal(4)
                 for seed, rep in ((0, 0), (top, 0), (0, top), (top, top))]
        assert len({d.tobytes() for d in draws}) == 4


class TestEmbeddingLength:
    def test_smallest_five_smooth_size(self):
        smooth = five_smooth_up_to(20000)
        for n in range(2, 5001):
            n_emb = embedding_length(n)
            assert n_emb >= n
            assert 2 * (n_emb - 1) in smooth
            assert not any(2 * (k - 1) in smooth for k in range(n, n_emb))

    @pytest.mark.parametrize("n", [0, 1])
    def test_below_two_rejected(self, n):
        # 2(n - 1) <= 0 has no 5-smooth value to find
        with pytest.raises(ParameterError):
            embedding_length(n)
        with pytest.raises(ParameterError):
            CirculantEmbedding(LrdParams(D=0.4), n)

    @pytest.mark.parametrize("family", [FGN, TWEAKED_POWER_LAW])
    @pytest.mark.parametrize("n", [8, 2000])
    def test_prefix_covariance_is_exact(self, family, n):
        # The sampler is linear in its normals: feeding unit vectors gives
        # the columns of A with x = A z, and Cov(x) = A A^T exactly.
        assert embedding_length(n) > n
        params = LrdParams(D=0.4, family=family)
        emb = CirculantEmbedding(params, n)
        counter = UnitVectorRng(-1)
        assert not np.any(emb.sample(counter))
        cols = np.array([emb.sample(UnitVectorRng(j))
                         for j in range(counter.count)])
        assert cols.shape == (2 * (embedding_length(n) - 1), n)
        want = toeplitz(build_covariance(params, n - 1))
        assert np.max(np.abs(cols.T @ cols - want)) <= 1e-12


class TestSimulateGaussian:
    def test_determinism(self):
        params = LrdParams(D=0.4)
        a = simulate_gaussian(params, 512, seed=7)
        b = simulate_gaussian(params, 512, seed=7)
        assert np.array_equal(a, b)
        c = simulate_gaussian(params, 512, seed=8)
        assert not np.array_equal(a, c)

    def test_replications_differ(self):
        params = LrdParams(D=0.4)
        emb = CirculantEmbedding(params, 256)
        a = emb.sample(replication_rng(3, 0))
        b = emb.sample(replication_rng(3, 1))
        assert not np.array_equal(a, b)

    def test_sample_autocovariance_matches_model(self):
        # R = 200 replications; each lag within 4 standard errors
        params = LrdParams(D=0.4)
        n, reps = 2048, 200
        emb = CirculantEmbedding(params, n)
        lags = np.arange(11)
        acov = np.empty((reps, lags.size))
        for r in range(reps):
            x = emb.sample(replication_rng(11, r))
            for k in lags:
                acov[r, k] = np.dot(x[:n - k], x[k:]) / (n - k)
        target = build_covariance(params, 10)
        mean = acov.mean(axis=0)
        se = acov.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - target) < 4 * se + 1e-12)

    def test_lag1_within_3se_at_n4096(self):
        params = LrdParams(D=0.4)
        # standard error of the lag-1 sample autocovariance at n = 4096,
        # frozen from 200 independent replications (LRD inflates it well
        # above the iid n^{-1/2} rate)
        se = 0.0637
        x = simulate_gaussian(params, 4096, seed=7)
        acov1 = np.dot(x[:-1], x[1:]) / (4096 - 1)
        assert abs(acov1 - FGN_D04_GAMMA1) < 3 * se

    def test_sample_variance_large_n(self):
        x = simulate_gaussian(LrdParams(D=0.4), 10 ** 5, seed=1)
        assert 0.9 < np.var(x) < 1.1

    def test_non_embeddable_raises(self, monkeypatch):
        monkeypatch.setattr(lrd_sim, "build_covariance", non_embeddable_cov)
        with pytest.raises(NonEmbeddableError):
            CirculantEmbedding(LrdParams(D=0.5, family=TWEAKED_POWER_LAW), 3)

    def test_small_negative_eigenvalues_are_clipped(self, monkeypatch):
        # gamma = (1, 0.5 + 1e-12, 0, ...) embeds with eigenvalue 1 - 2
        # gamma(1) = -2e-12, within EMBED_TOL of the largest, 2
        def cov(params, max_lag):
            gamma = np.zeros(max_lag + 1)
            gamma[:2] = 1.0, 0.5 + 1e-12
            return gamma

        monkeypatch.setattr(lrd_sim, "build_covariance", cov)
        with pytest.warns(RuntimeWarning, match="clipped"):
            emb = CirculantEmbedding(LrdParams(D=0.4), 8)
        assert np.all(np.isfinite(emb.sample(replication_rng(0))))

    def test_n_too_small(self):
        with pytest.raises(ParameterError):
            simulate_gaussian(LrdParams(D=0.4), 1, seed=0)


class TestSubordinator:
    def test_identity_passthrough(self):
        values = simulate_gaussian(LrdParams(D=0.4), 16, seed=0)
        g = Subordinator.identity()
        assert g.offset == 0.0
        assert np.array_equal(g(values), values)
        assert np.array_equal(g.inverse(values), values)

    def test_exponential_quantile_transform(self):
        g = Subordinator.from_distribution(expon())
        # G(0) = -log(1 - Phi(0)) - 1 = log 2 - 1, Phi and log checked
        # against the standard library as independent implementations
        expected = math.log(2.0) - 1.0
        assert g(np.array([0.0]))[0] == pytest.approx(expected, abs=1e-10)
        assert g.offset == pytest.approx(1.0, abs=1e-10)

    def test_centering_by_quadrature(self):
        g = Subordinator.from_distribution(expon())
        x, w = lrd_sim.gauss_hermite_prob(200)
        assert abs(np.dot(w, g(x))) < 1e-12

    def test_empty_path(self):
        g = Subordinator.from_distribution(expon())
        assert g(np.array([])).size == 0

    def test_closed_form_exp_matches_scipy(self):
        # to |x| = 37, where G is about 690 and the normal tail 1e-300
        g, ref = Subordinator.exp(), Subordinator.from_distribution(expon())
        assert g.offset == ref.offset
        x = np.concatenate([np.linspace(-37.0, 37.0, 20001), [0.0, -0.0]])
        expected = ref(x)
        assert np.all(np.abs(g(x) - expected)
                      <= 2e-15 * np.maximum(1.0, np.abs(expected)))
        assert g(np.array([])).size == 0

    def test_closed_form_exp_inverse_matches_scipy(self):
        # centred values at or below -1 lie at or below the range (-inf);
        # exp(-y) underflows to 0 past y = 745 (+inf)
        g, ref = Subordinator.exp(), Subordinator.from_distribution(expon())
        y = np.concatenate([np.linspace(-2.0, 50.0, 20001),
                            [-1.0, 800.0, np.inf, -np.inf, np.nan]])
        got, expected = g.inverse(y), ref.inverse(y)
        finite = np.isfinite(expected)
        assert np.array_equal(got[~finite], expected[~finite], equal_nan=True)
        assert np.all(np.abs(got[finite] - expected[finite]) <= 1e-14)
        assert np.isneginf(got[y <= -1.0]).all()


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        values = simulate_gaussian(LrdParams(D=0.4), 64, seed=2)
        out = tmp_path / "p.csv"
        lrd_sim.write_path_csv(values, out)
        assert np.array_equal(lrd_sim.read_path_csv(out), values)

    @pytest.mark.parametrize("body", [
        b"1.5\n-2e-3\n", b"1.5\r\n-2e-3\r\n", b"1.5\n-2e-3", b"7\n", b"",
        b'"1.5"\n"-2"\n', b"1.5,abc\n2,3,4\n", b" 1.5\t\n+2.\n",
        b"1_000\n.5\n", b"inf\n-NaN\n-0\n", "\u0661\u0662\n".encode(),
        b"1\r2\r", b"1\n\n2\n", b"1\n#c\n2\n", b",1\n", b"1e\n", b"\n",
        b"1\r\r\n2\n", b"1\n\r\n",
    ])
    def test_csv_reader_matches_csv_module(self, tmp_path, body):
        self._check_against_csv_module(tmp_path / "p.csv", b"value\n" + body)

    @pytest.mark.parametrize("head", [b"value", b"value\r\n", b'"value"\n',
                                      b"value,x\n", b"Value\n", b""])
    def test_csv_header_matches_csv_module(self, tmp_path, head):
        self._check_against_csv_module(tmp_path / "p.csv", head + b"1.0\n")

    @given(st.lists(st.sampled_from(["0", "1", "9", ".", "e", "-", "+", ",",
                                     "\n", "\r", " ", '"', "#", "_", "1.25",
                                     "\r\n", "e-7", "nan"]), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_csv_reader_matches_csv_module_on_any_body(self, tmp_path_factory,
                                                       parts):
        out = tmp_path_factory.mktemp("csv") / "p.csv"
        self._check_against_csv_module(out, ("value\n" + "".join(parts)).encode())

    @staticmethod
    def _check_against_csv_module(out, content):
        """read_path_csv accepts exactly what a plain csv-module reader
        accepts, with bit-identical values."""
        out.write_bytes(content)
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                if next(reader, None) != ["value"]:
                    raise ValueError("header")
                expected = np.array([float(row[0]) for row in reader])
            except (IndexError, ValueError):
                expected = None
        if expected is None:
            with pytest.raises(ParameterError):
                lrd_sim.read_path_csv(out)
        else:
            got = lrd_sim.read_path_csv(out)
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("content, line", [
        (b"value\n1.0\n\n2.0\n", 3),
        (b"value\n1.0\n#c\n2.0\n", 3),
        (b"value\r\n1.0\r\nabc\r\n", 3),
        (b"value\n1.0\n\xff\xfe2.0\n", 3),
    ], ids=["blank-row", "comment-row", "crlf-non-numeric", "non-utf8"])
    def test_csv_error_names_the_line(self, tmp_path, content, line):
        out = tmp_path / "p.csv"
        out.write_bytes(content)
        with pytest.raises(ParameterError, match=f"line {line}:"):
            lrd_sim.read_path_csv(out)

    @pytest.mark.parametrize("values", [
        [-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan], [], [1.5],
        np.random.default_rng(0).standard_normal(1000),
    ], ids=["special", "n0", "n1", "n1000"])
    def test_csv_writer_bytes_are_the_csv_modules(self, tmp_path, values):
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["value"])
        writer.writerows([repr(float(v))] for v in values)
        out = tmp_path / "p.csv"
        lrd_sim.write_path_csv(np.array(values, dtype=float), out)
        assert out.read_bytes() == expected.getvalue().encode()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    @pytest.mark.parametrize("write", [lrd_sim.write_path_csv,
                                       lrd_sim.write_path_binary],
                             ids=["csv", "binary"])
    def test_read_path_reads_a_fifo(self, tmp_path, write):
        values = simulate_gaussian(LrdParams(D=0.4), 300, seed=2)
        write(values, tmp_path / "p")
        fifo = tmp_path / "p.fifo"
        os.mkfifo(fifo)
        content = (tmp_path / "p").read_bytes()

        def feed():  # a reader that closes early breaks the pipe
            try:
                fifo.write_bytes(content)
            except BrokenPipeError:
                pass

        got = queue.Queue()

        def read():
            try:
                got.put(lrd_sim.read_path(fifo))
            except Exception as exc:
                got.put(exc)

        # daemon threads: a read that blocks fails the test, not the run
        for target in (feed, read):
            threading.Thread(target=target, daemon=True).start()
        result = got.get(timeout=30)
        if isinstance(result, Exception):
            raise result
        assert np.array_equal(result, values)

    def test_binary_roundtrip(self, tmp_path):
        values = simulate_gaussian(LrdParams(D=0.4), 64, seed=2)
        out = tmp_path / "p.bin"
        lrd_sim.write_path_binary(values, out)
        assert np.array_equal(lrd_sim.read_path_binary(out), values)
        with open(out, "rb") as fh:
            assert fh.read(16) == b"LRDUSTAT-PATH\x00\x00\x00"

    def test_binary_rejects_trailing_bytes(self, tmp_path):
        # two concatenated files are not read as the first alone
        out = tmp_path / "p.bin"
        lrd_sim.write_path_binary(np.arange(3.0), out)
        with open(out, "ab") as fh:
            fh.write(b"\x00")
        for read in (lrd_sim.read_path_binary, lrd_sim.read_path):
            with pytest.raises(ParameterError, match="is 49 bytes, not the 48"):
                read(out)

    def test_binary_rejects_other_files(self, tmp_path):
        out = tmp_path / "junk.bin"
        out.write_bytes(b"not a path file at all")
        with pytest.raises(ParameterError):
            lrd_sim.read_path_binary(out)
