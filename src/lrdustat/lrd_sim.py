"""Simulation of long-range dependent Gaussian sequences and subordination.

The covariance models follow gamma(k) = L(k) k^(-D) with 0 < D < 1 and a
slowly varying L.  Two concrete families are offered:

* ``fgn``: fractional Gaussian noise with Hurst index H = 1 - D/2, for which
  L(k) -> H(2H-1) and the circulant embedding is provably nonnegative
  definite.
* ``tweaked``: gamma(k) = (1+k)^(-D), for which L(k) = (k/(1+k))^D -> 1.

A pure power law k^(-D) is deliberately not offered: it would force
gamma(1) = gamma(0) = 1, which is not a valid nondegenerate covariance.
Sampling is exact-in-distribution via circulant embedding (Davies-Harte,
Wood-Chan) of the smallest length n' >= n whose FFT size 2(n'-1) is
5-smooth: one real inverse FFT of that size per draw, of which the first n
values are returned.  A prefix of an exact stationary draw is exact.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonEmbeddableError, ParameterError

FGN = "fgn"
TWEAKED_POWER_LAW = "tweaked"

#: relative eigenvalue tolerance for the circulant embedding: eigenvalues in
#: (-EMBED_TOL * max_eig, 0) are clipped to zero with a warning, anything
#: below is a hard error.
EMBED_TOL = 1e-10

PATH_MAGIC = b"LRDUSTAT-PATH\x00\x00\x00"

#: identity of the random streams: which draws a (seed, rep) pair yields.
#: Bump it whenever a change alters them, so that caches of simulated
#: results keyed on it are not served stale.
STREAM_VERSION = 6

_MASK64 = (1 << 64) - 1


def replication_rng(seed: int, rep: int = 0) -> np.random.Generator:
    """Counter-based generator for Monte Carlo replication ``rep``.

    Uses the Philox bit generator keyed by (seed, rep), so replications are
    independent streams and any (seed, rep) pair is reproducible without
    generating the preceding replications.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(rep) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def replication_draws(embeddings, reps: int, seed: int):
    """Draws of Monte Carlo replications r = 0..reps-1: for each a tuple of
    one ``emb.sample(rng)`` per embedding, in order, all from
    ``rng = replication_rng(seed, r)``.

    The one place a replication index meets a generator, so replication r
    depends on (seed, r) alone and the first R replications of any run
    are an R-replication run.
    """
    for r in range(reps):
        rng = replication_rng(seed, r)
        yield tuple(emb.sample(rng) for emb in embeddings)


@dataclass(frozen=True)
class LrdParams:
    """LRD model description: exponent D and covariance family."""

    D: float
    family: str = FGN

    def __post_init__(self):
        if not 0.0 < self.D < 1.0:
            raise ParameterError(f"D must lie in (0, 1), got {self.D}")
        if self.family not in (FGN, TWEAKED_POWER_LAW):
            raise ParameterError(f"unknown covariance family {self.family!r}")

    @property
    def hurst(self) -> float:
        """Hurst index H = 1 - D/2 of the associated fBm, in (1/2, 1)."""
        return 1.0 - self.D / 2.0


def build_covariance(params: LrdParams, max_lag: int) -> np.ndarray:
    """Exact autocovariance gamma(0..max_lag) of the model.

    gamma(0) = 1 for both families.  For ``fgn``,
    gamma(k) = ((k+1)^(2H) - 2 k^(2H) + (k-1)^(2H)) / 2; for ``tweaked``,
    gamma(k) = (1+k)^(-D).
    """
    if max_lag < 0:
        raise ParameterError("max_lag must be >= 0")
    k = np.arange(max_lag + 1, dtype=float)
    if params.family == FGN:
        two_h = 2.0 * params.hurst
        gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k ** two_h
                       + np.abs(k - 1.0) ** two_h)
    else:
        gamma = (1.0 + k) ** (-params.D)
    gamma[0] = 1.0
    return gamma


def asymptotic_L(params: LrdParams, n: int) -> float:
    """Slowly varying factor L(n) with gamma(k) ~ L(k) k^(-D).

    For ``fgn`` this is the constant H(2H-1); for ``tweaked`` it is
    (n/(1+n))^D.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if params.family == FGN:
        h = params.hurst
        return h * (2.0 * h - 1.0)
    return (n / (1.0 + n)) ** params.D


def embedding_length(n: int) -> int:
    """Smallest n' >= n whose circulant size 2(n'-1) is 5-smooth, for
    n >= 2."""
    if n < 2:
        raise ParameterError("n must be >= 2")
    m = 2 * (n - 1)
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m // 2 + 1
        m += 2


class CirculantEmbedding:
    """Precomputed circulant embedding of a stationary covariance sequence.

    The covariance is embedded at n' = embedding_length(n) >= n, so each draw
    costs one real inverse FFT of the 5-smooth size M = 2(n'-1), and returns
    the first n values of the exact length-n' draw.  Building the embedding
    costs one FFT.  Reuse one instance across Monte Carlo replications.
    """

    def __init__(self, params: LrdParams, n: int):
        self.params = params
        self.n = n
        n_emb = embedding_length(n)
        gamma = build_covariance(params, n_emb - 1)
        # first row of the circulant matrix, size M = 2(n'-1)
        row = np.concatenate([gamma, gamma[-2:0:-1]])
        eig = np.fft.fft(row).real
        max_eig = eig.max()
        min_eig = eig.min()
        if min_eig < -EMBED_TOL * max_eig:
            raise NonEmbeddableError(
                f"covariance embedding for family={params.family!r}, "
                f"D={params.D}, n={n} (embedded at {n_emb}) has eigenvalue "
                f"{min_eig:.3e} below -{EMBED_TOL:g} * max eigenvalue"
            )
        if min_eig < 0.0:
            warnings.warn(
                f"clipped {np.count_nonzero(eig < 0)} small negative "
                f"embedding eigenvalues (min {min_eig:.3e}) to zero",
                RuntimeWarning,
            )
            eig = np.maximum(eig, 0.0)
        self._m = row.size
        # A draw is fft(sqrt(eig/M) * z) for Hermitian z, which equals
        # M * irfft of the conjugated half-spectrum.  Rows of _scale hold
        # (real, imag) factors: sqrt(M * eig), times 1/sqrt(2) at the complex
        # interior frequencies, with the conjugation as the sign of column 1.
        scale = np.sqrt(eig[:n_emb] * self._m)
        scale[1:n_emb - 1] /= np.sqrt(2.0)
        self._scale = np.stack([scale, -scale], axis=1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One exact stationary Gaussian draw of length n.

        Normals are drawn in a fixed order: the real frequencies 0 and n'-1,
        then the (real, imag) pairs of frequencies 1..n'-2.
        """
        half = np.empty_like(self._scale)
        half[0] = rng.standard_normal(), 0.0
        half[-1] = rng.standard_normal(), 0.0
        rng.standard_normal(out=half[1:-1])
        half *= self._scale
        return np.fft.irfft(half.view(complex).ravel(), self._m)[:self.n]


def simulate_gaussian(params: LrdParams, n: int, seed: int) -> np.ndarray:
    """Exact stationary Gaussian sample of length n via circulant embedding:
    replication 0 of :func:`replication_draws`, returned read-only."""
    values, = next(replication_draws([CirculantEmbedding(params, n)], 1, seed))
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# subordination

#: number of nodes of the Gauss-Hermite rule behind every expectation under
#: the standard normal (centring, coefficient tables, limit functionals)
QUAD_ORDER = 200


def gauss_hermite_prob(order: int):
    """Nodes and weights so that E[f(xi)] ~ sum w_i f(x_i), xi ~ N(0,1)."""
    # imported here: numpy.polynomial costs every process a few ms, and
    # closed-form kernels never build a quadrature rule
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(order)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


class Subordinator:
    """A monotone transform G with E[G(xi)] = 0 under the standard normal,
    and its inverse.

    With ``center`` the mean of ``fn`` under the QUAD_ORDER-node
    Gauss-Hermite rule is subtracted.
    """

    def __init__(self, fn, inverse, *, center: bool = True):
        self._fn = fn
        self._inverse = inverse
        if center:
            x, w = gauss_hermite_prob(QUAD_ORDER)
            self.offset = float(np.dot(w, np.asarray(fn(x), dtype=float)))
        else:
            self.offset = 0.0

    @classmethod
    def identity(cls) -> "Subordinator":
        return cls(lambda x: np.asarray(x, dtype=float), lambda y: y,
                   center=False)

    @classmethod
    def from_distribution(cls, dist) -> "Subordinator":
        """Quantile transform G(x) = F_target^{-1}(Phi(x)) for a frozen
        scipy.stats distribution.  Upper-tail arguments go through the
        survival function to avoid Phi(x) rounding to 1."""
        from scipy.stats import norm

        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.where(x > 0, dist.isf(norm.sf(x)), dist.ppf(norm.cdf(x)))

        def inv(y):
            y = np.asarray(y, dtype=float)
            med = dist.median()
            return np.where(y > med, norm.isf(dist.sf(y)), norm.ppf(dist.cdf(y)))

        return cls(fn, inv)

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self._fn(x), dtype=float) - self.offset

    def inverse(self, y):
        """Preimage of centered values: G^{-1}(y) with G already centered."""
        return self._inverse(np.asarray(y, dtype=float) + self.offset)


# ---------------------------------------------------------------------------
# serialization

def write_path_csv(values: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for v in np.asarray(values, dtype=float):
            writer.writerow([repr(float(v))])


#: the bytes of a CSV body that numpy's reader parses as the csv module and
#: ``float`` do: digits, signs, points, exponents, commas and line ends
_PLAIN_CSV_BYTES = b"0123456789+-.eE,\r\n"


def read_path_csv(path) -> np.ndarray:
    """The ``value`` column of a CSV path file: a ``value`` header row, then
    one number in the first field of each row; further fields are ignored.

    A body of plain numbers (``_PLAIN_CSV_BYTES`` only) is parsed by
    ``np.loadtxt``; anything else (quotes, spaces, blank or comment rows,
    other text) goes through the csv module.  Both read each value as
    ``float`` does.  A row the csv route rejects, or bytes that are not
    UTF-8, raise ParameterError naming the line.
    """
    raw = Path(path).read_bytes()
    for header in (b"value\n", b"value\r\n"):
        if raw.startswith(header):
            values = _read_plain_body(raw[len(header):])
            if values is not None:
                return values
    return _read_csv_rows(raw, path)


def _read_plain_body(body: bytes):
    """First fields of a plain-number CSV body, or None if it holds other
    bytes, a field that is not a number, or a blank row, which np.loadtxt
    skips and the row count catches."""
    if body.translate(None, _PLAIN_CSV_BYTES):
        return None
    rows = body.count(b"\n") + (not body.endswith(b"\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body without data
        try:
            values = np.loadtxt(io.StringIO(body.decode("ascii")),
                                delimiter=",", usecols=0, comments=None,
                                ndmin=1)
        except ValueError:
            return None
    return values if values.size == rows else None


def _read_csv_rows(raw: bytes, path) -> np.ndarray:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParameterError(f"{path}: line {line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header == ["value"]:
            return np.array([float(row[0]) for row in reader], dtype=float)
    except (csv.Error, IndexError, ValueError) as exc:
        raise ParameterError(
            f"{path}: line {reader.line_num}: expected one number "
            f"({exc})") from None
    raise ParameterError(f"unexpected CSV header {header!r}")


def write_path_binary(values: np.ndarray, path) -> None:
    """Little-endian float64 column with a 16-byte magic header."""
    values = np.asarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(PATH_MAGIC)
        fh.write(struct.pack("<q", values.size))
        fh.write(values.tobytes())


def read_path_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(16)
        if magic != PATH_MAGIC:
            raise ParameterError("not a lrdustat binary path file")
        header = fh.read(8)
        if len(header) != 8:
            raise ParameterError("truncated binary path header")
        (count,) = struct.unpack("<q", header)
        if not 0 <= count <= (os.fstat(fh.fileno()).st_size - 24) // 8:
            raise ParameterError(
                f"binary path header gives {count} values, which the file "
                "does not hold")
        return np.frombuffer(fh.read(8 * count), dtype="<f8").astype(float)


def read_path(path) -> np.ndarray:
    """A path file in either format: binary when it starts with
    ``PATH_MAGIC``, CSV otherwise."""
    with open(path, "rb") as fh:
        magic = fh.read(16)
    if magic == PATH_MAGIC:
        return read_path_binary(path)
    return read_path_csv(path)
