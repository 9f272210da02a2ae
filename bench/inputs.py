"""Benchmark inputs and the reference answers they are checked against.

Everything here is plain numpy and independent of ``lrdustat``: the series
come from this file's own circulant-embedding sampler, so a change to the
library's random streams leaves the benchmark's inputs unchanged, and the
U-statistic paths are recomputed by formulas the library does not use.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

D = 0.4                     # LRD exponent passed to every job with --D
HURST = 1.0 - D / 2.0       # fGn with gamma(k) ~ H(2H-1) k^(-D)
SHIFT = 3.0                 # planted level shift, in marginal standard deviations
SHIFT_RANGE = (0.3, 0.7)    # the shift starts after a split drawn from this share of n

PATH_MAGIC = b"LRDUSTAT-PATH\x00\x00\x00"


def fgn(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance fractional Gaussian noise with Hurst index ``HURST``.

    Circulant embedding of size 2n: the real part of one complex FFT of
    independent complex normals scaled by the square-root spectrum is an
    exact draw of the stationary covariance.
    """
    k = np.arange(n + 1.0)
    two_h = 2.0 * HURST
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k ** two_h
                   + np.abs(k - 1.0) ** two_h)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.maximum(np.fft.fft(row).real, 0.0)
    z = rng.standard_normal(row.size) + 1j * rng.standard_normal(row.size)
    return np.fft.fft(np.sqrt(lam / row.size) * z).real[:n]


def shifted_series(n: int, rng: np.random.Generator):
    """fGn with a level shift of ``SHIFT`` after split ``tau``.

    Returns ``(values, tau)``.  The values are tie-free, which the rank
    formula in :func:`wilcoxon_path` relies on.
    """
    x = fgn(n, rng)
    lo, hi = SHIFT_RANGE
    tau = int(rng.integers(int(lo * n), int(hi * n) + 1))
    x[tau:] += SHIFT
    if np.unique(x).size != n:
        raise RuntimeError("generated series has ties")
    return x, tau


def write_csv(values: np.ndarray, path: Path) -> None:
    """The CLI's CSV path format: a ``value`` header, one exact float per row."""
    path.write_text("value\n" + "\n".join(map(repr, values.tolist())) + "\n")


def write_binary(values: np.ndarray, path: Path) -> None:
    """The CLI's binary path format: 16-byte magic, int64 count, float64 data."""
    data = np.asarray(values, dtype="<f8")
    path.write_bytes(PATH_MAGIC + struct.pack("<q", data.size) + data.tobytes())


# ---------------------------------------------------------------------------
# reference U-statistic paths U(k) = sum_{i<=k} sum_{j>k} h(x_i, x_j)

def wilcoxon_path(x: np.ndarray) -> np.ndarray:
    """h = 1{x <= y} on tie-free data: U(k) = sum_{i<=k} (n - R_i + 1) - k(k+1)/2
    with R the global ranks."""
    n = x.size
    ranks = np.empty(n)
    ranks[np.argsort(x)] = np.arange(1.0, n + 1.0)
    k = np.arange(1.0, n)
    return np.cumsum(n - ranks + 1.0)[:-1] - k * (k + 1.0) / 2.0


def cusum_path(x: np.ndarray) -> np.ndarray:
    """h = x - y from prefix sums: U(k) = (n - k) S_k - k (S_n - S_k)."""
    n = x.size
    s = np.cumsum(x)
    k = np.arange(1.0, n)
    return (n - k) * s[:-1] - k * (s[-1] - s[:-1])


def pair_path(x: np.ndarray, h, block: int = 500) -> np.ndarray:
    """Any kernel from the pair matrix, a block of rows at a time.

    U(k) - U(k-1) = sum_{j>k} h(x_k, x_j) - sum_{i<k} h(x_i, x_k), so U is
    the cumulative sum of the strict upper triangle's row sums minus its
    column sums.
    """
    n = x.size
    rows = np.empty(n)
    cols = np.zeros(n)
    j = np.arange(n)
    for a in range(0, n, block):
        b = min(a + block, n)
        upper = np.where(j[None, :] > np.arange(a, b)[:, None],
                         h(x[a:b, None], x[None, :]), 0.0)
        rows[a:b] = upper.sum(axis=1)
        cols += upper.sum(axis=0)
    return np.cumsum(rows - cols)[:-1]


def gaussian_bump(x, y):
    return np.exp(-x * x - y * y) - 1.0 / 3.0


def huber(delta: float):
    return lambda x, y: np.clip(x - y, -delta, delta)


def d_prime(m: int, n: int) -> float:
    """d'_n = (n^(2 - mD) L^m)^(1/2), with the fGn constant L = H(2H - 1)."""
    big_l = HURST * (2.0 * HURST - 1.0)
    return math.sqrt(n ** (2.0 - m * D) * big_l ** m)


def detector(u: np.ndarray, a00: float, m: int):
    """Statistic and argmax split of the centred, rank-normalised path:
    max_k |U(k) - k(n-k) a00| / (d'_n n).  Returns (values, stat, k_star)."""
    n = u.size + 1
    k = np.arange(1.0, n)
    values = np.abs(u - k * (n - k) * a00) / (d_prime(m, n) * n)
    k_star = int(np.argmax(values)) + 1
    return values, float(values[k_star - 1]), k_star
