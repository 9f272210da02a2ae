"""Two-sample U-statistic process computation.

U(k) = sum_{i <= k} sum_{j > k} h(X_i, X_j) for every split k = 1..n-1,
with an O(n^3) reference oracle, an O(n^2) incremental path for general
kernels, an O(R n) prefix-sum path for kernels of finite rank R (the
Gaussian bump), an O(n log n) path for kernels psi(x - y) with an odd
piecewise-polynomial score (Huber, Tukey), and O(n)/O(n log n) special
cases for the CUSUM and Wilcoxon kernels.  Each built-in kernel names its
fast path in ``Kernel.path``.  ``changepoint_statistic`` turns a path into
the test statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError
from .hermite import (HermiteCoeffTable, gaussian_bump_coeff_closed_form,
                      odd_score_coeff_closed_form, scaling,
                      wilcoxon_coeff_closed_form)
from .lrd_sim import LrdParams, asymptotic_L


@dataclass(frozen=True)
class OddScore:
    """An odd, continuous, piecewise-polynomial score psi:

        psi(t) = c q(t / c)      on |t| <= c,
        psi(t) = sign(t) tail    beyond,

    with q the odd polynomial of ascending coefficients ``poly``.  Continuity
    at |t| = c means c q(1) = tail.  A kernel's one score gives both its
    path, :func:`ustat_score`, and its Hermite coefficients,
    :func:`hermite.odd_score_coeff_closed_form`.
    """

    c: float
    poly: tuple
    tail: float


@dataclass(frozen=True)
class Kernel:
    """A two-argument kernel h(x, y) with optional metadata.

    ``eval`` must accept numpy arrays.  ``path`` (if present) maps the data
    to the exact U(1..n-1) faster than :func:`ustat_incremental`;
    :func:`ustat_fast` takes it.  ``tv_bound`` bounds the total variation of
    h in each argument.  ``coeff_provider`` (if present) maps (k, l) to the
    closed-form Hermite coefficient a_{kl}.  ``discontinuous`` marks a
    kernel with jumps, on which tensor quadrature converges slowly.
    """

    name: str
    eval: callable
    path: callable | None = None
    tv_bound: float | None = None
    coeff_provider: callable | None = None
    discontinuous: bool = False


def cusum_kernel() -> Kernel:
    """h(x, y) = x - y, with a_{10} = 1 and a_{01} = -1 its only nonzero
    Hermite coefficients."""

    def provider(k, l):
        return {(1, 0): 1.0, (0, 1): -1.0}.get((k, l), 0.0)

    return Kernel(
        name="cusum",
        eval=lambda x, y: np.asarray(x, dtype=float) - y,
        path=ustat_cusum,
        coeff_provider=provider,
    )


def wilcoxon_kernel() -> Kernel:
    """h(x, y) = 1{x <= y}; ties resolved by the <= convention, exactly."""
    return Kernel(
        name="wilcoxon",
        eval=lambda x, y: (np.asarray(x, dtype=float) <= y).astype(float),
        path=ustat_wilcoxon,
        tv_bound=1.0,
        coeff_provider=wilcoxon_coeff_closed_form,
        discontinuous=True,
    )


def gaussian_bump_kernel() -> Kernel:
    """Centered smooth kernel exp(-x^2 - y^2) - 1/3.

    E[exp(-xi^2)] = 1/sqrt(3) under the standard normal, so the product has
    mean exactly 1/3.  With c = 1/sqrt(3) and the centred factor
    b(x) = exp(-x^2) - c the kernel is, exactly,

        h(x, y) = b(x) b(y) + c b(x) + c b(y),

    the rank-3 form its ``path`` hands to :func:`ustat_factored`; its prefix
    sums of b cancel less than those of exp(-x^2) exp(-y^2) - 1/3 would.
    """
    c = 1.0 / math.sqrt(3.0)

    def bump(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2) - c

    def one(x):
        return np.ones(np.shape(x))

    return Kernel(
        name="gaussian_bump",
        eval=lambda x, y: np.exp(-np.asarray(x, dtype=float) ** 2 - np.asarray(y, dtype=float) ** 2) - 1.0 / 3.0,
        path=partial(ustat_factored, factors=((1.0, bump, bump),
                                              (c, bump, one), (c, one, bump))),
        coeff_provider=gaussian_bump_coeff_closed_form,
    )


def _check_scale(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be a positive finite number, "
                             f"got {value!r}")


def huber_kernel(delta: float) -> Kernel:
    """Robust kernel h(x, y) = Psi_delta(x - y) with the Huber score
    Psi_delta(t) = clamp(t, -delta, delta); total variation 2*delta."""
    _check_scale("Huber delta", delta)
    psi = lambda t: np.clip(np.asarray(t, dtype=float), -delta, delta)
    score = OddScore(c=delta, poly=(0.0, 1.0), tail=delta)
    return Kernel(
        name=f"huber_{float(delta)!r}",
        eval=lambda x, y: psi(np.asarray(x, dtype=float) - y),
        tv_bound=2.0 * delta,
        path=partial(ustat_score, score=score),
        coeff_provider=partial(odd_score_coeff_closed_form, score),
    )


def tukey_kernel(c: float) -> Kernel:
    """Robust kernel with the Tukey biweight score
    Psi_c(t) = t (1 - (t/c)^2)^2 on |t| <= c, 0 outside.

    Psi peaks at |t| = c/sqrt(5); the redescending shape gives total
    variation 4 * Psi(c/sqrt(5)) = 64 c / (25 sqrt(5)).
    """
    _check_scale("Tukey c", c)

    def psi(t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= c
        return np.where(inside, t * (1.0 - (t / c) ** 2) ** 2, 0.0)

    peak = (c / math.sqrt(5.0)) * (1.0 - 0.2) ** 2
    score = OddScore(c=c, poly=(0.0, 1.0, 0.0, -2.0, 0.0, 1.0), tail=0.0)
    return Kernel(
        name=f"tukey_{float(c)!r}",
        eval=lambda x, y: psi(np.asarray(x, dtype=float) - y),
        tv_bound=4.0 * peak,
        path=partial(ustat_score, score=score),
        coeff_provider=partial(odd_score_coeff_closed_form, score),
    )


BUILTIN_KERNELS = {
    "cusum": cusum_kernel,
    "wilcoxon": wilcoxon_kernel,
    "gaussian_bump": gaussian_bump_kernel,
}


def builtin_kernel(name: str) -> Kernel:
    if name in BUILTIN_KERNELS:
        return BUILTIN_KERNELS[name]()
    family, _, text = name.partition(":")
    make = {"huber": huber_kernel, "tukey": tukey_kernel}.get(family)
    if make is None:
        raise ParameterError(f"unknown kernel {name!r}")
    try:
        param = float(text)
    except ValueError:
        raise ParameterError(
            f"kernel {name!r}: parameter must be a number") from None
    return make(param)


# ---------------------------------------------------------------------------

def _check_data(data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or data.size < 2:
        raise ParameterError("data must be a 1-D vector of length >= 2")
    if not np.all(np.isfinite(data)):
        raise ParameterError("data contains non-finite values")
    return data


def ustat_naive(data, kernel: Kernel) -> np.ndarray:
    """Direct double summation independently per split; O(n^3).

    Reference oracle only; use the incremental or special-cased paths for
    real workloads.
    """
    data = _check_data(data)
    n = data.size
    pair = np.asarray(kernel.eval(data[:, None], data[None, :]), dtype=float)
    out = np.empty(n - 1)
    for k in range(1, n):
        # numpy pairwise summation keeps the block sum accurate to ~1e-13
        # relative, comfortably inside the oracle tolerance
        out[k - 1] = float(np.sum(pair[:k, k:]))
    return out


def ustat_incremental(data, kernel: Kernel) -> np.ndarray:
    """O(n^2) evaluation via the split-to-split update

    U(k+1) = U(k) - sum_{i<=k} h(X_i, X_{k+1}) + sum_{j>k+1} h(X_{k+1}, X_j)

    with the steps summed by :func:`_compensated_cumsum`.
    """
    data = _check_data(data)
    n = data.size
    steps = np.empty(n - 1)
    steps[0] = np.sum(np.asarray(kernel.eval(data[0], data[1:]), dtype=float))
    for k in range(1, n - 1):
        x_new = data[k]
        col = np.asarray(kernel.eval(data[:k], x_new), dtype=float)
        row = np.asarray(kernel.eval(x_new, data[k + 1:]), dtype=float)
        steps[k] = float(np.sum(row)) - float(np.sum(col))
    return _compensated_cumsum(steps)


def ustat_cusum(data) -> np.ndarray:
    """CUSUM kernel h(x, y) = x - y in O(n) via prefix sums:
    U(k) = (n-k) S_k - k (S_n - S_k).

    U(k) is unchanged by a shift of the data, so the prefix sums run over
    the centred data: uncentred sums of a large common level cancel
    catastrophically in the difference.  Data near the float64 limit give
    a non-finite path without a warning; the caller decides what that means.
    """
    data = _check_data(data)
    n = data.size
    k = np.arange(1, n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(data - data.mean())
        return (n - k) * s[:-1] - k * (s[-1] - s[:-1])


def ustat_wilcoxon(data) -> np.ndarray:
    """Wilcoxon kernel h(x, y) = 1{x <= y} in O(n log n), exact integers.

    One stable sort gives every split at once:

        U(k) = sum_{i<=k} (n - pos_i) - k(k+1)/2,

    where pos_i is X_i's position in the stable sort.  n - pos_i counts the
    X_j >= X_i, less the equal X_j before X_i, which a stable sort places
    before it; k(k+1)/2 plus those earlier ties over i <= k counts the
    ordered pairs i, j <= k with X_i <= X_j.  The counts are int64 and
    become floats only at the end.
    """
    data = _check_data(data)
    n = data.size
    pos = np.empty(n, dtype=np.int64)
    pos[np.argsort(data, kind="stable")] = np.arange(n)
    k = np.arange(1, n, dtype=np.int64)
    u = np.cumsum(n - pos)[:-1] - k * (k + 1) // 2
    return u.astype(float)


def ustat_factored(data, factors) -> np.ndarray:
    """Finite-rank kernel h(x, y) = sum_r w_r f_r(x) g_r(y), given as its
    (w_r, f_r, g_r) ``factors``, in O(R n):

        U(k) = sum_r w_r F_r(k) (G_r(n) - G_r(k)),

    with F_r, G_r the prefix sums of f_r and g_r over the data.
    """
    data = _check_data(data)
    u = np.zeros(data.size - 1)
    for w, f, g in factors:
        left = np.cumsum(f(data))
        right = np.cumsum(g(data))
        u += w * left[:-1] * (right[-1] - right[:-1])
    return u


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Cumulative sums along axis 0, corrected for the rounding of each
    step: ``np.cumsum`` adds in sequence, so the error of s_k = s_{k-1} + x_k
    follows exactly from s_{k-1}, x_k and s_k (Knuth's TwoSum), and the
    running sum of those errors is added back."""
    s = np.cumsum(x, axis=0)
    prev, step, total = s[:-1], x[1:], s[1:]
    back = total - prev
    err = (prev - (total - back)) + (step - back)
    s[1:] += np.cumsum(err, axis=0)
    return s


def _horner(coeffs, x):
    """The polynomial of ascending ``coeffs`` at x by Horner's rule, in the
    order of operations of numpy's ``polyval``."""
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


def _taylor_terms(poly) -> list:
    """The Taylor terms q^(p) / p!, p = 0..deg q, of the polynomial q of
    ascending coefficients ``poly``, as functions: the ascending
    coefficients of q^(p) / p! are binom(j, p) c_j, j >= p."""
    return [partial(_horner, [math.comb(j, p) * c
                              for j, c in enumerate(poly)][p:])
            for p in range(len(poly))]


def ustat_score(data, score: OddScore) -> np.ndarray:
    """Kernel h(x, y) = psi(x - y) for an :class:`OddScore` psi, in
    O(n log n).

    h is antisymmetric, so the pairs inside the first k cancel and
    U(k) = sum_{i<=k} R_i with R_i = sum_j psi(X_i - X_j).  All of R takes
    one sort of z = (X - M) / c, with M the middle value of the sorted data:

    * the X_j more than c below (above) X_i add +tail (-tail) each, counted
      from ``searchsorted`` window bounds at z_i -+ 1;
    * the window sums c q(z_i - z_j) bin by bin: with bin b = floor(z_j),
      centred at its smallest point m and offset d_j = z_j - m in [0, 1),
      Taylor's formula gives sum_j q(e - d_j) = sum_p q^(p)(e) / p!
      sum_j (-d_j)^p with e = z_i - m, and the sums of (-d_j)^p are
      differences of compensated prefix sums.

    A window lies in bins floor(z_i) - 1 .. floor(z_i) + 1, so |e| < 2 and
    |d| < 1, both within the spread of the data: the power sums cancel
    neither on heavy tails nor on a spread small against c.
    """
    data = _check_data(data)
    n = data.size
    order = np.argsort(data)
    z = data[order]
    z = (z - z[n // 2]) / score.c
    bins = np.floor(z)
    cuts = [np.searchsorted(z, bins + shift) for shift in (-1.0, 0.0, 1.0, 2.0)]
    lo = np.searchsorted(z, z - 1.0, side="left")
    # z + 1 may round up onto the bin after the third, or at |z| >= 2^53
    # down onto z, where the ties of z_i (psi(0) = 0) must stay in the window
    hi = np.minimum(np.searchsorted(z, z + 1.0, side="right"), cuts[-1])
    hi = np.maximum(hi, np.searchsorted(z, z, side="right"))
    degree = len(score.poly) - 1
    sums = np.zeros((n + 1, degree + 1))
    sums[1:] = _compensated_cumsum(np.vander(z[cuts[1]] - z, degree + 1,
                                             increasing=True))
    derivs = _taylor_terms(score.poly)
    inside = np.zeros(n)
    for first, last in zip(cuts, cuts[1:]):
        window = sums[np.clip(hi, first, last)] - sums[np.clip(lo, first, last)]
        # 0 for an empty bin, whose next point may lie where q(e) overflows
        e = np.where(last > first, z - z[np.minimum(first, n - 1)], 0.0)
        for p, deriv in enumerate(derivs):
            inside += deriv(e) * window[:, p]
    r = np.empty(n)
    r[order] = score.tail * (lo - (n - hi)) + score.c * inside
    return _compensated_cumsum(r)[:-1]


def ustat_fast(data, kernel: Kernel) -> np.ndarray:
    """The kernel's own exact ``path`` if it has one, else the O(n^2)
    :func:`ustat_incremental`."""
    if kernel.path is not None:
        return kernel.path(data)
    return ustat_incremental(data, kernel)


def changepoint_statistic(u: np.ndarray, table: HermiteCoeffTable,
                          params: LrdParams):
    """The change-point statistic of a raw path U(1..n-1):

        sup_k |U(k) - k (n-k) a00| / (n d'_n),

    with the rank m and per-pair mean a00 = E[h(xi, eta)] from the kernel's
    ``table`` and d'_n from m, D and L(n) of ``params``.

    Returns (statistic, k_star), k_star in 1..n-1 the first maximising split.
    """
    n = u.size + 1
    sc = scaling(params.D, table.rank, n, asymptotic_L(params, n))
    k = np.arange(1, n, dtype=float)
    absvals = np.abs((u - k * (n - k) * table.a00) / (n * sc.d_n_prime))
    k_star = int(np.argmax(absvals)) + 1
    return float(absvals[k_star - 1]), k_star
