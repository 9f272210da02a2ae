"""Hermite-expansion machinery.

Probabilists' Hermite polynomials, bivariate Hermite coefficients
a_{kl} = E[h(xi, eta) H_k(xi) H_l(eta)] (closed forms for the built-in
kernels, tensor quadrature and Monte Carlo otherwise) and their rank, the class
coefficients J_k(x) driving the empirical-process limit, summability
diagnostics for sum |a_{kl}| / sqrt(k! l!), the scaling constants
c_m, d_n, d'_n and H, and the skewness of H_2 partial sums, exact at
finite n and in the Rosenblatt limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParameterError, RegimeError
from .lrd_sim import (QUAD_ORDER, Subordinator, build_covariance,
                      gauss_hermite_prob, replication_rng)

QUADRATURE = "quadrature"
CLOSED_FORM = "closed_form"
MONTE_CARLO = "monte_carlo"


def hermite_design(max_degree: int, x, normalized: bool = False) -> np.ndarray:
    """H_0..H_max_degree at x by the three-term recurrence
    H_0 = 1, H_1 = x, H_{k+1}(x) = x H_k(x) - k H_{k-1}(x);
    shape (max_degree + 1,) + x.shape.  ``normalized`` gives
    h_k = H_k / sqrt(k!) instead, by h_{k+1} = (x h_k - sqrt(k) h_{k-1}) /
    sqrt(k + 1), which stays below 1.09 e^{x^2/4} (Cramer's bound) where
    H_k overflows."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for j in range(1, max_degree):
        row = out[j + 1, ...]  # a view, 0-d for scalar x
        np.multiply(x, out[j], out=row)
        if normalized:
            row -= math.sqrt(j) * out[j - 1]
            row /= math.sqrt(j + 1)
        else:
            row -= j * out[j - 1]
    return out


def hermite_eval(k: int, x):
    """Probabilists' Hermite polynomial H_k(x): row k of hermite_design."""
    if k < 0:
        raise ParameterError("Hermite degree must be >= 0")
    h = hermite_design(k, x)[k]
    return h if h.ndim else float(h)


def _triangle(Q: int) -> np.ndarray:
    """Boolean (Q+1, Q+1) mask of the degrees k + l <= Q."""
    return np.add.outer(np.arange(Q + 1), np.arange(Q + 1)) <= Q


@dataclass
class HermiteCoeffTable:
    """Truncated coefficient matrix a_{kl} for total degrees k+l <= Q.

    ``entries`` may be given as a full (Q+1, Q+1) matrix: entries with
    k+l > Q are set to NaN (unset).  ``rank`` is computed by
    :func:`rank_2d`: the smallest k+l >= 1 with |a_{kl}| > tol, or None if
    undetectable at this Q.
    """

    Q: int
    entries: np.ndarray
    source: str
    tol: float
    warnings: list = field(default_factory=list)
    rank: int | None = field(init=False)

    def __post_init__(self):
        self.entries = np.where(_triangle(self.Q), self.entries, np.nan)
        self.rank = rank_2d(self)

    @property
    def a00(self) -> float:
        return float(self.entries[0, 0])

    def get(self, k: int, l: int) -> float:
        if k + l > self.Q:
            raise ParameterError(f"entry ({k},{l}) beyond total degree {self.Q}")
        return float(self.entries[k, l])

    def diagonal(self, m: int) -> dict:
        """Entries {(k, l): a_{kl}} with k+l = m and |a| > tol."""
        out = {}
        for k in range(m + 1):
            a = self.entries[k, m - k]
            if abs(a) > self.tol:
                out[(k, m - k)] = float(a)
        return out

    def to_json_dict(self) -> dict:
        kept = [[int(k), int(l), float(self.entries[k, l])]
                for k, l in zip(*np.nonzero(np.abs(self.entries) > self.tol))]
        return {"Q": self.Q, "source": self.source, "tol": self.tol,
                "entries": kept, "rank": self.rank, "warnings": self.warnings}


def coeffs_2d(kernel, Q: int) -> HermiteCoeffTable:
    """Tensor Gauss-Hermite coefficients a_{kl} = E[h(xi,eta)H_k(xi)H_l(eta)]
    on the QUAD_ORDER-node rule, with rank tolerance
    1e-8 sqrt(1 + E[h^2]).

    ``kernel`` is any object with a vectorized ``eval(x, y)``; a table with
    a machine-readable warning is returned for kernels marked
    ``discontinuous`` (tensor quadrature converges slowly across jumps).
    """
    if not 1 <= Q < QUAD_ORDER:
        raise ParameterError(f"Q must lie in 1..{QUAD_ORDER - 1}")
    x, w = gauss_hermite_prob(QUAD_ORDER)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    hv = np.asarray(kernel.eval(xx, yy), dtype=float)
    if not np.all(np.isfinite(hv)):
        raise ParameterError("kernel evaluated to a non-finite value at "
                             "a quadrature node")
    design = hermite_design(Q, x) * w  # row k: H_k(x_i) w_i
    second_moment = float(np.einsum("i,ij,j->", w, hv * hv, w))
    warns = []
    if getattr(kernel, "discontinuous", False):
        warns.append("quadrature-on-discontinuous-kernel")
    return HermiteCoeffTable(Q, design @ hv @ design.T, QUADRATURE,
                             1e-8 * math.sqrt(1.0 + second_moment), warns)


def coeffs_2d_montecarlo(kernel, Q: int, pairs: int, seed: int = 0):
    """Monte Carlo coefficients for kernels where quadrature is unreliable,
    drawn in batches of 10^6 pairs, with rank tolerance 1e-8.  A total
    degree whose mean overflows float64 raises ParameterError.

    The sums run over the normalized h_k = H_k / sqrt(k!), which stay finite
    where H_k overflows; each mean and standard error is scaled by
    sqrt(k! l!) in log space at the end, on k + l <= Q only.

    Returns (table, standard_errors) with matching shapes.
    """
    if Q < 1:
        raise ParameterError("Q must be >= 1")
    if pairs < 1:
        raise ParameterError("pairs must be >= 1")
    rng = replication_rng(seed)
    sums = np.zeros((Q + 1, Q + 1))
    sq_sums = np.zeros((Q + 1, Q + 1))
    total = 0
    while total < pairs:
        size = min(10 ** 6, pairs - total)
        xi = rng.standard_normal(size)
        eta = rng.standard_normal(size)
        hv = np.asarray(kernel.eval(xi, eta), dtype=float)
        hx = hermite_design(Q, xi, normalized=True)
        hy = hermite_design(Q, eta, normalized=True)
        # term_{kls} = h_k(xi_s) h_l(eta_s) h_s, accumulated without
        # materializing the (Q+1, Q+1, batch) cube
        sums += hx @ (hy * hv).T
        sq_sums += (hx ** 2) @ ((hy ** 2) * (hv ** 2)).T
        total += size
    inside = _triangle(Q)
    mean = sums[inside] / total
    stderr = np.sqrt(np.maximum(sq_sums[inside] / total - mean ** 2, 0.0)
                     / total)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(Q + 1)])
    log_scale = 0.5 * np.add.outer(log_fact, log_fact)[inside]
    # |x| sqrt(k! l!) = exp(log|x| + log sqrt(k! l!)): inf, unwarned, where
    # it overflows, and 0 for x = 0
    entries = np.full((Q + 1, Q + 1), np.nan)
    errors = np.full((Q + 1, Q + 1), np.nan)
    with np.errstate(over="ignore", divide="ignore"):
        entries[inside] = np.sign(mean) * np.exp(np.log(np.abs(mean))
                                                 + log_scale)
        errors[inside] = np.exp(np.log(stderr) + log_scale)
    k, l = np.nonzero(inside & ~np.isfinite(entries))
    if k.size:
        s = int(np.min(k + l))
        raise ParameterError(
            f"Monte Carlo coefficients of total degree {s} overflow float64; "
            f"use Q < {s}")
    return HermiteCoeffTable(Q, entries, MONTE_CARLO, 1e-8), errors


#: largest total degree k+l of the Wilcoxon closed form: Gamma(s/2)
#: overflows float64 from s = 345 on (Gamma(172.5) > 1.8e308)
WILCOXON_MAX_DEGREE = 344

#: largest total degree k+l of the Gaussian-bump closed form: a_{s0} =
#: s!/(s/2)! / 3^(s/2+1) overflows float64 from s = 326 on (degree 325 is
#: all zeros)
BUMP_MAX_DEGREE = 325


def _total_degree(kernel: str, k: int, l: int, max_degree: int) -> int:
    """k + l, or ParameterError for a negative degree or a total degree
    above the closed form's ``max_degree``."""
    if k < 0 or l < 0:
        raise ParameterError("degrees must be >= 0")
    s = k + l
    if s > max_degree:
        raise ParameterError(
            f"{kernel} coefficients of total degree {s} overflow float64; "
            f"the largest supported total degree is {max_degree}")
    return s


def wilcoxon_coeff_closed_form(k: int, l: int) -> float:
    """Closed-form Hermite coefficients of the kernel 1{x <= y}.

    a_{kl} = (-1)^((l+3k-1)/2) Gamma((l+k)/2) / (2 pi) for k+l odd,
    0 for k+l even and positive, and 1/2 for k = l = 0.  Total degrees
    above WILCOXON_MAX_DEGREE raise ParameterError.
    """
    s = _total_degree("Wilcoxon", k, l, WILCOXON_MAX_DEGREE)
    if s == 0:
        return 0.5
    if s % 2 == 0:
        return 0.0
    sign = -1.0 if ((l + 3 * k - 1) // 2) % 2 else 1.0
    return sign * math.gamma(s / 2.0) / (2.0 * math.pi)


def gaussian_bump_coeff_closed_form(k: int, l: int) -> float:
    """Closed-form Hermite coefficients of the kernel exp(-x^2 - y^2) - 1/3.

    The kernel factorises, and E[exp(-xi^2) exp(t xi - t^2/2)] =
    exp(-t^2/3) / sqrt(3) gives E[exp(-xi^2) H_k(xi)] = g_k / sqrt(3), with
    g_k = k!/(k/2)! (-1/3)^(k/2) for even k and 0 for odd k.  So
    a_{kl} = g_k g_l / 3 except a_00 = 0, rounded once from the exact
    rational.  Total degrees above BUMP_MAX_DEGREE raise ParameterError.
    """
    k, l = int(k), int(l)  # exact integers, also for numpy indices
    s = _total_degree("Gaussian-bump", k, l, BUMP_MAX_DEGREE)
    if s == 0 or k % 2 or l % 2:
        return 0.0
    f = math.factorial
    num = f(k) // f(k // 2) * (f(l) // f(l // 2))
    return (-num if (s // 2) % 2 else num) / 3 ** (s // 2 + 1)


@lru_cache(maxsize=1024)
def _score_derivative_mean(score, s: int) -> tuple:
    """(E[psi^(s)(W)], the sum of its terms' magnitudes), W ~ N(0, 2), for
    odd s >= 1, as in :func:`odd_score_coeff_closed_form`; non-finite where
    it overflows.  Cached: a table of total degree Q asks for each s up to
    Q + 1 times."""
    a = score.c / math.sqrt(2.0)
    n = s - 1
    dq = [j * p for j, p in enumerate(score.poly)][1:]  # q', ascending
    top = n + len(dq) - 1
    # q'(z/a) H_n(z) in the basis H_0..H_top, by Horner's rule in z/a with
    # z H_i = H_{i+1} + i H_{i-1}
    r = np.zeros(top + 1)
    r[n] = dq[-1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for d in dq[-2::-1]:
            zr = np.zeros(top + 1)
            zr[1:] = r[:-1]
            zr[:-1] += np.arange(1, top + 1) * r[1:]
            r = zr / a
            r[n] += d
        scale = 2.0 ** (0.5 * (np.arange(top + 1) - n))  # 2^((i-n)/2)
        terms = [r[0] * scale[0] * math.erf(a / math.sqrt(2.0))]
        phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
        if phi > 0.0:
            # p_i = phi(a) 2^(-i/2) H_i(a): H's recurrence, scaled
            p = np.empty(top + 1)
            p[0], prev = phi, 0.0
            for i in range(top):
                p[i + 1] = a / math.sqrt(2.0) * p[i] - 0.5 * i * prev
                prev = p[i]
            even = np.arange(2, top + 1, 2)
            terms.extend(-math.sqrt(2.0) * r[even] * scale[even] * p[even - 1])
        terms = np.array(terms)
        return float(terms.sum()), float(np.abs(terms).sum())


def odd_score_coeff_closed_form(score, k: int, l: int) -> float:
    """Closed-form Hermite coefficients of h(x, y) = psi(x - y) for an odd,
    continuous, piecewise-polynomial score (a ``ustat.OddScore``:
    psi(t) = c q(t/c) on |t| <= c, constant beyond).

    Gaussian integration by parts, E[f(xi) H_k(xi)] = E[f^(k)(xi)], gives
    a_{kl} = (-1)^l E[psi^(s)(W)] with s = k + l and W = xi - eta ~ N(0, 2).
    psi^(s) is odd for even s, so those are 0.  For odd s, psi' = q'(t/c) on
    |t| < c and 0 beyond, and with W = sqrt(2) Z and a = c / sqrt(2),

        E[psi^(s)(W)] = 2^(-(s-1)/2) int_{-a}^{a} q'(z/a) H_{s-1}(z) phi(z) dz.

    The integrand's polynomial is expanded in the Hermite basis, since
    monomials cancel badly at high degree, and integrated term by term:
    int_{-a}^{a} H_0 phi = erf(a / sqrt(2)), int_{-a}^{a} H_i phi =
    -2 phi(a) H_{i-1}(a) for even i >= 2 and 0 for odd i.  The boundary
    terms are dropped where phi(a) underflows, which makes a huge c the
    CUSUM kernel exactly.  A total degree whose coefficient overflows
    float64 raises ParameterError naming the first odd degree that does.
    At a small c the terms grow like c^-(deg q - 1) and cancel: a
    coefficient whose terms' rounding could exceed 1e-6 of it (Tukey's a10
    at c <= 0.105) raises ParameterError too.
    """
    if k < 0 or l < 0:
        raise ParameterError("degrees must be >= 0")
    s = int(k) + int(l)
    if s % 2 == 0:
        return 0.0
    value, mass = _score_derivative_mean(score, s)
    if not math.isfinite(mass):
        first = next(t for t in range(1, s + 1, 2) if not math.isfinite(
            _score_derivative_mean(score, t)[1]))
        raise ParameterError(
            f"score coefficients of total degree {first} overflow float64; "
            f"the largest supported total degree is {first - 1}")
    if mass * np.finfo(float).eps > 1e-6 * abs(value):
        raise ParameterError(
            f"score coefficients of total degree {s} cancel below 1e-6 "
            f"relative precision at scale c = {score.c!r}")
    return -value if l % 2 else value


def closed_form_table(provider, Q: int) -> HermiteCoeffTable:
    """Build a coefficient table from a closed-form provider (k, l) -> a,
    called for k+l <= Q only, with rank tolerance 1e-12."""
    inside = _triangle(Q)
    entries = np.zeros(inside.shape)
    entries[inside] = [provider(k, l) for k, l in zip(*np.nonzero(inside))]
    return HermiteCoeffTable(Q, entries, CLOSED_FORM, 1e-12)


def kernel_table(kernel) -> HermiteCoeffTable:
    """The kernel's coefficient table, where the detector reads its rank m,
    diagonal and mean a00: closed form to the first total degree Q <= 8 that
    has a rank when the kernel has a ``coeff_provider``, as every built-in
    kernel does, tensor quadrature to total degree 8 otherwise."""
    if kernel.coeff_provider is not None:
        for q in range(1, 9):
            table = closed_form_table(kernel.coeff_provider, q)
            if table.rank is not None:
                break
    else:
        table = coeffs_2d(kernel, 8)
    if table.rank is None:
        raise ParameterError(f"cannot detect rank of kernel {kernel.name!r}")
    return table


def rank_2d(table: HermiteCoeffTable) -> int | None:
    """Smallest k+l >= 1 with |a_{kl}| > table.tol, a_{00} excluded, or
    None when no entry up to total degree table.Q exceeds the tolerance."""
    if table.Q < 1:
        raise ParameterError("table must be populated to degree Q >= 1")
    for q in range(1, table.Q + 1):
        for k in range(q + 1):
            if abs(table.entries[k, q - k]) > table.tol:
                return q
    return None


# ---------------------------------------------------------------------------
# class coefficients J_k(x) for the empirical-process route

@dataclass
class ClassCoeffs:
    """J_k on an x-grid for k = 1..k_max, plus the class Hermite rank."""

    grid: np.ndarray
    values: np.ndarray  # shape (k_max, len(grid)); row k-1 holds J_k
    rank: int
    tol: float

    def J(self, k: int) -> np.ndarray:
        return self.values[k - 1]

    @property
    def J_rank(self) -> np.ndarray:
        """J(x) = J_m(x) at the class rank m."""
        return self.values[self.rank - 1]


def class_coeffs(g: Subordinator, k_max: int, grid) -> ClassCoeffs:
    """Hermite coefficients J_k(x) = E[1{G(xi) <= x} H_k(xi)], exactly.

    For monotone G the indicator restricts the integral to s <= t with
    t = G^{-1}(x), and (H_{k-1} phi)' = -H_k phi gives
    J_k(x) = -H_{k-1}(t) phi(t), which is 0 where t = -inf or +inf (x below
    or above the range of G).  The class rank is the first k with
    max |J_k| > 1e-8; a grid on which no J_k reaches it (one that misses
    the range of G) raises ParameterError.
    """
    tol = 1e-8
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(np.diff(grid) < 0):
        raise ParameterError("grid must be sorted")
    t = np.asarray(g.inverse(grid), dtype=float)
    finite = np.isfinite(t)
    t = np.where(finite, t, 0.0)
    phi = np.where(finite, np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
                   0.0)
    values = -hermite_design(k_max - 1, t) * phi
    above = np.nonzero(np.max(np.abs(values), axis=1) > tol)[0]
    if above.size == 0:
        raise ParameterError(
            f"no class coefficient J_1..J_{k_max} above {tol:g} on the grid; "
            "does it miss the range of G?")
    return ClassCoeffs(grid=grid, values=values, rank=int(above[0]) + 1,
                       tol=tol)


# ---------------------------------------------------------------------------
# summability diagnostics

CONVERGENT_LIKELY = "ConvergentLikely"
DIVERGENT_LIKELY = "DivergentLikely"
INCONCLUSIVE = "Inconclusive"


@dataclass
class SummabilityReport:
    """Partial sums S(Q) of |a_{kl}| / sqrt(k! l!) and a heuristic verdict.

    The verdict is advisory only: the theory applies the summability
    condition as a sufficient hypothesis, and it is known to fail for
    kernels (Wilcoxon) whose limit is nevertheless correct.
    """

    Q_list: list
    partial_sums: list
    classification: str


def summability_diagnostic(provider, Q_list) -> SummabilityReport:
    """Partial sums S(Q) = sum_{1 <= k+l <= Q} |a_{kl}| / sqrt(k! l!).

    ``provider`` maps (k, l) to a_{kl}.  Classification compares successive
    increments: fast decay suggests convergence, steady growth (the
    harmonic/diagonal-1/k profile) suggests divergence.
    """
    q_list = sorted(int(q) for q in Q_list)
    if not q_list or q_list[0] < 1:
        raise ParameterError("Q_list must contain integers >= 1")
    q_max = q_list[-1]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(q_max + 1)])
    weights = np.exp(-0.5 * (log_fact[:, None] + log_fact[None, :]))
    total = 0.0
    sums_by_q = {}
    for q in range(1, q_max + 1):
        for k in range(q + 1):
            total += abs(provider(k, q - k)) * weights[k, q - k]
        sums_by_q[q] = total
    partial = [sums_by_q[q] for q in q_list]
    classification = _classify_increments(partial)
    return SummabilityReport(Q_list=q_list, partial_sums=partial,
                             classification=classification)


def _classify_increments(partial, abs_tol: float = 1e-9) -> str:
    if len(partial) < 2:
        return INCONCLUSIVE
    incs = np.diff(partial)
    last = incs[-1]
    if last < abs_tol:
        return CONVERGENT_LIKELY
    if len(incs) < 2 or incs[-2] < abs_tol:
        return INCONCLUSIVE
    ratio = last / incs[-2]
    if ratio <= 0.5:
        return CONVERGENT_LIKELY
    if ratio >= 0.8:
        return DIVERGENT_LIKELY
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# scaling constants

@dataclass(frozen=True)
class ScalingConstants:
    """All normalization constants for a given (D, m, n) and L(n)."""

    D: float
    m: int
    n: int
    c_m: float
    d_n: float
    d_n_prime: float
    H: float


def c_constant(D: float, k: int) -> float:
    """c_k = 2 k! / ((1 - Dk)(2 - Dk)); c_0 := 1 by convention."""
    if k == 0:
        return 1.0
    if D * k >= 1.0:
        raise RegimeError(f"reduction regime violated: D*k = {D * k} >= 1")
    return 2.0 * math.factorial(k) / ((1.0 - D * k) * (2.0 - D * k))


def rosenblatt_skewness(D: float) -> float:
    """Skewness of the Rosenblatt variable Z_2(1), the rank-2 Hermite
    process at time 1 (Taqqu 1975; its cumulants: Veillette & Taqqu 2013).

    It is 8 I_3 / (2 I_2)^(3/2), with I_p the integral over [0, 1]^p of
    |x_1 - x_2|^(-D) ... |x_p - x_1|^(-D) around the p-cycle:
    2 I_2 = c_2 and I_3 = 6 B(1-D, 1-D) / ((2-3D)(3-3D)).
    """
    i3 = (6.0 * math.gamma(1.0 - D) ** 2 / math.gamma(2.0 - 2.0 * D)
          / ((2.0 - 3.0 * D) * (3.0 - 3.0 * D)))
    return 8.0 * i3 / c_constant(D, 2) ** 1.5


def scaling(D: float, m: int, n: int, L_at_n: float) -> ScalingConstants:
    """Scaling constants: c_m, d'_n = (n^(2-mD) L^m)^(1/2), d_n = sqrt(c_m) d'_n
    and H = 1 - Dm/2."""
    if not 0.0 < D < 1.0:
        raise ParameterError("D must lie in (0, 1)")
    if m < 1:
        raise ParameterError("m must be >= 1")
    if D * m >= 1.0:
        raise RegimeError(f"reduction regime violated: D*m = {D * m} >= 1")
    if n < 1:
        raise ParameterError("n must be >= 1")
    if L_at_n <= 0.0:
        raise ParameterError("L(n) must be positive")
    c_m = c_constant(D, m)
    d_n_prime = math.sqrt(n ** (2.0 - m * D) * L_at_n ** m)
    d_n = math.sqrt(c_m) * d_n_prime
    return ScalingConstants(D=D, m=m, n=n, c_m=c_m, d_n=d_n,
                            d_n_prime=d_n_prime, H=1.0 - D * m / 2.0)


def hermite_sum_std(params, m: int, n: int) -> float:
    """Exact standard deviation of sum_{i<=n} H_m(xi_i) via Mehler's identity:
    Var = m! * sum_{i,j} gamma(|i-j|)^m."""
    gamma = build_covariance(params, n - 1)
    lags = np.arange(1, n, dtype=float)
    # near m = 170 the product overflows to inf, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        var = math.factorial(m) * (n + 2.0 * np.dot(n - lags, gamma[1:] ** m))
    return math.sqrt(var)


def cycle_traces(gamma) -> tuple:
    """(tr(G^2), tr(G^3)) of the symmetric Toeplitz matrix G with first row
    ``gamma``, in O(n log n).

    Grouping the index triples of tr(G^3) by their span s (the third index
    lies between the other two) gives
    tr(G^3) = n g_0^3 + sum_{s>=1} (n-s) g_s (6 c_s - 6 g_0 g_s),
    with c = g * g the one-sided autoconvolution: one zero-padded FFT.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.size
    spectrum = np.fft.rfft(gamma, 2 * n)
    conv = np.fft.irfft(spectrum * spectrum, 2 * n)[1:n]
    g0, g = gamma[0], gamma[1:]
    weights = n - np.arange(1, n, dtype=float)
    tr2 = n * g0 ** 2 + 2.0 * np.dot(weights, g * g)
    tr3 = n * g0 ** 3 + 6.0 * np.dot(weights, g * (conv - g0 * g))
    return float(tr2), float(tr3)


def hermite2_sum_skewness(params, n: int) -> float:
    """Exact skewness of sum_{i<=n} H_2(xi_i).  Its cumulants are
    kappa_p = 2^(p-1) (p-1)! tr(G^p), G the n x n covariance matrix, so the
    skewness is 8 tr(G^3) / (2 tr(G^2))^(3/2)."""
    tr2, tr3 = cycle_traces(build_covariance(params, n - 1))
    return 8.0 * tr3 / (2.0 * tr2) ** 1.5
