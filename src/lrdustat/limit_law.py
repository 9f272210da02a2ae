"""Simulation of the limiting processes and their sup-functionals.

Every law is drawn on the grid lambda_j = j/G, j = 0..G, G >= 2 (each
functional is 0 at lambda = 0 and 1).  Hermite processes are approximated
through normalized partial sums of Hermite polynomials of an auxiliary LRD
Gaussian path of length N_aux (the finite-n form of the non-central limit
theorem), read at the indices j N_aux // G, all orders sharing one
auxiliary path per replication so the joint dependence of the limit
components is preserved.  Two laws are drawn more cheaply than that:

* Order 1 alone is fBm.  By self-similarity the partial sums of fGn of
  length G, read at j, are fBm exactly in distribution at j/G, so it draws
  no auxiliary path.
* Order 2 alone, the Rosenblatt process, is drawn as a S + b B: S the
  H_2 partial-sum path and B an independent fBm with H = 1 - D, drawn at
  the grid like order 1.  The weights keep the covariance and make the
  third cumulant of Z_2(1) the limit's exactly (:func:`rosenblatt_mix`),
  so S needs no long path: it is drawn at the smallest multiple of G that
  is at least CORRECTED_MIN_N_AUX = 2^8, and read at the grid points.

Each replication is reduced to one path as it is drawn
(:func:`lrd_sim.replicate`): no law holds a (reps, G + 1) array per order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, RegimeError
from .hermite import (ClassCoeffs, c_constant, gauss_hermite_prob,
                      hermite2_sum_skewness, hermite_eval, hermite_sum_std,
                      rosenblatt_skewness)
from .lrd_sim import (FGN, QUAD_ORDER, CirculantEmbedding, LrdParams,
                      Subordinator, replicate)
from .ustat import Kernel

DEFAULT_GRID_SIZE = 256
#: auxiliary path length of every law but the corrected order-2 one
DEFAULT_N_AUX = 2 ** 15
#: fewest auxiliary points of the third-cumulant-corrected order-2 law,
#: which draws at the smallest multiple of the grid size G at or above it
CORRECTED_MIN_N_AUX = 2 ** 8
DEFAULT_REPS = 2000
#: fewest replications a critical-value table is computed from
MIN_TABLE_REPS = 100
#: probability that a critical value's order-statistic interval covers the
#: quantile of the limit law
CV_COVERAGE = 0.95


def default_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    return np.linspace(0.0, 1.0, size + 1)


@dataclass
class LimitEnsemble:
    """Monte Carlo paths of a limit process (or functional) on a lambda grid."""

    grid: np.ndarray
    paths: np.ndarray  # shape (reps, len(grid))
    descriptor: dict
    warnings: list = field(default_factory=list)

    @property
    def reps(self) -> int:
        return self.paths.shape[0]

    def sup_abs(self) -> np.ndarray:
        """sup over the grid of |path|, one value per replication."""
        # max(max x, -min x) is max |x| bit for bit without a full-size |x|;
        # + 0.0 turns the -0.0 of an all-zero row into the 0.0 of |x|
        paths = self.paths
        return np.maximum(paths.max(axis=1), -paths.min(axis=1)) + 0.0


def hermite_orders(entries) -> list:
    """Orders k >= 1 of the Hermite processes that [k, l, a] entries use."""
    return sorted({o for k, l, _ in entries for o in (k, l) if o >= 1})


def resolve_draw(orders, D: float, grid_size: int, N_aux=None) -> dict:
    """What the law of the given Hermite orders draws at on the grid j/G,
    G = ``grid_size`` >= 2: ``"N_aux"``, None for order 1 alone, which draws
    no auxiliary path, else ``N_aux`` when given, for order 2 alone the
    smallest multiple of G that is at least CORRECTED_MIN_N_AUX, so that the
    indices j N_aux // G are the grid points exactly, and DEFAULT_N_AUX
    otherwise; order 2 alone adds the ``"a"``, ``"b"`` and ``"g1_N"`` of
    :func:`rosenblatt_mix`."""
    if grid_size < 2:
        raise ParameterError("grid_size must be >= 2")
    orders = list(orders)
    if orders == [1]:
        if N_aux is not None:
            raise ParameterError("order 1 alone draws no auxiliary path: "
                                 "N_aux does not apply")
        return {"N_aux": None}
    if N_aux is None:
        N_aux = (grid_size * -(-CORRECTED_MIN_N_AUX // grid_size)
                 if orders == [2] else DEFAULT_N_AUX)
    draw = {"N_aux": int(N_aux)}
    if orders == [2]:
        a, b, g1_n = rosenblatt_mix(D, draw["N_aux"])
        draw.update(a=a, b=b, g1_N=g1_n)
    return draw


def rosenblatt_mix(D: float, N_aux: int) -> tuple:
    """Weights (a, b) of the corrected order-2 law Z = a S + b B, and the
    exact skewness g1_N of S(1).

    S is the normalized H_2 partial-sum path over fGn of length N_aux and B
    an independent fBm with H = 1 - D.  Both have unit variance at 1 and,
    in the limit, the Rosenblatt process's covariance, so a^2 + b^2 = 1
    keeps it; a^3 g1_N = g1(D) makes the skewness of Z(1) the limit's.
    g1_N exceeds g1(D) at every D < 1/2, so a < 1; the clip at 1 only
    catches rounding near D = 0, where the two agree.
    """
    g1_n = hermite2_sum_skewness(LrdParams(D=D, family=FGN), N_aux)
    a = min(1.0, (rosenblatt_skewness(D) / g1_n) ** (1.0 / 3.0))
    return a, math.sqrt(1.0 - a * a), g1_n


class _PartialSums:
    """Normalized partial sums of H_k for each k in ``orders`` over an fGn
    draw of length n from ``emb``, read at the indices j n // G, j = 0..G."""

    def __init__(self, D: float, n: int, orders, grid_size: int):
        params = LrdParams(D=D, family=FGN)
        self.emb = CirculantEmbedding(params, n)
        self.scales = {k: 1.0 / hermite_sum_std(params, k, n) for k in orders}
        self.idx = np.arange(grid_size + 1) * n // grid_size
        self.cum = np.zeros(n + 1)

    def read(self, zeta: np.ndarray) -> dict:
        out = {}
        for k, scale in self.scales.items():
            np.cumsum(hermite_eval(k, zeta), out=self.cum[1:])
            out[k] = scale * self.cum[self.idx]
        return out


def _hermite_partial_paths(orders, D: float, grid_size: int, reps: int,
                           draw: dict, seed: int, reduce) -> np.ndarray:
    """``reduce(z)`` of each replication, stacked by :func:`replicate`, with
    z the normalized partial-sum paths {k: Z_k} of H_k on the grid j/G, G =
    ``grid_size``, of every requested order k, all driven by one auxiliary
    path of ``draw["N_aux"]`` points (of G when None), and Z_2 corrected by
    ``draw["a"]`` and ``draw["b"]`` when given (:func:`resolve_draw`)."""
    n = grid_size if draw["N_aux"] is None else draw["N_aux"]
    sums = _PartialSums(D, n, orders, grid_size)
    embeddings = [sums.emb]
    if "a" in draw:
        a, b = draw["a"], draw["b"]
        fbm = _PartialSums(2.0 * D, grid_size, [1], grid_size)  # H = 1 - D
        embeddings.append(fbm.emb)  # B's normals follow the auxiliary path's

    def one(zeta, *fbm_draw):
        z = sums.read(zeta)
        if fbm_draw:
            z[2] = a * z[2] + b * fbm.read(fbm_draw[0])[1]
        return reduce(z)

    return replicate(embeddings, reps, seed, one)


def simulate_hermite(m: int, D: float, grid_size: int, reps: int,
                     seed: int = 0) -> LimitEnsemble:
    """m-th order Hermite process on the grid j/G, G = ``grid_size``, via
    normalized Hermite partial sums.

    The normalization uses the exact partial-sum standard deviation at the
    drawn length (Mehler quadratic form), so Var(Z_m(1)) = 1 holds exactly
    in distribution.  For m = 1 the paths are fBm exactly in law; m = 2
    draws the corrected law of :func:`rosenblatt_mix`, and higher orders
    draw at :func:`resolve_draw`'s N_aux.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if m * D >= 1.0:
        raise RegimeError(f"reduction regime violated: m*D = {m * D} >= 1")
    draw = resolve_draw([m], D, grid_size)
    paths = _hermite_partial_paths([m], D, grid_size, reps, draw, seed,
                                   lambda z: z[m])
    return LimitEnsemble(grid=default_grid(grid_size), paths=paths,
                         descriptor={"process": "hermite", "m": m, "D": D,
                                     **draw})


def thm1_law(entries: dict, D: float, grid_size: int, N_aux=None) -> dict:
    """The limit law of a rank-m diagonal {(k, l): a_kl}, k + l = m, drawn
    on the grid j/G, G = ``grid_size``: the process, m, D, what the draw
    reads (:func:`resolve_draw`: N_aux, and the corrected order-2 law's a,
    b and g1_N) and the sorted [k, l, a] entries.  With the replications,
    grid size, seed and stream version it fixes every draw, so it is
    :func:`limit_thm1`'s descriptor and keys a cached critical-value
    table."""
    entries = sorted([int(k), int(l), float(a)]
                     for (k, l), a in entries.items())
    if not entries:
        raise ParameterError("no coefficient entries given")
    degrees = {k + l for k, l, _ in entries}
    if len(degrees) != 1:
        raise ParameterError("entries must all lie on one diagonal k + l = m")
    m = degrees.pop()
    if m < 1:
        raise ParameterError("diagonal degree m must be >= 1")
    if not 0.0 < D < 1.0:
        raise ParameterError(f"D must lie in (0, 1), got {D}")
    if m * D >= 1.0:
        raise RegimeError(f"reduction regime violated: m*D = {m * D} >= 1")
    return {"process": "thm1_functional", "m": m, "D": D,
            **resolve_draw(hermite_orders(entries), D, grid_size, N_aux),
            "entries": entries}


def limit_thm1(entries: dict, D: float, grid_size: int = DEFAULT_GRID_SIZE,
               reps: int = DEFAULT_REPS, N_aux=None,
               seed: int = 0) -> LimitEnsemble:
    """Rank-diagonal limit functional of the Hermite-expansion theorem on
    the grid j/G, G = ``grid_size`` >= 2:

        sum_{k+l=m} a_{kl}/(k! l!) * sqrt(c_k c_l) * Z_k(lam) (Z_l(1) - Z_l(lam))

    with the conventions Z_0(lam) = lam and c_0 = 1, and all Z_k driven by
    the same auxiliary path per replication.  The law is
    :func:`thm1_law`'s.  A rank-2 diagonal with a (1, 1) entry draws Z_2
    uncorrected, and its warnings give the skewness gap that leaves.
    """
    law = thm1_law(entries, D, grid_size, N_aux)
    grid = default_grid(grid_size)
    weights = [(k, l, a / (math.factorial(k) * math.factorial(l))
                * math.sqrt(c_constant(D, k) * c_constant(D, l)))
               for k, l, a in law["entries"]]

    def functional(z):
        z[0] = grid  # Z_0(1) = grid[-1] = 1.0 exactly
        return sum(w * z[k] * (z[l][-1] - z[l]) for k, l, w in weights)

    orders = hermite_orders(law["entries"])
    paths = _hermite_partial_paths(orders, D, grid_size, reps, law, seed,
                                   functional)
    warns = []
    if law["m"] == 2 and orders != [2]:
        n_aux = law["N_aux"]
        warns.append(
            f"Z_2 drawn uncorrected at N_aux = {n_aux}: skewness of Z_2(1) "
            f"{hermite2_sum_skewness(LrdParams(D=D, family=FGN), n_aux):.4f}"
            f" against the limit's {rosenblatt_skewness(D):.4f}")
    return LimitEnsemble(grid=grid, paths=paths, descriptor=law,
                         warnings=warns)


# ---------------------------------------------------------------------------
# empirical-process limit (general kernels)

def probe_tv(kernel: Kernel, grid: np.ndarray):
    """Grid estimate of max over 9 evenly spaced sections of the total
    variation of h(., y) and h(x, .)."""
    sections = np.linspace(grid[0], grid[-1], 9)[:, None]

    def tv(rows):
        return float(np.max(np.sum(np.abs(np.diff(
            np.asarray(rows, dtype=float), axis=1)), axis=1)))

    return max(tv(kernel.eval(grid, sections)),
               tv(kernel.eval(sections, grid)))


def limit_thm2(kernel: Kernel, g: Subordinator, cls: ClassCoeffs,
               z_ensemble: LimitEnsemble) -> LimitEnsemble:
    """Empirical-process limit functional

        -(1-lam) Z(lam) * A - lam (Z(1) - Z(lam)) * B,

    where Z(lam) = Z_m(lam)/m!, A = int J d(h-tilde) and
    B = int ( int J(y) dh(x, y)(y) ) dF(x), both evaluated by numeric
    Stieltjes integration on the class grid, with
    h-tilde(x) = int h(x, y) dF(y) and F the distribution of G(xi)
    (integrals over F by the Gauss-Hermite rule of QUAD_ORDER nodes).
    ``z_ensemble`` must be a :func:`simulate_hermite` ensemble of order
    ``cls.rank``.

    A TV probe is run on the class grid; violations of the kernel's declared
    bound (or an unbounded kernel) attach warnings instead of refusing the
    computation, mirroring the formal application made for the CUSUM kernel.
    """
    grid = cls.grid
    m = cls.rank
    warns = []
    desc = z_ensemble.descriptor
    if desc.get("process") != "hermite" or desc.get("m") != m:
        raise ParameterError(
            f"driver must be the Hermite process of the class rank {m}, "
            f"got {desc.get('process')} of order {desc.get('m')}")
    tv = probe_tv(kernel, grid)
    if kernel.tv_bound is None:
        warns.append(f"kernel has no declared TV bound (probe: {tv:.3g})")
    elif tv > kernel.tv_bound * (1.0 + 1e-6):
        warns.append(
            f"TV probe {tv:.3g} exceeds declared bound {kernel.tv_bound:.3g}")

    s_nodes, s_weights = gauss_hermite_prob(QUAD_ORDER)
    data_nodes = g(s_nodes)  # samples of F via the transform
    j_vals = cls.J_rank
    j_mid = 0.5 * (j_vals[1:] + j_vals[:-1])

    # h_tilde on the class grid: E_y[h(x, y)], y ~ F
    h_tilde = np.asarray(kernel.eval(grid[:, None], data_nodes),
                         dtype=float) @ s_weights
    a_int = float(np.dot(j_mid, np.diff(h_tilde)))

    # inner(x) = int J(y) dh(x, y)(y), then integrate over F
    inner = np.diff(np.asarray(kernel.eval(data_nodes[:, None], grid),
                               dtype=float), axis=1) @ j_mid
    b_int = float(np.dot(s_weights, inner))
    if not (np.isfinite(a_int) and np.isfinite(b_int)):
        raise ParameterError("limit integrals are non-finite")

    lam = z_ensemble.grid
    z = z_ensemble.paths / math.factorial(m)
    paths = (-(1.0 - lam) * z * a_int
             - lam * (z[:, -1:] - z) * b_int)
    return LimitEnsemble(grid=lam, paths=paths,
                         descriptor={"process": "thm2_functional",
                                     "kernel": kernel.name, "m": m,
                                     "A": a_int, "B": b_int,
                                     "driver": desc},
                         warnings=warns)


# ---------------------------------------------------------------------------
# critical values

@dataclass
class CriticalValueTable:
    """The sorted sup-statistic sample of a limit ensemble, which gives the
    empirical quantile at any level with its order-statistic interval
    [lo, hi] for the limit law's quantile (None for a side no order
    statistic bounds), and the ensemble's grid size and warnings."""

    descriptor: dict
    sups: np.ndarray
    grid_size: int
    warnings: list = field(default_factory=list)

    @property
    def reps(self) -> int:
        return self.sups.size

    def value_at(self, level: float) -> float:
        """np.quantile's default ("linear") quantile of the sorted sample,
        with numpy's rounding rule, bit for bit.  Read straight from the
        sample: np.quantile would partition it again and, on numpy 2,
        import numpy.ma on its first call."""
        h = (self.reps - 1) * check_level(level)
        lo = math.floor(h)
        t = h - lo
        a = float(self.sups[lo])
        b = float(self.sups[min(lo + 1, self.reps - 1)])
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)

    def interval_at(self, level: float) -> list:
        ranks = order_statistic_ranks(check_level(level), self.reps)
        return [None if j is None else float(self.sups[j - 1]) for j in ranks]

    def p_value(self, statistic: float) -> float:
        """Monte Carlo p-value (1 + #{sup >= statistic}) / (reps + 1)."""
        exceed = self.reps - int(np.searchsorted(self.sups, statistic))
        return (1 + exceed) / (self.reps + 1)

    def to_json_dict(self) -> dict:
        return {"descriptor": self.descriptor, "sups": self.sups.tolist(),
                "grid_size": self.grid_size, "warnings": self.warnings}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CriticalValueTable":
        """Inverse of :meth:`to_json_dict`; ValueError unless the sample is
        finite and sorted, as the quantiles and intervals assume."""
        sups = np.asarray(d["sups"], dtype=float)
        if not (np.all(np.isfinite(sups)) and np.all(np.diff(sups) >= 0.0)):
            raise ValueError("sup sample is not finite and sorted")
        return cls(descriptor=d["descriptor"], sups=sups,
                   grid_size=int(d["grid_size"]),
                   warnings=list(d["warnings"]))


def check_level(level) -> float:
    """``level`` as a float; ParameterError unless it lies in (0, 1)."""
    if not 0.0 < float(level) < 1.0:  # NaN fails too
        raise ParameterError(f"level {level} does not lie in (0, 1)")
    return float(level)


def order_statistic_ranks(level: float, reps: int) -> tuple:
    """1-based ranks (l, u) of the order statistics of ``reps`` draws that
    bracket the ``level`` quantile x of any continuous law, each side
    missing with probability at most (1 - CV_COVERAGE)/2.

    X_(j) <= x exactly when at least j draws are, so
    P(X_(j) <= x) = P(Binomial(reps, level) >= j): F(X_(j)) is
    Beta(j, reps + 1 - j).  A side that no order statistic bounds is None.
    """
    tail = (1.0 - CV_COVERAGE) / 2.0
    log_p, log_q = math.log(level), math.log1p(-level)
    top = math.lgamma(reps + 1)
    cdf, total = [], 0.0
    for i in range(reps + 1):
        total += math.exp(top - math.lgamma(i + 1) - math.lgamma(reps - i + 1)
                          + i * log_p + (reps - i) * log_q)
        cdf.append(total)
    # the largest l with P(B < l) <= tail, the smallest u with P(B >= u) <= tail
    lo = bisect.bisect_right(cdf, tail)
    hi = bisect.bisect_left(cdf, 1.0 - tail) + 1
    return (lo if lo >= 1 else None), (hi if hi <= reps else None)


def critical_values(ensemble: LimitEnsemble) -> CriticalValueTable:
    """Table of the sorted sup |path| per replication of ``ensemble``."""
    if ensemble.reps < MIN_TABLE_REPS:
        raise ParameterError(
            f"need at least {MIN_TABLE_REPS} replications for quantiles")
    return CriticalValueTable(descriptor=ensemble.descriptor,
                              sups=np.sort(ensemble.sup_abs()),
                              grid_size=ensemble.grid.size - 1,
                              warnings=list(ensemble.warnings))
