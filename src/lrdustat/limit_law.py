"""Simulation of the limiting processes and their sup-functionals.

Fractional Brownian motion and higher-order Hermite processes are
approximated through normalized partial sums of Hermite polynomials of an
auxiliary LRD Gaussian path (the finite-n form of the non-central limit
theorem), all orders sharing one auxiliary path per replication so the
joint dependence of the limit components is preserved.  Order 1 alone is
fBm, and its paths are exact in distribution at the grid points: by
self-similarity they come from an fGn draw at the grid's resolution
N_aux/q, q the largest step that every grid index is a multiple of.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, RegimeError
from .hermite import (ClassCoeffs, c_constant, gauss_hermite_prob,
                      hermite_eval, hermite_sum_std)
from .lrd_sim import (FGN, QUAD_ORDER, CirculantEmbedding, LrdParams,
                      Subordinator, replication_rng)
from .ustat import Kernel

DEFAULT_GRID_SIZE = 256
DEFAULT_N_AUX = 2 ** 15
DEFAULT_REPS = 2000
#: fewest replications a critical-value table is computed from
MIN_TABLE_REPS = 100


def default_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    return np.linspace(0.0, 1.0, size + 1)


@dataclass
class LimitEnsemble:
    """Monte Carlo paths of a limit process (or functional) on a lambda grid."""

    grid: np.ndarray
    paths: np.ndarray  # shape (reps, len(grid))
    descriptor: dict
    seed: int
    reps: int
    warnings: list = field(default_factory=list)

    def sup_abs(self) -> np.ndarray:
        """sup over the grid of |path|, one value per replication."""
        return np.max(np.abs(self.paths), axis=1)


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ParameterError("grid needs at least 2 points")
    if np.any(np.diff(grid) < 0):
        raise ParameterError("grid must be sorted")
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise ParameterError("grid must lie inside [0, 1]")
    return grid


def _grid_indices(grid: np.ndarray, n: int) -> np.ndarray:
    """Map lambda to the partial-sum index [lambda * n]."""
    return np.minimum(np.floor(grid * n).astype(int), n)


def simulate_fbm(H: float, grid, reps: int, seed: int,
                 resolution: int = 1024) -> LimitEnsemble:
    """Fractional Brownian motion paths with Var(B_H(1)) = 1.

    Each path is the cumulative sum of exact fractional Gaussian noise at
    the given resolution, scaled by resolution^(-H); for FGN the partial-sum
    variance is exactly n^(2H), so the normalization is exact.
    """
    if not 0.5 < H < 1.0:
        raise ParameterError("H must lie in (1/2, 1)")
    grid = _check_grid(grid)
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    d = 2.0 * (1.0 - H)
    emb = CirculantEmbedding(LrdParams(D=d, family=FGN), resolution)
    idx = _grid_indices(grid, resolution)
    scale = resolution ** (-H)
    paths = np.empty((reps, grid.size))
    cum = np.empty(resolution + 1)
    cum[0] = 0.0
    for r in range(reps):
        noise = emb.sample(replication_rng(seed, r))
        np.cumsum(noise, out=cum[1:])
        paths[r] = scale * cum[idx]
    return LimitEnsemble(grid=grid, paths=paths,
                         descriptor={"process": "fbm", "H": H,
                                     "resolution": resolution},
                         seed=seed, reps=reps)


def _hermite_partial_paths(orders, D: float, grid: np.ndarray, reps: int,
                           N_aux: int, seed: int) -> dict:
    """Normalized partial-sum paths of H_k for every requested order k,
    all orders driven by the same auxiliary path per replication."""
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    params = LrdParams(D=D, family=FGN)
    idx = _grid_indices(grid, N_aux)
    # Order 1 alone needs the fGn partial sums only at idx.  At multiples
    # of q they have the law of the partial sums of fGn of length N_aux/q
    # times q^H (fBm self-similarity), so draw that shorter path, which is
    # exact at the grid points.  q <= N_aux/2 keeps at least 2 points.
    q = math.gcd(N_aux, N_aux // 2, *idx) if orders == [1] else 1
    n, idx = N_aux // q, idx // q
    emb = CirculantEmbedding(params, n)
    scales = {k: 1.0 / hermite_sum_std(params, k, n) for k in orders}
    out = {k: np.empty((reps, grid.size)) for k in orders}
    cum = np.empty(n + 1)
    cum[0] = 0.0
    for r in range(reps):
        zeta = emb.sample(replication_rng(seed, r))
        for k in orders:
            np.cumsum(hermite_eval(k, zeta), out=cum[1:])
            out[k][r] = scales[k] * cum[idx]
    return out


def simulate_hermite(m: int, D: float, grid, reps: int,
                     N_aux: int = DEFAULT_N_AUX, seed: int = 0) -> LimitEnsemble:
    """m-th order Hermite process via normalized Hermite partial sums.

    The normalization uses the exact partial-sum standard deviation at
    N_aux (Mehler quadratic form), so Var(Z_m(1)) = 1 holds exactly in
    distribution at any N_aux.  For m = 1 the values at the grid points are
    fBm exactly in law, as simulate_fbm's are at multiples of 1/resolution.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if m * D >= 1.0:
        raise RegimeError(f"reduction regime violated: m*D = {m * D} >= 1")
    if N_aux < 2 ** 12:
        raise ParameterError("N_aux must be at least 2^12")
    grid = _check_grid(grid)
    paths = _hermite_partial_paths([m], D, grid, reps, N_aux, seed)[m]
    return LimitEnsemble(grid=grid, paths=paths,
                         descriptor={"process": "hermite", "m": m, "D": D,
                                     "N_aux": N_aux},
                         seed=seed, reps=reps)


def limit_thm1(entries: dict, D: float, grid=None, reps: int = DEFAULT_REPS,
               N_aux: int = DEFAULT_N_AUX, seed: int = 0) -> LimitEnsemble:
    """Rank-diagonal limit functional of the Hermite-expansion theorem:

        sum_{k+l=m} a_{kl}/(k! l!) * sqrt(c_k c_l) * Z_k(lam) (Z_l(1) - Z_l(lam))

    with the conventions Z_0(lam) = lam and c_0 = 1, and all Z_k driven by
    the same auxiliary path per replication.
    """
    grid = default_grid() if grid is None else _check_grid(grid)
    entries = {(int(k), int(l)): float(a) for (k, l), a in entries.items()}
    if not entries:
        raise ParameterError("no coefficient entries given")
    degrees = {k + l for (k, l) in entries}
    if len(degrees) != 1:
        raise ParameterError("entries must all lie on one diagonal k + l = m")
    m = degrees.pop()
    if m < 1:
        raise ParameterError("diagonal degree m must be >= 1")
    if m * D >= 1.0:
        raise RegimeError(f"reduction regime violated: m*D = {m * D} >= 1")
    orders = sorted({k for (k, l) in entries if k >= 1}
                    | {l for (k, l) in entries if l >= 1})
    # Z_l(1) comes from the same pass: append lambda = 1 if the grid lacks it
    full_grid = grid if grid[-1] == 1.0 else np.append(grid, 1.0)
    z = (_hermite_partial_paths(orders, D, full_grid, reps, N_aux, seed)
         if orders else {})
    z1 = {k: z[k][:, -1:] for k in z}
    z = {k: z[k][:, :grid.size] for k in z}
    z[0] = np.broadcast_to(grid, (reps, grid.size))
    z1[0] = 1.0
    paths = np.zeros((reps, grid.size))
    for (k, l), a in entries.items():
        weight = (a / (math.factorial(k) * math.factorial(l))
                  * math.sqrt(c_constant(D, k) * c_constant(D, l)))
        paths += weight * z[k] * (z1[l] - z[l])
    return LimitEnsemble(grid=grid, paths=paths,
                         descriptor={"process": "thm1_functional", "m": m,
                                     "D": D, "N_aux": N_aux,
                                     "entries": sorted(
                                         [k, l, a] for (k, l), a in entries.items())},
                         seed=seed, reps=reps)


# ---------------------------------------------------------------------------
# empirical-process limit (general kernels)

def probe_tv(kernel: Kernel, grid: np.ndarray):
    """Grid estimate of max over 9 evenly spaced sections of the total
    variation of h(., y) and h(x, .)."""
    sections = np.linspace(grid[0], grid[-1], 9)
    tv_rows = max(
        float(np.sum(np.abs(np.diff(np.asarray(kernel.eval(grid, y), dtype=float)))))
        for y in sections
    )
    tv_cols = max(
        float(np.sum(np.abs(np.diff(np.asarray(kernel.eval(x, grid), dtype=float)))))
        for x in sections
    )
    return max(tv_rows, tv_cols)


def limit_thm2(kernel: Kernel, g: Subordinator, cls: ClassCoeffs,
               z_ensemble: LimitEnsemble) -> LimitEnsemble:
    """Empirical-process limit functional

        -(1-lam) Z(lam) * A - lam (Z(1) - Z(lam)) * B,

    where Z(lam) = Z_m(lam)/m!, A = int J d(h-tilde) and
    B = int ( int J(y) dh(x, y)(y) ) dF(x), both evaluated by numeric
    Stieltjes integration on the class grid, with
    h-tilde(x) = int h(x, y) dF(y) and F the distribution of G(xi)
    (integrals over F by the Gauss-Hermite rule of QUAD_ORDER nodes).

    A TV probe is run on the class grid; violations of the kernel's declared
    bound (or an unbounded kernel) attach warnings instead of refusing the
    computation, mirroring the formal application made for the CUSUM kernel.
    """
    grid = cls.grid
    m = cls.rank
    warns = []
    desc = z_ensemble.descriptor
    z_order = desc.get("m", 1) if desc.get("process") == "hermite" else 1
    if z_order != m:
        raise ParameterError(
            f"driving process order {z_order} does not match class rank {m}")
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
    h_tilde = np.array([
        float(np.dot(s_weights, np.asarray(kernel.eval(x, data_nodes), dtype=float)))
        for x in grid
    ])
    a_int = float(np.dot(j_mid, np.diff(h_tilde)))

    # inner(x) = int J(y) dh(x, y)(y), then integrate over F
    inner = np.array([
        float(np.dot(j_mid,
                     np.diff(np.asarray(kernel.eval(x, grid), dtype=float))))
        for x in data_nodes
    ])
    b_int = float(np.dot(s_weights, inner))
    if not (np.isfinite(a_int) and np.isfinite(b_int)):
        raise ParameterError("limit integrals are non-finite")

    lam = z_ensemble.grid
    z = z_ensemble.paths / math.factorial(m)
    z_one = z[:, -1:] if lam[-1] == 1.0 else None
    if z_one is None:
        raise ParameterError("driving ensemble grid must contain lambda = 1")
    paths = (-(1.0 - lam) * z * a_int
             - lam * (z_one - z) * b_int)
    return LimitEnsemble(grid=lam, paths=paths,
                         descriptor={"process": "thm2_functional",
                                     "kernel": kernel.name, "m": m,
                                     "A": a_int, "B": b_int,
                                     "driver": desc},
                         seed=z_ensemble.seed, reps=z_ensemble.reps,
                         warnings=warns)


# ---------------------------------------------------------------------------
# critical values

@dataclass
class CriticalValueTable:
    """Empirical quantiles of the sup-statistic of a limit ensemble."""

    descriptor: dict
    levels: list
    values: list
    reps: int
    grid_size: int

    def value_at(self, level: float) -> float:
        for lv, v in zip(self.levels, self.values):
            if abs(lv - level) < 1e-12:
                return v
        raise ParameterError(f"level {level} not in table")

    def to_json_dict(self) -> dict:
        return {"descriptor": self.descriptor,
                "quantiles": {"levels": self.levels, "values": self.values},
                "reps": self.reps, "grid_size": self.grid_size}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def from_json_dict(cls, d: dict) -> "CriticalValueTable":
        q = d["quantiles"]
        return cls(descriptor=d["descriptor"], levels=list(q["levels"]),
                   values=list(q["values"]), reps=int(d["reps"]),
                   grid_size=int(d["grid_size"]))


def critical_values(ensemble: LimitEnsemble, levels) -> CriticalValueTable:
    """Empirical quantiles of sup |path| per replication."""
    levels = [float(lv) for lv in levels]
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ParameterError("levels must lie in (0, 1)")
    if ensemble.reps < MIN_TABLE_REPS:
        raise ParameterError(
            f"need at least {MIN_TABLE_REPS} replications for quantiles")
    sups = ensemble.sup_abs()
    values = [float(np.quantile(sups, lv)) for lv in levels]
    return CriticalValueTable(descriptor=ensemble.descriptor, levels=levels,
                              values=values, reps=ensemble.reps,
                              grid_size=ensemble.grid.size)
