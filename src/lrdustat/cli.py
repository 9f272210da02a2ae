"""Command-line front end.

Subcommands: ``simulate`` (LRD path generation), ``coeffs`` (Hermite
coefficient tables), ``limit`` (limit-law critical values), ``detect``
(change-point test on a data file) and ``verify`` (Monte Carlo checks of
the asymptotics).  Exit codes: 0 success, 1 internal/numeric failure,
2 user/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# the numeric submodules are imported by the functions that use them, so
# importing this module loads no numpy (see the package docstring)
from . import __version__
from .errors import NonEmbeddableError, ParameterError

CACHE_ENV = "LRDUSTAT_CACHE"


def _cache_dir() -> Path:
    root = os.environ.get(CACHE_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "lrdustat"


def _write_sidecar(args) -> None:
    """Write the run's parsed arguments, and the package and stream versions
    that produced its output, to ``<out>.json`` next to ``args.out``."""
    from . import lrd_sim

    config = {k: v for k, v in vars(args).items() if k != "func"}
    config["package_version"] = __version__
    config["stream_version"] = lrd_sim.STREAM_VERSION
    out = Path(args.out)
    with open(out.with_suffix(out.suffix + ".json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def to_json(result) -> str:
    """The one serialiser of command results and cache files: indented JSON
    and a newline.  A NaN or an infinity raises FloatingPointError, so a
    non-finite number exits 1 and never reaches stdout or a file."""
    try:
        return json.dumps(result, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise FloatingPointError("numeric failure: the result holds NaN or "
                                 "an infinity") from None


def levels_list(text: str) -> list:
    """``--levels`` value: comma-separated distinct probabilities in (0, 1).
    A ValueError here (a ParameterError is one) makes argparse report the
    bad value and exit with status 2, before any simulation runs.  A
    repeated level is refused too, compared as a float: ``detect`` keys its
    decisions by level, so a second one would be lost."""
    from . import limit_law

    levels = [limit_law.check_level(x) for x in text.split(",") if x]
    if not levels:
        raise ValueError("no level given")
    for i, level in enumerate(levels):
        if level in levels[:i]:
            raise argparse.ArgumentTypeError(f"level {level} is repeated")
    return levels


def int_at_least(low: int):
    """argparse type for an integer option with floor ``low``: a smaller
    value exits with status 2 and a message naming the floor, before any
    simulation runs."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def limit_table(table: hermite.HermiteCoeffTable, d_exp: float, reps: int,
                grid_size: int, seed: int, use_cache: bool = True):
    """Critical-value table for the limit functional of a kernel's
    coefficient ``table`` (from :func:`hermite.kernel_table`), cached on disk
    keyed by the law of its rank-m diagonal (:func:`limit_law.thm1_law`),
    reps, grid and seed, and by what produced it: the sampler's stream
    version and the package version.  The limit law depends on D and the
    diagonal only, not on the kernel's name or the covariance family, so
    kernels with one diagonal share a file.  A cache file that cannot be
    read, does not parse, or whose sample is not ``reps`` finite sorted
    values, is recomputed and overwritten; a table that cannot be written
    is returned all the same, with one warning on stderr."""
    import hashlib
    import tempfile

    from . import limit_law, lrd_sim

    diagonal = table.diagonal(table.rank)
    key_src = json.dumps({
        **limit_law.thm1_law(diagonal, d_exp, grid_size),
        "reps": reps, "grid_size": grid_size, "seed": seed,
        "stream_version": lrd_sim.STREAM_VERSION,
        "package_version": __version__,
    }, sort_keys=True)
    key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
    cache_file = _cache_dir() / f"cv_{key}.json"
    if use_cache:
        try:
            cached = limit_law.CriticalValueTable.from_json_dict(
                json.loads(cache_file.read_text()))
            if cached.sups.shape == (reps,):
                return cached
        except (OSError, ValueError, KeyError, TypeError):
            pass  # missing, unreadable or corrupt: recompute below
    ensemble = limit_law.limit_thm1(diagonal, d_exp, grid_size=grid_size,
                                    reps=reps, seed=seed)
    cv_table = limit_law.critical_values(ensemble)
    if use_cache:
        # write a temp file, then rename: readers never see a partial table
        tmp = None
        try:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_file.parent, suffix=".tmp")
            os.close(fd)
            Path(tmp).write_text(to_json(cv_table.to_json_dict()))
            os.replace(tmp, cache_file)
            tmp = None
        except OSError as exc:
            print(f"warning: critical-value table not cached: {exc}",
                  file=sys.stderr)
        finally:
            if tmp is not None:
                Path(tmp).unlink(missing_ok=True)
    return cv_table


# ---------------------------------------------------------------------------
# subcommands: each returns its JSON result, or None when its output is a
# file of its own, and main prints and writes the result

def cmd_simulate(args) -> None:
    from . import lrd_sim

    params = lrd_sim.LrdParams(D=args.D, family=args.family)
    values = lrd_sim.simulate_gaussian(params, args.n, args.seed)
    if args.transform == "exp":
        values = lrd_sim.Subordinator.exp()(values)
    if args.binary:
        lrd_sim.write_path_binary(values, args.out)
    else:
        lrd_sim.write_path_csv(values, args.out)


def cmd_coeffs(args) -> dict:
    from . import hermite, ustat

    kernel = ustat.builtin_kernel(args.kernel)
    if args.source == "montecarlo":
        # resolved here, so the sidecar records the values that ran
        args.pairs = 10 ** 6 if args.pairs is None else args.pairs
        args.seed = 0 if args.seed is None else args.seed
        table, errors = hermite.coeffs_2d_montecarlo(kernel, args.Q,
                                                     args.pairs, args.seed)
    elif args.pairs is not None or args.seed is not None:
        raise ParameterError("--pairs and --seed need --source montecarlo")
    elif kernel.coeff_provider is not None and args.source == "auto":
        table = hermite.closed_form_table(kernel.coeff_provider, args.Q)
    else:
        table = hermite.coeffs_2d(kernel, args.Q)
    result = {**table.to_json_dict(), "kernel": kernel.name}
    if args.source == "montecarlo":  # each entry's standard error, in order
        result["stderr"] = [[k, l, float(errors[k, l])]
                            for k, l, _ in result["entries"]]
    return result


def cmd_limit(args) -> dict:
    from . import hermite, limit_law, ustat

    kernel = ustat.builtin_kernel(args.kernel)
    table = limit_table(hermite.kernel_table(kernel), args.D, args.reps,
                        args.grid_size, args.seed,
                        use_cache=not args.no_cache)
    levels = sorted(args.levels)
    return {"descriptor": table.descriptor,
            "quantiles": {"levels": levels,
                          "values": [*map(table.value_at, levels)],
                          "intervals": [*map(table.interval_at, levels)],
                          "coverage": limit_law.CV_COVERAGE},
            "reps": table.reps, "grid_size": table.grid_size,
            "warnings": table.warnings}


def cmd_detect(args) -> dict:
    from . import hermite, lrd_sim, ustat

    kernel = ustat.builtin_kernel(args.kernel)
    coeffs = hermite.kernel_table(kernel)
    params = lrd_sim.LrdParams(D=args.D, family=args.family)
    # (D, m) is admissible before the input is read
    hermite.check_regime(args.D, coeffs.rank)
    data = lrd_sim.read_path(args.input)
    n = data.size
    stat, k_star = ustat.changepoint_statistic(
        ustat.ustat_fast(data, kernel), coeffs, params)
    table = limit_table(coeffs, args.D, args.reps, args.grid_size,
                        args.seed, use_cache=not args.no_cache)
    decisions = {repr(lv): {"critical_value": (cv := table.value_at(lv)),
                            "interval": table.interval_at(lv),
                            "reject": stat > cv}
                 for lv in args.levels}
    return {"subcommand": "detect", "input": args.input,
            "kernel": kernel.name, "D": args.D, "family": args.family,
            "n": int(n), "statistic": stat,
            "p_value": table.p_value(stat), "k_star": k_star,
            "k_star_fraction": k_star / n, "levels": decisions,
            "table_reps": table.reps, "seed": args.seed,
            "law": table.descriptor, "warnings": table.warnings}


def cmd_verify(args) -> dict:
    import time

    from . import lrd_sim, ustat, verify

    start = time.perf_counter()  # after the imports: times the experiment
    params = lrd_sim.LrdParams(D=args.D, family=args.family)
    if args.experiment == "variance":
        report = verify.check_variance(args.k, params, args.n,
                                       reps=args.reps, seed=args.seed)
    elif args.experiment == "reduction":
        kernel = ustat.builtin_kernel(args.kernel)
        report = verify.check_reduction(kernel, params, args.n,
                                        reps=args.reps, seed=args.seed)
    else:  # weak
        kernel = ustat.builtin_kernel(args.kernel)
        report = verify.check_weak_convergence(
            kernel, params, args.n, args.reps, args.limit_reps,
            args.grid_size, seed=args.seed)
    return {**report, "wall_clock": time.perf_counter() - start}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    from functools import partial

    from . import limit_law, lrd_sim

    # no abbreviations: `verify weak --k 2` must not parse as `--kernel 2`
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="lrdustat",
        description="Two-sample U-statistic processes for LRD time series")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=strict)

    def parent(*parents):  # options shared by several commands
        return argparse.ArgumentParser(add_help=False, parents=parents)

    def add_reps(p, floor=None):
        p.add_argument("--reps", default=limit_law.DEFAULT_REPS,
                       type=int if floor is None else int_at_least(floor))

    model = parent()  # the LRD model and the seed: every command but coeffs
    model.add_argument("--seed", type=int_at_least(0), default=0)
    model.add_argument("--D", type=float, required=True)
    model.add_argument("--family", default=lrd_sim.FGN,
                       choices=[lrd_sim.FGN, lrd_sim.TWEAKED_POWER_LAW])
    out = parent()
    out.add_argument("-o", "--out")
    grid = parent()
    grid.add_argument("--grid-size", type=int_at_least(2),
                      default=limit_law.DEFAULT_GRID_SIZE)
    table = parent(model, out, grid)  # a critical-value table: limit, detect
    add_reps(table, limit_law.MIN_TABLE_REPS)
    table.add_argument("--levels", type=levels_list, default=[0.9, 0.95, 0.99])
    table.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("simulate", parents=[model],
                       help="simulate an LRD Gaussian path")
    p.add_argument("--n", type=int_at_least(2), required=True)
    p.add_argument("--transform", choices=["identity", "exp"],
                   default="identity")
    p.add_argument("--binary", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coeffs", parents=[out],
                       help="Hermite coefficient table of a kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--Q", type=int_at_least(1), default=4)
    p.add_argument("--source", choices=["auto", "quadrature", "montecarlo"],
                   default="auto")
    p.add_argument("--pairs", type=int, help="montecarlo only; default 10^6")
    p.add_argument("--seed", type=int_at_least(0),
                   help="montecarlo only; default 0")
    p.set_defaults(func=cmd_coeffs)

    # bench/make_reference.py passes `limit --family`; the limit law does
    # not depend on it, so it is only checked and recorded in the sidecar
    p = sub.add_parser("limit", parents=[table],
                       help="simulate limit law, tabulate quantiles")
    p.add_argument("--kernel", required=True)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("detect", parents=[table],
                       help="change-point test on a data file")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", default="wilcoxon")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("verify", help="Monte Carlo checks of the asymptotics")
    p.set_defaults(func=cmd_verify)
    experiments = p.add_subparsers(dest="experiment", required=True,
                                   parser_class=strict)
    # reduction and weak draw samples, which need n >= 2 and reps >= 1
    # (reduction's standard error needs reps >= 2); variance --reps 0 runs
    # the exact quadratic form only
    e = experiments.add_parser("variance", parents=[model, out])
    add_reps(e)
    e.add_argument("--n", type=int_at_least(1), action="append", required=True)
    e.add_argument("--k", type=int_at_least(1), default=1,
                   help="Hermite degree")
    e = experiments.add_parser("reduction", parents=[model, out])
    add_reps(e, 2)
    e.add_argument("--n", type=int_at_least(2), action="append", required=True)
    e.add_argument("--kernel", default="cusum")
    e = experiments.add_parser("weak", parents=[model, out, grid])
    add_reps(e, 1)
    e.add_argument("--n", type=int_at_least(2), required=True)
    e.add_argument("--kernel", default="cusum")
    e.add_argument("--limit-reps", type=int_at_least(1),
                   default=limit_law.DEFAULT_REPS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        if result is not None:
            text = to_json(result)
            if args.out:
                Path(args.out).write_text(text)
            sys.stdout.write(text)
        if args.out:
            _write_sidecar(args)
        return 0
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, NonEmbeddableError) as exc:  # numeric failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry of the ``lrdustat`` command and ``python -m
    lrdustat.cli``: run :func:`main`, flush the result, and end the process
    with ``os._exit``, skipping interpreter teardown (numpy's module
    clean-up), which is paid after the result is out.  That is safe because
    every file ``main`` writes is closed when it returns and nothing
    registers an ``atexit`` hook.  A flush that fails, as on a stdout pipe
    the reader closed, exits 2 like any other OSError.  argparse's
    SystemExit (usage errors, ``--help``) leaves the normal way."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = code or 2
    os._exit(code)


if __name__ == "__main__":
    run()
