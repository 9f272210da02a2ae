import argparse
import inspect
import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lrdustat
from lrdustat import cli, limit_law, lrd_sim, ustat, verify
from lrdustat.hermite import coeffs_2d_montecarlo, kernel_table, scaling
from lrdustat.ustat import (builtin_kernel, gaussian_bump_kernel, ustat_naive,
                            wilcoxon_kernel)

from test_lrd_sim import non_embeddable_cov


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    return cache


class TestSimulate:
    def test_csv_output_and_sidecar(self, tmp_path):
        out = tmp_path / "path.csv"
        rc = cli.main(["simulate", "--family", "tweaked", "--D", "0.4",
                       "--n", "512", "--seed", "3", "-o", str(out)])
        assert rc == 0
        values = lrd_sim.read_path_csv(out)
        assert values.size == 512
        sidecar = json.loads((tmp_path / "path.csv.json").read_text())
        assert sidecar == {"subcommand": "simulate", "seed": 3,
                           "family": "tweaked", "D": 0.4, "n": 512,
                           "transform": "identity", "binary": False,
                           "out": str(out),
                           "stream_version": lrd_sim.STREAM_VERSION,
                           "package_version": lrdustat.__version__}

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli.main(["simulate", "--D", "0.4", "--n", "128",
                             "--seed", "9", "-o", str(out)]) == 0
        assert np.array_equal(lrd_sim.read_path_csv(a),
                              lrd_sim.read_path_csv(b))

    def test_binary_output(self, tmp_path):
        out = tmp_path / "path.bin"
        rc = cli.main(["simulate", "--D", "0.4", "--n", "64", "--binary",
                       "-o", str(out)])
        assert rc == 0
        with open(out, "rb") as fh:
            assert fh.read(16) == lrd_sim.PATH_MAGIC
        assert lrd_sim.read_path_binary(out).size == 64

    def test_transformed_output(self, tmp_path):
        out = tmp_path / "path.csv"
        rc = cli.main(["simulate", "--D", "0.4", "--n", "64",
                       "--transform", "exp", "-o", str(out)])
        assert rc == 0
        values = lrd_sim.read_path_csv(out)
        # exponential minus its mean is bounded below by -1
        assert values.min() > -1.0

    def test_invalid_D_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--D", "1.5", "--n", "64",
                       "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_embeddable_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lrd_sim, "build_covariance", non_embeddable_cov)
        out = tmp_path / "x.csv"
        rc = cli.main(["simulate", "--family", "tweaked", "--D", "0.5",
                       "--n", "3", "-o", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "internal error" not in err
        assert not out.exists()

    def test_internal_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("not a user error")

        monkeypatch.setattr(lrd_sim, "simulate_gaussian", broken)
        out = tmp_path / "x.csv"
        rc = cli.main(["simulate", "--D", "0.4", "--n", "8", "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", "internal error: not a user "
                                           "error\n")
        assert list(tmp_path.iterdir()) == []


class TestCoeffs:
    def test_cusum_closed_form(self, capsys):
        rc = cli.main(["coeffs", "--kernel", "cusum", "--Q", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {(k, l): a for k, l, a in payload["entries"]}
        assert entries == {(1, 0): 1.0, (0, 1): -1.0}
        assert payload["rank"] == 1
        assert payload["kernel"] == "cusum"

    @pytest.mark.parametrize("kernel", ["gaussian_bump", "huber:1.345",
                                        "tukey:4.685"])
    def test_every_builtin_kernel_has_a_closed_form(self, kernel, capsys):
        assert cli.main(["coeffs", "--kernel", kernel, "--Q", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["source"] == "closed_form"

    def test_quadrature_source(self, capsys):
        rc = cli.main(["coeffs", "--kernel", "gaussian_bump", "--Q", "2",
                       "--source", "quadrature"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 2

    @pytest.mark.parametrize("source, warnings", [
        ("quadrature", ["quadrature-on-discontinuous-kernel"]),
        ("auto", []),
    ])
    def test_table_warnings_are_printed(self, source, warnings, capsys):
        assert cli.main(["coeffs", "--kernel", "wilcoxon", "--Q", "2",
                         "--source", source]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == warnings

    def test_file_output(self, tmp_path):
        out = tmp_path / "coeffs.json"
        rc = cli.main(["coeffs", "--kernel", "wilcoxon", "--Q", "3",
                       "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["rank"] == 1
        sidecar = json.loads((tmp_path / "coeffs.json.json").read_text())
        assert (sidecar["pairs"], sidecar["seed"]) == (None, None)  # not read

    def test_montecarlo_sidecar_records_defaults(self, tmp_path):
        out = tmp_path / "coeffs.json"
        rc = cli.main(["coeffs", "--kernel", "wilcoxon", "--Q", "1",
                       "--source", "montecarlo", "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["source"] == "monte_carlo"
        sidecar = json.loads((tmp_path / "coeffs.json.json").read_text())
        assert (sidecar["pairs"], sidecar["seed"]) == (10 ** 6, 0)

    def test_montecarlo_standard_errors(self, capsys):
        assert cli.main(["coeffs", "--kernel", "cusum", "--Q", "2",
                         "--source", "montecarlo", "--pairs", "1000",
                         "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        table, errors = coeffs_2d_montecarlo(builtin_kernel("cusum"), 2,
                                             1000, 3)
        assert payload["entries"] == table.to_json_dict()["entries"]
        assert payload["stderr"] == [[k, l, errors[k, l]]
                                     for k, l, _ in payload["entries"]]
        assert all(se > 0.0 for _, _, se in payload["stderr"])

    def test_unknown_kernel(self, capsys):
        assert cli.main(["coeffs", "--kernel", "nope"]) == 2


class TestLimit:
    ARGS = ["limit", "--kernel", "cusum", "--D", "0.4", "--reps", "150",
            "--grid-size", "16", "--levels", "0.8,0.9,0.95"]

    def test_quantiles_monotone(self, capsys):
        rc = cli.main(self.ARGS)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        values = payload["quantiles"]["values"]
        assert values[0] < values[1] < values[2]
        assert payload["grid_size"] == 16  # steps G, not the G + 1 points

    def test_cache_roundtrip(self, isolated_cache, capsys):
        assert cli.main(self.ARGS) == 0
        first = json.loads(capsys.readouterr().out)
        cached = list(isolated_cache.glob("cv_*.json"))
        assert len(cached) == 1
        assert cli.main(self.ARGS) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_corrupt_cache_is_recomputed(self, isolated_cache, capsys):
        assert cli.main(self.ARGS) == 0
        first = json.loads(capsys.readouterr().out)
        (cached,) = isolated_cache.glob("cv_*.json")
        table_json = cached.read_text()
        cached.write_text(table_json[:40])
        assert cli.main(self.ARGS) == 0
        assert json.loads(capsys.readouterr().out) == first
        assert cached.read_text() == table_json
        assert list(isolated_cache.iterdir()) == [cached]

    # each file parses, but its sample is not 150 finite sorted values
    @pytest.mark.parametrize("spoil", [
        lambda sups: sups[::-1],
        lambda sups: sups[:-1],
        lambda sups: sups[:-1] + [float("nan")],
    ], ids=["reversed", "short", "nan"])
    def test_cache_with_a_bad_sample_is_recomputed(self, spoil,
                                                   isolated_cache, capsys,
                                                   monkeypatch):
        assert cli.main(self.ARGS + ["--no-cache"]) == 0
        fresh = capsys.readouterr().out
        assert cli.main(self.ARGS) == 0
        (cached,) = isolated_cache.glob("cv_*.json")
        table_json = cached.read_text()
        saved = json.loads(table_json)
        saved["sups"] = spoil(saved["sups"])
        cached.write_text(json.dumps(saved))
        capsys.readouterr()
        calls = self.spy_limit_thm1(monkeypatch)
        assert cli.main(self.ARGS) == 0
        assert calls == [1]
        assert capsys.readouterr().out == fresh
        assert cached.read_text() == table_json

    def test_one_table_serves_every_level(self, tmp_path, isolated_cache,
                                          capsys, monkeypatch):
        # limit and detect at other levels, in another order, share a table
        calls = self.spy_limit_thm1(monkeypatch)
        law = ["--kernel", "cusum", "--D", "0.4", "--reps", "150",
               "--grid-size", "16", "--seed", "3"]
        assert cli.main(["limit", *law, "--levels", "0.5,0.9,0.95,0.99"]) \
            == 0
        data = tmp_path / "data.csv"
        lrd_sim.write_path_csv(
            lrd_sim.simulate_gaussian(lrd_sim.LrdParams(D=0.4), 200, seed=1),
            data)
        assert cli.main(["detect", "--input", str(data), *law,
                         "--levels", "0.99,0.9,0.25"]) == 0
        assert calls == [1]
        assert len(list(isolated_cache.glob("cv_*.json"))) == 1

    def test_stream_version_is_in_cache_key(self, isolated_cache, capsys,
                                            monkeypatch):
        assert cli.main(self.ARGS) == 0
        (first,) = isolated_cache.glob("cv_*.json")
        calls = []
        real = limit_law.limit_thm1
        monkeypatch.setattr(limit_law, "limit_thm1",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        monkeypatch.setattr(lrd_sim, "STREAM_VERSION",
                            lrd_sim.STREAM_VERSION + 1)
        assert cli.main(self.ARGS) == 0
        assert calls == [1]  # a miss: the limit law was simulated again
        assert len(list(isolated_cache.glob("cv_*.json"))) == 2
        assert first.exists()

    @staticmethod
    def spy_limit_thm1(monkeypatch) -> list:
        """Record one entry per limit law simulated from now on."""
        calls = []
        real = limit_law.limit_thm1
        monkeypatch.setattr(limit_law, "limit_thm1",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    def assert_old_version_misses(self, version, args, isolated_cache,
                                  monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(lrd_sim, "STREAM_VERSION", version)
            assert cli.main(args) == 0
        calls = self.spy_limit_thm1(monkeypatch)
        assert lrd_sim.STREAM_VERSION == 7
        assert cli.main(args) == 0
        assert calls == [1]
        assert len(list(isolated_cache.glob("cv_*.json"))) == 2

    def test_stream_version_2_cache_is_a_miss(self, isolated_cache, capsys,
                                              monkeypatch):
        # tables cached before the 5-smooth embedding are not served
        self.assert_old_version_misses(2, self.ARGS, isolated_cache,
                                       monkeypatch)

    def test_stream_version_3_cache_is_a_miss(self, isolated_cache, capsys,
                                              monkeypatch):
        # rank-2 tables cached before the corrected order-2 law are not served
        args = ["limit", "--kernel", "gaussian_bump", "--D", "0.4",
                "--reps", "100", "--grid-size", "16"]
        self.assert_old_version_misses(3, args, isolated_cache, monkeypatch)

    def test_stream_version_4_cache_is_a_miss(self, isolated_cache, capsys,
                                              monkeypatch):
        # rank-1 tables cached before the draw at the grid j/G are not
        # served: at G = 200 they were read at floor(j 2^15 / 200) / 2^15
        args = ["limit", "--kernel", "wilcoxon", "--D", "0.4",
                "--reps", "100", "--grid-size", "200"]
        self.assert_old_version_misses(4, args, isolated_cache, monkeypatch)

    def test_stream_version_5_cache_is_a_miss(self, isolated_cache, capsys,
                                              monkeypatch):
        # bump tables cached before the order-2 law drew at the grid's
        # scale are not served: at G = 200 they read a 2^12-point S at
        # floor(j 2^12 / 200) / 2^12
        args = ["limit", "--kernel", "gaussian_bump", "--D", "0.4",
                "--reps", "100", "--grid-size", "200"]
        self.assert_old_version_misses(5, args, isolated_cache, monkeypatch)

    def test_stream_version_6_cache_is_a_miss(self, isolated_cache, capsys,
                                              monkeypatch):
        # tables cached before the cancellation-free fGn covariance are not
        # served: it moves the bump law's normalisation and mixing weights
        args = ["limit", "--kernel", "gaussian_bump", "--D", "0.4",
                "--reps", "100", "--grid-size", "16"]
        self.assert_old_version_misses(6, args, isolated_cache, monkeypatch)

    # a rank-1 law (wilcoxon) draws no auxiliary path: its N_aux is null
    # and neither default N_aux is in its key
    @pytest.mark.parametrize("kernel, own, other, drawn", [
        ("gaussian_bump", "CORRECTED_MIN_N_AUX", "DEFAULT_N_AUX", 256),
        ("wilcoxon", "DEFAULT_N_AUX", "CORRECTED_MIN_N_AUX", None),
    ])
    def test_cache_key_records_n_aux_drawn(self, kernel, own, other, drawn,
                                           isolated_cache, capsys,
                                           monkeypatch):
        args = ["limit", "--kernel", kernel, "--D", "0.4", "--reps", "100",
                "--grid-size", "16"]
        assert cli.main(args) == 0
        assert json.loads(capsys.readouterr().out)["descriptor"]["N_aux"] \
            == drawn
        calls = self.spy_limit_thm1(monkeypatch)
        monkeypatch.setattr(limit_law, other, 2 ** 13)
        assert cli.main(args) == 0
        assert calls == []  # the other law's N_aux is not in the key: a hit
        capsys.readouterr()
        monkeypatch.setattr(limit_law, own, 2 ** 13)
        assert cli.main(args) == 0
        if drawn is None:
            assert calls == []
            return
        assert calls == [1]  # its own is: a miss, drawn at the new N_aux
        assert json.loads(capsys.readouterr().out)["descriptor"]["N_aux"] \
            == 2 ** 13

    def test_cache_key_records_the_rosenblatt_correction(
            self, isolated_cache, capsys, monkeypatch):
        # a changed correction is a miss, drawn with the new weights
        args = ["limit", "--kernel", "gaussian_bump", "--D", "0.4",
                "--reps", "100", "--grid-size", "16", "--levels", "0.95"]
        assert cli.main(args) == 0
        first = json.loads(capsys.readouterr().out)
        calls = self.spy_limit_thm1(monkeypatch)
        monkeypatch.setattr(limit_law, "rosenblatt_mix",
                            lambda D, N_aux: (0.5, 0.75 ** 0.5, 1.0))
        assert cli.main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert calls == [1]
        assert first["descriptor"]["a"] != 0.5
        assert second["descriptor"]["a"] == 0.5
        assert second["quantiles"] != first["quantiles"]
        assert len(list(isolated_cache.glob("cv_*.json"))) == 2

    def test_limit_table_leaves_n_aux_to_the_law(self, monkeypatch):
        # limit_thm1 resolves N_aux through thm1_law, whose law is the key
        real = limit_law.limit_thm1
        bound = []
        monkeypatch.setattr(
            limit_law, "limit_thm1",
            lambda *a, **kw: bound.append(
                inspect.signature(real).bind(*a, **kw).arguments)
            or real(*a, **kw))
        drawn = [cli.limit_table(kernel_table(builtin_kernel(kernel)), 0.4,
                                 100, 16, 0).descriptor["N_aux"]
                 for kernel in ("wilcoxon", "gaussian_bump")]
        assert drawn == [None, 256]
        assert [list(arguments) for arguments in bound] == \
            [["entries", "D", "grid_size", "reps", "seed"]] * 2

    def test_kernel_scales_differing_in_the_7th_digit_get_two_tables(
            self, isolated_cache, capsys):
        for spec in ("huber:1.345", "huber:1.3450001"):
            assert cli.main(["limit", "--kernel", spec, "--D", "0.4",
                             "--reps", "100", "--grid-size", "8"]) == 0
        assert len(list(isolated_cache.glob("cv_*.json"))) == 2

    def test_a_changed_coefficient_under_one_name_misses(
            self, isolated_cache, capsys, monkeypatch):
        # the key holds the law's diagonal, not the kernel's name, so a
        # table drawn at another a10 is never served under the same name
        args = ["limit", "--kernel", "huber:1.345", "--D", "0.4", "--reps",
                "100", "--grid-size", "8"]
        assert cli.main(args) == 0
        first = json.loads(capsys.readouterr().out)["quantiles"]["values"]
        exact = ustat.odd_score_coeff_closed_form
        monkeypatch.setattr(ustat, "odd_score_coeff_closed_form",
                            lambda score, k, l: 2.0 * exact(score, k, l))
        calls = self.spy_limit_thm1(monkeypatch)
        assert cli.main(args) == 0
        assert calls == [1]
        second = json.loads(capsys.readouterr().out)["quantiles"]["values"]
        assert second == pytest.approx([2.0 * v for v in first], rel=1e-12)
        assert len(list(isolated_cache.glob("cv_*.json"))) == 2

    def test_kernels_with_one_diagonal_share_a_table(self, isolated_cache,
                                                     capsys, monkeypatch):
        # a10 = 1, a01 = -1 for both
        calls = self.spy_limit_thm1(monkeypatch)
        for spec in ("cusum", "huber:1e300"):
            assert cli.main(["limit", "--kernel", spec, "--D", "0.4",
                             "--reps", "100", "--grid-size", "8"]) == 0
        assert calls == [1]
        assert len(list(isolated_cache.glob("cv_*.json"))) == 1

    def test_failed_cache_write_leaves_no_temp_file(self, isolated_cache,
                                                    capsys, monkeypatch):
        def refuse(result):
            raise FloatingPointError("numeric failure")

        monkeypatch.setattr(cli, "to_json", refuse)
        assert cli.main(self.ARGS) == 1
        assert list(isolated_cache.iterdir()) == []
        assert capsys.readouterr().out == ""

    def test_sidecar_records_parsed_levels(self, tmp_path, capsys):
        out = tmp_path / "cv.json"
        assert cli.main(self.ARGS + ["-o", str(out)]) == 0
        sidecar = json.loads((tmp_path / "cv.json.json").read_text())
        assert sidecar["levels"] == [0.8, 0.9, 0.95]
        assert sidecar["stream_version"] == lrd_sim.STREAM_VERSION

    def test_no_cache_flag(self, isolated_cache, capsys):
        assert cli.main(self.ARGS + ["--no-cache"]) == 0
        assert list(isolated_cache.glob("cv_*.json")) == []

    @pytest.mark.parametrize("setting", [None, ""], ids=["unset", "empty"])
    def test_default_cache_dir_is_under_home(self, setting, tmp_path,
                                              monkeypatch, capsys):
        if setting is None:
            monkeypatch.delenv(cli.CACHE_ENV)
        else:
            monkeypatch.setenv(cli.CACHE_ENV, setting)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert cli.main(self.ARGS) == 0
        cache = tmp_path / "home" / ".cache" / "lrdustat"
        assert [p.name[:3] for p in cache.iterdir()] == ["cv_"]


class TestUnusableCache:
    """A cache that cannot be read or written costs the cache, not the
    result: the output is a --no-cache run's."""

    @staticmethod
    def argv(command, tmp_path):
        if command == "limit":
            return ["limit", "--kernel", "wilcoxon", "--D", "0.4", "--reps",
                    "100", "--grid-size", "8"]
        path = tmp_path / "data.csv"
        lrd_sim.write_path_csv(lrd_sim.simulate_gaussian(
            lrd_sim.LrdParams(D=0.4), 200, seed=1), path)
        return ["detect", "--input", str(path), "--D", "0.4", "--reps",
                "100", "--grid-size", "8"]

    def uncached_output(self, argv, capsys):
        assert cli.main(argv + ["--no-cache"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", ["limit", "detect"])
    def test_cache_dir_under_a_regular_file(self, command, tmp_path, capsys,
                                            monkeypatch):
        argv = self.argv(command, tmp_path)
        expected = self.uncached_output(argv, capsys)
        (tmp_path / "file").write_text("")
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "file" / "cache"))
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err.startswith(
            "warning: critical-value table not cached: [Errno 20]")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["limit", "detect"])
    def test_unreadable_cache_file_is_a_miss(self, command, tmp_path, capsys,
                                             isolated_cache, monkeypatch):
        argv = self.argv(command, tmp_path)
        expected = self.uncached_output(argv, capsys)
        assert cli.main(argv) == 0  # fills the cache
        capsys.readouterr()
        read_text = Path.read_text

        def refuse(path, *args, **kwargs):
            if path.name.startswith("cv_"):
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refuse)
        calls = TestLimit.spy_limit_thm1(monkeypatch)
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")
        assert calls == [1]
        assert len(list(isolated_cache.glob("cv_*.json"))) == 1

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys,
                                               isolated_cache, monkeypatch):
        argv = self.argv("limit", tmp_path)
        expected = self.uncached_output(argv, capsys)

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ("warning: critical-value table not cached: "
                                "[Errno 28] No space left on device\n")
        assert list(isolated_cache.iterdir()) == []


class TestDetect:
    def _write_data(self, tmp_path, shift):
        from lrdustat.lrd_sim import LrdParams, simulate_gaussian

        data = simulate_gaussian(LrdParams(D=0.4), 400, seed=2).copy()
        data[200:] += shift
        out = tmp_path / "data.csv"
        lrd_sim.write_path_csv(data, out)
        return out

    def _run(self, tmp_path, extra, capsys):
        rc = cli.main(["detect", "--input", str(tmp_path / "data.csv"),
                       "--D", "0.4", "--reps", "200", "--grid-size", "32",
                       "--levels", "0.95"] + extra)
        out = capsys.readouterr().out
        return rc, (json.loads(out) if rc == 0 else None)

    def test_shift_rejected(self, tmp_path, capsys):
        self._write_data(tmp_path, 3.0)
        out = tmp_path / "report.json"
        rc, report = self._run(tmp_path, ["-o", str(out)], capsys)
        assert rc == 0
        assert report["levels"]["0.95"]["reject"] is True
        assert abs(report["k_star_fraction"] - 0.5) < 0.15
        assert json.loads(out.read_text()) == report
        sidecar = json.loads((tmp_path / "report.json.json").read_text())
        assert sidecar["levels"] == [0.95]
        assert sidecar["kernel"] == "wilcoxon"
        assert sidecar["stream_version"] == lrd_sim.STREAM_VERSION

    def test_reports_law_and_error_bars(self, tmp_path, capsys):
        self._write_data(tmp_path, 0.0)
        rc, report = self._run(tmp_path, ["--kernel", "gaussian_bump",
                                          "--levels", "0.5,0.95"], capsys)
        assert rc == 0
        law = report["law"]
        assert (law["process"], law["m"], law["D"], law["N_aux"]) == \
            ("thm1_functional", 2, 0.4, 256)
        assert 0.0 < law["b"] < law["a"] < 1.0 < law["g1_N"]
        assert report["warnings"] == []
        for row in report["levels"].values():
            lo, hi = row["interval"]
            assert lo <= row["critical_value"] <= hi
        rc, report = self._run(tmp_path, [], capsys)  # wilcoxon, rank 1
        assert report["law"]["N_aux"] is None  # no auxiliary path
        assert not {"a", "b", "g1_N"} & set(report["law"])

    def test_reports_p_value(self, tmp_path, isolated_cache, capsys):
        # (1 + #{sup >= statistic}) / (reps + 1) over the table's sup
        # sample; a planted shift lies above every sup
        for shift in (0.0, 3.0):
            self._write_data(tmp_path, shift)
            rc, report = self._run(tmp_path, [], capsys)
            assert rc == 0
            (cached,) = isolated_cache.glob("cv_*.json")
            sups = np.array(json.loads(cached.read_text())["sups"])
            assert report["p_value"] == \
                (1 + np.sum(sups >= report["statistic"])) / 201
            assert 1 / 201 <= report["p_value"] <= 1.0
        assert report["p_value"] == 1 / 201

    def test_coarsest_grid_has_positive_critical_values(self, tmp_path,
                                                         capsys):
        # at G = 2 each sup is |path(1/2)|, the one grid point where a limit
        # functional is not 0, so no level rejects every null series
        self._write_data(tmp_path, 0.0)
        rc, report = self._run(tmp_path, ["--grid-size", "2", "--levels",
                                          "0.5,0.95"], capsys)
        assert rc == 0
        assert all(row["critical_value"] > 0.0
                   for row in report["levels"].values())
        assert report["p_value"] > 1 / 201

    def test_families_share_one_limit_table(self, tmp_path, isolated_cache,
                                            capsys, monkeypatch):
        # the limit law depends on D and the rank-m diagonal only
        self._write_data(tmp_path, 0.0)
        assert self._run(tmp_path, ["--family", "fgn"], capsys)[0] == 0
        calls = []
        real = limit_law.limit_thm1
        monkeypatch.setattr(limit_law, "limit_thm1",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        assert self._run(tmp_path, ["--family", "tweaked"], capsys)[0] == 0
        assert calls == []  # a hit: the fgn run's table was served
        assert len(list(isolated_cache.glob("cv_*.json"))) == 1

    def test_empty_levels_exit_2(self, tmp_path, capsys):
        # on a readable input, so only the missing level can stop the run
        self._write_data(tmp_path, 0.0)
        with pytest.raises(SystemExit) as exc:
            self._run(tmp_path, ["--levels", ""], capsys)
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        ["--D", "1.5"],
        ["--D", "0.6", "--kernel", "gaussian_bump"],  # m D = 1.2
        ["--D", "0.4", "--kernel", "huber:abc"],
    ], ids=["D-out-of-range", "regime", "bad-kernel-param"])
    def test_rejected_before_the_input_is_read(self, tmp_path, capsys,
                                               monkeypatch, extra):
        self._write_data(tmp_path, 0.0)
        calls = []
        for module, name in ((lrd_sim, "read_path"), (ustat, "ustat_fast")):
            monkeypatch.setattr(module, name,
                                lambda *a, name=name: calls.append(name))
        rc = cli.main(["detect", "--input", str(tmp_path / "data.csv")]
                      + extra)
        assert rc == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_single_observation_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        lrd_sim.write_path_csv(np.array([1.0]), out)
        rc = cli.main(["detect", "--input", str(out), "--D", "0.4"])
        assert rc == 2

    def test_missing_file_is_config_error(self, tmp_path):
        rc = cli.main(["detect", "--input", str(tmp_path / "absent.csv"),
                       "--D", "0.4"])
        assert rc == 2

    @pytest.mark.parametrize("content, extra", [
        (b"value\n1.0\n\n2.0\n", []),                # blank row
        (b"value\n1.0\nabc\n2.0\n", []),             # non-numeric row
        (lrd_sim.PATH_MAGIC + b"\x05\x00", []),        # short binary header
        (b"value\n1.0\n2.0\n3.0\n", ["--kernel", "huber:abc"]),
        (lrd_sim.PATH_MAGIC + struct.pack("<q", -1) + bytes(16), []),
        (lrd_sim.PATH_MAGIC + struct.pack("<q", 2 ** 62) + bytes(16), []),
        (lrd_sim.PATH_MAGIC + struct.pack("<q", 1) + bytes(9), []),
        (b"value\n1.0\n#c\n2.0\n", []),             # comment row
        (b"value\n1.0\n\xff\xfe2.0\n", []),         # not UTF-8
        (np.random.default_rng(0).bytes(300), []),
    ], ids=["blank-row", "non-numeric", "short-header", "bad-kernel-param",
            "negative-count", "oversized-count", "trailing-byte",
            "comment-row", "non-utf8", "random-bytes"])
    def test_malformed_input_is_config_error(self, tmp_path, capsys,
                                             content, extra):
        (tmp_path / "data.csv").write_bytes(content)
        rc, _ = self._run(tmp_path, extra, capsys)
        assert rc == 2
        assert "internal error" not in capsys.readouterr().err

    def test_gaussian_bump_statistic_uses_rank_two(self, tmp_path, capsys):
        # direct formula: max_k |U(k) - k(n-k) a00| / (n d'_n) with the
        # bump's Hermite rank m = 2 and mean a00 = 0
        data = lrd_sim.read_path_csv(self._write_data(tmp_path, 1.0))
        rc, report = self._run(tmp_path, ["--kernel", "gaussian_bump"], capsys)
        assert rc == 0
        n = data.size
        sc = scaling(0.4, 2, n,
                     lrd_sim.asymptotic_L(lrd_sim.LrdParams(D=0.4), n))
        u = ustat_naive(data, gaussian_bump_kernel())
        path = np.abs(u) / (n * sc.d_n_prime)
        assert report["statistic"] == pytest.approx(np.max(path), rel=1e-12)
        assert report["k_star"] == int(np.argmax(path)) + 1

    def test_huber_with_huge_c_is_cusum(self, tmp_path, capsys):
        # psi(t) = t on every difference: the Huber path is the CUSUM one
        assert cli.main(["simulate", "--D", "0.4", "--n", "300", "--seed",
                         "1", "-o", str(tmp_path / "data.csv")]) == 0
        stats = []
        for kernel in ("cusum", "huber:1e300"):
            rc, report = self._run(tmp_path, ["--kernel", kernel], capsys)
            assert rc == 0
            stats.append(report["statistic"])
        assert stats[1] == pytest.approx(stats[0], rel=1e-9)

    def test_small_tukey_scale_runs(self, tmp_path, capsys):
        # tukey:0.13 has rank 1 although its a50 cancels
        self._write_data(tmp_path, 1.0)
        rc, report = self._run(tmp_path, ["--kernel", "tukey:0.13"], capsys)
        assert rc == 0
        assert report["law"]["m"] == 1

    def test_non_finite_statistic_exits_1(self, tmp_path, capsys):
        # the CUSUM path of a series near the float64 limit overflows
        data = tmp_path / "data.csv"
        assert cli.main(["simulate", "--D", "0.4", "--n", "300", "--seed",
                         "1", "-o", str(data)]) == 0
        lrd_sim.write_path_csv(lrd_sim.read_path_csv(data) * 1e306, data)
        out = tmp_path / "report.json"
        rc = cli.main(["detect", "--input", str(data), "--D", "0.4",
                       "--kernel", "cusum", "--reps", "100", "--grid-size",
                       "8", "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "NaN or an infinity" in captured.err
        assert "internal error" not in captured.err
        assert not out.exists()

    def test_score_scale_overflow_exits_2(self, tmp_path, capsys):
        # (x - M) / c overflows float64 for Huber's c = 1 on this series
        data = tmp_path / "data.csv"
        data.write_text("value\n1e308\n-1e308\n1e308\n")
        rc = cli.main(["detect", "--input", str(data), "--D", "0.4",
                       "--kernel", "huber:1", "--reps", "100"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.splitlines() == [
            "error: the data's spread over the score's scale c = 1.0 "
            "overflows float64"]

    def test_binary_input(self, tmp_path, capsys):
        from lrdustat.lrd_sim import LrdParams, simulate_gaussian

        data = simulate_gaussian(LrdParams(D=0.4), 300, seed=4)
        out = tmp_path / "data.csv"  # read_path sniffs the magic, not the name
        lrd_sim.write_path_binary(data, out)
        rc, report = self._run(tmp_path, [], capsys)
        assert rc == 0
        assert report["n"] == 300


# valid options of each experiment; a rejected one goes in front, so that
# an abbreviation such as `--k` for `--kernel` would be overridden
VARIANCE = ["--D", "0.4", "--n", "8", "--reps", "0"]
REDUCTION = ["--kernel", "cusum", "--D", "0.4", "--n", "64", "--reps", "3"]
WEAK = ["--kernel", "wilcoxon", "--D", "0.4", "--n", "200", "--reps", "5",
        "--limit-reps", "100", "--grid-size", "8"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--D", "0.4", "--n", "64", "--reps", "5", "-o", "x.csv"],
    ["simulate", "--D", "0.4", "--n", "64", "--levels", "nonsense",
     "-o", "x.csv"],
    ["simulate", "--D", "0.4", "--n", "1", "-o", "x.csv"],
    ["coeffs", "--kernel", "cusum", "--reps", "5"],
    ["coeffs", "--kernel", "cusum", "--levels", "0.9"],
    ["coeffs", "--kernel", "cusum", "--quad-order", "1"],
    ["coeffs", "--kernel", "cusum", "--Q", "-2"],
    ["coeffs", "--kernel", "wilcoxon", "--Q", "400"],
    ["coeffs", "--kernel", "gaussian_bump", "--Q", "326"],
    ["coeffs", "--kernel", "huber:1.345", "--Q", "345"],
    ["coeffs", "--kernel", "tukey:4.685", "--Q", "343"],
    ["coeffs", "--kernel", "cusum", "--pairs", "0", "--seed", "5"],
    ["coeffs", "--kernel", "cusum", "--source", "quadrature", "--seed", "5"],
    ["coeffs", "--kernel", "wilcoxon", "--source", "montecarlo",
     "--pairs", "0"],
    ["coeffs", "--kernel", "wilcoxon", "--source", "montecarlo",
     "--pairs", "-3"],
    ["coeffs", "--kernel", "wilcoxon", "--source", "montecarlo",
     "--Q", "340", "--pairs", "1000"],
    ["verify", "variance", "--levels", "0.9", *VARIANCE],
    ["verify", "variance", "--kernel", "nope", *VARIANCE],
    ["verify", "variance", "--limit-reps", "3", *VARIANCE],
    ["verify", "variance", "--grid-size", "1", *VARIANCE],
    ["verify", "reduction", "--k", "2", *REDUCTION],
    ["verify", "reduction", "--limit-reps", "3", *REDUCTION],
    ["verify", "reduction", "--grid-size", "1", *REDUCTION],
    ["verify", "weak", "--k", "2", *WEAK],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--family", "bogus"],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--levels", "0.9,x"],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--levels", ","],
    ["detect", "--input", "x.csv", "--D", "0.4", "--levels", "abc"],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--levels", "1.5"],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--levels", "0.9,nan"],
    ["detect", "--input", "x.csv", "--D", "0.4", "--levels", "0,0.9"],
    ["detect", "--input", "x.csv", "--D", "0.4", "--levels", "0.9,1"],
    ["detect", "--input", "x.csv", "--D", "0.4", "--levels", "-0.1"],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--grid-size", "-3"],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--grid-size", "0"],
    ["detect", "--input", "x.csv", "--D", "0.4", "--grid-size", "0"],
    ["verify", "weak", "--grid-size", "0", *WEAK],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--grid-size", "1"],
    ["detect", "--input", "x.csv", "--D", "0.4", "--grid-size", "1"],
    ["verify", "weak", "--grid-size", "1", *WEAK],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--reps", "-5"],
    ["detect", "--input", "x.csv", "--D", "0.4", "--reps", "-5"],
    ["limit", "--kernel", "cusum", "--D", "0.4", "--reps", "50"],
    ["detect", "--input", "x.csv", "--D", "0.4", "--reps", "99"],
    ["verify", "weak", "--limit-reps", "-1", *WEAK],
    ["verify", "weak", "--limit-reps", "0", *WEAK],
    ["verify", "reduction", "--reps", "0", *REDUCTION],
    ["verify", "reduction", "--reps", "1", *REDUCTION],
    ["verify", "weak", "--reps", "0", *WEAK],
    ["verify", "variance", "--n", "0", *VARIANCE],
    ["verify", "reduction", "--n", "1", *REDUCTION],
    ["verify", "weak", "--n", "1", *WEAK],
    ["detect", "--input", "x.csv", "--D", "0.4", "--family", "bogus"],
    ["verify", "weak", "--family", "bogus", *WEAK],
    ["verify", "variance", "--k", "0", *VARIANCE],
    ["verify", "variance", "--k", "171", *VARIANCE],
    ["detect", "--input", "x.csv"],
], ids=["simulate-reps", "simulate-levels", "simulate-n-1", "coeffs-reps",
        "coeffs-levels", "coeffs-quad-order", "coeffs-negative-Q",
        "coeffs-wilcoxon-Q-400", "coeffs-bump-Q-326", "coeffs-huber-Q-345",
        "coeffs-tukey-Q-343",
        "coeffs-pairs-seed-closed-form",
        "coeffs-seed-quadrature", "coeffs-montecarlo-zero-pairs",
        "coeffs-montecarlo-negative-pairs", "coeffs-montecarlo-overflow",
        "verify-levels",
        "verify-variance-kernel", "verify-variance-limit-reps",
        "verify-variance-grid-size", "verify-reduction-k",
        "verify-reduction-limit-reps", "verify-reduction-grid-size",
        "verify-weak-k", "limit-bad-family", "limit-bad-levels",
        "limit-no-levels", "detect-bad-levels", "limit-level-above-1",
        "limit-level-nan", "detect-level-0", "detect-level-1",
        "detect-level-negative", "limit-grid-size-negative",
        "limit-grid-size-0", "detect-grid-size-0", "verify-weak-grid-size-0",
        "limit-grid-size-1", "detect-grid-size-1", "verify-weak-grid-size-1",
        "limit-reps-negative", "detect-reps-negative", "limit-reps-50",
        "detect-reps-99", "verify-weak-limit-reps-negative",
        "verify-weak-limit-reps-0", "verify-reduction-reps-0",
        "verify-reduction-reps-1",
        "verify-weak-reps-0", "verify-variance-n-0",
        "verify-reduction-n-1", "verify-weak-n-1", "detect-bad-family",
        "verify-weak-bad-family", "verify-variance-k-0",
        "verify-variance-k-171", "detect-missing-D"])
def test_unknown_option_or_bad_value_exits_2(argv, tmp_path, monkeypatch,
                                              capsys):
    # argparse exits 2 through SystemExit; a ParameterError returns 2.
    # Either way no limit law is simulated first.  `detect` reads a stub
    # sample, so its rows fail on the option and not on the absent x.csv.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(lrd_sim, "read_path",
                        lambda path: np.linspace(0.0, 1.0, 50))

    def no_simulation(*args, **kwargs):
        raise AssertionError("limit_thm1 called")

    monkeypatch.setattr(limit_law, "limit_thm1", no_simulation)
    monkeypatch.setattr(verify, "limit_thm1", no_simulation)
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal error" not in err
    # a value below an option's floor is named with the option
    for option, floor in (("--grid-size", 2), ("--k", 1)):
        if option in argv and int(argv[argv.index(option) + 1]) < floor:
            assert option in err
    # and so is a missing required option
    if argv[0] == "detect" and "--D" not in argv:
        assert "--D" in err
    assert list(tmp_path.iterdir()) == []


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["coeffs", "--kernel", "wilcoxon", "--Q", "3"],
    TestLimit.ARGS,
    ["detect", "--input", "data.csv", "--D", "0.4", "--reps", "100",
     "--grid-size", "8"],
    ["verify", "variance", *VARIANCE],
    ["verify", "reduction", *REDUCTION],
    ["verify", "weak", *WEAK],
], ids=["coeffs", "limit", "detect", "verify-variance", "verify-reduction",
        "verify-weak"])
def test_result_is_strict_json_and_out_file_holds_its_bytes(argv, tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # every command prints one strict JSON result; -o writes the same bytes
    monkeypatch.chdir(tmp_path)
    lrd_sim.write_path_csv(np.linspace(-1.0, 1.0, 50) ** 3, "data.csv")
    assert cli.main(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert cli.main([*argv, "-o", "result.json"]) == 0
    printed = capsys.readouterr().out
    json.loads(printed, parse_constant=_reject_constant)
    assert (tmp_path / "result.json").read_text() == printed


def _leaf_options(parser, path=()):
    """{command path: sorted long option names} for each leaf (sub)command."""
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {" ".join(path): sorted(max(a.option_strings, key=len)
                                       for a in parser._actions
                                       if a.option_strings and a.dest != "help")}
    return {leaf: opts for a in subparsers
            for name, child in a.choices.items()
            for leaf, opts in _leaf_options(child, path + (name,)).items()}


def test_option_contract():
    # every option here is read by its command, except `limit --family`
    # (kept for bench/make_reference.py); a new option must be added here
    assert _leaf_options(cli.build_parser()) == {
        "simulate": ["--D", "--binary", "--family", "--n", "--out", "--seed",
                     "--transform"],
        "coeffs": ["--Q", "--kernel", "--out", "--pairs", "--seed",
                   "--source"],
        "limit": ["--D", "--family", "--grid-size", "--kernel", "--levels",
                  "--no-cache", "--out", "--reps", "--seed"],
        "detect": ["--D", "--family", "--grid-size", "--input", "--kernel",
                   "--levels", "--no-cache", "--out", "--reps", "--seed"],
        "verify variance": ["--D", "--family", "--k", "--n", "--out",
                            "--reps", "--seed"],
        "verify reduction": ["--D", "--family", "--kernel", "--n", "--out",
                             "--reps", "--seed"],
        "verify weak": ["--D", "--family", "--grid-size", "--kernel",
                        "--limit-reps", "--n", "--out", "--reps", "--seed"],
    }


def test_make_reference_argv_parses(tmp_path, monkeypatch):
    # bench/make_reference.py rebuilds bench/reference.json through
    # `lrdustat limit`; every argv it builds must parse with this parser
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "bench" / "make_reference.py"
    spec = importlib.util.spec_from_file_location("make_reference", path)
    make_reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_reference)
    parsed = []

    def fake_run(argv, **kwargs):
        assert argv[1:3] == ["-m", "lrdustat.cli"]
        args = cli.build_parser().parse_args(argv[3:])
        parsed.append(args)
        table = {"quantiles": {"levels": args.levels,
                               "values": [0.0] * len(args.levels)}}
        return subprocess.CompletedProcess(argv, 0, json.dumps(table), "")

    monkeypatch.setattr(make_reference.subprocess, "run", fake_run)
    monkeypatch.setattr(make_reference, "OUT", tmp_path / "reference.json")
    assert make_reference.main() == 0
    assert [a.kernel for a in parsed] == make_reference.KERNELS
    for args in parsed:
        assert args.func is cli.cmd_limit
        assert args.family == make_reference.FAMILY
        assert args.reps == make_reference.REPS
        assert args.levels == make_reference.LEVELS


# each command with its required options; a shared option's fragment goes
# after them, so that it overrides a value they set
COMMAND_ARGV = {
    "simulate": ["simulate", "--D", "0.4", "--n", "64", "-o", "x.csv"],
    "coeffs": ["coeffs", "--kernel", "cusum"],
    "limit": ["limit", "--kernel", "cusum", "--D", "0.4"],
    "detect": ["detect", "--input", "x.csv", "--D", "0.4"],
    "verify variance": ["verify", "variance", *VARIANCE],
    "verify reduction": ["verify", "reduction", *REDUCTION],
    "verify weak": ["verify", "weak", *WEAK],
}

# option: (fragment, its parsed value, a fragment argparse rejects)
SHARED_OPTIONS = {
    "--seed": (["--seed", "7"], 7, ["--seed", "x"]),
    "--D": (["--D", "0.3"], 0.3, ["--D", "x"]),
    "--family": (["--family", "tweaked"], "tweaked", ["--family", "bogus"]),
    "--grid-size": (["--grid-size", "16"], 16, ["--grid-size", "1"]),
    "--levels": (["--levels", "0.95,0.9"], [0.95, 0.9], ["--levels", "1.5"]),
    "--no-cache": (["--no-cache"], True, ["--no-cache=yes"]),
    "--out": (["-o", "r.json"], "r.json", ["-o"]),
    # the critical-value table's floor; each verify experiment has its own
    "--reps": (["--reps", "250"], 250, ["--reps", "99"]),
}


@pytest.mark.parametrize("option", list(SHARED_OPTIONS))
def test_shared_option_parses_alike_in_every_command(option, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a command that wrongly runs writes here
    fragment, value, bad = SHARED_OPTIONS[option]
    if option == "--reps":
        commands = ["limit", "detect"]
    else:
        commands = [c for c, options in
                    _leaf_options(cli.build_parser()).items()
                    if option in options]
    assert len(commands) >= 2
    dest = option.lstrip("-").replace("-", "_")
    for command in commands:
        args = cli.build_parser().parse_args(COMMAND_ARGV[command] + fragment)
        assert getattr(args, dest) == value, command
        with pytest.raises(SystemExit) as exc:
            cli.main(COMMAND_ARGV[command] + bad)
        assert exc.value.code == 2, command
        assert f"argument {bad[0].split('=')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(COMMAND_ARGV))
def test_negative_seed_exits_2_at_parse_time(command, tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    assert "--seed" in _leaf_options(cli.build_parser())[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(COMMAND_ARGV[command] + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


LIMIT_SMALL = ["limit", "--kernel", "wilcoxon", "--D", "0.4", "--reps", "100",
               "--grid-size", "8"]


@pytest.mark.parametrize("argv", [
    [*LIMIT_SMALL, "--seed", str(2 ** 64)],
    ["verify", "weak", *WEAK, "--seed", str(2 ** 64 - 1)],
], ids=["limit-seed-2^64", "verify-weak-seed-2^64-1"])
def test_seed_beyond_the_key_exits_2(argv, tmp_path, monkeypatch, capsys):
    # 2^64 would draw seed 0's stream; verify weak draws its limit law
    # from seed + 1
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "-o", "result.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: seed and rep must be in [0, 2^64)")
    assert list(tmp_path.iterdir()) == []


def test_largest_seed_runs(tmp_path):
    out = tmp_path / "limit.json"
    assert cli.main([*LIMIT_SMALL, "--seed", str(2 ** 64 - 1),
                     "-o", str(out)]) == 0
    assert np.all(np.isfinite(
        json.loads(out.read_text())["quantiles"]["values"]))
    sidecar = json.loads((tmp_path / "limit.json.json").read_text())
    assert sidecar["seed"] == 2 ** 64 - 1


class TestVerify:
    def test_variance_exact_value_printed(self, capsys):
        rc = cli.main(["verify", "variance", "--k", "1", "--D", "0.5",
                       "--family", "tweaked", "--n", "3", "--reps", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_n"]["3"]["exact_var"] == pytest.approx(6.98313,
                                                                  abs=5e-6)
        assert "passed" not in report

    @pytest.mark.parametrize("argv", [
        ["--n", "2"],
        ["--n", "30", "--reps", "0"],
    ], ids=["monte-carlo-var", "exact-var"])
    def test_variance_overflow_exits_1_without_numpy_warnings(self, argv,
                                                              capsys):
        # at degree 170 np.var of the sums and k! * sum gamma^k overflow
        rc = cli.main(["verify", "variance", "--k", "170", "--D", "0.4",
                       *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == ("error: numeric failure: the result holds "
                                "NaN or an infinity\n")

    @pytest.mark.parametrize("ns", [["1"], ["1000", "1"]],
                             ids=["n-1", "n-1000-then-1"])
    def test_variance_cross_check_rejects_n_1_first(self, ns, capsys,
                                                     monkeypatch):
        # a Monte Carlo draw needs n >= 2: checked before any row is computed
        def no_work(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(verify, "hermite_sum_std", no_work)
        argv = [arg for n in ns for arg in ("--n", n)]
        rc = cli.main(["verify", "variance", "--D", "0.4", *argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--n" in err and "Monte Carlo cross-check" in err

    def test_variance_at_dk_1_exits_2(self, capsys, monkeypatch):
        # Var grows like n log n at D k = 1: neither branch's asymptote
        def no_work(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(verify, "hermite_sum_std", no_work)
        rc = cli.main(["verify", "variance", "--D", "0.5", "--k", "2",
                       "--n", "100", "--n", "10000"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "D*k = 1" in captured.err

    def test_variance_two_term_asymptote(self, capsys):
        # the leading term misses the term linear in n near D k = 1
        rc = cli.main(["verify", "variance", "--D", "0.49", "--k", "2",
                       "--n", "1000", "--reps", "0"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)["per_n"]["1000"]
        assert row["ratio"] == pytest.approx(0.186, abs=5e-4)
        assert row["two_term_ratio"] == pytest.approx(1.0, abs=1e-3)

    def test_variance_two_term_asymptote_is_null_at_dk_2(self, capsys):
        rc = cli.main(["verify", "variance", "--D", "0.5", "--k", "4",
                       "--n", "100", "--reps", "0"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)["per_n"]["100"]
        assert row["two_term_asymptote"] is None
        assert row["two_term_ratio"] is None

    def test_variance_exact_only_takes_n_1(self, capsys):
        rc = cli.main(["verify", "variance", "--D", "0.4", "--n", "1",
                       "--reps", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["per_n"]["1"]["ratio"] \
            == pytest.approx(1.0)

    def test_reduction_runs(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "reduction", "--kernel", "cusum",
                       "--D", "0.4", "--n", "64", "--reps", "3",
                       "-o", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["name"] == "reduction_principle"
        sidecar = json.loads((tmp_path / "report.json.json").read_text())
        assert sidecar["experiment"] == "reduction"
        assert sidecar["n"] == [64]
        assert not {"k", "limit_reps", "grid_size"} & set(sidecar)

    def test_weak_runs(self, capsys):
        rc = cli.main(["verify", "weak", "--kernel", "cusum", "--D", "0.4",
                       "--n", "128", "--reps", "30", "--limit-reps", "100",
                       "--grid-size", "16"])
        assert rc == 0
        assert "ks_distance" in capsys.readouterr().out

    def test_weak_prints_the_library_result(self, capsys):
        # the CLI adds only the timing, as the last key
        rc = cli.main(["verify", "weak", "--kernel", "wilcoxon", "--D", "0.4",
                       "--family", "tweaked", "--n", "200", "--reps", "20",
                       "--limit-reps", "30", "--grid-size", "16",
                       "--seed", "4"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert list(printed)[-1] == "wall_clock"
        del printed["wall_clock"]
        report = verify.check_weak_convergence(
            wilcoxon_kernel(), lrd_sim.LrdParams(D=0.4, family="tweaked"),
            200, 20, 30, 16, seed=4)
        assert cli.to_json(printed) == cli.to_json(report)


# Run in a fresh interpreter: importing the package and the CLI loads
# neither numpy nor hashlib's OpenSSL (about 0.15 s per process); no CLI
# path, simulate --transform exp included, and not the empirical-process
# route (class_coeffs, limit_thm2) imports scipy (about a second per
# process).  statistics (3 ms) is loaded by the exp transform's inverse
# alone, which class_coeffs reads.  simulate, coeffs, limit and detect
# never import lrdustat.verify.
# numpy.ma (15 ms, pulled in by np.quantile) stays out of every CLI stage,
# and numpy.polynomial (4 ms, the Gauss-Hermite rule's) out of every stage
# before limit_thm2: each built-in kernel has closed-form coefficients.
IMPORT_BUDGET_SCRIPT = textwrap.dedent("""
    import json, sys
    import lrdustat, lrdustat.cli as cli

    def watched_modules():
        return {"scipy": sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy"),
                **{m: m in sys.modules
                   for m in ("numpy", "_hashlib", "lrdustat.verify",
                             "numpy.ma", "numpy.polynomial", "statistics")}}

    seen = {"import": watched_modules()}
    import numpy as np
    from lrdustat.hermite import class_coeffs
    from lrdustat.limit_law import limit_thm2, simulate_hermite
    from lrdustat.lrd_sim import Subordinator
    from lrdustat.ustat import cusum_kernel

    data, out = sys.argv[1], sys.argv[2]
    rc = {"simulate": cli.main(["simulate", "--D", "0.4", "--n", "400",
                                "--seed", "5", "-o", data])}
    rc["coeffs"] = cli.main(["coeffs", "--kernel", "wilcoxon", "--Q", "3"])
    seen["coeffs"] = watched_modules()
    rc["limit"] = cli.main(["limit", "--kernel", "cusum", "--D", "0.4",
                            "--reps", "100", "--grid-size", "16"])
    seen["limit"] = watched_modules()
    for kernel in ("wilcoxon", "cusum", "gaussian_bump", "huber:1.345",
                   "tukey:4.685"):
        rc[kernel] = cli.main(["detect", "--input", data, "--D", "0.4",
                               "--kernel", kernel, "--reps", "100",
                               "--grid-size", "32", "--no-cache"])
        seen[kernel] = watched_modules()
    rc["verify_weak"] = cli.main(["verify", "weak", "--kernel", "wilcoxon",
                                  "--D", "0.4", "--n", "64", "--reps", "10",
                                  "--limit-reps", "20", "--grid-size", "8"])
    seen["verify_weak"] = watched_modules()
    rc["verify_reduction"] = cli.main(["verify", "reduction", "--kernel",
                                       "gaussian_bump", "--D", "0.4",
                                       "--n", "64", "--reps", "2"])
    seen["verify_reduction"] = watched_modules()
    identity = Subordinator.identity()
    cls = class_coeffs(identity, 1, np.linspace(-8.0, 8.0, 201))
    z = simulate_hermite(1, 0.4, 16, reps=10)
    limit_thm2(cusum_kernel(), identity, cls, z)
    seen["limit_thm2"] = watched_modules()
    rc["simulate_exp"] = cli.main(["simulate", "--D", "0.4", "--n", "64",
                                   "--transform", "exp", "-o", out])
    seen["simulate_exp"] = watched_modules()
    class_coeffs(Subordinator.exp(), 3, np.linspace(-2.0, 6.0, 33))
    seen["class_coeffs_exp"] = watched_modules()
    print(json.dumps({"rc": rc, "seen": seen}))
""")


def _child_env(cache: Path) -> dict:
    """Environment for a child interpreter that imports this checkout's
    package and caches tables under ``cache``."""
    src = str(Path(lrdustat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env[cli.CACHE_ENV] = str(cache)
    return env


def test_cli_and_detect_import_no_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT,
         str(tmp_path / "data.csv"), str(tmp_path / "exp.csv")],
        capture_output=True, text=True, env=_child_env(tmp_path / "cache"),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(rc == 0 for rc in result["rc"].values()), result["rc"]
    seen = result["seen"]
    stages = ("import", "coeffs", "limit", "wilcoxon", "cusum",
              "gaussian_bump", "huber:1.345", "tukey:4.685", "verify_weak",
              "verify_reduction", "limit_thm2", "simulate_exp",
              "class_coeffs_exp")
    assert {stage: seen[stage]["scipy"] for stage in seen} == {
        stage: [] for stage in stages}
    assert not seen["import"]["numpy"] and not seen["import"]["_hashlib"]
    before_verify = stages[:stages.index("verify_weak")]
    assert not any(seen[stage]["lrdustat.verify"] for stage in before_verify)
    before_thm2 = stages[:stages.index("limit_thm2")]
    assert not any(seen[stage]["numpy.ma"] for stage in before_thm2)
    assert not any(seen[stage]["numpy.polynomial"] for stage in before_thm2)
    assert [stage for stage in stages if seen[stage]["statistics"]] == [
        "class_coeffs_exp"]


class TestProcessEntry:
    """``python -m lrdustat.cli`` ends in ``cli.run``, which flushes and
    exits without interpreter teardown: the bytes and exit codes must be
    those of ``cli.main``."""

    DETECT = ["--D", "0.4", "--reps", "100", "--grid-size", "8"]

    @staticmethod
    def _child(isolated_cache, *argv, **kwargs):
        kwargs.setdefault("capture_output", True)
        return subprocess.run([sys.executable, "-m", "lrdustat.cli", *argv],
                              env=_child_env(isolated_cache), timeout=120,
                              **kwargs)

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "data.csv"
        assert cli.main(["simulate", "--D", "0.4", "--n", "300", "--seed",
                         "1", "-o", str(path)]) == 0
        return path

    def test_piped_stdout_holds_the_result(self, data, tmp_path,
                                           isolated_cache, capsys,
                                           monkeypatch):
        # buffered, the result reaches the pipe only through run()'s flush
        monkeypatch.setenv("PYTHONUNBUFFERED", "")
        argv = ["detect", "--input", str(data), *self.DETECT]
        out = tmp_path / "report.json"
        proc = self._child(isolated_cache, *argv, "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()
        assert (tmp_path / "report.json.json").exists()
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == proc.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="no /dev/stdin")
    @pytest.mark.parametrize("binary", [False, True], ids=["csv", "binary"])
    def test_stdin_input_is_the_file(self, data, isolated_cache, capsys,
                                     binary):
        # a pipe can be read once: the format is sniffed on the bytes read
        if binary:
            lrd_sim.write_path_binary(lrd_sim.read_path_csv(data), data)
        proc = self._child(isolated_cache, "detect", "--input", "/dev/stdin",
                           *self.DETECT, input=data.read_bytes())
        assert proc.returncode == 0, proc.stderr
        assert cli.main(["detect", "--input", str(data), *self.DETECT]) == 0
        piped = json.loads(proc.stdout)
        from_file = json.loads(capsys.readouterr().out)
        assert piped.pop("input") == "/dev/stdin"
        assert from_file.pop("input") == str(data)
        assert piped == from_file

    def test_exit_codes_pass_through(self, data, tmp_path, isolated_cache):
        missing = self._child(isolated_cache, "detect", "--input",
                              str(tmp_path / "absent.csv"), *self.DETECT)
        assert missing.returncode == 2
        huge = tmp_path / "huge.csv"
        lrd_sim.write_path_csv(lrd_sim.read_path_csv(data) * 1e306, huge)
        overflow = self._child(isolated_cache, "detect", "--input", str(huge),
                               "--kernel", "cusum", *self.DETECT)
        assert (overflow.returncode, overflow.stdout) == (1, b"")
        usage = self._child(isolated_cache, "detect", "--input", str(data),
                            *self.DETECT, "--bogus")
        assert usage.returncode == 2
        assert b"unrecognized arguments" in usage.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_2(self, data, isolated_cache,
                                        monkeypatch, unbuffered):
        # buffered, the write fails at run()'s flush; unbuffered (an empty
        # PYTHONUNBUFFERED counts as unset), in main
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the result is out
        try:
            proc = self._child(isolated_cache, "detect", "--input", str(data),
                               *self.DETECT, stdout=write_end,
                               stderr=subprocess.PIPE, capture_output=False)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
