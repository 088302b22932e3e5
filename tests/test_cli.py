"""Command-line harness: exit codes, file formats, reproducibility."""

import json
import math
import os
import types

import numpy as np
import pytest

from paracalc import (GAUSS_MOLLIFIER, FieldPath, SpectralField, TorusGrid, apply_pointwise,
                      besov_norm, burgers_theta_path, dealiased_product, derivative,
                      load_field, mollify, pam_c_eps, rde_driver,
                      sample_line_path, solve_pam_regularized, spatial_white_noise,
                      trapezoid_exponential_path)
from paracalc import cli
from paracalc.cli import build_parser, main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def observed_order(out):
    """The observed order printed by `solve-pam --gauge-check`."""
    return float(out.rsplit("observed order", 1)[1])


class TestParsing:
    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve-pam"])
        assert args.n == 64 and args.alpha == 0.45 and args.lam == 1.0
        assert build_parser().parse_args(["renorm"]).n == 64

    DRIVER = ["n", "seed", "eps", "mollifier"]
    FLAGS = {
        "noise": ["kind", *DRIVER, "sigma", "horizon", "time_steps", "hurst", "embedding",
                  "support"],
        "renorm": ["n", "eps", "seeds", "mollifier"],
        "area": ["kind", *DRIVER, "sigma", "horizon", "time_steps"],
        "solve-rde": [*DRIVER, "hurst", "embedding", "support", "alpha", "lam", "u0",
                      "amplitude", "damping"],
        "solve-burgers": [*DRIVER, "sigma", "horizon", "time_steps", "alpha", "lam",
                          "amplitude", "damping"],
        "solve-pam": ["gauge_check", *DRIVER, "sigma", "horizon", "time_steps", "alpha",
                      "lam", "u0", "amplitude", "damping"],
        "study": ["equation", "n", "eps", "seeds", "mollifier", "sigma", "horizon",
                  "time_steps", "hurst", "embedding", "support", "alpha", "lam", "u0",
                  "amplitude", "damping"]}

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_each_subcommand_takes_the_flags_it_reads(self, command):
        argv = [command] + (["--equation", "pam"] if command == "study" else [])
        keys = set(vars(build_parser().parse_args(argv))) - {"command", "func"}
        assert keys == {"config", "out", *self.FLAGS[command]}

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("argv, key, value", [
        (["renorm", "--eps", "0.5"], "hurst", 0.9), (["noise"], "damping", 0.5),
        (["solve-rde"], "time_steps", 0), (["solve-burgers"], "u0", 0.5)],
        ids=["renorm-hurst", "noise-damping", "solve-rde-time-steps", "solve-burgers-u0"])
    def test_a_flag_the_subcommand_does_not_read_exits_one(self, tmp_path, capsys, via,
                                                            argv, key, value):
        out, flag = tmp_path / "o", "--" + key.replace("_", "-")
        if via == "flag":
            extra = [flag, str(value)]
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({key: value}))
            extra = ["--config", str(cfgfile)]
        assert main(argv + extra + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"unrecognized arguments: {flag}" in err if via == "flag"
                else err == f"error: unknown config key: {key}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, written", [
        (["noise", "--kind", "pam", "--n", "16", "--eps", "nan"], "noise.field"),
        (["noise", "--kind", "pam", "--n", "16", "--eps", "inf"], "noise.field"),
        (["renorm", "--n", "32", "--eps", "nan", "--seeds", "2"], "renorm.csv"),
        (["study", "--equation", "pam", "--n", "16", "--eps", "0.5", "nan", "--seeds", "1",
          "--time-steps", "4"], "study.csv"),
        (["noise", "--kind", "rde", "--eps", "0"], "noise.field"),
        (["solve-rde", "--eps", "0"], "solution.field"),
        (["study", "--equation", "rde", "--eps", "0.5", "0", "--seeds", "1"], "study.csv"),
        (["study", "--equation", "burgers", "--n", "16", "--eps", "inf", "0.5", "--seeds", "1"],
         "study.csv"),
        (["noise", "--kind", "pam", "--n", "16", "--eps", "0"], "noise.field"),
        (["area", "--kind", "pam", "--n", "16", "--eps", "0"], "area.field"),
        (["area", "--kind", "burgers", "--n", "16", "--eps", "0"], "area.field"),
        (["solve-burgers", "--n", "16", "--eps", "0"], "solution.field"),
        (["solve-pam", "--n", "16", "--eps", "0"], "solution.field"),
        (["renorm", "--n", "16", "--eps", "0", "--seeds", "2"], "renorm.csv")],
        ids=["noise-nan", "noise-inf", "renorm-nan", "study-nan", "noise-rde-zero",
             "solve-rde-zero", "study-rde-zero", "study-burgers-inf", "noise-pam-zero",
             "area-pam-zero", "area-burgers-zero", "solve-burgers-zero", "solve-pam-zero",
             "renorm-zero"])
    def test_a_nan_or_infinite_eps_exits_one(self, tmp_path, capsys, monkeypatch, argv,
                                             written):
        # eps <= 0 is false for NaN, which would run on into a NaN field;
        # 0 used to run the rough ODE's driver unmollified; a study checks
        # its whole ladder before it solves the coarser scales
        runs = []
        for name in ("_study_rde", "_study_burgers", "_study_pam"):
            monkeypatch.setattr(cli, name, lambda *a: runs.append(a))
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (out / written).exists()
        assert runs == []

    @pytest.mark.parametrize("support", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv, written", [
        (["noise", "--kind", "rde"], "noise.field"),
        (["solve-rde"], "solution.field")], ids=["noise", "solve-rde"])
    def test_a_support_not_positive_and_finite_exits_one(self, tmp_path, capsys, argv,
                                                          written, support):
        # 0 would sample an all-zero driver; -1, nan and inf used to fail
        # inside math.log2 or int() with no word of the flag
        out = tmp_path / "o"
        assert main(argv + ["--n", "64", "--support", support, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: support must be positive")
        assert not (out / written).exists()

    def test_rough_ode_default_grid(self):
        # the time-line torus is --embedding times longer, so 64 points
        # would leave a single dyadic block
        assert build_parser().parse_args(["solve-rde"]).n == 256
        assert build_parser().parse_args(["noise", "--kind", "rde"]).n == 64

    @pytest.mark.parametrize("argv", [["renorm"], ["study", "--equation", "pam"]])
    def test_missing_eps_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_config_file_overrides_flags(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 16, "seed": 3}))
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "pam", "--config", str(cfgfile),
                   "--out", str(out)])
        assert rc == 0
        f = load_field(out / "noise.field")
        assert f.grid.n == 16

    def test_unknown_config_key_exits(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"resolution": 16}))
        out = tmp_path / "o"
        rc = main(["noise", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: unknown config key")
        assert not (out / "noise.field").exists()

    def test_config_values_convert_like_flags(self, tmp_path):
        # a JSON string goes through the flag's type, as on the command line
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": "32", "eps": [0.25]}))
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "pam", "--config", str(cfgfile),
                   "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "noise.json").read_text())
        assert meta["n"] == 32 and meta["eps"] == [0.25]
        assert load_field(out / "noise.field").grid.n == 32

    @pytest.mark.parametrize("bad, message", [
        ({"seed": 1.5}, "invalid value 1.5"), ({"n": True}, "invalid value True"),
        ({"eps": 0.25}, "expected a list"), ({"mollifier": "box"}, "is not one of"),
        ([1], "expected a JSON object"), ({"gauge_check": "yes"}, "expected true or false")],
        ids=["seed-float", "n-bool", "eps-scalar", "mollifier-choice", "not-an-object",
             "store-true-string"])
    def test_bad_config_value_exits_one(self, tmp_path, capsys, bad, message):
        # solve-pam takes every key above, so each fails on its value
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(bad))
        out = tmp_path / "o"
        rc = main(["solve-pam", "--n", "16", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_a_store_true_config_key_sets_its_flag(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"gauge_check": True}))
        assert main(["solve-pam", "--n", "32", "--time-steps", "8", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 0
        assert abs(observed_order(capsys.readouterr().out) - 2.0) < 0.1

    def test_runtime_errors_exit_one(self, tmp_path):
        # 48 is not a power of two, so grid construction fails cleanly
        rc = main(["noise", "--kind", "pam", "--n", "48",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("argv", [["noise", "--n", "abc"], ["study"],
                                      ["noise", "--no-such-flag"]])
    def test_usage_errors_exit_one(self, tmp_path, argv):
        # argparse exits 2, which the CLI keeps for failed checks
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["noise", "--help"]) == 0

    @pytest.mark.parametrize("steps", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["solve-pam"], ["solve-burgers"],
        ["study", "--equation", "pam", "--eps", "0.5", "0.25", "--seeds", "1"],
        ["study", "--equation", "burgers", "--eps", "0.5", "0.25", "--seeds", "1"]],
        ids=["solve-pam", "solve-burgers", "study-pam", "study-burgers"])
    def test_non_positive_time_steps_exit_one(self, tmp_path, capsys, argv, steps):
        # they used to end in a ZeroDivisionError or IndexError traceback
        out = tmp_path / "o"
        assert main(argv + ["--n", "32", "--time-steps", steps, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # SolverConfig names M=steps; burgers_theta_path ends in ", steps"
        assert err.startswith("error:")
        assert f"M={steps}," in err or err.rstrip().endswith(f", {steps}")
        assert not (out / "solution.field").exists() and not (out / "study.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["solve-burgers"], ["study", "--equation", "burgers", "--eps", "0.5", "0.25"]],
        ids=["solve-burgers", "study-burgers"])
    def test_non_positive_horizon_exits_one(self, tmp_path, capsys, argv):
        # burgers_theta_path used to take a square root of a negative
        # variance first; the pam paths reject it through SolverConfig
        assert main(argv + ["--n", "32", "--horizon", "-1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err \
            == "error: need sigma > 1/2, T > 0 and M >= 1, got 1.0, -1.0, 64\n"


class FakeMallopt:
    """A libc function that records its arguments and returns `result`."""

    def __init__(self, result=1):
        self.calls, self.result = [], result

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


class TestHeapPolicy:
    def test_mallopt_is_called_once_per_parameter(self, monkeypatch, caplog):
        mallopt = FakeMallopt()
        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert cli._hold_heap()
        # M_MMAP_THRESHOLD = -3 at 32 MiB, M_TRIM_THRESHOLD = -1 at 256 MiB
        assert mallopt.calls == [(-3, 32 << 20), (-1, 256 << 20)]
        assert mallopt.restype is cli.ctypes.c_int
        assert not caplog.records

    def test_a_failed_mallopt_is_reported(self, monkeypatch, caplog):
        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=FakeMallopt(0)))
        assert not cli._hold_heap()
        assert [r.getMessage() for r in caplog.records] \
            == ["mallopt(-3, 33554432) failed", "mallopt(-1, 268435456) failed"]

    def test_main_runs_without_mallopt(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        out = tmp_path / "o"
        assert main(["noise", "--kind", "pam", "--n", "16", "--out", str(out)]) == 0
        assert (out / "noise.field").exists() and not caplog.records


class TestNoise:
    def test_pam_snapshot_roundtrip(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "pam", "--n", "32", "--seed", "7",
                   "--eps", "0.25", "--out", str(out)])
        assert rc == 0
        f = load_field(out / "noise.field")
        ref = mollify(spatial_white_noise(TorusGrid(2, 32), 7), 0.25,
                      GAUSS_MOLLIFIER)
        assert np.array_equal(f.coeffs, ref.coeffs)
        meta = json.loads((out / "noise.json").read_text())
        assert meta["seed"] == 7 and meta["kind"] == "pam"

    def test_metadata_does_not_name_its_paths(self, tmp_path):
        # one run, its config file and output in two differently named
        # directories, gives the same noise.json bytes
        blobs = []
        for name in ("a", "other"):
            cfgfile = tmp_path / f"{name}.json"
            cfgfile.write_text(json.dumps({"seed": 7}))
            out = tmp_path / name
            rc = main(["noise", "--kind", "pam", "--n", "32", "--config", str(cfgfile),
                       "--out", str(out)])
            assert rc == 0
            blobs.append((out / "noise.json").read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["seed"] == 7

    def test_burgers_noise_is_a_path(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "burgers", "--n", "32", "--sigma", "0.9",
                   "--time-steps", "8", "--out", str(out)])
        assert rc == 0
        p = load_field(out / "noise.field")
        assert len(p.times) == 9
        assert p[0].sup_norm() == 0.0

    def test_burgers_noise_honours_eps(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "burgers", "--n", "32", "--sigma", "0.9",
                   "--time-steps", "8", "--seed", "2", "--eps", "0.25", "--out", str(out)])
        assert rc == 0
        ref = mollify(burgers_theta_path(TorusGrid(1, 32), 0.9, 0.25, 8, 1, 2), 0.25,
                      GAUSS_MOLLIFIER)
        assert np.array_equal(load_field(out / "noise.field").coeff_array(),
                              ref.coeff_array())

    @pytest.mark.parametrize("extra, support, eps", [([], 2.0, None),
                                                     (["--support", "1.5", "--eps", "0.1"],
                                                      1.5, 0.1)])
    def test_rde_noise_honours_support_and_eps(self, tmp_path, extra, support, eps):
        out = tmp_path / "o"
        assert main(["noise", "--kind", "rde", "--seed", "4", "--out", str(out)] + extra) == 0
        grid = TorusGrid(1, 64, 8 * np.pi)
        ts, xs = sample_line_path(grid, 0.75, 4, support=support)
        ref = rde_driver(ts, xs, grid, support).theta
        if eps:
            ref = mollify(ref, eps, GAUSS_MOLLIFIER)
        assert np.array_equal(load_field(out / "noise.field").coeffs, ref.coeffs)


class TestRenorm:
    def test_table_and_checks(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["renorm", "--n", "32", "--eps", "0.5", "0.25", "0.125",
                   "--seeds", "20", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "renorm.csv")
        assert header == ["eps", "c_eps", "mc_mean", "mc_se"]
        assert len(rows) == 3
        grid = TorusGrid(2, 32)
        for row in rows:
            eps = float(row[0])
            assert float(row[1]) == pytest.approx(
                pam_c_eps(eps, GAUSS_MOLLIFIER, grid), rel=1e-14)

    @pytest.mark.parametrize("seeds", ["0", "1"])
    def test_fewer_than_two_seeds_exit_one(self, tmp_path, capsys, seeds):
        # a standard error needs two samples; with fewer the 3-SE check
        # would pass on NaN
        out = tmp_path / "o"
        rc = main(["renorm", "--n", "32", "--eps", "0.5", "--seeds", seeds, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: renorm needs at least two seeds for a standard error\n"
        assert not (out / "renorm.csv").exists()

    def test_one_noise_and_one_lift_per_seed(self, tmp_path, monkeypatch):
        calls = []

        def counted(name):
            orig = getattr(cli, name)

            def call(*args):
                calls.append(name)
                return orig(*args)
            return call

        for name in ("spatial_white_noise", "pam_theta"):
            monkeypatch.setattr(cli, name, counted(name))
        assert main(["renorm", "--n", "32", "--eps", "0.5", "0.25", "0.125", "--seeds", "3",
                     "--out", str(tmp_path / "o")]) == 0
        assert calls == ["spatial_white_noise", "pam_theta"] * 3

    def test_a_shifted_constant_fails_the_se_check(self, tmp_path, monkeypatch, capsys):
        # c_eps one unit off the Monte Carlo mean; two eps leave the fit out
        monkeypatch.setattr(cli, "pam_c_eps", lambda *a: pam_c_eps(*a) + 1.0)
        out = tmp_path / "o"
        assert main(["renorm", "--n", "32", "--eps", "0.5", "0.25", "--seeds", "5",
                     "--out", str(out)]) == 2
        assert "renorm: SE CHECK FAILED" in capsys.readouterr().out.splitlines()
        _, rows = read_csv(out / "renorm.csv")
        assert len(rows) == 2

    def test_bitwise_reproducible_across_thread_settings(self, tmp_path):
        argv = ["renorm", "--n", "32", "--eps", "0.5", "0.25", "--seeds", "5"]
        outs = []
        for name, threads in (("a", None), ("b", "8")):
            out = tmp_path / name
            env_before = os.environ.get("PARACALC_THREADS")
            if threads:
                os.environ["PARACALC_THREADS"] = threads
            try:
                main(argv + ["--out", str(out)])
            finally:
                if threads:
                    if env_before is None:
                        del os.environ["PARACALC_THREADS"]
                    else:
                        os.environ["PARACALC_THREADS"] = env_before
            outs.append((out / "renorm.csv").read_bytes())
        assert outs[0] == outs[1]


class TestArea:
    def test_block_table_schema(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["area", "--kind", "pam", "--n", "32", "--eps", "0.25",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "area_blocks.csv")
        assert header == ["level", "block_sup"]
        assert [int(r[0]) for r in rows][0] == -1
        assert all(float(r[1]) >= 0.0 for r in rows)
        f = load_field(out / "area.field")
        assert f.grid == TorusGrid(2, 32)


# small runs of each solve, and inputs that must exit 1 before any output
SMALL_SOLVES = {"solve-rde": ["solve-rde"],
                "solve-burgers": ["solve-burgers", "--n", "32", "--time-steps", "8"],
                "solve-pam": ["solve-pam", "--n", "32", "--time-steps", "8"]}
BAD_INPUTS = [
    *[[*argv, flag, v] for argv in SMALL_SOLVES.values()
      for flag, vals in (("--lambda", ("-1", "nan", "inf")), ("--amplitude", ("nan", "inf")),
                         ("--alpha", ("nan", "inf", "1e6"))) for v in vals],
    *[["study", "--equation", e, "--eps", "0.5", "0.25", "--seeds", "1", *extra,
       "--lambda", "-1"]
      for e, extra in (("rde", []), ("burgers", ["--n", "32"]),
                       ("pam", ["--n", "32", "--time-steps", "4"]))],
    ["noise", "--kind", "burgers", "--horizon", "inf"],
    ["area", "--kind", "burgers", "--horizon", "inf"],
    ["solve-burgers", "--horizon", "inf"],
    ["noise", "--kind", "burgers", "--sigma", "1e6"],
    ["solve-rde", "--support", "7"],
    ["study", "--equation", "rde", "--eps", "0.5", "0.25", "--seeds", "1", "--support", "7"],
    [*SMALL_SOLVES["solve-pam"], "--u0", "nan"],
    ["solve-rde", "--u0", "inf"],
    ["study", "--equation", "pam", "--eps", "0.5", "0.25", "--seeds", "1", "--n", "32",
     "--time-steps", "4", "--u0", "inf"],
    *[["study", "--equation", "burgers", "--eps", "0.5", "0.25", "--seeds", "1", "--n", "32",
       "--alpha", v] for v in ("nan", "1e6")]]


class TestSolves:
    def test_rde_solve_writes_report_and_fields(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["solve-rde", "--n", "256", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["converged"] is True
        u = load_field(out / "solution.field")
        r = load_field(out / "remainder.field")
        assert u.grid.n == 256 and r.grid.n == 256

    @pytest.mark.parametrize("argv, written", [
        (["area", "--kind", "burgers"], ["area.field", "area_blocks.csv"]),
        (["solve-burgers"], ["solution.field", "report.json"]),
        (["solve-pam"], ["solution.field", "report.json"])],
        ids=["area-burgers", "solve-burgers", "solve-pam"])
    def test_a_small_run_succeeds(self, tmp_path, argv, written):
        out = tmp_path / "o"
        assert main(argv + ["--n", "32", "--time-steps", "8", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == set(written)
        if "report.json" in written:
            assert json.loads((out / "report.json").read_text())["converged"] is True
        assert load_field(out / written[0]).grid.n == 32

    def test_rde_solve_runs_at_its_defaults(self, tmp_path):
        out = tmp_path / "o"
        assert main(["solve-rde", "--out", str(out)]) == 0
        assert load_field(out / "solution.field").grid.n == 256

    @pytest.mark.parametrize("argv, max_iterations", [
        (["solve-burgers", "--n", "64", "--sigma", "0.9", "--time-steps", "8",
          "--amplitude", "200"], 5),
        (["solve-pam", "--n", "32", "--time-steps", "8", "--amplitude", "50"], 80),
        (["solve-rde", "--amplitude", "6", "--damping", "0.9"], 80)],
        ids=["burgers", "pam", "rde"])
    def test_non_convergence_exits_two_with_a_report(self, tmp_path, capsys, argv,
                                                     max_iterations):
        # a stalled or diverging fixed point is a failed check, and the run
        # still explains itself; the burgers case grows 1e49-fold if iterated on
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        rep = json.loads((out / "report.json").read_text())
        assert rep["converged"] is False and "halve lambda" in rep["advice"]
        assert 1 <= rep["iterations"] <= max_iterations

    @pytest.mark.parametrize("argv", BAD_INPUTS,
                             ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
    def test_a_complex_or_non_finite_input_exits_one(self, tmp_path, capsys, argv):
        # (-1)^alpha is complex, which used to end in a TypeError traceback from
        # rfft; a NaN or infinite coupling exited 2 as a failed solve; a NaN or
        # huge alpha, an infinite horizon and sigma = 1e6 wrote non-finite numbers;
        # a rough-ODE window past a quarter period (support 7 at embedding 4)
        # returned a wrong solution; a non-finite --u0 exited 2 as a failed solve
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", list(SMALL_SOLVES))
    @pytest.mark.parametrize("edge", [["--lambda", "0"], ["--amplitude", "-1"]],
                             ids=["lambda-0", "amplitude-minus-1"])
    def test_an_edge_coupling_writes_finite_numbers(self, tmp_path, command, edge):
        out = tmp_path / "o"
        assert main(SMALL_SOLVES[command] + edge + ["--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["converged"] is True
        assert all(map(math.isfinite, [rep["residual"], *rep["norms"].values()]))
        for path in out.glob("*.field"):
            f = load_field(path)
            assert np.all(np.isfinite(f.coeff_array() if isinstance(f, FieldPath) else f.coeffs))

    def test_solve_pam_honours_sigma(self, tmp_path, capsys):
        # the paracontrolled 2-d solver is for the Laplacian only
        out = tmp_path / "o"
        assert main(["solve-pam", "--n", "32", "--time-steps", "4", "--sigma", "0.9",
                     "--out", str(out)]) == 1
        assert "specific to sigma = 1" in capsys.readouterr().err
        assert not (out / "solution.field").exists()

    def test_gauge_check_passes_at_a_coarse_time_grid(self, tmp_path, capsys):
        # the defect at 8 steps is the march's time error, 2.9e-5, and it
        # falls fourfold at 16 steps
        assert main(["solve-pam", "--gauge-check", "--n", "32", "--time-steps", "8",
                     "--out", str(tmp_path / "o")]) == 0
        assert abs(observed_order(capsys.readouterr().out) - 2.0) < 0.1

    @pytest.mark.parametrize("steps", ["8", "128"])
    def test_gauge_check_fails_on_a_wrong_gauge_factor(self, tmp_path, monkeypatch, capsys,
                                                       steps):
        # e^(-2ct) in place of e^(-ct): the defect neither is small nor
        # falls with the time step
        monkeypatch.setattr(cli, "math", types.SimpleNamespace(
            **{**vars(math), "exp": lambda x: math.exp(2.0 * x)}))
        assert main(["solve-pam", "--gauge-check", "--n", "32", "--time-steps", steps,
                     "--out", str(tmp_path / "o")]) == 2
        assert abs(observed_order(capsys.readouterr().out)) < 0.1

    @pytest.mark.parametrize("argv", [
        ["solve-pam", "--gauge-check"],
        ["study", "--equation", "pam", "--eps", "0.5", "0.25", "--seeds", "1"]],
        ids=["gauge-check", "study"])
    def test_regularized_pam_runs_honour_sigma(self, tmp_path, monkeypatch, argv):
        sigmas = []

        def recorded(u0, xi, c, F, cfg, **kwargs):
            sigmas.append(cfg.sigma)
            return solve_pam_regularized(u0, xi, c, F, cfg, **kwargs)

        monkeypatch.setattr(cli, "solve_pam_regularized", recorded)
        main(argv + ["--n", "32", "--time-steps", "4", "--sigma", "0.9",
                     "--out", str(tmp_path / "o")])
        assert sigmas and set(sigmas) == {0.9}


def study_burgers_one_eps_at_a_time(args, lam, seed, eps_list):
    """`cli._study_burgers` with one explicit ETD2 march per eps."""
    grid = TorusGrid(1, args.n)
    theta = burgers_theta_path(grid, args.sigma, args.horizon, args.time_steps, 1, seed)
    psi = cli.MOLLIFIERS[args.mollifier]
    G = cli._cos_function(args.amplitude * lam ** args.alpha)
    sols = []
    for eps in eps_list:
        thc = [f.channel(0) for f in mollify(theta, eps, psi).fields]
        dth = [derivative(f, 0) for f in thc]
        drift = lambda n, w: dealiased_product(apply_pointwise(G.f, thc[n] + w),
                                               dth[n] + derivative(w, 0))
        sols.append(trapezoid_exponential_path(args.sigma, SpectralField.zero(grid),
                                               drift, args.horizon, len(thc) - 1,
                                               fp_tol=math.inf)[0])
    return [max(besov_norm(x - y, args.alpha) for x, y in zip(a.fields, b.fields))
            for a, b in zip(sols, sols[1:])]


class TestStudy:
    def test_rejects_increasing_ladder(self, tmp_path):
        rc = main(["study", "--equation", "rde", "--eps", "0.1", "0.2",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_rejects_empty_seed_range(self, tmp_path):
        rc = main(["study", "--equation", "pam", "--eps", "0.5", "0.25",
                   "--seeds", "0", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_rde_study_runs_at_its_default_grid(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["study", "--equation", "rde", "--eps", "0.5", "0.25", "--seeds", "1",
                   "--out", str(out)])
        assert rc in (0, 2)
        _, rows = read_csv(out / "study.csv")
        assert len(rows) == 1 and rows[0][5] == "1"

    def test_small_burgers_study_schema(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["study", "--equation", "burgers", "--n", "64",
                   "--sigma", "0.9", "--time-steps", "32",
                   "--mollifier", "bump", "--eps", "0.5", "0.25", "0.125",
                   "--seeds", "3", "--out", str(out)])
        header, rows = read_csv(out / "study.csv")
        assert header == ["equation", "eps", "seed", "lam", "dist", "converged"]
        assert len(rows) == 3 * 2  # seeds x ladder pairs
        assert all(r[0] == "burgers" and r[5] == "1" for r in rows)
        assert rc in (0, 2)  # schema test; monotonicity is checked at scale

    def test_burgers_ladder_as_channels_equals_one_eps_at_a_time(self, tmp_path, monkeypatch):
        # with fp_tol = math.inf every channel makes one corrector per step
        # and is transformed on its own, so the study is byte-identical; at
        # this amplitude the first attempt of each seed blows up, so the
        # lambda halving is compared too
        argv = ["study", "--equation", "burgers", "--n", "64", "--sigma", "0.9",
                "--time-steps", "32", "--mollifier", "bump", "--eps", "0.5", "0.25",
                "0.125", "--seeds", "2", "--amplitude", "90"]
        assert main(argv + ["--out", str(tmp_path / "ladder")]) in (0, 2)
        monkeypatch.setattr(cli, "_study_burgers", study_burgers_one_eps_at_a_time)
        assert main(argv + ["--out", str(tmp_path / "loop")]) in (0, 2)
        assert (tmp_path / "ladder" / "study.csv").read_bytes() \
            == (tmp_path / "loop" / "study.csv").read_bytes()
        _, rows = read_csv(tmp_path / "ladder" / "study.csv")
        assert {r[3] for r in rows} == {"0.5"}

    def test_every_lambda_halving_is_reported(self, tmp_path, monkeypatch, caplog):
        # the runner fails twice, at lambda 1 and 0.5, then succeeds at 0.25
        lams = []

        def runner(args, lam, seed, eps_list):
            lams.append(lam)
            if len(lams) <= 2:
                raise RuntimeError(f"stall {len(lams)}")
            return [0.125]

        monkeypatch.setattr(cli, "_study_pam", runner)
        out = tmp_path / "o"
        assert main(["study", "--equation", "pam", "--eps", "0.5", "0.25", "--seeds", "1",
                     "--out", str(out)]) == 0
        assert lams == [1.0, 0.5, 0.25]
        assert [r.getMessage() for r in caplog.records] \
            == ["seed 0 at lambda 1: stall 1", "seed 0 at lambda 0.5: stall 2"]
        assert read_csv(out / "study.csv")[1] == [["pam", "0.5", "0", "0.25", "0.125", "1"]]

    def test_unresolved_seed_reports_all_four_attempts(self, tmp_path, monkeypatch, caplog):
        def runner(args, lam, seed, eps_list):
            raise RuntimeError("stalled")

        monkeypatch.setattr(cli, "_study_pam", runner)
        out = tmp_path / "o"
        assert main(["study", "--equation", "pam", "--eps", "0.5", "0.25", "--seeds", "1",
                     "--out", str(out)]) == 2
        assert [r.getMessage() for r in caplog.records] == \
            [f"seed 0 at lambda {lam}: stalled" for lam in (1, 0.5, 0.25, 0.125)] \
            + ["seed 0: unresolved non-convergence"]
        assert read_csv(out / "study.csv")[1] == [["pam", "nan", "0", "0.125", "nan", "0"]]
