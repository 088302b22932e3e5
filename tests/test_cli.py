"""Command-line harness: exit codes, file formats, reproducibility."""

import json
import os

import numpy as np
import pytest

from paracalc import (GAUSS_MOLLIFIER, TorusGrid, load_field, mollify,
                      pam_c_eps, spatial_white_noise)
from paracalc.cli import build_parser, main


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestParsing:
    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["renorm"])
        assert args.n == 64 and args.alpha == 0.45 and args.lam == 1.0

    def test_config_file_overrides_flags(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 16, "seed": 3}))
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "pam", "--config", str(cfgfile),
                   "--out", str(out)])
        assert rc == 0
        f = load_field(out / "noise.field")
        assert f.grid.n == 16

    def test_unknown_config_key_exits(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"resolution": 16}))
        with pytest.raises(SystemExit):
            main(["noise", "--config", str(cfgfile), "--out", str(tmp_path / "o")])

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

    @pytest.mark.parametrize("bad", [{"seed": 1.5}, {"n": True}, {"eps": 0.25},
                                     {"mollifier": "box"}])
    def test_bad_config_value_exits_one(self, tmp_path, capsys, bad):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(bad))
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "pam", "--config", str(cfgfile),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "noise.field").exists()

    def test_runtime_errors_exit_one(self, tmp_path):
        # 48 is not a power of two, so grid construction fails cleanly
        rc = main(["noise", "--kind", "pam", "--n", "48",
                   "--out", str(tmp_path / "o")])
        assert rc == 1


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

    def test_burgers_noise_is_a_path(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["noise", "--kind", "burgers", "--n", "32", "--sigma", "0.9",
                   "--time-steps", "8", "--out", str(out)])
        assert rc == 0
        p = load_field(out / "noise.field")
        assert len(p.times) == 9
        assert p[0].sup_norm() == 0.0


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


class TestStudy:
    def test_rejects_increasing_ladder(self, tmp_path):
        rc = main(["study", "--equation", "rde", "--eps", "0.1", "0.2",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_rejects_empty_seed_range(self, tmp_path):
        rc = main(["study", "--equation", "pam", "--eps", "0.5", "0.25",
                   "--seeds", "0", "--out", str(tmp_path / "o")])
        assert rc == 1

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
