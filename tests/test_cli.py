"""CLI tests: schemas, determinism, exit codes and the documented examples."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from filpiv.cli import (_CSV_BLOCK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _fmt,
                        _write_csv, main)
from filpiv.odeint import ORDER


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "filpiv.cli", *args],
        capture_output=True, text=True,
    )


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) if v else math.nan for v in line.split(",")])
    return header, np.array(rows)


@pytest.fixture()
def line_config(tmp_path):
    # the straight filament along the axis: eps = -a, tangent -axis
    return write_config(tmp_path / "line.json", {
        "params": {"a": 1.0, "eps": -1.0},
        "initial": {"gp0": [0.0, 0.0, -1.0], "gpp0": [0.0, 0.0, 0.0]},
        "s_span": [-10.0, 10.0],
        "sample_step": 0.5,
    })


@pytest.fixture()
def zero_a_config(tmp_path):
    return write_config(tmp_path / "za.json", {
        "params": {"a": 0.0, "eps": 1.0},
        "s_span": [-12.0, 12.0],
        "sample_step": 0.25,
    })


class TestIntegrate:
    def test_trivial_line_output(self, tmp_path, line_config):
        out = tmp_path / "out"
        assert main(["integrate", "--config", line_config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "trajectory.csv")
        cols = {name: rows[:, k] for k, name in enumerate(header)}
        assert np.max(np.abs(cols["C"])) <= 1e-10
        assert np.all(np.isnan(cols["T"]))  # torsion absent
        # absent torsion is an empty cell, not "nan"
        body = [line for line in (out / "trajectory.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert all(line.split(",")[header.index("T")] == "" for line in body[1:])
        assert main(["filament", "--config", line_config, "--out", str(out)]) == EXIT_OK
        body = [line for line in (out / "filament_t0.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert all(line.endswith(",") for line in body[1:])
        assert np.max(np.abs(cols["eps_drift"])) <= 1e-12
        assert np.max(np.abs(cols["unit_drift"])) <= 1e-12
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["version"]
        assert diag["config"]["params"]["a"] == 1.0
        assert "pole_flags" not in diag
        assert diag["method"] == "taylor"
        assert diag["order"] == ORDER
        assert "n_rejected" not in diag
        assert diag["rhs_evals"] == diag["n_steps"] >= 1
        assert 0.0 < diag["step_min"] <= diag["step_median"] <= diag["step_max"] <= 20.0

    def test_zero_axis_curvature_columns(self, tmp_path, zero_a_config):
        out = tmp_path / "out"
        assert main(["integrate", "--config", zero_a_config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "trajectory.csv")
        cols = {name: rows[:, k] for k, name in enumerate(header)}
        assert np.max(np.abs(cols["C"] - 1.0)) <= 1e-9
        assert np.max(np.abs(cols["T"] - cols["s"] / 2.0)) <= 1e-9
        assert np.max(np.abs(cols["sigma"])) == 0.0

    def test_rerun_byte_identical(self, tmp_path, zero_a_config):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        r1 = run_cli("integrate", "--config", zero_a_config, "--out", str(out1))
        r2 = run_cli("integrate", "--config", zero_a_config, "--out", str(out2))
        assert r1.returncode == r2.returncode == EXIT_OK
        for name in ("trajectory.csv", "diagnostics.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_filament_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5},
            "initial": {"branch": "odd"},
            "s_span": [-6.0, 6.0],
            "t_values": [1.0, 2.5],
            "x_grid": {"min": -4.0, "max": 4.0, "n": 401},
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        r1 = run_cli("filament", "--config", cfg, "--out", str(out1))
        r2 = run_cli("filament", "--config", cfg, "--out", str(out2))
        assert r1.returncode == r2.returncode == EXIT_OK
        for name in ("filament_t0.csv", "filament_t1.csv", "filament.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", [1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_matches_per_cell_reference(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        table = rng.standard_normal((n_rows, 9)) * 10.0 ** rng.integers(-30, 30, (n_rows, 9))
        table[0] = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e300, 3.0, -42.0]
        table[1::7, 2] = np.round(table[1::7, 2] * 1e-20)
        table[::3, 4] = math.nan
        table[-1, -1] = math.nan  # an empty last cell ends the file with ",\n"
        # "nan" in a header line is kept: only formatted rows are blanked
        header = ["# filpiv test", '# config: {"nan": null}', "a,b,c,d,e,f,g,h,i"]
        path = tmp_path / "t.csv"
        _write_csv(path, header, [table[:, 0], table[:, 1:4], table[:, 4:]])
        # the per-cell rendering the block formatter replaced
        rows = [",".join(_fmt(v) for v in row) for row in table]
        assert path.read_bytes() == ("\n".join(header + rows) + "\n").encode()


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["integrate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"paramz": {}})
        assert main(["integrate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_out_of_bounds_window_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.0},
            "s_span": [-40.0, 40.0],
            "fit_window": [24.0, 60.0],
        })
        assert main(["fit", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, extra, flags", [
        ("integrate", {}, ["--tol-rel", "0"]),
        ("integrate", {"tolerances": {"max_steps": "many"}}, []),
        ("integrate", {"sample_step": "x"}, []),
        ("filament", {"x_grid": {"n": "abc"}}, []),
        ("filament", {"t_values": ["q"]}, []),
        ("fit", {"fit_window": [1]}, []),
        ("integrate", {"s_span": ["a", "b"]}, []),
        ("integrate", {"thresholds": {"unit": "x"}}, []),
    ])
    def test_bad_values_exit_2_with_json_line(self, tmp_path, capsys,
                                              command, extra, flags):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5}, "s_span": [-2.0, 2.0], **extra,
        })
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"

    def test_zero_a_rejects_nonzero_axis(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.3},
        })
        assert main(["zero-a", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_numeric_failure_exits_3(self, tmp_path):
        # a connection input violating the reality surface
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.3},
            "connect": {"side": 1, "omega": -0.12, "delta": 0.9, "tol": 1e-9},
        })
        out = tmp_path / "o"
        rc = main(["connect", "--config", cfg, "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_NUMERIC)
        cfg2 = write_config(tmp_path / "c2.json", {
            "params": {"a": 1.0, "eps": 0.3},
            # omega at the admissibility boundary: Im rho undefined
            "connect": {"side": 1, "omega": 0.1, "delta": 0.0},
        })
        assert main(["connect", "--config", cfg2,
                     "--out", str(out)]) == EXIT_NUMERIC


class TestFit:
    def test_symmetric_run_sides_agree(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.0},
            "initial": {"branch": "odd"},
            "s_span": [-40.0, 40.0],
        })
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
        assert abs(payload["plus"]["omega"] - payload["minus"]["omega"]) <= 1e-3
        assert max(payload["connfI_residuals"].values()) <= 1e-3
        assert all(abs(r - 1.0) <= 0.1 for r in payload["amp_consistency"])


class TestZeroA:
    def test_report_contents(self, tmp_path, zero_a_config):
        out = tmp_path / "o"
        assert main(["zero-a", "--config", zero_a_config, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "zero_a_report.json").read_text())
        assert max(rep["max_closed_vs_numeric"]) <= 1e-8
        assert max(rep["max_representation_gap"]) <= 1e-9
        assert rep["parity_residual"] <= 1e-10
        assert rep["T_dot"] == pytest.approx(2.0 * math.exp(-math.pi) - 1.0, abs=1e-9)

    def test_zero_eps_exact(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 0.0, "eps": 0.0},
            "s_span": [-6.0, 6.0],
        })
        out = tmp_path / "o"
        assert main(["zero-a", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "zero_a_report.json").read_text())
        assert max(rep["max_closed_vs_numeric"]) <= 1e-12
        assert rep["T_dot"] == 1.0


class TestSymmetricCommand:
    def test_conjectural_metadata_and_fit(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5},
            "initial": {"branch": "odd"},
            "s_span": [-40.0, 40.0],
        })
        out = tmp_path / "o"
        assert main(["symmetric", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "symmetric.json").read_text())
        assert payload["prediction"]["status"] == "conjectural"
        assert payload["omega_deviation"] <= 1e-3
        assert len(payload["x_roots"]) == 4
        assert not payload["x_roots"][0]["admissible"]


class TestFilament:
    def test_t_one_matches_trajectory_and_scaling(self, tmp_path):
        base = {
            "params": {"a": 1.0, "eps": 0.5},
            "initial": {"branch": "odd"},
            "s_span": [-12.0, 12.0],
            "sample_step": 0.5,
            "t_values": [1.0, 4.0],
            "x_grid": {"min": -5.0, "max": 5.0, "n": 1001},
        }
        cfg = write_config(tmp_path / "c.json", base)
        out = tmp_path / "o"
        assert main(["filament", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["integrate", "--config", cfg, "--out", str(out)]) == EXIT_OK

        _, traj = read_csv(out / "trajectory.csv")
        header, fil1 = read_csv(out / "filament_t0.csv")
        cols = {name: k for k, name in enumerate(header)}
        # t = 1: gamma(x, 1) = G(x) at matching s values
        s_vals = traj[:, 0]
        for row in fil1[:: len(fil1) // 10]:
            k = int(np.argmin(np.abs(s_vals - row[0])))
            if abs(s_vals[k] - row[0]) < 1e-12:
                assert np.max(np.abs(traj[k, 1:4] - row[1:4])) <= 1e-12

        _, fil4 = read_csv(out / "filament_t1.csv")
        # curvature scales like t^{-1/2} at matched x / sqrt(t)
        x1 = fil1[:, 0]
        c1 = fil1[:, cols["curvature"]]
        for row in fil4[:: len(fil4) // 7]:
            s_match = row[0] / 2.0
            k = int(np.argmin(np.abs(x1 - s_match)))
            if abs(x1[k] - s_match) < 1e-9:
                assert row[cols["curvature"]] == pytest.approx(c1[k] / 2.0, abs=1e-10)

        # arc-length check by finite differences on the emitted curve
        h = x1[1] - x1[0]
        gamma = fil1[:, 1:4]
        deriv = (gamma[:-4] - 8 * gamma[1:-3] + 8 * gamma[3:-1] - gamma[4:]) / (12 * h)
        arc = np.linalg.norm(deriv, axis=1)
        assert np.max(np.abs(arc - 1.0)) <= 1e-8

    def test_nonpositive_t_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5},
            "initial": {"branch": "odd"},
            "s_span": [-5.0, 5.0],
            "t_values": [0.0],
        })
        assert main(["filament", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestSelfcheckCommand:
    def test_exit_codes_and_report(self, tmp_path, monkeypatch, capsys):
        import filpiv.cli as cli_mod
        from filpiv.selfcheck import CriterionResult

        fake = [CriterionResult("alpha", True, "fine"),
                CriterionResult("beta", True, "also fine")]
        monkeypatch.setattr(cli_mod, "run_selfcheck",
                            lambda **kw: fake)
        out = tmp_path / "o"
        assert main(["selfcheck", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "[PASS] alpha" in stdout and "[PASS] beta" in stdout
        report = json.loads((out / "selfcheck.json").read_text())
        assert [r["name"] for r in report["results"]] == ["alpha", "beta"]

        fake[1] = CriterionResult("beta", False, "broke")
        rc = main(["selfcheck"])
        assert rc == 4
        assert "[FAIL] beta" in capsys.readouterr().out

    def test_real_criterion_report_is_json(self, tmp_path, monkeypatch, runs):
        # numpy scalars from a real criterion must not reach the JSON writer
        import filpiv.cli as cli_mod
        from filpiv import selfcheck as sc

        monkeypatch.setattr(sc, "CONSERVATION_GRID_A", (0.5,))
        monkeypatch.setattr(cli_mod, "run_selfcheck",
                            lambda **kw: [sc.crit_conservation(runs)])
        out = tmp_path / "o"
        assert main(["selfcheck", "--out", str(out)]) == EXIT_OK
        (entry,) = json.loads((out / "selfcheck.json").read_text())["results"]
        assert entry["passed"] is True
        assert set(entry["measures"]) == {"unit", "eps", "constraint", "sp4_ratio"}
        assert entry["measures"]["sp4_ratio"] <= 1.0


class TestMisc:
    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0

    def test_seedless_accepted(self, tmp_path, zero_a_config):
        out = tmp_path / "o"
        assert main(["integrate", "--seedless", "--config", zero_a_config,
                     "--out", str(out)]) == EXIT_OK

    def test_tol_and_smax_overrides(self, tmp_path, zero_a_config):
        out = tmp_path / "o"
        assert main(["integrate", "--config", zero_a_config, "--out", str(out),
                     "--tol-rel", "1e-10", "--s-max", "6"]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["config"]["tolerances"]["rel"] == 1e-10
        assert diag["config"]["s_span"] == [-6.0, 6.0]
