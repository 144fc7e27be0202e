"""CLI tests: schemas, determinism, exit codes and the documented examples."""

import argparse
import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filpiv import _cells, cli, errors, flow
from filpiv._cells import format_cells
from filpiv.cli import (_COMMANDS, _CSV_BLOCK, _MAX_ROWS, _SAMPLE_ROWS, EXIT_CONFIG,
                        EXIT_INVARIANT, EXIT_NUMERIC, EXIT_OK, _run_flow, _write_csv,
                        build_parser, main, resolve_config)
from filpiv.errors import ConfigError
from filpiv.flow import reconstruct_filament
from filpiv.odeint import ORDER


_RT_HALF = math.sqrt(0.5)  # |G''(0)| of the eps = 0.5 data with a . G'(0) = 0
_CAUCHY = {"gp0": [1.0, 0.0, 0.0], "gpp0": [0.0, _RT_HALF, 0.0]}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "filpiv.cli", *args],
        capture_output=True, text=True,
    )


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def parse_strict(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


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
        assert "rhs_evals" not in diag
        assert diag["n_steps"] >= 1
        assert diag["n_steps_minus"] >= 1 and diag["n_steps_plus"] >= 1
        assert diag["n_steps_minus"] + diag["n_steps_plus"] == diag["n_steps"]
        assert 0.0 < diag["step_min"] <= diag["step_median"] <= diag["step_max"] <= 20.0
        for name in ("unit", "eps", "constraint"):
            assert -10.0 <= diag["drifts"][f"{name}_drift_at"] <= 10.0

    @pytest.mark.parametrize("config, reflection", [
        ({"params": {"a": 1.0, "eps": 0.5}, "initial": {"branch": "odd"}},
         [-1, -1, -1, 1, 1, 1]),
        ({"params": {"a": 1.0, "eps": 1.5}, "initial": {"branch": "mixed_plus"}},
         [1, 1, -1, -1, -1, 1]),
        ({"params": {"a": 0.0, "eps": 1.0}}, [-1, 1, 1, 1, -1, -1]),
        # Cauchy data at s0 = 1, and the odd branch on a span not symmetric
        # about s = 0
        ({"params": {"a": 1.0, "eps": 0.5}, "initial": {**_CAUCHY, "s0": 1.0}}, None),
        ({"params": {"a": 1.0, "eps": 0.5}, "initial": {"branch": "odd"},
          "s_span": [-6.0, 8.0]}, None),
    ])
    def test_diagnostics_report_the_reflection(self, tmp_path, config, reflection):
        cfg = write_config(tmp_path / "c.json", {"s_span": [-8.0, 8.0], **config})
        out = tmp_path / "out"
        assert main(["integrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        diag = parse_strict((out / "diagnostics.json").read_text())
        assert diag["reflection"] == reflection
        if reflection is not None:
            assert diag["n_steps_minus"] == diag["n_steps_plus"] == diag["n_steps"] // 2

    def test_zero_axis_curvature_columns(self, tmp_path, zero_a_config):
        out = tmp_path / "out"
        assert main(["integrate", "--config", zero_a_config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "trajectory.csv")
        cols = {name: rows[:, k] for k, name in enumerate(header)}
        assert np.max(np.abs(cols["C"] - 1.0)) <= 1e-9
        assert np.max(np.abs(cols["T"] - cols["s"] / 2.0)) <= 1e-9
        assert np.max(np.abs(cols["sigma"])) == 0.0

    def test_peak_memory_is_one_sample_chunk(self, tmp_path):
        # 200,001 rows: the grid takes 8 bytes a row and the whole grid's
        # sample columns about 230 (47 MB traced); sampled a chunk at a
        # time, the peak stays near the grid's 1.6 MB
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5}, "initial": {"branch": "odd"},
            "s_span": [-40.0, 40.0], "sample_step": 4e-4,
        })
        _cells._cell_tables()  # built once per process, on the first write
        tracemalloc.start()
        try:
            code = main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert (tmp_path / "o" / "trajectory.csv").read_bytes().count(b"\n") == 2 + 1 + 200_001
        assert peak < 200_001 * 40

    def test_chunks_match_the_whole_grid(self, tmp_path):
        # a value depends on its own s alone, so sampling and reconstructing
        # _SAMPLE_ROWS points at a time writes the bytes of one whole-grid call
        raw = {"params": {"a": 1.0, "eps": 0.5}, "initial": {"branch": "odd"},
               "s_span": [-8.0, 8.0], "sample_step": 8e-4, "t_values": [2.0],
               "x_grid": {"min": -10.0, "max": 10.0, "n": 3 * _SAMPLE_ROWS + 5}}
        cfg = write_config(tmp_path / "c.json", raw)
        out = tmp_path / "o"
        assert main(["integrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["filament", "--config", cfg, "--out", str(out)]) == EXIT_OK
        resolved = resolve_config(raw)
        _, run = _run_flow(resolved)
        grid = np.linspace(-8.0, 8.0, 20_001)
        assert len(grid) > 4 * _SAMPLE_ROWS
        smp = run.sample(grid)
        header = (out / "trajectory.csv").read_text().splitlines()[:3]
        whole = np.column_stack([
            smp["s"], smp["G"], smp["Gp"], smp["sigma"], smp["sigma_p"], smp["sigma_pp"],
            smp["C"], smp["T"], smp["eps_drift"], smp["unit_drift"]])
        _write_csv(tmp_path / "t.csv", header, whole, lambda rows: [rows])
        assert (tmp_path / "t.csv").read_bytes() == (out / "trajectory.csv").read_bytes()
        x = np.linspace(-10.0, 10.0, 3 * _SAMPLE_ROWS + 5)
        ((t, curve),) = reconstruct_filament(run, [2.0], x)
        smp = run.sample(x / math.sqrt(t))
        header = (out / "filament_t0.csv").read_text().splitlines()[:4]
        whole = np.column_stack([x, curve, smp["C"] / math.sqrt(t), smp["T"] / math.sqrt(t)])
        _write_csv(tmp_path / "f.csv", header, whole, lambda rows: [rows])
        assert (tmp_path / "f.csv").read_bytes() == (out / "filament_t0.csv").read_bytes()

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


def _cell(x) -> str:
    """One value's 17-significant-digit rendering, NaN as an empty cell: the
    per-cell reference for cli._write_csv's block formatter."""
    return "" if math.isnan(x) else format(float(x), ".17g")


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
        _write_csv(path, header, table, lambda rows: [rows[:, 0], rows[:, 1:4], rows[:, 4:]])
        # the per-cell rendering the block formatter replaced
        rows = [",".join(_cell(v) for v in row) for row in table]
        assert path.read_bytes() == ("\n".join(header + rows) + "\n").encode()

    def test_peak_memory_is_one_block(self, tmp_path):
        # the table of 40,000 rows and 14 columns holds 4.5 MB: a write that
        # stacked it whole (5.1 MB traced) fails; one sample's table (0.46 MB)
        # and one block's cells, temporaries and text (about 1 MB) fit
        rows = 40_000
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(rows), rng.standard_normal((rows, 3)),
                   rng.standard_normal((rows, 8)), rng.standard_normal((rows, 2)) * 1e-13]
        _cells._cell_tables()  # built once per process, on the first write
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", ["# big"], np.arange(rows),
                       lambda i: [col[i[0]:i[-1] + 1] for col in columns])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * 14 * 8 / 2


def _expected_text(table) -> bytes:
    return "".join(",".join(_cell(v) for v in row) + "\n" for row in table).encode()


def _assert_cells_match(values, columns=7):
    """format_cells of values, NaN-padded to rows of `columns`, against the
    per-cell reference."""
    values = np.asarray(values, dtype=float)
    table = np.full(-(-len(values) // columns) * columns, math.nan)
    table[:len(values)] = values
    table = table.reshape(-1, columns)
    assert format_cells(table) == _expected_text(table)


class TestFormatCells:
    """_cells.format_cells, the numpy rendering of `%.17g`, against _cell."""

    @given(st.lists(st.floats(), min_size=1, max_size=8))
    @settings(max_examples=2000, deadline=None, derandomize=True)
    def test_matches_per_cell_reference(self, values):
        # st.floats() draws NaN, +-inf, +-0 and subnormals among the rest
        table = np.array([values])
        assert format_cells(table) == _expected_text(table)

    def test_exact_ties_and_neighbours(self):
        # 17-digit ties, rounded half to even by `%`: the fast path leaves
        # them to it
        ties = np.array([1859497496434501.25, -335608033327690.375])
        _assert_cells_match(np.concatenate([ties, np.nextafter(ties, -math.inf),
                                            np.nextafter(ties, math.inf)]), 3)

    def test_powers_of_ten_and_their_neighbours(self):
        # the doubles nearest 10^k, some of which lie below 10^k by less than
        # half a unit in the 17th digit, so that their digits carry
        nearest = np.array([float(f"1e{k}") for k in range(-323, 309)])
        _assert_cells_match(nearest)
        _assert_cells_match(-nearest)
        powers = nearest[-300 + 323:300 + 324]  # k in -300..300
        for way in (-math.inf, math.inf):
            _assert_cells_match(np.nextafter(powers, way))
            _assert_cells_match(-np.nextafter(powers, way))

    def test_powers_of_two(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        _assert_cells_match(powers)
        _assert_cells_match(-powers)

    def test_ends_of_the_normal_range(self):
        big, tiny = np.finfo(float).max, np.finfo(float).tiny
        _assert_cells_match([big, -big, tiny, -tiny, np.nextafter(big, 0.0),
                             np.nextafter(tiny, 1.0), np.nextafter(tiny, 0.0)])

    def test_fallback_cells_spliced_in_place(self):
        # one block mixing cells of the fast path with cells it leaves to `%`
        # (ties, subnormals, the ends of the double range), in every column
        rng = np.random.default_rng(17)
        table = rng.standard_normal((64, 9)) * 10.0 ** rng.integers(-20, 20, (64, 9))
        table.flat[::7] = 1859497496434501.25
        table.flat[3::11] = 5e-324 * rng.integers(1, 10**6, len(table.flat[3::11]))
        table.flat[5::13] = np.finfo(float).max
        table.flat[6::17] = math.nan
        fast = _cells._decimal(np.abs(table.ravel()), _cells._cell_tables())[2]
        left = ~fast & np.isfinite(table.ravel()) & (table.ravel() != 0.0)
        assert fast.sum() > 300 and left.sum() > 100
        assert format_cells(table) == _expected_text(table)


def test_import_builds_no_cell_tables():
    # the formatter is imported on the first write and its tables built
    # then: a process that writes no CSV (every subcommand but integrate and
    # filament) never pays for them
    code = ("import sys, numpy, filpiv.cli; print('filpiv._cells' in sys.modules); "
            "import filpiv._cells as cells; print(cells._cell_tables.cache_info().currsize); "
            "cells.format_cells(numpy.ones((1, 1))); print(cells._cell_tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "1"]


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

    # an outer end 5e-10 past the span (within a 1e-9 slack, beyond the
    # reader's 1e-12), and an inner end before a Cauchy-data span's start
    @pytest.mark.parametrize("extra, window, span", [
        ({"initial": {"branch": "odd"}, "s_span": [-30.0, 30.0]},
         "[18.0, 30.0000000005]", "[-30.0, 30.0]"),
        ({"initial": {**_CAUCHY, "s0": 20.0}, "s_span": [20.0, 60.0]},
         "[15.0, 50.0]", "[20.0, 60.0]"),
    ], ids=["outer_end", "inner_end"])
    def test_window_outside_span_names_both(self, tmp_path, capsys, extra, window, span):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5}, "fit_window": json.loads(window), **extra})
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["message"].startswith(f"fit window {window} at s in ")
        assert err["message"].endswith(f"outside the trajectory span {span}")
        assert err["type"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, flags", [
        ("integrate", {"tolerances": {"rel": 0.0}}, []),
        ("integrate", {"tolerances": {"max_steps": "many"}}, []),
        ("integrate", {"sample_step": "x"}, []),
        ("filament", {"x_grid": {"n": "abc"}}, []),
        ("filament", {"t_values": ["q"]}, []),
        ("fit", {"fit_window": [1]}, []),
        ("integrate", {"s_span": ["a", "b"]}, []),
        ("integrate", {"thresholds": {"unit": "x"}}, []),
        ("connect", {"connect": [0.1, 0.0]}, []),
        ("connect", {"connect": {"delta": 0.0}}, []),
        ("connect", {"connect": {"omega": "x", "delta": 0.0}}, []),
        ("connect", {"connect": {"omega": 0.1, "delta": "x"}}, []),
        ("connect", {"connect": {"omega": 0.1, "delta": 0.0, "side": "s"}}, []),
        ("connect", {"connect": {"omega": 0.1, "delta": 0.0, "tol": "t"}}, []),
        ("integrate", {"initial": {"gp0": [1.0, 0.0], "gpp0": [0.0, 0.5, 0.0]}}, []),
        ("integrate", {"initial": {"gp0": [1.0, 0.0, 0.0], "gpp0": "x"}}, []),
        ("integrate", {"initial": {"gp0": [1.0, 0.0, 0.0], "gpp0": [0.0, 0.5, 0.0],
                                   "s0": "z"}}, []),
        # valid Cauchy data next to a misspelt key, a branch or a fractional side
        ("integrate", {"initial": {"gp0": [1.0, 0.0, 0.0], "gpp0": [0.0, _RT_HALF, 0.0],
                                   "s_0": 1.0}}, []),
        ("integrate", {"initial": {"branch": "odd", "gp0": [1.0, 0.0, 0.0],
                                   "gpp0": [0.0, _RT_HALF, 0.0]}}, []),
        ("connect", {"connect": {"omega": -0.05, "delta": 0.4, "side": 1.7}}, []),
        ("connect", {"connect": {"omega": -0.05, "delta": 0.4, "sides": 1}}, []),
        # non-integral counts, which would be truncated
        ("filament", {"x_grid": {"min": -1.0, "max": 1.0, "n": 3.7}}, []),
        ("integrate", {"tolerances": {"max_steps": 2000.5}}, []),
        # a = 0 with eps below zero by less than FlowParams' rounding slack
        ("integrate", {"params": {"a": 0.0, "eps": -1e-13}}, []),
        # json reads NaN, Infinity and integers beyond the float range
        ("fit", {"s_span": [-40.0, 40.0], "tolerances": {"rel": math.inf}}, []),
        ("filament", {"t_values": [math.inf]}, []),
        ("integrate", {"params": {"a": 1.0, "eps": math.nan}}, []),
        ("integrate", {"params": {"a": math.inf, "eps": 0.5}}, []),
        # the axis is e3: a config that names it gives an unknown key
        ("integrate", {"params": {"a": 1.0, "eps": 0.5, "axis": [0.0, 0.0, 1.0]}}, []),
        ("integrate", {"tolerances": {"max_steps": 10**400}}, []),
        # grids beyond cli._MAX_ROWS rows: an infinite count, then finite ones
        # too large to allocate, all rejected before the integration
        ("integrate", {"sample_step": 5e-324}, []),
        ("integrate", {"sample_step": 1e-12}, []),
        ("filament", {"x_grid": {"min": -1.0, "max": 1.0, "n": 10**12}}, []),
        # JSON true and false are not numbers, although Python's bool is an int
        ("integrate", {"params": {"a": True, "eps": 0.5}}, []),
        ("filament", {"x_grid": {"min": -1.0, "max": 1.0, "n": True}}, []),
        ("integrate", {"params": {"a": 1.0, "eps": False}}, []),
        ("integrate", {"tolerances": {"max_steps": True}}, []),
        ("connect", {"connect": {"omega": -0.05, "delta": 0.4, "side": True}}, []),
        ("connect", {"connect": {"omega": 0.1, "delta": 0.0, "tol": 0.05}}, []),
        # a bad value in a key the subcommand does not read
        ("integrate", {"t_values": "bogus"}, []),
        ("integrate", {"connect": {"omega": "x", "delta": 0.0}}, []),
        ("connect", {"tolerances": {"max_steps": "many"},
                     "connect": {"omega": -0.12, "delta": 0.9}}, []),
        ("connect", {"initial": {"branch": "bogus"},
                     "connect": {"omega": -0.12, "delta": 0.9}}, []),
        ("zero-a", {"params": {"a": 0.0, "eps": 0.5},
                    "connect": {"omega": "x", "delta": 0.0}}, []),
        ("connect", {"initial": {"branch": 3},
                     "connect": {"omega": -0.12, "delta": 0.9}}, []),
        ("filament", {"x_grid": {"min": -1.0, "max": 1.0, "n": 3},
                      "connect": {"omega": 0.1}}, []),
        ("integrate", {"s_span": "bogus"}, []),
        ("integrate", {"tolerances": {"rel": -1}}, []),
        # removed settings: the config is the only way to set a run, and the
        # step tolerance's floor is a constant of the integrator
        ("integrate", {"tolerances": {"rel": 1e-10, "abs": 1e-12}}, []),
        ("integrate", {}, ["--tol-rel", "1e-10"]),
        ("integrate", {}, ["--tol-abs", "1e-14"]),
        ("integrate", {}, ["--s-max", "3"]),
        # valid Cauchy data that start outside the span (a RangeError)
        ("integrate", {"initial": {**_CAUCHY, "s0": 50.0}, "s_span": [-3.0, 3.0]}, []),
        # an x grid whose x / sqrt(t) leaves the span at one t only, the
        # first or a later one: a RangeError before any file
        ("filament", {"x_grid": {"min": -1.5, "max": 1.5, "n": 7},
                      "t_values": [0.25, 1.0]}, []),
        ("filament", {"x_grid": {"min": -1.5, "max": 1.5, "n": 7},
                      "t_values": [1.0, 4.0, 0.25]}, []),
        # a threshold no drift can meet: a config error, not an invariant
        # violation of every run
        ("integrate", {"thresholds": {"unit": -1}}, []),
        ("fit", {"thresholds": {"eps": 0.0}}, []),
        ("filament", {"thresholds": {"constraint": -5e-324}}, []),
    ])
    def test_bad_values_exit_2_with_json_line(self, tmp_path, capsys,
                                              command, extra, flags):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5}, "s_span": [-2.0, 2.0], **extra,
        })
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    # paths that cannot serve: a directory or non-UTF-8 bytes as the config,
    # an existing file as the output directory or as one of its parents
    @pytest.mark.parametrize("argv", [
        ["integrate", "--config", "{tmp}", "--out", "{tmp}/o"],
        ["integrate", "--config", "{tmp}/latin1.json", "--out", "{tmp}/o"],
        ["integrate", "--config", "{tmp}/c.json", "--out", "{tmp}/file"],
        ["integrate", "--config", "{tmp}/c.json", "--out", "{tmp}/file/sub"],
        ["selfcheck", "--out", "{tmp}/file"],
    ])
    def test_unusable_paths_exit_2_with_json_line(self, tmp_path, capsys, argv):
        write_config(tmp_path / "c.json", {"params": {"a": 1.0, "eps": 0.5},
                                           "s_span": [-2.0, 2.0]})
        (tmp_path / "latin1.json").write_bytes(
            b'{"params": {"a": 1.0, "eps": 0.5}, "s_span": [-2.0, 2.0], "note": "\xe9"}')
        (tmp_path / "file").write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "kept\n"

    # a config file that is missing, a directory, not UTF-8 text or not JSON:
    # one config error that names the path
    @pytest.mark.parametrize("name", ["nope.json", ".", "latin1.json", "bad.json"])
    def test_unreadable_config_is_one_config_error(self, tmp_path, capsys, name):
        (tmp_path / "latin1.json").write_bytes(b'{"note": "\xe9"}')
        (tmp_path / "bad.json").write_text('{"params": ')
        path = str(tmp_path / name)
        assert main(["fit", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert (err["error"], err["type"]) == ("config", "ConfigError")
        assert err["message"].startswith(f"config file {path} cannot be read: ")

    # a config nested past the recursion limit makes json raise
    # RecursionError: still one config error, parsed in this process on this
    # thread, and nothing written
    def test_config_nested_past_recursion_limit_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        threads = threading.active_count()
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert threading.active_count() == threads
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert (err["error"], err["type"]) == ("config", "ConfigError")
        assert err["message"].startswith(f"config file {path} cannot be read: maximum recursion")
        assert not (tmp_path / "o").exists()

    # every error class of the package, and an OSError (an output path
    # refused at write time), raised by a command: its exit code and one
    # JSON line
    @pytest.mark.parametrize("cls", [
        *(v for v in vars(errors).values()
          if isinstance(v, type) and v.__module__ == errors.__name__),
        OSError,
    ], ids=lambda cls: cls.__name__)
    def test_each_error_class_maps_to_its_exit(self, tmp_path, capsys, monkeypatch, cls):
        def fail(cfg, out):
            raise cls("stubbed failure")

        if issubclass(cls, (errors.ConfigError, OSError)):
            expected = ("config", EXIT_CONFIG)
        elif issubclass(cls, errors.InvariantViolation):
            expected = ("invariant", EXIT_INVARIANT)
        elif issubclass(cls, errors.NumericError):
            expected = ("numeric", EXIT_NUMERIC)
        else:
            assert cls is errors.FilpivError
            expected = ("error", EXIT_NUMERIC)
        monkeypatch.setitem(_COMMANDS, "connect", fail)
        cfg = write_config(tmp_path / "c.json", {"params": {"a": 1.0, "eps": 0.5}})
        code = main(["connect", "--config", cfg, "--out", str(tmp_path / "o")])
        (line,) = capsys.readouterr().err.splitlines()
        err = parse_strict(line)
        assert (err["error"], code) == expected
        assert (err["type"], err["message"]) == (cls.__name__, "stubbed failure")

    # a path refused only at write time (an unwritable directory, a full disk)
    def test_write_failure_exits_2_with_json_line(self, tmp_path, capsys, monkeypatch):
        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "_create_parent", refuse)
        cfg = write_config(tmp_path / "c.json", {"params": {"a": 1.0, "eps": 0.5},
                                                 "s_span": [-2.0, 2.0]})
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["type"] == "PermissionError"

    def test_echoed_config_is_typed(self, tmp_path):
        # integer literals and defaults alike: the echo holds what the
        # commands read, floats but for the two counts and the side
        raw = {"params": {"a": 1, "eps": -1},
               "initial": {"gp0": [0, 0, -1], "gpp0": [0, 0, 0]},
               "s_span": [-2, 2], "sample_step": 1, "t_values": [1, 4],
               "x_grid": {"min": -1, "max": 1, "n": 3.0},
               "tolerances": {"max_steps": 1000.0},
               "connect": {"omega": -1, "delta": 0}}
        out = tmp_path / "o"
        assert main(["integrate", "--config", write_config(tmp_path / "c.json", raw),
                     "--out", str(out)]) == EXIT_OK
        echo = parse_strict((out / "diagnostics.json").read_text())["config"]
        assert echo == resolve_config(raw)

        def leaves(obj, path):
            if isinstance(obj, dict):
                for key, val in obj.items():
                    yield from leaves(val, f"{path}.{key}".lstrip("."))
            elif isinstance(obj, list):
                for val in obj:
                    yield from leaves(val, path)
            else:
                yield path, obj

        counts = {"tolerances.max_steps", "x_grid.n", "connect.side"}
        typed = {path: type(val) for path, val in leaves(echo, "")}
        assert typed == {path: int if path in counts else float for path in typed}
        assert echo["initial"]["s0"] == 0.0 and echo["connect"]["side"] == 1

    def test_grid_row_bound_is_inclusive(self):
        # exact counts: s_span [0, m] at step 1 samples m + 1 rows
        resolve_config({"s_span": [0.0, _MAX_ROWS - 1.0], "sample_step": 1.0})
        resolve_config({"x_grid": {"n": _MAX_ROWS}})
        with pytest.raises(ConfigError, match="sample_step"):
            resolve_config({"s_span": [0.0, float(_MAX_ROWS)], "sample_step": 1.0})
        with pytest.raises(ConfigError, match="x_grid.n"):
            resolve_config({"x_grid": {"n": _MAX_ROWS + 1}})

    def test_zero_a_rejects_nonzero_axis(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.3},
        })
        assert main(["zero-a", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_numeric_failure_exits_3(self, tmp_path):
        # an admissible tail maps: the control for the failure below
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.3},
            "connect": {"side": 1, "omega": -0.12, "delta": 0.9},
        })
        out = tmp_path / "o"
        assert main(["connect", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert [p.name for p in out.iterdir()] == ["connect.json"]
        out = tmp_path / "o2"
        cfg2 = write_config(tmp_path / "c2.json", {
            "params": {"a": 1.0, "eps": 0.3},
            # omega at the admissibility boundary: Im rho undefined
            "connect": {"side": 1, "omega": 0.1, "delta": 0.0},
        })
        assert main(["connect", "--config", cfg2,
                     "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()

    def test_non_finite_special_function_argument_exits_3(self, tmp_path, capsys):
        # 3 a overflows to inf in the argument of arg Gamma(1 + i x)
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1e308, "eps": 0.3},
            "connect": {"side": 1, "omega": -0.12, "delta": 0.9},
        })
        assert main(["connect", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["type"] == "DomainError"

    _TAIL = {"side": 1, "omega": -0.12, "delta": 0.9}

    # parameters whose closed-form laws overflow a float or leave their
    # measured range: zero-a's parabolic-cylinder constants (eps 883, just
    # past the limit of 882.9), e^{pi eps/4} (eps 950) and 1F1 parameters
    # (eps 3000), the reality constraint and connection
    # constant (a = 300 through the fitted tails, a = 150-230 in connect;
    # at a = 150 only the product of the constraint's factors overflows),
    # and the connection relations on admissible tails (a = 120, 155: the
    # e^{i rho_out} quotient; a = 200: e^{-2 pi omega_out} and e^{4 pi omega_in}),
    # and fits of symmetric branches (eps = a = 230: pi a in the connection
    # constant, past the e^{4 pi omega} at omega = a/3 that leaves the
    # residuals null, see TestFit; eps = 300: the fitted tails'
    # reality constraint, the tail roots being finite in factored form;
    # a = 500: pi a in the connection constant, before the tail roots'
    # cosh(pi a/2)); last, an admissible tail at a = 157 whose e^{i rho_out}
    # has finite parts and an overflowing modulus
    @pytest.mark.parametrize("command, config", [
        ("zero-a", {"params": {"a": 0.0, "eps": 883.0}}),
        ("zero-a", {"params": {"a": 0.0, "eps": 950.0}}),
        ("zero-a", {"params": {"a": 0.0, "eps": 3000.0}}),
        ("fit", {"params": {"a": 300.0, "eps": 0.3}, "initial": {"branch": "odd"}}),
        ("fit", {"params": {"a": 230.0, "eps": 230.0}, "initial": {"branch": "odd"}}),
        ("connect", {"params": {"a": 150.0, "eps": 0.3}, "connect": _TAIL}),
        ("connect", {"params": {"a": 155.0, "eps": 0.3}, "connect": _TAIL}),
        ("connect", {"params": {"a": 220.0, "eps": 0.3}, "connect": _TAIL}),
        ("connect", {"params": {"a": 230.0, "eps": 0.3}, "connect": _TAIL}),
        ("connect", {"params": {"a": 120.0, "eps": 0.3}, "connect": _TAIL}),
        ("connect", {"params": {"a": 200.0, "eps": 232.36625455718672},
                     "connect": {"side": 1, "omega": 48.025782914512746,
                                 "delta": -2.4281887670856195}}),
        ("connect", {"params": {"a": 200.0, "eps": 209.15180377177967},
                     "connect": {"side": -1, "omega": 60.996514302712825,
                                 "delta": -1.8423153992522763}}),
        ("fit", {"params": {"a": 1.0, "eps": 300.0}, "initial": {"branch": "mixed_plus"}}),
        ("fit", {"params": {"a": 500.0, "eps": 0.0}, "initial": {"branch": "odd"}}),
        ("connect", {"params": {"a": 157.19238489723514, "eps": 141.67786057078112},
                     "connect": {"side": 1, "omega": 6.886252630568521,
                                 "delta": -0.12933380081799584}}),
    ])
    def test_out_of_range_closed_forms_exit_3(self, tmp_path, capsys, command, config):
        cfg = write_config(tmp_path / "c.json", config)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "numeric"
        if command == "connect":
            # an overflow, not a non-real-monodromy verdict
            assert json.loads(err[0])["type"] == "DomainError"
        assert not out.exists()

    # values the config fuzz found escaping as a traceback or a numpy
    # warning: a so large that a^2 overflows, Cauchy data whose norm
    # overflows, a so small that a^2 underflows to 0, and zero-a at an eps so
    # small that its constants u_j round to -1; and a side that is an integer
    # far outside +-1
    @pytest.mark.parametrize("command, config, error", [
        ("integrate", {"params": {"a": 1e160, "eps": 0.5}}, "DomainError"),
        ("integrate", {"params": {"a": 1e160, "eps": 0.5}, "initial": _CAUCHY}, "DomainError"),
        ("connect", {"params": {"a": 1.0, "eps": 0.5},
                     "connect": {**_TAIL, "side": 1e160}}, "ConfigError"),
        ("integrate", {"params": {"a": 1.0, "eps": 0.5},
                       "initial": {"gp0": [1.0, 1e300, 0.0], "gpp0": [0.0, _RT_HALF, 0.0]}},
         "InconsistentCauchyDataError"),
        ("integrate", {"params": {"a": 1.0, "eps": 0.5},
                       "initial": {"gp0": [1.0, 0.0, 0.0], "gpp0": [0.0, _RT_HALF, 1e160]}},
         "InconsistentCauchyDataError"),
        ("integrate", {"params": {"a": 5e-324, "eps": 0.5}, "initial": _CAUCHY}, None),
        ("zero-a", {"params": {"a": 0.0, "eps": 1e-170}}, "DomainError"),
    ])
    def test_extreme_values_exit_cleanly(self, tmp_path, capsys, command, config, error):
        cfg = write_config(tmp_path / "c.json", {"s_span": [-2.0, 2.0], **config})
        code = {None: EXIT_OK, "DomainError": EXIT_NUMERIC}.get(error, EXIT_CONFIG)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line)["type"] for line in err] == ([error] if error else [])

    # runs whose drifts are far beyond the default thresholds of 1e-8
    @pytest.mark.parametrize("command, params, tolerances", [
        ("integrate", {"a": 1.0, "eps": 0.3}, {"rel": 0.5}),
        ("fit", {"a": 1.0, "eps": 0.3}, {"rel": 0.5}),
        ("fit", {"a": 0.0, "eps": 1.0}, {"rel": 0.5}),
        ("filament", {"a": 1.0, "eps": 0.3}, {"rel": 0.5}),
        ("zero-a", {"a": 0.0, "eps": 1.0}, {"rel": 0.5}),
        # with rel 1e300, each leg is one step over its whole half of the
        # span, and fitting the run overflows a float
        ("fit", {"a": 1.0, "eps": 0.3}, {"rel": 1e300}),
    ])
    def test_drift_beyond_thresholds_exits_4(self, tmp_path, capsys,
                                             command, params, tolerances):
        cfg = write_config(tmp_path / "c.json",
                           {"params": params, "tolerances": tolerances})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_INVARIANT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "invariant"
        # integrate alone writes its artefacts before the check, to diagnose
        # the run; the others write nothing, not even the directory
        if command == "integrate":
            assert sorted(p.name for p in out.iterdir()) == ["diagnostics.json",
                                                             "trajectory.csv"]
            parse_strict((out / "diagnostics.json").read_text())
        else:
            assert not out.exists()


class TestFit:
    # at omega = a/3 past about 56.5, e^{4 pi omega} in the first connection
    # relation overflows a float; the fits, the prediction and the roots do not
    @pytest.mark.parametrize("a", [170.0, 200.0])
    def test_overflowing_residuals_are_null(self, tmp_path, capsys, a):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": a, "eps": a}, "initial": {"branch": "odd"}})
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        payload = parse_strict((out / "fit.json").read_text())
        res = payload["connfI_residuals"]
        assert res["a_upper"] is None and res["a_lower"] is None
        assert math.isfinite(res["b"])
        for side in ("plus", "minus"):
            assert payload[side]["omega"] == pytest.approx(a / 3.0, rel=1e-12)
        assert payload["prediction"]["omega"] == pytest.approx(a / 3.0, rel=1e-15)
        assert len(payload["x_roots"]) == 4

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

    def test_branch_keys_compare_with_the_conjecture(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5},
            "initial": {"branch": "odd"},
            "s_span": [-40.0, 40.0],
        })
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
        assert payload["branch"] == "odd"
        prediction = payload["prediction"]
        assert prediction["status"] == "conjectural" and prediction["re_rho"] == math.pi
        assert prediction["limit_C2"] == 2.0 * (0.5 - 3.0 * prediction["omega"]) / 3.0
        assert payload["omega_deviation"] == max(
            abs(payload[side]["omega"] - prediction["omega"]) for side in ("plus", "minus"))
        assert payload["omega_deviation"] <= 1e-3
        assert len(payload["x_roots"]) == 4
        assert not payload["x_roots"][0]["admissible"]
        assert payload["x_roots"][1]["omega"] == prediction["omega"]

    # the normalized data at a = 0 (which the odd branch names there) and
    # Cauchy data: no conjecture to compare with
    @pytest.mark.parametrize("config", [
        {"params": {"a": 0.0, "eps": 2.7}},
        {"params": {"a": 1.0, "eps": 0.5}, "initial": _CAUCHY},
    ], ids=["a0", "cauchy"])
    def test_no_branch_keys_without_a_symmetric_branch(self, tmp_path, config):
        cfg = write_config(tmp_path / "c.json", {"s_span": [-30.0, 30.0], **config})
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = parse_strict((out / "fit.json").read_text())
        assert sorted(payload) == ["amp_consistency", "config", "connfI_residuals",
                                   "minus", "plus", "version"]

    def test_zero_axis_undefined_values_are_null(self, tmp_path):
        # a = 0: R(omega) = 0 leaves the amplitude ratios undefined, and omega
        # at its bound leaves Im rho undefined
        cfg = write_config(tmp_path / "c.json", {"params": {"a": 0.0, "eps": 0.5}})
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = parse_strict((out / "fit.json").read_text())
        assert payload["amp_consistency"] == [None, None]
        assert payload["plus"]["rho_im"] is None and payload["minus"]["rho_im"] is None
        assert math.isfinite(payload["plus"]["rho_re"])


    def test_default_window_lies_inside_both_tails(self, tmp_path):
        # on an asymmetric span the default window ends at the shorter tail:
        # [0.6, 1] * 30 here, where the longer tail's 40 left the span
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1, "eps": 0.5}, "initial": {"branch": "odd"},
            "s_span": [-30, 40],
        })
        out = tmp_path / "o"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = parse_strict((out / "fit.json").read_text())
        assert payload["config"]["fit_window"] == [18.0, 30.0]
        omega = payload["prediction"]["omega"]
        assert abs(payload["plus"]["omega"] - omega) <= 1e-3
        assert abs(payload["minus"]["omega"] - omega) <= 1e-3


class TestConnect:
    @pytest.mark.parametrize("a", [20.0, 50.0, 70.0])
    def test_strong_axis_tail_maps(self, tmp_path, a):
        # exited 3 with an Im rho mismatch of 0.33, 46 and 78, although each
        # tail has a real image; at a = 20, mpmath at 200 digits maps it to
        # omega -9.83, delta -3.066101189
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": a, "eps": 0.3},
            "connect": {"side": 1, "omega": -0.12, "delta": 0.9},
        })
        out = tmp_path / "o"
        assert main(["connect", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert [f.name for f in out.iterdir()] == ["connect.json"]
        payload = parse_strict((out / "connect.json").read_text())
        assert payload["predicted"]["side"] == -1
        if a == 20.0:
            assert payload["predicted"]["omega"] == pytest.approx(-9.83, abs=1e-12)
            assert abs(math.remainder(payload["predicted"]["delta"] + 3.066101189,
                                      2 * math.pi)) <= 1e-9
            assert payload["connfI_residuals"]["b"] <= 1e-12


class TestZeroA:
    def test_report_contents(self, tmp_path, zero_a_config):
        out = tmp_path / "o"
        assert main(["zero-a", "--config", zero_a_config, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "zero_a_report.json").read_text())
        assert max(rep["max_closed_vs_numeric"]) <= 1e-8
        assert max(rep["max_representation_gap"]) <= 1e-9
        assert "parity_residual" not in rep
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

    # the closed forms hold up to eps = 882.9, where the parabolic-cylinder
    # constants leave the float range
    @pytest.mark.parametrize("eps", [200.0, 882.0])
    def test_far_corner_angles(self, tmp_path, eps):
        cfg = write_config(tmp_path / "c.json", {"params": {"a": 0.0, "eps": eps}})
        out = tmp_path / "o"
        assert main(["zero-a", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "zero_a_report.json").read_text())
        assert max(rep["max_closed_vs_numeric"]) <= 1e-10
        assert max(rep["max_representation_gap"]) <= 1e-10

    # past the closed forms' range (the parabolic-cylinder constants at 883,
    # the 1F1 parameters at 3000) zero-a exits 3 before it integrates: at
    # 3000 a run of 1,426 steps came first, and its eps drift sat just under
    # the default threshold
    @pytest.mark.parametrize("eps", [883.0, 3000.0])
    def test_out_of_range_integrates_nothing(self, tmp_path, capsys, monkeypatch, eps):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_flow called")

        monkeypatch.setattr(cli, "integrate_flow", refuse)
        cfg = write_config(tmp_path / "c.json", {"params": {"a": 0.0, "eps": eps}})
        out = tmp_path / "o"
        assert main(["zero-a", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["type"] == "DomainError"
        assert not out.exists()

    def test_small_corner_angle(self, tmp_path):
        # kappa_j is formed without cancellation: a gap of 5.2e-8 when it was not
        cfg = write_config(tmp_path / "c.json", {"params": {"a": 0.0, "eps": 1e-9}})
        out = tmp_path / "o"
        assert main(["zero-a", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "zero_a_report.json").read_text())
        assert max(rep["max_representation_gap"]) <= 1e-9


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

    def test_one_state_read_per_chunk(self, tmp_path, monkeypatch):
        # per t and chunk one FlowRun.sample call gives G, C and T, with no
        # reconstruct_filament or FlowRun.g call; one more state_y call reads
        # every t's grid ends
        calls = dict.fromkeys(["sample", "g", "state_y", "reconstruct_filament"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("sample", "g", "state_y"):
            monkeypatch.setattr(flow.FlowRun, name, counted(name, getattr(flow.FlowRun, name)))
        monkeypatch.setattr(flow, "reconstruct_filament",
                            counted("reconstruct_filament", flow.reconstruct_filament))
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5},
            "initial": {"branch": "odd"},
            "s_span": [-6.0, 6.0],
            "t_values": [0.5, 1.0, 3.0],
            "x_grid": {"min": -4.0, "max": 4.0, "n": 2 * _SAMPLE_ROWS + 7},
        })
        assert main(["filament", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        chunks = 3 * 3  # three t values, three chunks each
        assert calls == {"sample": chunks, "g": 0, "state_y": 1 + chunks,
                         "reconstruct_filament": 0}


class TestSelfcheckCommand:
    def test_exit_codes_and_report(self, tmp_path, monkeypatch, capsys):
        import filpiv.cli as cli_mod
        from filpiv.selfcheck import CriterionResult

        # a row without a tolerance only reports, whatever its value
        fake = [CriterionResult("alpha", [("x", 1.0, 2.0), ("y", 1e9, None)]),
                CriterionResult("beta", [("z", 2.0, 2.0)])]
        monkeypatch.setattr(cli_mod, "run_selfcheck",
                            lambda: fake)
        out = tmp_path / "o"
        assert main(["selfcheck", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "[PASS] alpha: x 1 (<= 2), y 1e+09\n" in stdout
        assert "[PASS] beta: z 2 (<= 2)\n" in stdout
        report = parse_strict((out / "selfcheck.json").read_text())
        assert [r["name"] for r in report["results"]] == ["alpha", "beta"]
        assert report["results"][0]["rows"] == [
            {"label": "x", "measured": 1.0, "tolerance": 2.0},
            {"label": "y", "measured": 1e9, "tolerance": None},
        ]

        fake[1] = CriterionResult("beta", [("z", 2.5, 2.0)])
        rc = main(["selfcheck"])
        assert rc == 4
        assert "[FAIL] beta" in capsys.readouterr().out

    def test_failing_selfcheck_reports_like_any_failure(self, tmp_path, monkeypatch, capsys):
        # its lines and report first, then exit 4 with one JSON line that
        # names the failed criteria
        from filpiv.selfcheck import CriterionResult

        monkeypatch.setattr(cli, "run_selfcheck", lambda: [
            CriterionResult("alpha", [("x", 1.0, 2.0)]),
            CriterionResult("beta", [("z", 2.5, 2.0)]),
            CriterionResult("gamma", [("w", 3.0, 1.0)])])
        out = tmp_path / "o"
        assert main(["selfcheck", "--out", str(out)]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["[FAIL] beta: z 2.5 (<= 2)",
                                                 "[FAIL] gamma: w 3 (<= 1)"]
        report = parse_strict((out / "selfcheck.json").read_text())
        assert [r["passed"] for r in report["results"]] == [True, False, False]
        (line,) = captured.err.splitlines()
        err = parse_strict(line)
        assert (err["error"], err["type"]) == ("invariant", "InvariantViolation")
        assert err["message"] == "selfcheck criteria failed: beta, gamma"

    def test_real_criterion_report_is_json(self, tmp_path, monkeypatch, runs):
        # numpy scalars from a real criterion must not reach the JSON writer
        import filpiv.cli as cli_mod
        from filpiv import selfcheck as sc

        monkeypatch.setattr(sc, "CONSERVATION_GRID_A", (0.5,))
        monkeypatch.setattr(cli_mod, "run_selfcheck",
                            lambda: [sc.crit_conservation(runs)])
        out = tmp_path / "o"
        assert main(["selfcheck", "--out", str(out)]) == EXIT_OK
        (entry,) = parse_strict((out / "selfcheck.json").read_text())["results"]
        assert entry["passed"] is True
        assert [r["label"] for r in entry["rows"]] == [
            "unit drift", "eps drift", "constraint drift", "sigma-PIV residual/bound"]
        assert [r["tolerance"] for r in entry["rows"]] == [
            sc.TOL_UNIT_DRIFT, sc.TOL_EPS_DRIFT, sc.TOL_CONSTRAINT_DRIFT, 1.0]
        assert all(r["measured"] <= r["tolerance"] for r in entry["rows"])

    def test_verdict_follows_the_tolerance(self, tmp_path, monkeypatch, capsys, runs):
        # a tolerance below the measured drift fails the criterion, the
        # command exits 4, and the JSON row carries that tolerance
        import filpiv.cli as cli_mod
        from filpiv import selfcheck as sc

        monkeypatch.setattr(sc, "CONSERVATION_GRID_A", (0.5,))
        unit = sc.crit_conservation(runs).rows[0][1]
        assert unit > 0.0
        monkeypatch.setattr(sc, "TOL_UNIT_DRIFT", 0.5 * unit)
        result = sc.crit_conservation(runs)
        assert not result.passed
        assert result.line().startswith("[FAIL] conservation suite: unit drift ")
        monkeypatch.setattr(cli_mod, "run_selfcheck",
                            lambda: [sc.crit_conservation(runs)])
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["selfcheck", "--out", str(out)]) == 4
        assert capsys.readouterr().out.startswith("[FAIL] conservation suite")
        (entry,) = parse_strict((out / "selfcheck.json").read_text())["results"]
        assert entry["passed"] is False
        assert entry["rows"][0] == {"label": "unit drift", "measured": unit,
                                    "tolerance": 0.5 * unit}
        assert all(r["measured"] <= r["tolerance"] for r in entry["rows"][1:])


_STRICT_CASES = [
    ("integrate", {"params": {"a": 1.0, "eps": 0.5}, "initial": {"branch": "odd"},
                   "s_span": [-12.0, 12.0], "sample_step": 0.5}),
    ("fit", {"params": {"a": 1.0, "eps": 0.5}}),
    ("fit", {"params": {"a": 0.0, "eps": 2.7}}),
    ("connect", {"params": {"a": 1.0, "eps": 0.3},
                 "connect": {"side": 1, "omega": -0.1, "delta": 0.4}}),
    ("zero-a", {"params": {"a": 0.0, "eps": 1.0}, "s_span": [-12.0, 12.0]}),
    ("filament", {"params": {"a": 1.0, "eps": 0.5}, "initial": {"branch": "odd"},
                  "s_span": [-12.0, 12.0], "t_values": [1.0, 4.0],
                  "x_grid": {"min": -5.0, "max": 5.0, "n": 21}}),
    ("selfcheck", None),
]


@pytest.mark.parametrize("command, config", _STRICT_CASES,
                         ids=["integrate", "fit", "fit_a0", "connect", "zero-a",
                              "filament", "selfcheck"])
def test_every_json_artefact_is_strict(tmp_path, command, config):
    out = tmp_path / "o"
    argv = [command, "--out", str(out)]
    if config is not None:
        argv += ["--config", write_config(tmp_path / "c.json", config)]
    assert main(argv) == EXIT_OK
    written = sorted(out.glob("*.json"))
    assert written
    for path in written:
        parse_strict(path.read_text())


class TestMisc:
    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0

    def test_help_flag(self):
        r = run_cli("integrate", "--help")
        assert r.returncode == 0 and "--config" in r.stdout

    @pytest.mark.parametrize("argv", [
        ["integrate", "--tol-rel", "abc"],
        ["integrate", "--no-such-option"],
        ["selfcheck", "--s-max", "3"],
        ["selfcheck", "--config", "run.json"],
        ["no-such-command"],
        [],
    ])
    def test_usage_errors_exit_2_with_json_line(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        r = run_cli(*argv)
        assert r.returncode == EXIT_CONFIG and r.stdout == ""
        err = r.stderr.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"

    def test_symmetric_subcommand_is_gone(self, tmp_path, capsys):
        # fit reports the symmetric branches' conjecture; a valid config and
        # --out are refused before anything runs or is written
        cfg = write_config(tmp_path / "c.json", {"params": {"a": 1.0, "eps": 0.5}})
        out = tmp_path / "o"
        assert main(["symmetric", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()

    def test_readme_cli_block_lists_every_subcommand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        listed = [line.split()[1] for line in block.splitlines()]
        (subs,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        assert listed == list(subs.choices)

    def test_no_flag_duplicates_a_config_key(self):
        # the config file is the only way to set a run
        (subs,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {opt for a in sub._actions for opt in a.option_strings} - {"-h"}
                 for name, sub in subs.choices.items()}
        assert flags.pop("selfcheck") == {"--out", "--help"}
        assert flags == {name: {"--config", "--out", "--help"} for name in _COMMANDS}

    def test_readme_example_config_is_valid(self):
        # the example gives every key, each as the echo types it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Example config", 1)[1].split("```json\n", 1)[1]
        raw = json.loads(block.split("```", 1)[0])
        assert resolve_config(copy.deepcopy(raw)) == raw

    def test_parser_built_once_per_process(self, tmp_path, capsys):
        # integrate, filament and a bad argv in one process: one parser
        # build, and each command does what it does in a process of its own
        cfg = write_config(tmp_path / "c.json", {
            "params": {"a": 1.0, "eps": 0.5},
            "initial": {"branch": "odd"},
            "s_span": [-6.0, 6.0],
            "sample_step": 0.01,
            "t_values": [1.0, 2.5],
            "x_grid": {"min": -4.0, "max": 4.0, "n": 401},
        })
        out = tmp_path / "o"
        build_parser.cache_clear()
        assert main(["integrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["filament", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["integrate", "--no-such-option"]) == EXIT_CONFIG
        assert build_parser.cache_info().misses == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and json.loads(err[0])["error"] == "config"
        names = set()
        for sub in ("integrate", "filament"):
            r = run_cli(sub, "--config", cfg, "--out", str(tmp_path / sub))
            assert r.returncode == EXIT_OK and r.stdout == r.stderr == ""
            for path in (tmp_path / sub).iterdir():
                assert path.read_bytes() == (out / path.name).read_bytes()
                names.add(path.name)
        assert names == {p.name for p in out.iterdir()}

    def test_seedless_rejected(self, tmp_path, capsys, zero_a_config):
        out = tmp_path / "o"
        assert main(["integrate", "--seedless", "--config", zero_a_config,
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not out.exists()



# the fuzz's valid bases: Cauchy data at a = 1, and the zero-axis data.  The
# config is the only input that sets a run, so each case changes one value in
# it and passes no flag.  max_steps stays 10^4: a huge a or eps with the
# default budget of 2e6 steps would run for minutes before it exits 3
_FUZZ_BASES = [
    {"params": {"a": 1.0, "eps": 0.5},
     "initial": {"gp0": [1.0, 0.0, 0.0], "gpp0": [0.0, _RT_HALF, 0.0], "s0": 0.0},
     "s_span": [-2.0, 2.0],
     "tolerances": {"rel": 1e-10, "max_steps": 10000},
     "thresholds": {"unit": 1e-8, "eps": 1e-8, "constraint": 1e-8},
     "sample_step": 0.5, "fit_window": [1.0, 2.0], "t_values": [1.0, 2.0],
     "x_grid": {"min": -1.0, "max": 1.0, "n": 11},
     "connect": {"side": 1, "omega": -0.12, "delta": 0.9}},
    {"params": {"a": 0.0, "eps": 0.5}, "initial": {"branch": "odd"},
     "s_span": [-3.0, 3.0], "tolerances": {"max_steps": 10000},
     "sample_step": 0.25, "t_values": [1.0],
     "x_grid": {"min": -2.0, "max": 2.0, "n": 5},
     "connect": {"side": -1, "omega": 0.0, "delta": 0.0}},
]

# huge, tiny, zero, negative, NaN, infinite, wrong type and wrong length
_BAD_VALUES = [1e300, -1e300, 1e160, 1e16, 10**400, 5e-324, -5e-324, 0.0, -1.0, math.nan,
               math.inf, -math.inf, "x", None, True, [], [1.0], [1.0, 2.0, 3.0, 4.0],
               {}, {"a": 1.0}]


def _paths(obj, prefix=()):
    """Every key and list index path in obj, containers included."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


def _mutated(base, path, value):
    cfg = copy.deepcopy(base)
    holder = cfg
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return cfg


def test_fuzz_bases_are_valid():
    # a base that resolve_config rejects would leave the fuzz testing only
    # that rejection
    for base in _FUZZ_BASES:
        resolve_config(copy.deepcopy(base))


@st.composite
def _fuzz_cases(draw):
    base = draw(st.sampled_from(_FUZZ_BASES))
    path = draw(st.sampled_from(list(_paths(base))))
    cfg = _mutated(base, path, draw(st.sampled_from(_BAD_VALUES)))
    command = draw(st.sampled_from(list(_COMMANDS)))
    return command, cfg


@given(_fuzz_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_config_fuzz_exits_cleanly(case):
    # bad values anywhere in a valid config, checked by resolve_config in one
    # pass: a known exit code with one JSON line, strict JSON artefacts, and a
    # config error that writes nothing
    command, cfg = case
    try:
        resolve_config(copy.deepcopy(cfg))
        rejected = False
    except ConfigError:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        config = write_config(Path(tmp) / "c.json", cfg)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", config, "--out", str(out)])
        err = stderr.getvalue().splitlines()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_INVARIANT)
        if code != EXIT_OK:
            assert len(err) == 1 and parse_strict(err[0])["error"]
        for path in out.glob("*.json"):
            parse_strict(path.read_text())
        if rejected:
            assert code == EXIT_CONFIG and not out.exists()
