import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernmetric import (DiagonalScale, DiscreteLaplace, DiscreteMeasure, DomainError, Euclidean,
                        EuclideanMetric, ExpSqrt, FuncLp, Gaussian, Identity, InverseRational,
                        LinearGridMap, LpMetric, MeasurePoints, QuadratureGrid, ShapeError, gram,
                        kernel_scores, make_distance_kernel, make_fourier_measure,
                        make_kme_measure, make_lp_operator, make_metric_phi, make_mixture,
                        make_quantile_monge, make_radial_hilbert, make_tee_radial, selfcheck,
                        trapezoid_grid)
from kernmetric.cli import _scenario_samples, main
from kernmetric.io import (
    ParseError,
    fmt,
    kernel_from_json,
    read_gram_csv,
    read_function_csv,
    read_grid_csv,
    read_measure_csv,
    read_points_csv,
    write_gram_csv,
    write_grid_csv,
)
from kernmetric.spaces import stack_points

from conftest import random_prob_measure

PHI = Gaussian(alpha=0.5)
PHI_JSON = {"family": "gaussian", "alpha": 0.5}


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def kernel_file(tmp_path):
    spec = {
        "space": {"kind": "euclidean", "dim": 1},
        "rule": {"kind": "radial_hilbert"},
        "phi": {"family": "gaussian", "alpha": 0.5},
    }
    return write(tmp_path / "kernel.json", json.dumps(spec))


# ---------------------------------------------------------------------------
# serialization


def test_fmt_round_trips_doubles(rng):
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
        assert float(fmt(x)) == x


def test_grid_csv_round_trip(tmp_path):
    grid = trapezoid_grid(9, 0.25, 2.0)
    path = tmp_path / "grid.csv"
    write_grid_csv(str(path), grid)
    back = read_grid_csv(str(path))
    assert back == grid


def test_points_csv(tmp_path):
    path = write(tmp_path / "pts.csv", "x1,x2\n0,0\n1,1\n")
    arr = read_points_csv(path)
    np.testing.assert_array_equal(arr, [[0.0, 0.0], [1.0, 1.0]])


def test_measure_csv(tmp_path):
    path = write(tmp_path / "m.csv", "x1,weight\n0,0.5\n2,0.5\n")
    mu = read_measure_csv(path)
    assert mu.is_probability
    assert mu.space == Euclidean(1)


def test_malformed_csv_raises_parse_error(tmp_path):
    path = write(tmp_path / "bad.csv", "x1,weight\n0,oops\n")
    with pytest.raises(ParseError):
        read_measure_csv(path)


def _read_two_node_functions(path):
    return read_function_csv(path, trapezoid_grid(2))


@pytest.mark.parametrize("read,text,error,message", [
    (read_points_csv, "x1,x2\n1,2\n\n3,4\n5,oops\n", ParseError, "bad.csv:5: could not convert"),
    (read_points_csv, "x1,x2\n\n1,2\n , \n3,4,5\n", ParseError,
     "bad.csv:5: row has 3 columns, expected 2"),
    (read_points_csv, "\n\nx1,x3\n1,2\n", ParseError, "bad.csv:3: expected header"),
    (_read_two_node_functions, "\n\n1,2,3\n", ShapeError,
     "bad.csv:3: row has 3 columns, grid has 2 nodes"),
])
def test_csv_errors_name_the_line_blank_lines_counted(tmp_path, read, text, error, message):
    path = write(tmp_path / "bad.csv", text)
    with pytest.raises(error, match=message):
        read(path)


def _wide_magnitudes(rng, shape):
    return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)


def _not_symmetric(rng):
    entries = _wide_magnitudes(rng, (7, 7))
    entries[0, :4] = [0.0, -0.0, 5e-324, 1.0]
    return entries


def _symmetric(rng):
    upper = np.triu(_wide_magnitudes(rng, (7, 7)))
    return upper + np.triu(upper, 1).T


def _symmetric_edge_pairs(rng):
    # each mirrored pair but the signed zeros has the same bits on both sides
    entries = _symmetric(rng)[:6, :6]
    for (i, j), (upper, lower) in {(0, 1): (0.0, -0.0), (2, 3): (np.nan, np.nan),
                                   (0, 4): (np.inf, np.inf), (1, 5): (-np.inf, -np.inf),
                                   (2, 5): (5e-324, 5e-324), (3, 3): (-0.0, -0.0)}.items():
        entries[i, j], entries[j, i] = upper, lower
    return entries


@pytest.mark.parametrize("make", [
    _not_symmetric,
    _symmetric,
    _symmetric_edge_pairs,
    lambda rng: rng.normal(size=(5, 7)),
    lambda rng: rng.normal(size=(7, 5)),
    lambda rng: rng.normal(size=(1, 1)),
    lambda rng: np.zeros((0, 0)),
    lambda rng: np.zeros((3, 0)),
], ids=["7x7", "symmetric", "symmetric_edge_pairs", "5x7", "7x5", "1x1", "0x0", "3x0"])
def test_write_gram_csv_matches_per_value_format(tmp_path, rng, make):
    entries = make(rng)
    path = tmp_path / "gram.csv"
    write_gram_csv(str(path), entries)
    # a line per row, ended by a newline; a 0 x 0 matrix gives one empty line
    per_value = "\n".join(",".join(fmt(v) for v in row) for row in entries) + "\n"
    assert path.read_text() == per_value
    if entries.size:
        np.testing.assert_array_equal(read_gram_csv(str(path)), entries)


def test_kernel_from_json_default_value():
    spec = {
        "space": {"kind": "euclidean", "dim": 2},
        "rule": {"kind": "radial_hilbert"},
        "phi": {"family": "gaussian", "alpha": 0.5},
    }
    k = kernel_from_json(spec)
    assert k(np.zeros(2), np.ones(2)) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_kernel_from_json_unknown_rule():
    with pytest.raises(ParseError):
        kernel_from_json(
            {
                "space": {"kind": "euclidean", "dim": 1},
                "rule": {"kind": "nope"},
                "phi": {"family": "gaussian", "alpha": 0.5},
            }
        )


@pytest.mark.parametrize("grid,key", [
    ({"nodes": [0.0, 1.0], "weights": [0.5, 0.5], "m": 2}, "m"),
    ({"m": 2, "weights": [0.5, 0.5]}, "weights"),
    ({"m": 2, "b": 2.0, "c": 1.0}, "c"),
], ids=["nodes_and_m", "m_and_weights", "unknown"])
def test_inline_grid_takes_the_keys_of_one_form(grid, key):
    spec = {"space": {"kind": "func_lp", "grid": grid}, "rule": {"kind": "radial_hilbert"}}
    with pytest.raises(ParseError, match=f"^unknown key '{key}' in grid$"):
        kernel_from_json(spec)


# ---------------------------------------------------------------------------
# CLI: gram


def test_cli_gram_round_trip(tmp_path, kernel_file, capsys):
    pts = write(tmp_path / "pts.csv", "x1\n0\n1\n2\n")
    out = tmp_path / "gram.csv"
    assert main(["gram", "--kernel", kernel_file, "--points", pts, "--out", str(out)]) == 0
    entries = read_gram_csv(str(out))
    k = make_radial_hilbert(PHI, Euclidean(1))
    expected = gram(k, [np.array([v]) for v in (0.0, 1.0, 2.0)]).entries
    # 17 significant digits: bit-exact round trip
    np.testing.assert_array_equal(entries, expected)


def test_cli_gram_on_a_grid_near_the_double_limit_is_quiet(tmp_path):
    grid = write(tmp_path / "g.csv", "node,weight\n-1.7e308,0.5\n1.7e308,0.5\n")
    points = write(tmp_path / "f.csv", "0,1\n1,0\n")
    out = tmp_path / "gram.csv"
    assert _run_cli(["gram", "--grid", grid, "--points", points, "--out", str(out)]) == (0, "", "")
    assert read_gram_csv(str(out)).shape == (2, 2)


def test_cli_gram_default_lp_operator_spec(tmp_path):
    """An lp_operator spec without k1 takes the default base kernel, Gaussian(0.5)."""
    grid = tmp_path / "grid.csv"
    write_grid_csv(str(grid), trapezoid_grid(16))
    rows = "".join(",".join(fmt(v) for v in row) + "\n"
                   for row in np.random.default_rng(0).normal(size=(5, 16)))
    spec = {"space": {"kind": "func_lp", "p": 1.5}, "rule": {"kind": "lp_operator", "p": 1.5}}
    kernel = write(tmp_path / "kernel.json", json.dumps(spec))
    out = tmp_path / "gram.csv"
    assert main(["gram", "--kernel", kernel, "--grid", str(grid),
                 "--points", write(tmp_path / "f.csv", rows), "--out", str(out)]) == 0
    entries = read_gram_csv(str(out))
    assert entries.shape == (5, 5)
    np.testing.assert_array_equal(entries, entries.T)


def test_cli_gram_on_a_grid_file_equals_the_library(tmp_path):
    # the grid's weights are read as a column of the CSV table; the kernel must
    # see the same values as from a grid built in the library, to the bit
    grid = trapezoid_grid(16)
    write_grid_csv(str(tmp_path / "grid.csv"), grid)
    spec = {"space": {"kind": "func_lp", "p": 1.5},
            "rule": {"kind": "distance", "metric": {"kind": "lp", "p": 1.5}, "z0": [0.0] * 16}}
    fs = np.random.default_rng(0).normal(size=(20, 16))
    out = tmp_path / "gram.csv"
    assert main(["gram", "--kernel", write(tmp_path / "k.json", json.dumps(spec)),
                 "--grid", str(tmp_path / "grid.csv"), "--out", str(out),
                 "--points", write(tmp_path / "f.csv", "".join(
                     ",".join(fmt(v) for v in row) + "\n" for row in fs))]) == 0
    k = make_distance_kernel(LpMetric(grid, 1.5), np.zeros(16))
    entries = gram(k, fs).entries
    np.testing.assert_array_equal(read_gram_csv(str(out)), entries)
    assert out.read_text() == "".join(",".join(fmt(v) for v in row) + "\n" for row in entries)


def test_cli_gram_missing_points_is_usage_error(tmp_path, kernel_file):
    assert main(["gram", "--kernel", kernel_file, "--out", str(tmp_path / "g.csv")]) == 2


@pytest.mark.parametrize("command,given,missing", [
    ("mmd", "y", "x"), ("mmd", "x", "y"), ("test2", "y", "x"), ("test2", "x", "y"),
    ("power", "scenario", "out"), ("power", "out", "scenario")])
def test_cli_missing_required_flag_is_usage_error(tmp_path, capsys, command, given, missing):
    files = {"x": write(tmp_path / "x.csv", "x1,weight\n0,0.5\n1,0.5\n"),
             "y": write(tmp_path / "y.csv", "x1,weight\n0.5,1\n"),
             "scenario": write(tmp_path / "s.json", '{"kind": "euclidean_mean_shift"}'),
             "out": str(tmp_path / "out.csv")}
    assert main([command, f"--{given}", files[given]]) == 2
    assert capsys.readouterr() == ("", f"error: --{missing} is required\n")
    assert not Path(files["out"]).exists()


def test_cli_gram_nonexistent_file(tmp_path, kernel_file):
    code = main(
        ["gram", "--kernel", kernel_file, "--points", str(tmp_path / "nope.csv"),
         "--out", str(tmp_path / "g.csv")]
    )
    assert code == 2


def test_cli_gram_empty_function_file_is_usage_error(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    write_grid_csv(str(grid), trapezoid_grid(4))
    out = tmp_path / "g.csv"
    for text in ("", "\n \n"):
        points = write(tmp_path / "f.csv", text)
        assert main(["gram", "--grid", str(grid), "--points", points, "--out", str(out)]) == 2
        assert "no data rows" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("route,header", [("test2", "x1,x2"), ("mmd", "x1,weight"),
                                          ("grid", "node,weight")])
def test_cli_header_without_rows_is_usage_error(tmp_path, route, header):
    path = write(tmp_path / "data.csv", header + "\n")
    code, _, err = _run_cli(_csv_route(tmp_path, route, path))
    assert code == 2
    assert "no data rows" in err


def _kernel_spec(space):
    return {"space": space, "rule": {"kind": "radial_hilbert"},
            "phi": {"family": "gaussian", "alpha": 0.5}}


@pytest.mark.parametrize("case", ["function_rows_euclidean_kernel",
                                  "points_function_kernel", "scenario_on_another_grid"])
def test_cli_kernel_must_take_the_data_points(tmp_path, capsys, case):
    """A row of m values is a point of R^m or of L^p on an m-node grid; the CLI reads
    it as the data's kind and refuses a kernel on the other kind, or on another grid."""
    m = 4
    grid = tmp_path / "grid.csv"
    nodes, weights = [0.0, 0.2, 0.7, 1.0], [0.1, 0.35, 0.4, 0.15]
    write_grid_csv(str(grid), QuadratureGrid(np.array(nodes), np.array(weights)))
    rows = "".join(",".join(fmt(v) for v in row) + "\n"
                   for row in np.random.default_rng(0).normal(size=(5, m)))
    if case == "function_rows_euclidean_kernel":
        spec = _kernel_spec({"kind": "euclidean", "dim": m})
        argv = ["gram", "--grid", str(grid), "--points", write(tmp_path / "f.csv", rows)]
    elif case == "points_function_kernel":
        spec = _kernel_spec({"kind": "func_lp", "grid": {"nodes": nodes, "weights": weights}})
        header = ",".join(f"x{i + 1}" for i in range(m)) + "\n"
        argv = ["gram", "--points", write(tmp_path / "p.csv", header + rows)]
    else:
        spec = _kernel_spec({"kind": "func_lp"})
        scenario = write(tmp_path / "s.json", json.dumps(
            {"kind": "function_mean_shift", "grid_m": m, "n": 3, "m": 3, "shifts": [0.0]}))
        argv = ["power", "--grid", str(grid), "--scenario", scenario, "--trials", "1",
                "--perms", "9"]
    kernel = write(tmp_path / "kernel.json", json.dumps(spec))
    out = tmp_path / "out.csv"
    assert main(argv + ["--kernel", kernel, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI: mmd


def test_cli_mmd_value(tmp_path, kernel_file, capsys):
    x = write(tmp_path / "x.csv", "x1,weight\n0,1\n")
    y = write(tmp_path / "y.csv", "x1,weight\n1,1\n")
    assert main(["mmd", "--kernel", kernel_file, "--x", x, "--y", y]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["mmd"] == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-0.5)), rel=1e-12)


def test_cli_mmd_signed_measure_is_data_error(tmp_path, kernel_file, capsys):
    x = write(tmp_path / "x.csv", "x1,weight\n0,1.5\n1,-0.5\n")
    y = write(tmp_path / "y.csv", "x1,weight\n1,1\n")
    assert main(["mmd", "--kernel", kernel_file, "--x", x, "--y", y]) == 3


def test_cli_mmd_dimension_mismatch_is_data_error(tmp_path, kernel_file):
    x = write(tmp_path / "x.csv", "x1,x2,weight\n0,0,1\n")
    y = write(tmp_path / "y.csv", "x1,x2,weight\n1,1,1\n")
    # kernel lives on R^1, measures on R^2
    assert main(["mmd", "--kernel", kernel_file, "--x", x, "--y", y]) == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_mmd_non_finite_point_is_data_error(tmp_path, kernel_file, capsys, bad):
    x = write(tmp_path / "x.csv", f"x1,weight\n0,0.5\n{bad},0.5\n")
    y = write(tmp_path / "y.csv", "x1,weight\n1,1\n")
    assert main(["mmd", "--kernel", kernel_file, "--x", x, "--y", y]) == 3
    assert "nan" not in capsys.readouterr().out.lower()


# ---------------------------------------------------------------------------
# CLI: test2


def test_cli_test2_rejects_separated_samples(tmp_path, kernel_file, capsys):
    x = write(tmp_path / "x.csv", "x1\n" + "0\n" * 20)
    y = write(tmp_path / "y.csv", "x1\n" + "5\n" * 20)
    code = main(
        ["test2", "--kernel", kernel_file, "--x", x, "--y", y,
         "--perms", "99", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[0])
    assert payload["p_value"] == pytest.approx(0.01, abs=1e-15)
    assert out[1] == "REJECT"


def test_cli_test2_deterministic(tmp_path, kernel_file, capsys):
    rng = np.random.default_rng(0)
    rows = "x1\n" + "".join(f"{v}\n" for v in rng.normal(size=8))
    x = write(tmp_path / "x.csv", rows)
    rows = "x1\n" + "".join(f"{v}\n" for v in rng.normal(size=8))
    y = write(tmp_path / "y.csv", rows)
    args = ["test2", "--kernel", kernel_file, "--x", x, "--y", y,
            "--perms", "49", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_cli_test2_non_finite_point_is_data_error(tmp_path, kernel_file, capsys, bad):
    x = write(tmp_path / "x.csv", f"x1\n0\n0.5\n{bad}\n1\n")
    y = write(tmp_path / "y.csv", "x1\n1\n2\n3\n")
    code = main(["test2", "--kernel", kernel_file, "--x", x, "--y", y, "--perms", "99"])
    assert code == 3
    out = capsys.readouterr().out
    assert "nan" not in out.lower() and "REJECT" not in out


def test_cli_test2_one_row_sample_is_data_error(tmp_path, kernel_file, capsys):
    x = write(tmp_path / "x.csv", "x1\n0\n")
    y = write(tmp_path / "y.csv", "x1\n1\n2\n3\n")
    out = tmp_path / "t.json"
    code = main(["test2", "--kernel", kernel_file, "--x", x, "--y", y, "--perms", "9",
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr() == ("", "error: both samples need at least 2 points\n")
    assert not out.exists()


def test_cli_test2_zero_perms_is_usage_error(tmp_path, kernel_file):
    x = write(tmp_path / "x.csv", "x1\n0\n0\n")
    y = write(tmp_path / "y.csv", "x1\n1\n1\n")
    code = main(["test2", "--kernel", kernel_file, "--x", x, "--y", y, "--perms", "0"])
    assert code == 2


def test_cli_test2_negative_seed_is_usage_error(tmp_path, kernel_file):
    x = write(tmp_path / "x.csv", "x1\n0\n0\n")
    y = write(tmp_path / "y.csv", "x1\n1\n1\n")
    code = main(["test2", "--kernel", kernel_file, "--x", x, "--y", y, "--seed", "-1"])
    assert code == 2


@pytest.mark.parametrize("row", ["nan,0.5", "0.5,inf"])
def test_cli_test2_non_finite_grid_is_data_error(tmp_path, capsys, row):
    grid = write(tmp_path / "grid.csv", f"node,weight\n0,0.25\n{row}\n1,0.25\n")
    x = write(tmp_path / "x.csv", "0,1,2\n1,2,3\n")
    y = write(tmp_path / "y.csv", "3,2,1\n2,1,0\n")
    code = main(["test2", "--grid", grid, "--x", x, "--y", y, "--perms", "9"])
    assert code == 3
    captured = capsys.readouterr()
    assert "nan" not in captured.out.lower() and "REJECT" not in captured.out
    assert "grid nodes and weights must be finite" in captured.err


def test_cli_test2_config_file(tmp_path, kernel_file, capsys):
    x = write(tmp_path / "x.csv", "x1\n0\n0\n0\n")
    y = write(tmp_path / "y.csv", "x1\n4\n4\n4\n")
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps({"kernel": kernel_file, "x": x, "y": y, "perms": 49, "seed": 2}),
    )
    assert main(["test2", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[0])["n_permutations"] == 49


def test_cli_test2_config_values_are_typed_like_flags(tmp_path, kernel_file, capsys):
    x = write(tmp_path / "x.csv", "x1\n0\n0.5\n1\n")
    y = write(tmp_path / "y.csv", "x1\n1\n2\n3\n")
    flags = ["test2", "--kernel", kernel_file, "--x", x, "--y", y]
    assert main(flags + ["--perms", "9", "--alpha", "0.5", "--seed", "3"]) == 0
    expected = capsys.readouterr().out
    cfg = write(tmp_path / "cfg.json",
                json.dumps({"perms": "9", "alpha": "0.5", "seed": 3}))
    assert main(flags + ["--config", cfg]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("cfg", [
    {"perms": "nine"}, {"perms": 9.5}, {"perms": "9.0"}, {"perms": True}, {"perms": None},
    {"alpha": [0.05]}, {"seed": "-"}, {"x": 5}, {"y": True}, {"no_such_flag": 1},
    ["perms", 9],  # not an object
])
def test_cli_test2_bad_config_value_is_usage_error(tmp_path, kernel_file, capsys, cfg):
    x = write(tmp_path / "x.csv", "x1\n0\n0\n0\n")
    y = write(tmp_path / "y.csv", "x1\n4\n4\n4\n")
    path = write(tmp_path / "cfg.json", json.dumps(cfg))
    assert main(["test2", "--kernel", kernel_file, "--x", x, "--y", y, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cfg.json" in captured.err


# ---------------------------------------------------------------------------
# CLI: score


def test_cli_score_rows(tmp_path, kernel_file):
    forecast = write(tmp_path / "f.csv", "x1,weight\n0,1\n")
    obs = write(tmp_path / "o.csv", "x1\n0\n1\n")
    out = tmp_path / "scores.csv"
    code = main(
        ["score", "--kernel", kernel_file, "--forecast", forecast, "--obs", obs,
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "score"
    assert float(lines[1]) == 0.0
    assert float(lines[2]) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-12)
    assert lines[3].startswith("mean,")


def test_cli_score_equals_the_library(tmp_path):
    # the forecast's weights are read as a column of the CSV table; the scores must
    # be those of the same measure built in the library, to the bit
    spec = {"space": {"kind": "euclidean", "dim": 2}, "rule": {"kind": "radial_hilbert"},
            "phi": {"family": "gaussian", "alpha": 0.5}}
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    k = make_radial_hilbert(PHI, Euclidean(2))
    rng = np.random.default_rng(0)
    for _ in range(5):
        pts, w, obs = rng.normal(size=(40, 2)), rng.dirichlet(np.ones(40)), rng.normal(size=(20, 2))
        forecast = write(tmp_path / "f.csv", "x1,x2,weight\n" + "".join(
            f"{fmt(a)},{fmt(b)},{fmt(c)}\n" for (a, b), c in zip(pts, w)))
        out = tmp_path / "s.csv"
        assert main(["score", "--kernel", kernel, "--forecast", forecast, "--out", str(out),
                     "--obs", write(tmp_path / "o.csv", "x1,x2\n" + "".join(
                         f"{fmt(a)},{fmt(b)}\n" for a, b in obs))]) == 0
        scores = [float(s) for s in out.read_text().splitlines()[1:-1]]
        np.testing.assert_array_equal(
            scores, kernel_scores(k, DiscreteMeasure(Euclidean(2), pts, w), obs))


def test_cli_score_negative_weight_forecast_is_data_error(tmp_path, kernel_file):
    forecast = write(tmp_path / "f.csv", "x1,weight\n0,1.5\n1,-0.5\n")
    obs = write(tmp_path / "o.csv", "x1\n0\n")
    code = main(
        ["score", "--kernel", kernel_file, "--forecast", forecast, "--obs", obs,
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 3


def test_cli_score_wrong_obs_dimension_is_data_error(tmp_path, kernel_file):
    forecast = write(tmp_path / "f.csv", "x1,weight\n0,1\n")
    obs = write(tmp_path / "o.csv", "x1,x2\n0,0\n")
    code = main(
        ["score", "--kernel", kernel_file, "--forecast", forecast, "--obs", obs,
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 3


@pytest.mark.parametrize("seed", [5, 6, 8])
def test_cli_score_roundoff_scales_with_the_kernel(tmp_path, seed):
    # k(x, x) = 2 |x - z0| is about 2e6; the score of a forecast with every atom
    # at the observation x is 0, computed with about 2e6 times the roundoff of k = 1
    spec = {"space": {"kind": "euclidean", "dim": 2},
            "rule": {"kind": "distance", "metric": {"kind": "euclidean", "dim": 2},
                     "z0": [1e6, 0]}}
    rng = np.random.default_rng(seed)
    x = rng.normal(size=2)
    w = rng.uniform(0.1, 1.0, size=5)
    point = f"{fmt(x[0])},{fmt(x[1])}"
    forecast = write(tmp_path / "f.csv", "x1,x2,weight\n"
                     + "".join(f"{point},{fmt(v)}\n" for v in w / w.sum()))
    obs = write(tmp_path / "o.csv", f"x1,x2\n{point}\n")
    out = tmp_path / "s.csv"
    code = main(["score", "--kernel", write(tmp_path / "k.json", json.dumps(spec)),
                 "--forecast", forecast, "--obs", obs, "--out", str(out)])
    assert code == 0
    assert 0.0 <= float(out.read_text().splitlines()[1]) <= 1e-4


# ---------------------------------------------------------------------------
# CLI: power


def test_cli_power_csv(tmp_path, kernel_file):
    scenario = write(
        tmp_path / "scenario.json",
        json.dumps({"kind": "euclidean_mean_shift", "dim": 1, "n": 10, "m": 10,
                    "shifts": [0.0, 3.0]}),
    )
    out = tmp_path / "power.csv"
    code = main(
        ["power", "--kernel", kernel_file, "--scenario", scenario,
         "--perms", "49", "--trials", "20", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "shift,rejection_rate,trials,mc_stderr"
    assert len(lines) == 3
    zero_rate = float(lines[1].split(",")[1])
    big_rate = float(lines[2].split(",")[1])
    assert zero_rate <= 0.25
    assert big_rate >= 0.9


def test_cli_power_noise_scales_euclidean_draws(tmp_path):
    # without noise every draw is its scenario mean, so a shift of 0.5 is always found
    scenario = write(tmp_path / "s.json", json.dumps(
        {"kind": "euclidean_mean_shift", "dim": 2, "n": 10, "m": 10, "shifts": [0, 0.5],
         "noise": 0}))
    out = tmp_path / "power.csv"
    assert main(["power", "--scenario", scenario, "--trials", "20", "--perms", "49",
                 "--seed", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["0,0,20,0", "0.5,1,20,0"]


@pytest.mark.parametrize("space", [Euclidean(3), FuncLp(trapezoid_grid(6))],
                         ids=["euclidean", "function"])
@pytest.mark.parametrize("noise", [1.0, 0.3, 0.0])
def test_scenario_samples_equal_per_sample_draws(space, noise):
    """One draw per sample set gives the bits of one draw per sample, the noise
    scaling the draws of both kinds of scenario."""
    d = 3 if isinstance(space, Euclidean) else 6
    for seed in range(5):
        xs, ys = _scenario_samples(space, 4, 3, noise, 0.5, np.random.default_rng(seed))
        assert xs.shape == (4, d) and ys.shape == (3, d)
        rng = np.random.default_rng(seed)
        want = ([rng.normal(scale=noise, size=d) for _ in range(4)],
                [0.5 + rng.normal(scale=noise, size=d) for _ in range(3)])
        assert [a.tobytes() for a in (*xs, *ys)] == [a.tobytes() for a in want[0] + want[1]]


def test_cli_power_config_values_are_typed_like_flags(tmp_path, kernel_file):
    scenario = write(tmp_path / "s.json", json.dumps(
        {"kind": "euclidean_mean_shift", "dim": 1, "n": 5, "m": 5, "shifts": [0.0, 2.0]}))
    flags = ["power", "--kernel", kernel_file, "--scenario", scenario]
    assert main(flags + ["--trials", "3", "--perms", "19", "--seed", "4",
                         "--out", str(tmp_path / "flags.csv")]) == 0
    cfg = write(tmp_path / "cfg.json", json.dumps(
        {"trials": "3", "perms": 19, "seed": "4", "out": str(tmp_path / "config.csv")}))
    assert main(flags + ["--config", cfg]) == 0
    assert (tmp_path / "config.csv").read_text() == (tmp_path / "flags.csv").read_text()


@pytest.mark.parametrize("cfg", [{"trials": "2.5"}, {"trials": [2]}, {"alpha": "small"},
                                 {"scenario": 1}])
def test_cli_power_bad_config_value_is_usage_error(tmp_path, kernel_file, capsys, cfg):
    scenario = write(tmp_path / "s.json", json.dumps({"kind": "euclidean_mean_shift"}))
    path = write(tmp_path / "cfg.json", json.dumps(cfg))
    code = main(["power", "--kernel", kernel_file, "--scenario", scenario, "--trials", "2",
                 "--out", str(tmp_path / "p.csv"), "--config", path])
    assert code == 2
    assert "cfg.json" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_cli_power_zero_trials_is_usage_error(tmp_path, kernel_file):
    scenario = write(tmp_path / "s.json", json.dumps({"kind": "euclidean_mean_shift"}))
    code = main(
        ["power", "--kernel", kernel_file, "--scenario", scenario,
         "--trials", "0", "--out", str(tmp_path / "p.csv")]
    )
    assert code == 2


def test_cli_power_negative_seed_is_usage_error(tmp_path, kernel_file):
    scenario = write(tmp_path / "s.json", json.dumps({"kind": "euclidean_mean_shift"}))
    code = main(
        ["power", "--kernel", kernel_file, "--scenario", scenario,
         "--trials", "2", "--seed", "-1", "--out", str(tmp_path / "p.csv")]
    )
    assert code == 2
    assert not (tmp_path / "p.csv").exists()


def test_cli_power_alpha_outside_unit_interval_is_usage_error(tmp_path, kernel_file, capsys):
    scenario = write(tmp_path / "s.json", json.dumps({"kind": "euclidean_mean_shift"}))
    code = main(
        ["power", "--kernel", kernel_file, "--scenario", scenario,
         "--trials", "2", "--alpha", "1.5", "--out", str(tmp_path / "p.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("scenario", [
    [{"kind": "euclidean_mean_shift"}],
    {"kind": "euclidean_mean_shift", "n": "abc"},
    {"kind": "euclidean_mean_shift", "shifts": "ab"},
    {"kind": "function_mean_shift", "noise": -1},
    {"kind": "euclidean_mean_shift", "dim": 2.7},
], ids=["list", "n_string", "shifts_string", "negative_noise", "fractional_dim"])
def test_cli_power_malformed_scenario_is_usage_error(tmp_path, kernel_file, capsys, scenario):
    path = write(tmp_path / "s.json", json.dumps(scenario))
    code = main(["power", "--kernel", kernel_file, "--scenario", path,
                 "--trials", "2", "--perms", "9", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("kind,key", [
    ("euclidean_mean_shift", "extra"), ("euclidean_mean_shift", "grid_m"),
    ("function_mean_shift", "extra"), ("function_mean_shift", "dim"),
])
def test_cli_scenario_with_an_unknown_key_is_usage_error(tmp_path, capsys, kind, key):
    scenario = write(tmp_path / "s.json", json.dumps(
        {"kind": kind, "n": 3, "m": 3, "shifts": [0.0], key: 4}))
    out = tmp_path / "p.csv"
    assert main(["power", "--scenario", scenario, "--trials", "1", "--perms", "9",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown key {key!r} in scenario {kind!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gram", "power"])
def test_cli_list_entry_beyond_the_double_range_is_usage_error(tmp_path, capsys, command):
    huge = 10 ** 400
    out = str(tmp_path / "out.csv")
    if command == "gram":
        spec = {"rule": {"kind": "distance", "metric": {"kind": "euclidean", "dim": 1},
                         "z0": [huge]}}
        kernel = write(tmp_path / "k.json", json.dumps(spec))
        argv = ["gram", "--kernel", kernel, "--points", write(tmp_path / "p.csv", "x1\n0\n")]
        key = "z0"
    else:
        scenario = write(tmp_path / "s.json",
                         json.dumps({"kind": "euclidean_mean_shift", "shifts": [huge]}))
        argv = ["power", "--scenario", scenario, "--trials", "1"]
        key = "shifts"
    assert main(argv + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key!r} is out of range")
    assert not Path(out).exists()


@pytest.mark.parametrize("scenario,spec,key", [
    ({"kind": "euclidean_mean_shift", "n": 10**400}, None, "n"),
    ({"kind": "euclidean_mean_shift", "dim": 10**400}, None, "dim"),
    ({"kind": "function_mean_shift", "grid_m": 10**30}, None, "grid_m"),
    ({"kind": "euclidean_mean_shift", "n": 10**18, "dim": 2}, None, "n"),
    ({"kind": "function_mean_shift"},
     {"space": {"kind": "func_lp", "grid": {"m": 10**30}}, "rule": {"kind": "radial_hilbert"}}, "m"),
], ids=["n", "dim", "grid_m", "n_times_dim", "inline_grid_m"])
def test_cli_size_past_numpy_arrays_is_usage_error(tmp_path, scenario, spec, key):
    """A JSON integer that sizes a float array numpy cannot describe exits 2 with one
    error line naming its key."""
    out = tmp_path / "p.csv"
    argv = ["power", "--scenario", write(tmp_path / "s.json", json.dumps(scenario)),
            "--trials", "1", "--perms", "9", "--out", str(out)]
    if spec is not None:
        argv += ["--kernel", write(tmp_path / "k.json", json.dumps(spec))]
    code, stdout, err = _run_cli(argv)
    _assert_clean_exit(code, stdout, err)
    assert code == 2 and err.startswith(f"error: {key!r} is too large") and err.count("\n") == 1
    assert not out.exists()


def test_cli_size_past_memory_is_data_error(tmp_path):
    """A size numpy can describe but not allocate (711 PiB here, refused at once) exits
    3 with one error line."""
    out = tmp_path / "p.csv"
    scenario = {"kind": "euclidean_mean_shift", "n": 10**17, "dim": 1}
    code, stdout, err = _run_cli(["power", "--scenario",
                                  write(tmp_path / "s.json", json.dumps(scenario)),
                                  "--trials", "1", "--perms", "9", "--out", str(out)])
    _assert_clean_exit(code, stdout, err)
    assert code == 3 and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_power_unknown_scenario_is_usage_error(tmp_path, kernel_file):
    scenario = write(tmp_path / "s.json", json.dumps({"kind": "mystery"}))
    code = main(
        ["power", "--kernel", kernel_file, "--scenario", scenario,
         "--trials", "2", "--out", str(tmp_path / "p.csv")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# CLI: selfcheck


SELFCHECK_NAMES = [
    "profiles_nonincreasing", "profiles_completely_monotone", "discrete_laplace_direct_sum",
    "constant_profile_excluded", "trapezoid_exactness", "triangle_inequality",
    "measure_difference_mass", "kernel_symmetry", "kernel_diagonal", "kernel_boundedness",
    "gram_psd", "gram_strict_pd", "tee_identity_reduction", "kme_argument_double_sum",
    "quantile_monge_matches_sorting", "mixture_lemma", "kme_clamp_and_scaling",
    "cauchy_schwarz", "ispd_on_signed_measures", "distance_kernel_z0_invariance",
    "mmd_identity_chain", "score_propriety", "score_mmd_half_identity",
    "energy_distance_equivalence", "mmd_pseudometric", "permutation_determinism",
    "permutation_separated_functions", "u_statistic_equal_samples",
]


def test_cli_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["PASS " + name for name in SELFCHECK_NAMES]


def test_cli_selfcheck_injected_fault(capsys, monkeypatch):
    def raises():
        raise ZeroDivisionError("division by zero")

    checks = [selfcheck.CHECKS[0], ("injected_fault", lambda: False), ("injected_error", raises)]
    monkeypatch.setattr(selfcheck, "CHECKS", checks)
    assert main(["selfcheck"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS " + SELFCHECK_NAMES[0], "FAIL injected_fault",
        "FAIL injected_error (error: division by zero)"]


# ---------------------------------------------------------------------------
# CLI: each subcommand takes only the flags it reads


@pytest.fixture
def command_inputs(tmp_path):
    """Arguments of a successful gram, mmd and score run."""
    points = write(tmp_path / "p.csv", "x1\n0\n1\n")
    measure = write(tmp_path / "m.csv", "x1,weight\n0,0.5\n1,0.5\n")
    return {
        "gram": ["--points", points, "--out", str(tmp_path / "g.csv")],
        "mmd": ["--x", measure, "--y", measure],
        "score": ["--forecast", measure, "--obs", points, "--out", str(tmp_path / "s.csv")],
    }


@pytest.mark.parametrize("command,flag", [("gram", "seed"), ("mmd", "seed"), ("score", "seed"),
                                          ("mmd", "grid"), ("score", "grid")])
def test_cli_unread_flag_is_usage_error(tmp_path, capsys, command_inputs, command, flag):
    grid = write(tmp_path / "grid.csv", "node,weight\n0,0.5\n1,0.5\n")
    value = {"seed": "1", "grid": grid}[flag]
    assert main([command, *command_inputs[command]]) == 0
    with pytest.raises(SystemExit) as exc:
        main([command, *command_inputs[command], f"--{flag}", value])
    assert exc.value.code == 2
    config = write(tmp_path / "cfg.json", json.dumps({flag: value}))
    assert main([command, *command_inputs[command], "--config", config]) == 2
    assert capsys.readouterr().err.endswith(f"unknown option {flag!r}\n")


@pytest.mark.parametrize("flag", ["--config", "--kernel", "--grid", "--out", "--seed",
                                  "--inject-fault"])
def test_cli_selfcheck_takes_no_flags(flag):
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", flag] + ([] if flag == "--inject-fault" else ["1"]))
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# CLI: standard output closed by the reader


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_closed_stdout_exits_without_traceback(tmp_path, kernel_file, unbuffered):
    x = write(tmp_path / "x.csv", "x1\n0\n0.5\n1\n")
    y = write(tmp_path / "y.csv", "x1\n1\n2\n3\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    if unbuffered:  # each print is written at once, not at the final flush
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kernmetric.cli", "test2", "--kernel", kernel_file,
             "--x", x, "--y", y, "--perms", "9"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# ---------------------------------------------------------------------------
# kernel-spec values


def test_cli_gram_non_integer_dim_is_usage_error(tmp_path, capsys):
    spec = {"space": {"kind": "euclidean", "dim": "x"}, "rule": {"kind": "radial_hilbert"}}
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    points = write(tmp_path / "p.csv", "x1\n0\n1\n")
    code = main(["gram", "--kernel", kernel, "--points", points, "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: 'dim' must be an integer")
    assert not (tmp_path / "g.csv").exists()


def test_cli_mmd_scalar_frequency_weights_is_usage_error(tmp_path, capsys):
    spec = {"rule": {"kind": "fourier_measure", "freqs": [[0.5]], "freq_weights": 1}}
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    x = write(tmp_path / "x.csv", "x1,weight\n0,1\n")
    y = write(tmp_path / "y.csv", "x1,weight\n1,1\n")
    assert main(["mmd", "--kernel", kernel, "--x", x, "--y", y]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: 'freq_weights' must be")


def _gaussian_frequency_spec(dim):
    return {"rule": {"kind": "fourier_measure", "freqs": "gaussian", "dim": dim},
            "phi": {"family": "gaussian", "alpha": 1.0}}


def test_gaussian_frequency_spec_is_the_mean_embedding_rule(rng):
    # Bochner: E_omega |mu^(omega) - nu^(omega)|^2 over omega ~ N(0, I) is the squared
    # mean-embedding distance of exp(-||x - y||^2 / 2), Gaussian(alpha=0.5)
    exact = make_kme_measure(Gaussian(alpha=1.0),
                             make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2)))
    ms = [random_prob_measure(rng, atoms=int(rng.integers(1, 5))) for _ in range(7)]
    g = gram(kernel_from_json(_gaussian_frequency_spec(2)), ms).entries
    assert g.tobytes() == gram(exact, ms).entries.tobytes()


def test_gaussian_frequency_atoms_converge_to_the_spec():
    """2^15 seeded N(0, I) atoms give the spec's argument to within 4 standard errors
    of their mean over the atoms."""
    n = 2 ** 15
    freqs = np.random.default_rng(15).standard_normal((n, 2))
    atoms = make_fourier_measure(PHI, freqs, np.full(n, 2.0 ** -15))
    spec = kernel_from_json(_gaussian_frequency_spec(2))
    rng = np.random.default_rng(16)
    for _ in range(3):
        mu, nu = (random_prob_measure(rng, atoms=3) for _ in range(2))
        gap = sum(w * np.exp(1j * (freqs @ x)) for x, w in zip(mu.points, mu.weights)) \
            - sum(w * np.exp(1j * (freqs @ x)) for x, w in zip(nu.points, nu.weights))
        per_atom = np.abs(gap) ** 2
        se = per_atom.std(ddof=1) / math.sqrt(n)
        x, y = stack_points(spec.space, [mu]), stack_points(spec.space, [nu])
        assert abs(atoms.arg(x, y)[0, 0] - spec.arg(x, y)[0, 0]) <= 4.0 * se


@pytest.mark.parametrize("key", ["n", "seed"])
def test_cli_gaussian_frequency_spec_takes_no_atom_count_or_seed(tmp_path, capsys, key):
    spec = _gaussian_frequency_spec(1)
    spec["rule"][key] = 64
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    x = write(tmp_path / "x.csv", "x1,weight\n0,1\n")
    assert main(["mmd", "--kernel", kernel, "--x", x, "--y", x]) == 2
    assert capsys.readouterr().err == f"error: unknown key '{key}' in rule 'fourier_measure'\n"


@pytest.mark.parametrize("command", ["mmd", "test2", "score", "gram"])
def test_cli_overflowing_kernel_values_are_data_error(tmp_path, capsys, command):
    # |x - z0| overflows when squared, so k(x, y) = inf + inf - inf
    spec = {"rule": {"kind": "distance", "metric": {"kind": "euclidean", "dim": 1},
                     "z0": [1e200]}}
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    measure = write(tmp_path / "m.csv", "x1,weight\n0,0.5\n1,0.5\n")
    points = write(tmp_path / "p.csv", "x1\n0\n1\n2\n")
    out_file = str(tmp_path / "out.csv")
    args = {
        "mmd": ["--x", measure, "--y", write(tmp_path / "q.csv", "x1,weight\n2,1\n")],
        "test2": ["--x", points, "--y", write(tmp_path / "y.csv", "x1\n5\n6\n7\n")],
        "score": ["--forecast", measure, "--obs", points, "--out", out_file],
        "gram": ["--points", points, "--out", out_file],
    }[command]
    assert main([command, "--kernel", kernel, *args]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: kernel values overflow")
    assert not Path(out_file).exists()


#: three points whose distances overflow: 1e308 - (-1e308) is inf as a float
_HUGE_POINTS = "x1,x2\n1e308,2\n-1e308,4\n5,6\n"


def test_cli_gram_of_overflowing_distances_is_the_exact_limit(tmp_path, capsys):
    # phi(inf) = 0 is the exact value of every off-diagonal entry; under the suite's
    # error::RuntimeWarning filter a numpy overflow warning would escape main
    points = write(tmp_path / "p.csv", _HUGE_POINTS)
    out_file = str(tmp_path / "g.csv")
    assert main(["gram", "--points", points, "--out", out_file]) == 0
    assert capsys.readouterr().err == ""
    np.testing.assert_array_equal(read_gram_csv(out_file), np.eye(3))


def test_cli_distance_kernel_of_overflowing_distances_is_one_data_error(tmp_path, capsys):
    # rho(x, z0) + rho(y, z0) - rho(x, y) is inf - inf: a typed error, and nothing else
    spec = {"rule": {"kind": "distance", "metric": {"kind": "euclidean", "dim": 2},
                     "z0": [0.0, 0.0]}}
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    points = write(tmp_path / "p.csv", _HUGE_POINTS)
    out_file = str(tmp_path / "g.csv")
    assert main(["gram", "--kernel", kernel, "--points", points, "--out", out_file]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: kernel values overflow")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not Path(out_file).exists()


def _gaussian_line_spec():
    return {"space": {"kind": "euclidean", "dim": 1}, "rule": {"kind": "radial_hilbert"},
            "phi": {"family": "gaussian", "alpha": 0.5}}


#: valid specs in which the kernel reader reads every value
_SPECS = [
    _gaussian_line_spec(),
    {"space": {"kind": "euclidean", "dim": 1},
     "rule": {"kind": "tee_radial", "map": {"kind": "diagonal_scale", "factors": [2.0]}},
     "phi": {"family": "inverse_rational", "beta": 1.0, "scale": 2.0}},
    {"rule": {"kind": "metric_phi", "metric": {"kind": "euclidean", "dim": 1}},
     "phi": {"family": "discrete_laplace", "atoms": [[0.5, 1.0], [2.0, 0.5]]}},
    {"rule": {"kind": "distance", "metric": {"kind": "euclidean", "dim": 1}, "z0": [0.25]}},
    {"rule": {"kind": "mixture", "components": [
        {"kernel": _gaussian_line_spec(), "weight": 0.5},
        {"kernel": {"space": {"kind": "euclidean", "dim": 1}, "rule": {"kind": "radial_hilbert"},
                    "phi": {"family": "exp_sqrt", "c": 1.0}}, "weight": 1.5}]}},
    {"rule": {"kind": "fourier_measure", "freqs": [[0.5], [1.0]], "freq_weights": [0.25, 0.75]},
     "phi": {"family": "gaussian", "alpha": 1.0}},
    {"rule": {"kind": "fourier_measure", "freqs": "gaussian", "dim": 1}},
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec["rule"]["kind"])
def test_cli_listed_specs_build_and_run_mmd(tmp_path, capsys, spec):
    """Each valid spec builds a kernel; one on points runs mmd, and one on measures
    is refused for the points of a measure file."""
    k = kernel_from_json(spec)
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    x = write(tmp_path / "x.csv", "x1,weight\n0,0.5\n1,0.5\n")
    y = write(tmp_path / "y.csv", "x1,weight\n0.5,1\n")
    code = main(["mmd", "--kernel", kernel, "--x", x, "--y", y])
    out, err = capsys.readouterr()
    if isinstance(k.space, MeasurePoints):
        assert code == 3 and out == ""
        assert err.startswith("error: the kernel does not take the data's points")
    else:
        assert code == 0 and err == ""
        assert json.loads(out)["mmd"] > 0.0


def _radial_spec(space, phi):
    return {"space": space, "rule": {"kind": "radial_hilbert"}, "phi": phi}


_E2 = {"kind": "euclidean", "dim": 2}
#: an inline trapezoid grid of the {"m", "a", "b"} form, and the grid it reads as
_INLINE_GRID, _GRID = {"m": 5, "a": -1.0, "b": 2.0}, trapezoid_grid(5, -1.0, 2.0)


def _tee_spec(map_spec):
    return {"space": _E2, "rule": {"kind": "tee_radial", "map": map_spec}}


#: (spec, the same kernel built by its constructor, the kind of its points): each rule
#: kind and each map kind of the kernel reader, three of them on an inline grid
_KIND_CASES = {
    "radial_hilbert": (
        _radial_spec(_E2, {"family": "inverse_rational", "beta": 2.0, "scale": 0.5}),
        lambda: make_radial_hilbert(InverseRational(beta=2.0, scale=0.5), Euclidean(2)), "e2"),
    "radial_hilbert-func_lp": (
        _radial_spec({"kind": "func_lp", "grid": _INLINE_GRID, "p": 2}, PHI_JSON),
        lambda: make_radial_hilbert(PHI, FuncLp(_GRID, 2.0)), "f5"),
    "tee_radial-identity": (
        _tee_spec({"kind": "identity"}),
        lambda: make_tee_radial(PHI, Identity(), Euclidean(2)), "e2"),
    "tee_radial-diagonal_scale": (
        _tee_spec({"kind": "diagonal_scale", "factors": [2.0, 0.5]}),
        lambda: make_tee_radial(PHI, DiagonalScale((2.0, 0.5)), Euclidean(2)), "e2"),
    "tee_radial-linear_grid_map": (
        _tee_spec({"kind": "linear_grid_map", "matrix": [[1.0, 2.0], [0.0, 1.0]]}),
        lambda: make_tee_radial(PHI, LinearGridMap(np.array([[1.0, 2.0], [0.0, 1.0]])),
                                Euclidean(2)), "e2"),
    "lp_operator": (
        {"rule": {"kind": "lp_operator", "grid": _INLINE_GRID, "p": 1.5,
                  "k1": _radial_spec({"kind": "euclidean", "dim": 1},
                                     {"family": "gaussian", "alpha": 2.0})},
         "phi": {"family": "exp_sqrt", "c": 1.5}},
        lambda: make_lp_operator(ExpSqrt(c=1.5), make_radial_hilbert(Gaussian(alpha=2.0),
                                                                     Euclidean(1)), _GRID, 1.5),
        "f5"),
    "metric_phi": (
        {"rule": {"kind": "metric_phi", "metric": {"kind": "lp", "grid": _INLINE_GRID, "p": 1.5}},
         "phi": {"family": "discrete_laplace", "atoms": [[0.5, 1.0], [2.0, 0.5]]}},
        lambda: make_metric_phi(DiscreteLaplace(atoms=((0.5, 1.0), (2.0, 0.5))),
                                LpMetric(_GRID, 1.5)), "f5"),
    "distance": (
        {"rule": {"kind": "distance", "metric": {"kind": "euclidean", "dim": 2},
                  "z0": [0.5, -1.0]}},
        lambda: make_distance_kernel(EuclideanMetric(2), np.array([0.5, -1.0])), "e2"),
    "mixture": (
        {"rule": {"kind": "mixture", "components": [
            {"kernel": _radial_spec(_E2, PHI_JSON), "weight": 0.25},
            {"kernel": _radial_spec(_E2, {"family": "exp_sqrt", "c": 1.0}), "weight": 1.5}]}},
        lambda: make_mixture([(make_radial_hilbert(PHI, Euclidean(2)), 0.25),
                              (make_radial_hilbert(ExpSqrt(c=1.0), Euclidean(2)), 1.5)]), "e2"),
    "kme_measure": (
        {"rule": {"kind": "kme_measure",
                  "k1": _radial_spec(_E2, {"family": "gaussian", "alpha": 1.0})},
         "phi": {"family": "exp_sqrt", "c": 1.5}},
        lambda: make_kme_measure(ExpSqrt(c=1.5), make_radial_hilbert(Gaussian(alpha=1.0),
                                                                     Euclidean(2))), "m2"),
    "fourier_measure": (
        {"rule": {"kind": "fourier_measure", "freqs": [[0.5, 1.0], [1.0, -2.0]],
                  "freq_weights": [0.25, 0.75]}},
        lambda: make_fourier_measure(PHI, [[0.5, 1.0], [1.0, -2.0]], [0.25, 0.75]), "m2"),
    "fourier_measure-gaussian": (
        {"rule": {"kind": "fourier_measure", "freqs": "gaussian", "dim": 2}},
        lambda: make_kme_measure(PHI, make_radial_hilbert(PHI, Euclidean(2))), "m2"),
    "quantile_monge": (
        {"rule": {"kind": "quantile_monge", "u_grid": {"m": 8, "a": 0.0, "b": 1.0}}},
        lambda: make_quantile_monge(PHI, trapezoid_grid(8)), "m1"),
}


def test_kind_cases_cover_every_rule_and_map_kind():
    from kernmetric.io import _MAPS, _RULES

    kinds = {spec["rule"]["kind"] for spec, _, _ in _KIND_CASES.values()}
    maps = {spec["rule"]["map"]["kind"] for spec, _, _ in _KIND_CASES.values()
            if "map" in spec["rule"]}
    assert (kinds, maps) == (set(_RULES), set(_MAPS))


@pytest.mark.parametrize("case", sorted(_KIND_CASES))
def test_each_spec_kind_builds_its_own_kernel(rng, case):
    """kernel_from_json of each kind gives the values of its own constructor, bit for bit."""
    spec, build, points = _KIND_CASES[case]
    draw = {"e2": lambda size: rng.normal(size=(size, 2)),
            "f5": lambda size: rng.normal(size=(size, 5)),
            "m2": lambda size: [random_prob_measure(rng, dim=2) for _ in range(size)],
            "m1": lambda size: [random_prob_measure(rng, dim=1) for _ in range(size)]}[points]
    xs, ys = draw(4), draw(3)
    np.testing.assert_array_equal(kernel_from_json(spec).pairwise(xs, ys),
                                  build().pairwise(xs, ys))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _paths(node, prefix=()):
    """The paths to every value below the root of a JSON object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


#: (index into _SPECS, path) of every JSON object of every listed spec, the spec itself too
_SPEC_OBJECTS = [(i, path) for i, spec in enumerate(_SPECS)
                 for path in [(), *_paths(spec)] if isinstance(_at(spec, path), dict)]


@pytest.mark.parametrize("index,path", _SPEC_OBJECTS, ids=[
    f"{_SPECS[i]['rule']['kind']}{i}:{'.'.join(map(str, path))}" for i, path in _SPEC_OBJECTS])
def test_cli_spec_object_with_an_unknown_key_is_usage_error(tmp_path, capsys, index, path):
    spec = json.loads(json.dumps(_SPECS[index]))
    _at(spec, path)["extra"] = 1
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    x = write(tmp_path / "x.csv", "x1,weight\n0,1\n")
    assert main(["mmd", "--kernel", kernel, "--x", x, "--y", x]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unknown key 'extra' in ")


@pytest.mark.parametrize("spec,message", [
    ({"rule": {"kind": "metric_phi", "metric": {"kind": "lp", "P": 1.5}}}, "'P' in metric 'lp'"),
    ({"space": {"kind": "func_lp", "P": 3}, "rule": {"kind": "radial_hilbert"}},
     "'P' in space 'func_lp'"),
    ({"space": {"kind": "func_lp"}, "rule": {"kind": "radial_hilbert", "n": 64, "seed": 3}},
     "'n' in rule 'radial_hilbert'"),
], ids=["lp_metric", "func_lp_space", "radial_rule"])
def test_cli_misspelt_spec_key_is_usage_error(tmp_path, capsys, spec, message):
    """Each spec builds a kernel on the grid's functions but for its one misspelt or
    foreign key, which once took its default in silence."""
    grid = write(tmp_path / "grid.csv", "node,weight\n0,0.5\n1,0.5\n")
    points = write(tmp_path / "f.csv", "0,1\n1,0\n")
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    out = tmp_path / "g.csv"
    assert main(["gram", "--grid", grid, "--kernel", kernel, "--points", points,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: unknown key {message}\n")
    assert not out.exists()


_LP_OPERATOR = {"kind": "lp_operator", "p": 1.5, "grid": {"m": 8}}


@pytest.mark.parametrize("spec,message", [
    ({"space": 5, "rule": {"kind": "quantile_monge"}}, "space must be a JSON object, got 5"),
    ({"space": {"kind": "bogus"}, "rule": {"kind": "metric_phi"}}, "unknown space kind 'bogus'"),
    ({"space": {"kind": "euclidean", "dim": 7}, "rule": _LP_OPERATOR},
     "the spec's space, R^7, is not one the lp_operator kernel takes: it is built on "
     "L^1.5 on 8 nodes over [0.0, 1.0]"),
    ({"space": {"kind": "func_lp", "grid": {"m": 9}}, "rule": _LP_OPERATOR},
     "the spec's space, L^2.0 on 9 nodes over [0.0, 1.0], is not one"),
    ({"space": {"kind": "measure", "base": {"kind": "euclidean", "dim": 1}},
      "rule": {"kind": "metric_phi"}}, "the spec's space, measures on R^1, is not one"),
], ids=["not_an_object", "unknown_kind", "other_kind", "other_grid", "measures"])
def test_spec_space_the_kernel_does_not_take_is_a_parse_error(tmp_path, capsys, spec, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        kernel_from_json(spec)
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    x = write(tmp_path / "x.csv", "x1,weight\n0,1\n")
    assert main(["mmd", "--kernel", kernel, "--x", x, "--y", x]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def test_spec_space_is_taken_on_the_same_grid_whatever_p():
    spec = {"space": {"kind": "func_lp", "grid": {"m": 8}, "p": 2.0}, "rule": _LP_OPERATOR}
    assert kernel_from_json(spec).space == FuncLp(trapezoid_grid(8), 1.5)
    spec = {"space": {"kind": "measure", "base": {"kind": "euclidean", "dim": 1}},
            "rule": {"kind": "quantile_monge"}}
    assert kernel_from_json(spec).space == MeasurePoints(Euclidean(1))


@pytest.mark.parametrize("rule", ["lp_operator", "distance"])
def test_cli_function_specs_without_a_space_grid_build_on_the_grid_file(tmp_path, rule):
    """A func_lp space with no grid, read on the --grid grid, beside a rule on the same
    grid: the gram is the library's, bit for bit."""
    m, p = 16, 1.5
    grid = trapezoid_grid(m)
    grid_file = str(tmp_path / "grid.csv")
    write_grid_csv(grid_file, grid)
    k1 = {"space": {"kind": "euclidean", "dim": 1}, "rule": {"kind": "radial_hilbert"},
          "phi": {"family": "gaussian", "alpha": 50.0}}
    spec, k = {
        "lp_operator": ({"rule": {"kind": "lp_operator", "p": p, "k1": k1},
                         "phi": {"family": "gaussian", "alpha": 0.5}},
                        make_lp_operator(PHI, make_radial_hilbert(Gaussian(alpha=50.0),
                                                                  Euclidean(1)), grid, p)),
        "distance": ({"rule": {"kind": "distance", "metric": {"kind": "lp", "p": p},
                               "z0": [0.0] * m}},
                     make_distance_kernel(LpMetric(grid, p), np.zeros(m))),
    }[rule]
    spec["space"] = {"kind": "func_lp", "p": p}
    functions = np.random.default_rng(3).normal(size=(5, m))
    points = write(tmp_path / "f.csv", "".join(",".join(map(fmt, row)) + "\n"
                                               for row in functions))
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    out = str(tmp_path / "g.csv")
    assert main(["gram", "--grid", grid_file, "--kernel", kernel, "--points", points,
                 "--out", out]) == 0
    assert read_gram_csv(out).tobytes() == gram(k, functions).entries.tobytes()


def _json_type(val):
    if isinstance(val, bool) or val is None:
        return type(val)
    return (int, float) if isinstance(val, (int, float)) else type(val)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-5, 50),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 2), max_size=2), st.just({}), st.just({"kind": "identity"}),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_mutated_kernel_spec_values_never_escape(tmp_path_factory, data):
    """Each spec value replaced by an arbitrary JSON value: the CLI exits 0, 2 or 3 and
    never prints NaN or infinity; a value of another JSON type than the one replaced
    always exits 2 or 3."""
    spec = json.loads(json.dumps(data.draw(st.sampled_from(_SPECS))))
    path = data.draw(st.sampled_from(list(_paths(spec))))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    new = data.draw(_JSON_VALUES, label=f"value at {path}")
    parent[path[-1]] = new
    tmp = tmp_path_factory.mktemp("spec")
    kernel = write(tmp / "k.json", json.dumps(spec))
    x = write(tmp / "x.csv", "x1,weight\n0,0.5\n1,0.5\n")
    y = write(tmp / "y.csv", "x1,weight\n0.5,1\n")
    code, out, err = _run_cli(["mmd", "--kernel", kernel, "--x", x, "--y", y])
    _assert_clean_exit(code, out, err)
    if code == 0:
        assert all(math.isfinite(v) for v in json.loads(out).values())
    if _json_type(new) != _json_type(old):
        assert code in (2, 3)


# ---------------------------------------------------------------------------
# malformed CSV files and --config values


@pytest.mark.parametrize("route,text,line", [
    ("test2", "x1,x2\n0,0\n1\n", 3),
    ("mmd", "x1,weight\n0,0.5\n1\n", 3),
    ("grid", "node,weight\n0,0.5\n1\n", 3),
    ("functions", "0,1\n1\n", 2),
])
def test_cli_short_csv_row_is_usage_error(tmp_path, capsys, route, text, line):
    bad = write(tmp_path / "bad.csv", text)
    assert main(_csv_route(tmp_path, route, bad)) == 2
    assert capsys.readouterr().err == f"error: {bad}:{line}: row has 1 columns, expected 2\n"


def test_cli_binary_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x1\n\xd0\xff\n")
    assert main(_csv_route(tmp_path, "test2", str(bad))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "can't decode" in err


@pytest.mark.parametrize("route", ["test2", "score", "mmd", "forecast", "grid", "functions"])
def test_cli_csv_field_over_the_limit_is_usage_error(tmp_path, capsys, route):
    rows = [_ROUTE_HEADERS[route]] if _ROUTE_HEADERS[route] else []
    big = write(tmp_path / "big.csv", "\n".join([*rows, "1" * 200000]) + "\n")
    assert main(_csv_route(tmp_path, route, big)) == 2
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == f"error: {big}: field larger than field limit ({limit})\n"


@pytest.mark.parametrize("alpha,message", [("x", "must be a number"), (10**400, "is out of range")],
                         ids=["string", "huge_integer"])
def test_cli_mistyped_profile_value_is_usage_error(tmp_path, capsys, alpha, message):
    spec = {**_gaussian_line_spec(), "phi": {"family": "gaussian", "alpha": alpha}}
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    x = write(tmp_path / "x.csv", "x1,weight\n0,1\n")
    assert main(["mmd", "--kernel", kernel, "--x", x, "--y", x]) == 2
    assert capsys.readouterr().err == f"error: 'alpha' {message}, got {alpha!r}\n"


def test_cli_output_path_that_is_a_directory_is_usage_error(tmp_path, capsys):
    points = write(tmp_path / "p.csv", "x1\n0\n1\n")
    assert main(["gram", "--points", points, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "p.csv"]


def _csv_route(tmp, route, path):
    """A command that reads ``path`` with the reader of ``route``, all else valid."""
    points = write(tmp / "points.csv", "x1\n0\n0.5\n1\n")
    measure = write(tmp / "measure.csv", "x1,weight\n0,0.5\n1,0.5\n")
    grid = write(tmp / "grid.csv", "node,weight\n0,0.5\n1,0.5\n")
    functions = write(tmp / "functions.csv", "0,1\n1,0\n0.5,0.5\n")
    out = str(tmp / "out.csv")
    return {
        "test2": ["test2", "--x", path, "--y", points, "--perms", "9"],
        "score": ["score", "--forecast", measure, "--obs", path, "--out", out],
        "mmd": ["mmd", "--x", path, "--y", measure],
        "forecast": ["score", "--forecast", path, "--obs", points, "--out", out],
        "grid": ["gram", "--grid", path, "--points", functions, "--out", out],
        "functions": ["gram", "--grid", grid, "--points", path, "--out", out],
    }[route]


def _run_cli(argv):
    """(exit code, stdout, stderr) of one in-process run, each warning that the suite's
    filters let through written to stderr; an exception escaping main fails the calling
    test, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        code = main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    assert code in (0, 2, 3)
    assert not any(word in out.lower() for word in ("nan", "inf"))
    assert "Warning" not in err and "Traceback" not in err
    if code != 0:
        assert out == "" and err.startswith("error: ")


_NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                     st.integers(-3, 3).map(str),
                     # near the largest double, where sums and differences overflow
                     st.floats(1.6e308, 1.7976931348623157e308).map(repr),
                     st.floats(-1.7976931348623157e308, -1.6e308).map(repr),
                     # subnormal
                     st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308).map(repr))
# mostly numbers, so that many files pass the header and number checks and reach the others
_CELLS = st.one_of(
    _NUMBERS, _NUMBERS,
    st.sampled_from(["", " ", "x1", "x2", "weight", "node", "1e999", "-0", "1_0", '"1"', "0x1"]),
    st.text(st.characters(codec="utf-8"), max_size=3),
    st.just("1" * (csv.field_size_limit() + 1)),
)
_HEADERS = st.sampled_from(["x1", "x1,x2", "x1,weight", "x1,x2,weight", "node,weight", ""])
_ROWS = st.lists(_CELLS, max_size=4).map(",".join)
#: grid files that parse: strictly increasing finite nodes, here and there near
#: +-1.7e308 or subnormal, each with a positive finite weight
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(1.6e308, 1.7976931348623157e308),
                    st.floats(-1.7976931348623157e308, -1.6e308),
                    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
_GRIDS = st.lists(_FINITE, min_size=2, max_size=5, unique=True).flatmap(
    lambda nodes: st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                           min_size=len(nodes), max_size=len(nodes)).map(
        lambda weights: "\n".join(["node,weight", *(f"{n!r},{w!r}" for n, w in
                                                     zip(sorted(nodes), weights))])))
#: the header each route's reader expects
_ROUTE_HEADERS = {"test2": "x1", "score": "x1", "mmd": "x1,weight", "forecast": "x1,weight",
                  "grid": "node,weight", "functions": ""}


@pytest.mark.parametrize("route", ["test2", "score", "mmd", "forecast", "grid", "functions"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_arbitrary_csv_never_escapes(tmp_path_factory, route, data):
    """Arbitrary CSV text given to each reader through the CLI exits 0, 2 or 3, with no
    exception escaping and no NaN or infinity printed."""
    rows = data.draw(st.lists(_ROWS, max_size=5))
    header = data.draw(st.one_of(st.just(_ROUTE_HEADERS[route]), _HEADERS, _ROWS))
    text = "\n".join([header, *rows] if route != "functions" else rows)
    if route == "grid":
        text = data.draw(st.one_of(st.just(text), _GRIDS))
    tmp = tmp_path_factory.mktemp("csv")
    path = tmp / "data.csv"
    path.write_text(text + data.draw(st.sampled_from(["", "\n", "\r\n"])), encoding="utf-8")
    _assert_clean_exit(*_run_cli(_csv_route(tmp, route, str(path))))
    try:
        assert read_gram_csv(str(path)).ndim in (1, 2)
    except DomainError:
        pass


#: the JSON values a --config entry may take
_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.sampled_from([".", "..", "\x00", "a\x00"]),
    st.integers(-5, 50),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 2), max_size=2), st.just({}),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_arbitrary_config_values_never_escape(tmp_path_factory, data):
    """A valid test2 --config with one entry replaced or added with an arbitrary JSON
    value exits 0, 2 or 3, with no exception escaping and no NaN or infinity printed."""
    tmp = tmp_path_factory.mktemp("config")
    cfg = {"x": write(tmp / "x.csv", "x1\n0\n0.5\n1\n"), "y": write(tmp / "y.csv", "x1\n2\n3\n"),
           "kernel": write(tmp / "k.json", json.dumps(_gaussian_line_spec())),
           "perms": 19, "seed": 3, "alpha": 0.1, "out": str(tmp / "out.json")}
    key = data.draw(st.sampled_from([*cfg, "grid", "config", "command", "help", "points",
                                     "inject_fault", "inject-fault"]))
    cfg[key] = data.draw(_CONFIG_VALUES, label=key)
    config = write(tmp / "cfg.json", json.dumps(cfg))
    cwd = os.getcwd()
    os.chdir(tmp)  # a relative --out lands here
    try:
        _assert_clean_exit(*_run_cli(["test2", "--config", config]))
    finally:
        os.chdir(cwd)
