import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernmetric import Euclidean, FuncLp, Gaussian, gram, make_radial_hilbert, trapezoid_grid
from kernmetric.cli import _scenario_samples, main
from kernmetric.io import (
    ParseError,
    fmt,
    kernel_from_json,
    read_gram_csv,
    read_grid_csv,
    read_measure_csv,
    read_points_csv,
    write_gram_csv,
    write_grid_csv,
)

PHI = Gaussian(alpha=0.5)


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


def test_write_gram_csv_matches_per_value_format(tmp_path, rng):
    entries = rng.normal(size=(7, 7)) * 10.0 ** rng.integers(-300, 300, size=(7, 7))
    entries[0, :4] = [0.0, -0.0, 5e-324, 1.0]
    path = tmp_path / "gram.csv"
    write_gram_csv(str(path), entries)
    per_value = "".join(",".join(fmt(v) for v in row) + "\n" for row in entries)
    assert path.read_text() == per_value
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


def test_cli_gram_missing_points_is_usage_error(tmp_path, kernel_file):
    assert main(["gram", "--kernel", kernel_file, "--out", str(tmp_path / "g.csv")]) == 2


def test_cli_gram_nonexistent_file(tmp_path, kernel_file):
    code = main(
        ["gram", "--kernel", kernel_file, "--points", str(tmp_path / "nope.csv"),
         "--out", str(tmp_path / "g.csv")]
    )
    assert code == 2


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


@pytest.mark.parametrize("space", [Euclidean(3), FuncLp(trapezoid_grid(6))],
                         ids=["euclidean", "function"])
@pytest.mark.parametrize("noise", [1.0, 0.3, 0.0])
def test_scenario_samples_equal_per_sample_draws(space, noise):
    """One draw per sample set gives the bits of one draw per sample."""
    for seed in range(5):
        xs, ys = _scenario_samples(space, 4, 3, noise, 0.5, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        if isinstance(space, Euclidean):
            want = ([rng.normal(size=3) for _ in range(4)],
                    [rng.normal(size=3) + 0.5 for _ in range(3)])
        else:
            want = ([rng.normal(scale=noise, size=6) for _ in range(4)],
                    [0.5 + rng.normal(scale=noise, size=6) for _ in range(3)])
            xs, ys = [f.values for f in xs], [f.values for f in ys]
        assert [a.tobytes() for a in xs + ys] == [a.tobytes() for a in want[0] + want[1]]


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


def test_cli_selfcheck_injected_fault(capsys):
    assert main(["selfcheck", "--inject-fault"]) == 1
    assert "FAIL" in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["mmd", "test2"])
def test_cli_overflowing_kernel_values_are_data_error(tmp_path, capsys, command):
    # |x - z0| overflows when squared, so k(x, y) = inf + inf - inf
    spec = {"rule": {"kind": "distance", "metric": {"kind": "euclidean", "dim": 1},
                     "z0": [1e200]}}
    kernel = write(tmp_path / "k.json", json.dumps(spec))
    if command == "mmd":
        x = write(tmp_path / "x.csv", "x1,weight\n0,0.5\n1,0.5\n")
        y = write(tmp_path / "y.csv", "x1,weight\n2,1\n")
    else:
        x = write(tmp_path / "x.csv", "x1\n0\n1\n2\n")
        y = write(tmp_path / "y.csv", "x1\n5\n6\n7\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        assert main([command, "--kernel", kernel, "--x", x, "--y", y]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: kernel values overflow")


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
]


def _paths(node, prefix=()):
    """The paths to every value below the root of a JSON object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # run as the command runs, where numpy's overflow warnings are not errors: an
        # extreme value may overflow on the way to the typed error or finite value checked here
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["mmd", "--kernel", kernel, "--x", x, "--y", y])
    assert code in (0, 2, 3)
    assert not any(word in out.getvalue().lower() for word in ("nan", "inf"))
    if code == 0:
        assert all(math.isfinite(v) for v in json.loads(out.getvalue()).values())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    if _json_type(new) != _json_type(old):
        assert code in (2, 3)
