"""File formats: grid/function/measure CSVs, Gram CSVs, kernel-spec JSON,
and TestResult JSON.  Floats are serialized with 17 significant digits so
round-trips are bit-stable."""

from __future__ import annotations

import csv
import os
import tempfile
from typing import List, Sequence

import numpy as np

from . import kernels as K
from .errors import DomainError, ShapeError
from .profiles import Gaussian, _is_number, profile_from_json
from .spaces import (
    DiscreteMeasure,
    Euclidean,
    EuclideanMetric,
    FuncLp,
    FunctionSample,
    LpMetric,
    MeasurePoints,
    QuadratureGrid,
    trapezoid_grid,
)

__all__ = [
    "FLOAT_FMT",
    "fmt",
    "write_atomic",
    "read_grid_csv",
    "write_grid_csv",
    "read_function_csv",
    "read_points_csv",
    "read_measure_csv",
    "write_gram_csv",
    "read_gram_csv",
    "kernel_from_json",
    "default_kernel",
]

FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def write_atomic(path: str, text: str):
    """Write a file atomically (temp file in the same directory + rename)."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ParseError(DomainError):
    """A file failed to parse; message names the file and line."""


def _rows(path: str) -> List[List[str]]:
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _floats(path: str, lineno: int, row: Sequence[str]) -> List[float]:
    try:
        return [float(c) for c in row]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def read_grid_csv(path: str) -> QuadratureGrid:
    """Grid CSV: header 'node,weight', one row per node."""
    rows = _rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["node", "weight"]:
        raise ParseError(f"{path}:1: expected header 'node,weight'")
    data = [_floats(path, i + 2, r) for i, r in enumerate(rows[1:])]
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParseError(f"{path}: each row needs exactly two columns")
    nodes, weights = arr[:, 0], arr[:, 1]
    return QuadratureGrid(nodes, weights, (float(nodes[0]), float(nodes[-1])))


def write_grid_csv(path: str, grid: QuadratureGrid):
    lines = ["node,weight"]
    lines += [f"{fmt(n)},{fmt(w)}" for n, w in zip(grid.nodes, grid.weights)]
    write_atomic(path, "\n".join(lines) + "\n")


def read_function_csv(path: str, grid: QuadratureGrid) -> List[FunctionSample]:
    """Function data CSV: one row per sample, m value columns, no header."""
    rows = _rows(path)
    samples = []
    for i, row in enumerate(rows):
        vals = _floats(path, i + 1, row)
        if len(vals) != len(grid):
            raise ShapeError(
                f"{path}:{i + 1}: row has {len(vals)} columns, grid has {len(grid)} nodes"
            )
        samples.append(FunctionSample(grid, np.asarray(vals)))
    return samples


def read_points_csv(path: str) -> np.ndarray:
    """Euclidean points CSV: header 'x1,...,xd', one row per point."""
    rows = _rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header != [f"x{i + 1}" for i in range(len(header))]:
        raise ParseError(f"{path}:1: expected header x1,...,xd")
    data = [_floats(path, i + 2, r) for i, r in enumerate(rows[1:])]
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(header):
        raise ParseError(f"{path}: inconsistent column count")
    return arr


def read_measure_csv(path: str) -> DiscreteMeasure:
    """Measure CSV: header 'x1,...,xd,weight', one row per atom."""
    rows = _rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    d = len(header) - 1
    if d < 1 or header != [f"x{i + 1}" for i in range(d)] + ["weight"]:
        raise ParseError(f"{path}:1: expected header x1,...,xd,weight")
    data = [_floats(path, i + 2, r) for i, r in enumerate(rows[1:])]
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != d + 1:
        raise ParseError(f"{path}: inconsistent column count")
    return DiscreteMeasure(Euclidean(d), arr[:, :d], arr[:, d])


def write_gram_csv(path: str, entries: np.ndarray):
    entries = np.asarray(entries, dtype=float)
    row_fmt = ",".join([FLOAT_FMT] * entries.shape[1])
    write_atomic(path, "\n".join(row_fmt % tuple(row.tolist()) for row in entries) + "\n")


def read_gram_csv(path: str) -> np.ndarray:
    rows = _rows(path)
    return np.asarray([_floats(path, i + 1, r) for i, r in enumerate(rows)], dtype=float)


# ---------------------------------------------------------------------------
# kernel-spec JSON: every value is read as the JSON type it must have, and a
# value of another type raises ParseError

_REQUIRED = object()


def _object(val, what: str) -> dict:
    if not isinstance(val, dict):
        raise ParseError(f"{what} must be a JSON object, got {val!r}")
    return val


def _value(obj: dict, key: str, default=_REQUIRED):
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ParseError(f"missing key {key!r} in {obj!r}")
    return default


def _number(obj: dict, key: str, default=_REQUIRED, integer: bool = False):
    """obj[key] (default when absent): a JSON integer as an int, or, when integer
    is False, any JSON number as a float."""
    val = _value(obj, key, default)
    if not (_is_number(val) and (isinstance(val, int) or not integer)):
        kind = "an integer" if integer else "a number"
        raise ParseError(f"{key!r} must be {kind}, got {val!r}")
    return val if integer else float(val)


def _array(obj: dict, key: str, ndim: int) -> np.ndarray:
    """obj[key], a nonempty ndim-deep JSON list of numbers, as a float array."""
    val = _value(obj, key)

    def numbers(v, depth):
        if depth == 0:
            return _is_number(v)
        return isinstance(v, list) and len(v) > 0 and all(numbers(x, depth - 1) for x in v)

    if numbers(val, ndim):
        try:
            return np.asarray(val, dtype=float)
        except ValueError:  # rows of unequal length
            pass
    raise ParseError(f"{key!r} must be a nonempty {ndim}-D array of numbers, got {val!r}")


def _space_from_json(obj, grid: QuadratureGrid = None):
    obj = _object(obj, "space")
    kind = obj.get("kind")
    if kind == "euclidean":
        return Euclidean(_number(obj, "dim", integer=True))
    if kind == "func_lp":
        g = grid if grid is not None else _grid_from_json(obj.get("grid"))
        return FuncLp(g, _number(obj, "p", 2.0))
    if kind == "measure":
        return MeasurePoints(_space_from_json(_value(obj, "base"), grid))
    raise ParseError(f"unknown space kind {kind!r}")


def _grid_from_json(obj):
    if obj is None:
        raise ParseError("a grid is required (inline or via --grid)")
    obj = _object(obj, "grid")
    if "nodes" in obj:
        nodes, weights = _array(obj, "nodes", 1), _array(obj, "weights", 1)
        return QuadratureGrid(nodes, weights, (float(nodes[0]), float(nodes[-1])))
    if "m" in obj:
        return trapezoid_grid(_number(obj, "m", integer=True), _number(obj, "a", 0.0),
                              _number(obj, "b", 1.0))
    raise ParseError(f"cannot interpret grid spec {obj!r}")


def _metric_from_json(obj, grid: QuadratureGrid = None):
    obj = _object(obj, "metric")
    kind = obj.get("kind", "euclidean")
    if kind == "euclidean":
        return EuclideanMetric(_number(obj, "dim", 1, integer=True))
    if kind == "lp":
        g = grid if grid is not None else _grid_from_json(obj.get("grid"))
        return LpMetric(g, _number(obj, "p", 2.0))
    raise ParseError(f"unknown metric kind {kind!r}")


def kernel_from_json(spec: dict, grid: QuadratureGrid = None) -> K.KernelSpec:
    """Build a kernel from its JSON spec.

    Layout: {"space": {...}, "rule": {"kind": ..., ...}, "phi": {...}}.
    A grid loaded from --grid, when given, backs function-valued spaces.
    """
    spec = _object(spec, "kernel spec")
    rule = _object(spec.get("rule", {}), "rule")
    kind = rule.get("kind")
    phi = profile_from_json(spec["phi"]) if "phi" in spec else Gaussian(alpha=0.5)

    if kind == "radial_hilbert":
        return K.make_radial_hilbert(phi, _space_from_json(_value(spec, "space"), grid))
    if kind == "tee_radial":
        space = _space_from_json(_value(spec, "space"), grid)
        return K.make_tee_radial(phi, _map_from_json(rule), space)
    if kind == "lp_operator":
        g = grid if grid is not None else _grid_from_json(rule.get("grid"))
        k1 = kernel_from_json(rule["k1"], grid) if "k1" in rule else K.make_radial_hilbert(
            Gaussian(alpha=0.5), Euclidean(1)
        )
        return K.make_lp_operator(phi, k1, g, _number(rule, "p"))
    if kind == "metric_phi":
        return K.make_metric_phi(phi, _metric_from_json(rule.get("metric", {}), grid))
    if kind == "distance":
        metric = _metric_from_json(rule.get("metric", {}), grid)
        z0 = _array(rule, "z0", 1)
        if not isinstance(metric, EuclideanMetric):
            z0 = FunctionSample(metric.grid, z0)
        return K.make_distance_kernel(metric, z0)
    if kind == "mixture":
        comps = _value(rule, "components")
        if not isinstance(comps, list):
            raise ParseError(f"'components' must be a list, got {comps!r}")
        comps = [_object(c, "mixture component") for c in comps]
        return K.make_mixture([(kernel_from_json(_value(c, "kernel"), grid), _number(c, "weight"))
                               for c in comps])
    if kind == "kme_measure":
        return K.make_kme_measure(phi, kernel_from_json(_value(rule, "k1"), grid))
    if kind == "fourier_measure":
        if rule.get("freqs") == "gaussian":
            n, dim, seed = (_number(rule, key, default, integer=True)
                            for key, default in (("n", 64), ("dim", 1), ("seed", 0)))
            return K.make_fourier_measure(phi, *K.gaussian_frequencies(n, dim, seed))
        return K.make_fourier_measure(phi, _array(rule, "freqs", 2),
                                      _array(rule, "freq_weights", 1))
    if kind == "quantile_monge":
        g = grid if grid is not None else _grid_from_json(rule.get("u_grid", {"m": 64}))
        return K.make_quantile_monge(phi, g)
    raise ParseError(f"unknown kernel rule kind {kind!r}")


def _map_from_json(rule: dict) -> K.MapSpec:
    t = _object(rule.get("map", {"kind": "identity"}), "map")
    kind = t.get("kind")
    if kind == "identity":
        return K.Identity()
    if kind == "diagonal_scale":
        return K.DiagonalScale(tuple(_array(t, "factors", 1)))
    if kind == "linear_grid_map":
        return K.LinearGridMap(_array(t, "matrix", 2))
    raise ParseError(f"unknown map kind {kind!r}")


def default_kernel(space) -> K.KernelSpec:
    """Gaussian radial kernel with alpha = 1/2 on the detected space."""
    return K.make_radial_hilbert(Gaussian(alpha=0.5), space)
