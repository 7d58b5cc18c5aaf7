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
from .profiles import Gaussian, profile_from_json
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
# kernel-spec JSON


def _space_from_json(obj: dict, grid: QuadratureGrid = None):
    kind = obj.get("kind")
    if kind == "euclidean":
        return Euclidean(int(obj["dim"]))
    if kind == "func_lp":
        g = grid if grid is not None else _grid_from_json(obj.get("grid"))
        return FuncLp(g, float(obj.get("p", 2.0)))
    if kind == "measure":
        return MeasurePoints(_space_from_json(obj["base"], grid))
    raise ParseError(f"unknown space kind {kind!r}")


def _grid_from_json(obj):
    if obj is None:
        raise ParseError("a grid is required (inline or via --grid)")
    if isinstance(obj, dict) and "nodes" in obj:
        nodes = np.asarray(obj["nodes"], dtype=float)
        weights = np.asarray(obj["weights"], dtype=float)
        return QuadratureGrid(nodes, weights, (float(nodes[0]), float(nodes[-1])))
    if isinstance(obj, dict) and "m" in obj:
        return trapezoid_grid(int(obj["m"]), float(obj.get("a", 0.0)), float(obj.get("b", 1.0)))
    raise ParseError(f"cannot interpret grid spec {obj!r}")


def _metric_from_json(obj: dict, grid: QuadratureGrid = None):
    kind = obj.get("kind", "euclidean")
    if kind == "euclidean":
        return EuclideanMetric(int(obj.get("dim", 1)))
    if kind == "lp":
        g = grid if grid is not None else _grid_from_json(obj.get("grid"))
        return LpMetric(g, float(obj.get("p", 2.0)))
    raise ParseError(f"unknown metric kind {kind!r}")


def kernel_from_json(spec: dict, grid: QuadratureGrid = None) -> K.KernelSpec:
    """Build a kernel from its JSON spec.

    Layout: {"space": {...}, "rule": {"kind": ..., ...}, "phi": {...}}.
    A grid loaded from --grid, when given, backs function-valued spaces.
    """
    rule = spec.get("rule", {})
    kind = rule.get("kind")
    phi = profile_from_json(spec["phi"]) if "phi" in spec else Gaussian(alpha=0.5)

    if kind == "radial_hilbert":
        space = _space_from_json(spec["space"], grid)
        return K.make_radial_hilbert(phi, space)
    if kind == "tee_radial":
        space = _space_from_json(spec["space"], grid)
        return K.make_tee_radial(phi, _map_from_json(rule), space)
    if kind == "lp_operator":
        g = grid if grid is not None else _grid_from_json(rule.get("grid"))
        k1 = kernel_from_json(rule["k1"], grid) if "k1" in rule else K.make_radial_hilbert(
            Gaussian(alpha=0.5), Euclidean(1)
        )
        return K.make_lp_operator(phi, k1, g, float(rule["p"]))
    if kind == "metric_phi":
        return K.make_metric_phi(phi, _metric_from_json(rule.get("metric", {}), grid))
    if kind == "distance":
        metric = _metric_from_json(rule.get("metric", {}), grid)
        z0 = rule.get("z0")
        if isinstance(metric, EuclideanMetric):
            z0 = np.asarray(z0, dtype=float)
        else:
            z0 = FunctionSample(metric.grid, np.asarray(z0, dtype=float))
        return K.make_distance_kernel(metric, z0)
    if kind == "mixture":
        comps = [
            (kernel_from_json(c["kernel"], grid), float(c["weight"]))
            for c in rule["components"]
        ]
        return K.make_mixture(comps)
    if kind == "kme_measure":
        k1 = kernel_from_json(rule["k1"], grid)
        return K.make_kme_measure(phi, k1)
    if kind == "fourier_measure":
        if rule.get("freqs") == "gaussian":
            fr, fw = K.gaussian_frequencies(
                int(rule.get("n", 64)), int(rule.get("dim", 1)), int(rule.get("seed", 0))
            )
            return K.make_fourier_measure(phi, fr, fw)
        return K.make_fourier_measure(
            phi, np.asarray(rule["freqs"], dtype=float), np.asarray(rule["freq_weights"], dtype=float)
        )
    if kind == "quantile_monge":
        g = grid if grid is not None else _grid_from_json(rule.get("u_grid", {"m": 64}))
        return K.make_quantile_monge(phi, g)
    raise ParseError(f"unknown kernel rule kind {kind!r}")


def _map_from_json(rule: dict) -> K.MapSpec:
    t = rule.get("map", {"kind": "identity"})
    kind = t.get("kind")
    if kind == "identity":
        return K.Identity()
    if kind == "diagonal_scale":
        return K.DiagonalScale(tuple(t["factors"]))
    if kind == "linear_grid_map":
        return K.LinearGridMap(np.asarray(t["matrix"], dtype=float))
    raise ParseError(f"unknown map kind {kind!r}")


def default_kernel(space) -> K.KernelSpec:
    """Gaussian radial kernel with alpha = 1/2 on the detected space."""
    return K.make_radial_hilbert(Gaussian(alpha=0.5), space)
