"""File formats: grid/function/measure CSVs, Gram CSVs, kernel-spec JSON,
and TestResult JSON.  Floats are serialized with 17 significant digits so
round-trips are bit-stable."""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import fields
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels as K
from .errors import DomainError, ShapeError
from .profiles import DiscreteLaplace, ExpSqrt, Gaussian, InverseRational, PhiProfile
from .spaces import (
    DiscreteMeasure,
    Euclidean,
    EuclideanMetric,
    FuncLp,
    LpMetric,
    MeasurePoints,
    QuadratureGrid,
    stack_points,
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
    "profile_from_json",
    "profile_to_json",
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


def _read_csv(path: str) -> List[Tuple[int, List[str]]]:
    """The rows of a CSV file that are not blank, each with the number of the line
    it ends on."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            return [(reader.line_num, row) for row in reader
                    if row and any(c.strip() for c in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _floats(path: str, lineno: int, row: Sequence[str]) -> List[float]:
    try:
        return [float(c) for c in row]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def _table(path: str, header: Optional[Callable[[int, List[str]], None]] = None,
           width: Optional[Callable[[int, int], None]] = None):
    """(header cells, data rows as a float array) of a CSV file.

    ``header``, when given, checks the line number and the stripped cells of the
    first row (1 and an empty list for an empty file) before any data row is
    read.  Every data row must have as many cells as the header, or, without
    one, as the first row; ``width``, when given, checks the line number of the
    first data row and that count.  An error names the line of the file that its
    row ends on, blank lines counted.  A file without a data row raises ParseError.
    """
    rows = _read_csv(path)
    cells = []
    if header is not None:
        lineno, first = rows[0] if rows else (1, [])
        cells = [c.strip() for c in first]
        header(lineno, cells)
        rows = rows[1:]
    n_cells = len(cells) if header is not None else len(rows[0][1]) if rows else 0
    if width is not None and rows:
        width(rows[0][0], n_cells)
    data = []
    for lineno, row in rows:
        if len(row) != n_cells:
            raise ParseError(f"{path}:{lineno}: row has {len(row)} columns, expected {n_cells}")
        data.append(_floats(path, lineno, row))
    if not data:
        raise ParseError(f"{path}: no data rows")
    return cells, np.asarray(data, dtype=float)


def _coordinate_header(path: str, extra: List[str]):
    """Check of the header 'x1,...,xd' followed by the columns ``extra``, d >= 1."""
    def check(lineno, cells):
        if not cells:
            raise ParseError(f"{path}: empty file")
        d = len(cells) - len(extra)
        if d < 1 or cells != [f"x{i + 1}" for i in range(d)] + extra:
            expected = ",".join(["x1", "...", "xd"] + extra)
            raise ParseError(f"{path}:{lineno}: expected header {expected}")

    return check


def read_grid_csv(path: str) -> QuadratureGrid:
    """Grid CSV: header 'node,weight', one row per node."""
    def check(lineno, cells):
        if cells != ["node", "weight"]:
            raise ParseError(f"{path}:{lineno}: expected header 'node,weight'")

    _, arr = _table(path, check)
    nodes, weights = arr[:, 0], arr[:, 1]
    return QuadratureGrid(nodes, weights, (float(nodes[0]), float(nodes[-1])))


def write_grid_csv(path: str, grid: QuadratureGrid):
    lines = ["node,weight"]
    lines += [f"{fmt(n)},{fmt(w)}" for n, w in zip(grid.nodes, grid.weights)]
    write_atomic(path, "\n".join(lines) + "\n")


def read_function_csv(path: str, grid: QuadratureGrid) -> np.ndarray:
    """Function data CSV: one row per function, its values at the grid's m nodes, no
    header; returns the (n, m) array of the rows (``stack_points``)."""
    def check(lineno, n_cells):
        if n_cells != len(grid):
            raise ShapeError(f"{path}:{lineno}: row has {n_cells} columns, "
                             f"grid has {len(grid)} nodes")

    return stack_points(FuncLp(grid), _table(path, width=check)[1])


def read_points_csv(path: str) -> np.ndarray:
    """Euclidean points CSV: header 'x1,...,xd', one row per point."""
    return _table(path, _coordinate_header(path, []))[1]


def read_measure_csv(path: str) -> DiscreteMeasure:
    """Measure CSV: header 'x1,...,xd,weight', one row per atom."""
    header, arr = _table(path, _coordinate_header(path, ["weight"]))
    d = len(header) - 1
    return DiscreteMeasure(Euclidean(d), arr[:, :d], arr[:, d])


def write_gram_csv(path: str, entries: np.ndarray):
    entries = np.asarray(entries, dtype=float)
    row_fmt = ",".join([FLOAT_FMT] * entries.shape[1])
    write_atomic(path, "\n".join(row_fmt % tuple(row.tolist()) for row in entries) + "\n")


def read_gram_csv(path: str) -> np.ndarray:
    return _table(path)[1]


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


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _number(obj: dict, key: str, default=_REQUIRED, integer: bool = False):
    """obj[key] (default when absent): a JSON integer as an int, or, when integer
    is False, any JSON number as a float."""
    val = _value(obj, key, default)
    if not (_is_number(val) and (isinstance(val, int) or not integer)):
        kind = "an integer" if integer else "a number"
        raise ParseError(f"{key!r} must be {kind}, got {val!r}")
    if integer:
        return val
    try:
        return float(val)
    except OverflowError as exc:  # a JSON integer beyond the double range
        raise ParseError(f"{key!r} is out of range, got {val!r}") from exc


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


_PROFILES = {
    "gaussian": Gaussian,
    "discrete_laplace": DiscreteLaplace,
    "exp_sqrt": ExpSqrt,
    "inverse_rational": InverseRational,
}


def profile_from_json(obj) -> PhiProfile:
    """Build a profile from its JSON object form, e.g. {"family": "gaussian", "alpha": 0.5}."""
    obj = _object(obj, "profile")
    family = _value(obj, "family")
    if not isinstance(family, str) or family not in _PROFILES:
        raise ParseError(f"unknown profile family {family!r}")
    cls = _PROFILES[family]
    params = [k for k in obj if k != "family"]
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise ParseError(f"unknown {family} parameters {unknown}")
    if cls is DiscreteLaplace:
        atoms = _array(obj, "atoms", 2)
        if atoms.shape[1] != 2:
            raise ParseError(f"'atoms' must be [rate, weight] pairs, got {obj['atoms']!r}")
        return DiscreteLaplace(tuple(map(tuple, atoms)))
    return cls(**{k: _number(obj, k) for k in params})


def profile_to_json(profile: PhiProfile) -> dict:
    """The JSON object form of a profile, as ``profile_from_json`` reads it."""
    family = {cls: name for name, cls in _PROFILES.items()}.get(type(profile))
    if family is None:
        raise DomainError(f"not a known profile: {profile!r}")
    params = {f.name: getattr(profile, f.name) for f in fields(profile)}
    if isinstance(profile, DiscreteLaplace):
        params["atoms"] = [list(a) for a in profile.atoms]
    return {"family": family, **params}


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
        return K.make_distance_kernel(metric, _array(rule, "z0", 1))
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
            # the exact limit of N(0, I) atoms: no atom count or seed moves the result
            unknown = sorted(set(rule) - {"kind", "freqs", "dim"})
            if unknown:
                raise ParseError(f"unknown gaussian-frequency keys {unknown}")
            base = Euclidean(_number(rule, "dim", 1, integer=True))
            return K.make_kme_measure(phi, K.make_radial_hilbert(Gaussian(alpha=0.5), base))
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
