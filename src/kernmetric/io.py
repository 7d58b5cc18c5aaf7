"""File formats: grid/function/measure CSVs, Gram CSVs, kernel-spec JSON,
and TestResult JSON.  Floats are serialized with 17 significant digits
(``FLOAT_FMT``) so round-trips are bit-stable; a Gram CSV formats each
mirrored pair of equal bits once, and its bytes are those of ``FLOAT_FMT`` per
cell."""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import fields
from typing import List, Optional, Tuple

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
    "scenario_from_json",
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


def _header(rows: List[Tuple[int, List[str]]]):
    """(line number, stripped cells) of the first of ``_read_csv``'s rows (1 and an
    empty list for an empty file), and the rows after it."""
    lineno, first = rows[0] if rows else (1, [])
    return lineno, [c.strip() for c in first], rows[1:]


def _numbers(path: str, rows: List[Tuple[int, List[str]]], width: int) -> np.ndarray:
    """The rows, each of width cells, as a float array.  An error names the line of
    the file that its row ends on, blank lines counted; no row left is a ParseError."""
    data = []
    for lineno, row in rows:
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: row has {len(row)} columns, expected {width}")
        try:
            data.append([float(c) for c in row])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not data:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(data, dtype=float)


def _coordinates(path: str, extra: List[str]) -> np.ndarray:
    """The data rows of a CSV with the header 'x1,...,xd' followed by the columns
    ``extra``, d >= 1."""
    lineno, cells, rows = _header(_read_csv(path))
    if not cells:
        raise ParseError(f"{path}: empty file")
    d = len(cells) - len(extra)
    if d < 1 or cells != [f"x{i + 1}" for i in range(d)] + extra:
        expected = ",".join(["x1", "...", "xd"] + extra)
        raise ParseError(f"{path}:{lineno}: expected header {expected}")
    return _numbers(path, rows, len(cells))


def read_grid_csv(path: str) -> QuadratureGrid:
    """Grid CSV: header 'node,weight', one row per node."""
    lineno, cells, rows = _header(_read_csv(path))
    if cells != ["node", "weight"]:
        raise ParseError(f"{path}:{lineno}: expected header 'node,weight'")
    arr = _numbers(path, rows, 2)
    return QuadratureGrid(arr[:, 0], arr[:, 1])


def write_grid_csv(path: str, grid: QuadratureGrid):
    lines = ["node,weight"]
    lines += [f"{fmt(n)},{fmt(w)}" for n, w in zip(grid.nodes, grid.weights)]
    write_atomic(path, "\n".join(lines) + "\n")


def read_function_csv(path: str, grid: QuadratureGrid) -> np.ndarray:
    """Function data CSV: one row per function, its values at the grid's m nodes, no
    header; returns the (n, m) array of the rows (``stack_points``)."""
    rows = _read_csv(path)
    if rows and len(rows[0][1]) != len(grid):
        raise ShapeError(f"{path}:{rows[0][0]}: row has {len(rows[0][1])} columns, "
                         f"grid has {len(grid)} nodes")
    return stack_points(FuncLp(grid), _numbers(path, rows, len(grid)))


def read_points_csv(path: str) -> np.ndarray:
    """Euclidean points CSV: header 'x1,...,xd', one row per point."""
    return _coordinates(path, [])


def read_measure_csv(path: str) -> DiscreteMeasure:
    """Measure CSV: header 'x1,...,xd,weight', one row per atom."""
    arr = _coordinates(path, ["weight"])
    d = arr.shape[1] - 1
    return DiscreteMeasure(Euclidean(d), arr[:, :d], arr[:, d])


def write_gram_csv(path: str, entries: np.ndarray):
    """Write a matrix as CSV, one row per line, each cell ``FLOAT_FMT`` of its entry.

    Cells on and above the diagonal are formatted row by row; a cell below it
    takes the text of its mirror when the two entries have the same 64-bit
    pattern, and is formatted itself otherwise (0.0 against -0.0, a matrix that
    is not symmetric or not square).  So each mirrored pair of a symmetric Gram
    matrix is formatted once, and the bytes are those of ``FLOAT_FMT`` per cell.
    """
    entries = np.asarray(entries, dtype=float)
    n, m = entries.shape
    k = min(n, m)
    bits = entries.view(np.uint64)[:k, :k]
    mirrored = np.tril(bits == bits.T, -1)
    own = np.ones((n, m), dtype=bool)
    own[:k, :k] = ~mirrored
    values = tuple(entries[own].tolist())
    text = np.empty((n, m), dtype=object)
    # one format for every cell formatted: FLOAT_FMT writes no comma
    text[own] = (",".join([FLOAT_FMT] * len(values)) % values).split(",")
    square = text[:k, :k]
    square[mirrored] = square.T[mirrored]
    write_atomic(path, "\n".join(map(",".join, text.tolist())) + "\n")


def read_gram_csv(path: str) -> np.ndarray:
    rows = _read_csv(path)
    return _numbers(path, rows, len(rows[0][1]) if rows else 0)


# ---------------------------------------------------------------------------
# kernel-spec and scenario JSON: each object is read by ``_read``, which refuses a
# key outside its kind, and each value as the JSON type it must have (ParseError)

_REQUIRED = object()
#: the most entries a float64 array can have: numpy describes its size in bytes by an intp
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


def _check_size(key: str, val: int, entries: int):
    """ParseError when the JSON integer val, read from key, sizes a float array of
    more entries than numpy can describe."""
    if entries > _MAX_ENTRIES:
        raise ParseError(f"{key!r} is too large for an array of floats, got {val!r}")


def _read(val, what: str, kinds: dict, tag: Optional[str] = "kind", default=None):
    """The kind of val, which must be a JSON object (a what): val[tag], default when
    absent, or None when tag is None.  ``kinds`` maps each kind to the keys it takes
    besides the tag; another kind, or another key, raises ParseError naming it."""
    if not isinstance(val, dict):
        raise ParseError(f"{what} must be a JSON object, got {val!r}")
    kind = None if tag is None else val.get(tag, default)
    try:
        keys = kinds[kind]
    except (KeyError, TypeError):  # TypeError: a kind that is a JSON list or object
        raise ParseError(f"unknown {what} {tag} {kind!r}") from None
    for key in val:
        if key != tag and key not in keys:
            raise ParseError(f"unknown key {key!r} in {what}" + (f" {kind!r}" if tag else ""))
    return kind


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
        except OverflowError as exc:  # a JSON integer beyond the double range
            raise ParseError(f"{key!r} is out of range, got {val!r}") from exc
        except ValueError:  # rows of unequal length
            pass
    raise ParseError(f"{key!r} must be a nonempty {ndim}-D array of numbers, got {val!r}")


_PROFILES = {
    "gaussian": Gaussian,
    "discrete_laplace": DiscreteLaplace,
    "exp_sqrt": ExpSqrt,
    "inverse_rational": InverseRational,
}
_PROFILE_KEYS = {name: tuple(f.name for f in fields(cls)) for name, cls in _PROFILES.items()}
_SPACES = {"euclidean": ("dim",), "func_lp": ("grid", "p"), "measure": ("base",)}
_METRICS = {"euclidean": ("dim",), "lp": ("grid", "p")}
_MAPS = {"identity": (), "diagonal_scale": ("factors",), "linear_grid_map": ("matrix",)}
_RULES = {"radial_hilbert": (), "tee_radial": ("map",), "lp_operator": ("grid", "k1", "p"),
          "metric_phi": ("metric",), "distance": ("metric", "z0"), "mixture": ("components",),
          "kme_measure": ("k1",), "fourier_measure": ("freqs", "freq_weights"),
          "quantile_monge": ("u_grid",)}
#: the rules of a rule object whose "freqs" is "gaussian": that Fourier rule is the exact
#: limit of N(0, I) atoms on R^dim, which no atom count or seed moves
_GAUSSIAN_RULES = {**_RULES, "fourier_measure": ("freqs", "dim")}
_SCENARIOS = {"euclidean_mean_shift": ("dim", "n", "m", "noise", "shifts"),
              "function_mean_shift": ("grid_m", "n", "m", "noise", "shifts")}


def profile_from_json(obj) -> PhiProfile:
    """Build a profile from its JSON object form, e.g. {"family": "gaussian", "alpha": 0.5}."""
    family = _read(obj, "profile", _PROFILE_KEYS, tag="family")
    if family == "discrete_laplace":
        atoms = _array(obj, "atoms", 2)
        if atoms.shape[1] != 2:
            raise ParseError(f"'atoms' must be [rate, weight] pairs, got {obj['atoms']!r}")
        return DiscreteLaplace(tuple(map(tuple, atoms)))
    return _PROFILES[family](**{k: _number(obj, k) for k in obj if k != "family"})


def _grid(obj: dict, key: str, grid: Optional[QuadratureGrid], default=None) -> QuadratureGrid:
    """The grid of a function-valued object: the --grid grid when given, else the
    inline grid obj[key] (default when absent), an object of nodes and weights or of
    the m nodes of a trapezoid rule on [a, b]."""
    if grid is not None:
        return grid
    val = obj.get(key, default)
    if val is None:
        raise ParseError("a grid is required (inline or via --grid)")
    explicit = isinstance(val, dict) and "nodes" in val
    _read(val, "grid", {None: ("nodes", "weights") if explicit else ("m", "a", "b")}, tag=None)
    if explicit:
        return QuadratureGrid(_array(val, "nodes", 1), _array(val, "weights", 1))
    m = _number(val, "m", integer=True)
    _check_size("m", m, m)
    return trapezoid_grid(m, _number(val, "a", 0.0), _number(val, "b", 1.0))


def _space_from_json(obj, grid: Optional[QuadratureGrid]):
    kind = _read(obj, "space", _SPACES)
    if kind == "euclidean":
        return Euclidean(_number(obj, "dim", integer=True))
    if kind == "func_lp":
        return FuncLp(_grid(obj, "grid", grid), _number(obj, "p", 2.0))
    return MeasurePoints(_space_from_json(_value(obj, "base"), grid))


def _metric_from_json(obj, grid: Optional[QuadratureGrid]):
    if _read(obj, "metric", _METRICS, default="euclidean") == "euclidean":
        return EuclideanMetric(_number(obj, "dim", 1, integer=True))
    return LpMetric(_grid(obj, "grid", grid), _number(obj, "p", 2.0))


def _map_from_json(obj) -> K.MapSpec:
    kind = _read(obj, "map", _MAPS)
    if kind == "identity":
        return K.Identity()
    if kind == "diagonal_scale":
        return K.DiagonalScale(tuple(_array(obj, "factors", 1)))
    return K.LinearGridMap(_array(obj, "matrix", 2))


def takes_space(k: K.KernelSpec, space) -> bool:
    """Whether k takes the points of space: k's own space, or L^p on the same grid
    whatever p, as a point of L^p is a row of values at the grid's nodes."""
    if isinstance(k.space, FuncLp) and isinstance(space, FuncLp):
        return k.space.grid == space.grid
    return k.space == space


def _describe(space) -> str:
    if isinstance(space, Euclidean):
        return f"R^{space.dim}"
    if isinstance(space, FuncLp):
        nodes = space.grid.nodes
        return f"L^{space.p} on {len(nodes)} nodes over [{nodes[0]}, {nodes[-1]}]"
    return f"measures on {_describe(space.base)}"


def kernel_from_json(spec: dict, grid: QuadratureGrid = None) -> K.KernelSpec:
    """Build a kernel from its JSON spec.

    Layout: {"space": {...}, "rule": {"kind": ..., ...}, "phi": {...}}.
    A grid loaded from --grid, when given, backs function-valued spaces.  The radial
    rules are built on the spec's space; any other rule builds its own, and a spec
    that gives a space its kernel does not take (``takes_space``) is a ParseError.
    """
    _read(spec, "kernel spec", {None: ("space", "rule", "phi")}, tag=None)
    rule = spec.get("rule", {})
    gaussian = isinstance(rule, dict) and rule.get("freqs") == "gaussian"
    kind = _read(rule, "rule", _GAUSSIAN_RULES if gaussian else _RULES)
    phi = profile_from_json(spec["phi"]) if "phi" in spec else Gaussian(alpha=0.5)
    radial = kind in ("radial_hilbert", "tee_radial")
    space = _space_from_json(_value(spec, "space"), grid) if radial or "space" in spec else None

    if kind == "radial_hilbert":
        k = K.make_radial_hilbert(phi, space)
    elif kind == "tee_radial":
        k = K.make_tee_radial(phi, _map_from_json(rule.get("map", {"kind": "identity"})), space)
    elif kind == "lp_operator":
        g = _grid(rule, "grid", grid)
        k1 = kernel_from_json(rule["k1"], grid) if "k1" in rule else default_kernel(Euclidean(1))
        k = K.make_lp_operator(phi, k1, g, _number(rule, "p"))
    elif kind == "metric_phi":
        k = K.make_metric_phi(phi, _metric_from_json(rule.get("metric", {}), grid))
    elif kind == "distance":
        metric = _metric_from_json(rule.get("metric", {}), grid)
        k = K.make_distance_kernel(metric, _array(rule, "z0", 1))
    elif kind == "mixture":
        comps = _value(rule, "components")
        if not isinstance(comps, list):
            raise ParseError(f"'components' must be a list, got {comps!r}")
        for c in comps:
            _read(c, "mixture component", {None: ("kernel", "weight")}, tag=None)
        k = K.make_mixture([(kernel_from_json(_value(c, "kernel"), grid), _number(c, "weight"))
                            for c in comps])
    elif kind == "kme_measure":
        k = K.make_kme_measure(phi, kernel_from_json(_value(rule, "k1"), grid))
    elif kind == "fourier_measure" and gaussian:
        base = Euclidean(_number(rule, "dim", 1, integer=True))
        k = K.make_kme_measure(phi, K.make_radial_hilbert(Gaussian(alpha=0.5), base))
    elif kind == "fourier_measure":
        k = K.make_fourier_measure(phi, _array(rule, "freqs", 2), _array(rule, "freq_weights", 1))
    else:
        k = K.make_quantile_monge(phi, _grid(rule, "u_grid", grid, {"m": 64}))
    if space is not None and not takes_space(k, space):
        raise ParseError(f"the spec's space, {_describe(space)}, is not one the {kind} kernel "
                         f"takes: it is built on {_describe(k.space)}")
    return k


def scenario_from_json(obj) -> tuple:
    """(space, shifts, n, m, noise) of a power-curve scenario object.

    The sample sizes n and m and the space's dim or grid_m are nonnegative JSON
    integers, noise a nonnegative number and shifts a list of numbers, read as floats."""
    euclidean = _read(obj, "scenario", _SCENARIOS) == "euclidean_mean_shift"
    values = {key: _number(obj, key, default, integer=key != "noise") for key, default in
              (("dim", 1) if euclidean else ("grid_m", 8), ("n", 20), ("m", 20), ("noise", 1.0))}
    for key, val in values.items():
        if not val >= 0:
            raise ParseError(f"{key!r} must be nonnegative, got {val!r}")
    d, n, m, noise = values.values()
    _check_size("dim" if euclidean else "grid_m", d, d)
    _check_size("n", n, n * d)
    _check_size("m", m, m * d)
    shifts = _value(obj, "shifts", [0.0, 0.5, 1.0])
    if not isinstance(shifts, list):
        raise ParseError(f"'shifts' must be a list of numbers, got {shifts!r}")
    shifts = [_number({"shifts": s}, "shifts") for s in shifts]
    space = Euclidean(d) if euclidean else FuncLp(trapezoid_grid(d), 2.0)
    return space, shifts, n, m, noise


def default_kernel(space) -> K.KernelSpec:
    """Gaussian radial kernel with alpha = 1/2 on the detected space."""
    return K.make_radial_hilbert(Gaussian(alpha=0.5), space)
