"""Command-line front end.

Exit codes: 0 success, 1 selfcheck failure or standard output closed early,
2 usage/parse error, 3 semantic/data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import io as kio
from .embeddings import gram
from .errors import KernmetricError, ShapeError
from .io import ParseError
from .spaces import Euclidean, FuncLp
from .stats import kernel_scores, mmd, permutation_test

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_USAGE = 2
EXIT_DATA = 3
#: what Python itself exits with when standard output is a closed pipe
EXIT_CLOSED_PIPE = 1


class UsageError(KernmetricError):
    pass


def _require(args, *names):
    for name in names:
        if not getattr(args, name, None):
            raise UsageError(f"--{name.replace('_', '-')} is required")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged, and a
    build costs about twenty parses and leaves some 400 objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="kernmetric",
        description="Characteristic kernels, MMD, kernel scores, and two-sample tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid: bool, seed: bool):
        """The flags of the commands that read a kernel; --grid only where the data may
        be functions, --seed only where permutations are drawn."""
        p.add_argument("--config", help="JSON file providing any of the flags")
        p.add_argument("--kernel", help="kernel spec JSON file")
        if grid:
            p.add_argument("--grid", help="quadrature grid CSV (for function-valued data)")
        p.add_argument("--out", help="output path")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gram", help="write the Gram matrix of a kernel on points")
    common(p, grid=True, seed=False)
    p.add_argument("--points", help="points CSV (Euclidean) or function data CSV")

    p = sub.add_parser("mmd", help="MMD between two discrete measures")
    common(p, grid=False, seed=False)
    p.add_argument("--x", help="first measure CSV")
    p.add_argument("--y", help="second measure CSV")

    p = sub.add_parser("test2", help="two-sample permutation test")
    common(p, grid=True, seed=True)
    p.add_argument("--x", help="first sample CSV")
    p.add_argument("--y", help="second sample CSV")
    p.add_argument("--perms", type=int, default=999)
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("score", help="kernel scores of a forecast at observations")
    common(p, grid=False, seed=False)
    p.add_argument("--forecast", help="forecast measure CSV")
    p.add_argument("--obs", help="observations CSV")

    p = sub.add_parser("power", help="empirical power curve over a shift scenario")
    common(p, grid=True, seed=True)
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--perms", type=int, default=99)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=200)

    sub.add_parser("selfcheck", help="run the built-in invariant suite")

    return parser


def _config_value(action: argparse.Action, val):
    """A --config value as the command line would give it: an option with a type
    takes what that type accepts from the value's text, and any other option takes
    a string."""
    if action.type is None:
        if not isinstance(val, str):
            raise ValueError(f"expected a string, got {val!r}")
        if "\0" in val:  # every such option is a path, and no path holds one
            raise ValueError("a path cannot contain a NUL character")
        return val
    return action.type(str(val))


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text
        raise ParseError(f"{path}: {exc}") from exc


def _apply_config(args: argparse.Namespace):
    if not getattr(args, "config", None):
        return
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict):
        raise ParseError(f"{args.config}: expected a JSON object")
    commands = next(a.choices for a in _build_parser()._actions if a.dest == "command")
    actions = {a.dest: a for a in commands[args.command]._actions}
    for key, val in cfg.items():
        key = key.replace("-", "_")
        if key == "command":
            continue
        if key not in actions or key == "help":
            raise ParseError(f"{args.config}: unknown option {key!r}")
        try:
            setattr(args, key, _config_value(actions[key], val))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{args.config}: option {key!r}: {exc}") from exc


def _load_kernel(args, space, grid=None):
    """The --kernel spec's kernel, or the default kernel on space, the data's space;
    ShapeError when the kernel does not take its points (``io.takes_space``)."""
    if not args.kernel:
        return kio.default_kernel(space)
    k = kio.kernel_from_json(_read_json(args.kernel), grid=grid)
    if not kio.takes_space(k, space):
        raise ShapeError("the kernel does not take the data's points: it needs their "
                         "dimension, or their grid")
    return k


def _load_grid(args):
    if args.grid:
        return kio.read_grid_csv(args.grid)
    return None


def _load_sample_list(path: str, grid):
    """The (n, d) array of a sample file's points, function values on grid when one
    is given, and their space."""
    if grid is not None:
        return kio.read_function_csv(path, grid), FuncLp(grid, 2.0)
    arr = kio.read_points_csv(path)
    return arr, Euclidean(arr.shape[1])


def cmd_gram(args) -> int:
    _require(args, "points", "out")
    grid = _load_grid(args)
    points, space = _load_sample_list(args.points, grid)
    k = _load_kernel(args, space, grid)
    kio.write_gram_csv(args.out, gram(k, points).entries)
    return EXIT_OK


def cmd_mmd(args) -> int:
    _require(args, "x", "y")
    p = kio.read_measure_csv(args.x)
    q = kio.read_measure_csv(args.y)
    k = _load_kernel(args, p.space)
    value = mmd(k, p, q)
    out = json.dumps({"mmd": value, "squared_mmd": value * value})
    if args.out:
        kio.write_atomic(args.out, out + "\n")
    print(out)
    return EXIT_OK


def _check_test_flags(args):
    """The flags of the permutation test, shared by test2 and power."""
    if args.perms < 1:
        raise UsageError("--perms must be a positive integer")
    if args.seed < 0:
        raise UsageError("--seed must be a nonnegative integer")
    if not (0.0 < args.alpha < 1.0):
        raise UsageError("--alpha must lie in (0, 1)")


def cmd_test2(args) -> int:
    _require(args, "x", "y")
    _check_test_flags(args)
    grid = _load_grid(args)
    xs, space = _load_sample_list(args.x, grid)
    ys, _ = _load_sample_list(args.y, grid)
    k = _load_kernel(args, space, grid)
    result = permutation_test(k, xs, ys, n_perm=args.perms, seed=args.seed)
    verdict = "REJECT" if result.p_value <= args.alpha else "FAIL-TO-REJECT"
    payload = json.dumps(result.to_json())
    if args.out:
        kio.write_atomic(args.out, payload + "\n")
    print(payload)
    print(verdict)
    return EXIT_OK


def cmd_score(args) -> int:
    _require(args, "forecast", "obs", "out")
    forecast = kio.read_measure_csv(args.forecast)
    obs = kio.read_points_csv(args.obs)
    k = _load_kernel(args, forecast.space)
    scores = kernel_scores(k, forecast, obs)
    lines = ["score"]
    lines += [kio.fmt(s) for s in scores]
    lines.append("mean," + kio.fmt(float(np.mean(scores))))
    kio.write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _scenario_samples(space, n: int, m: int, noise: float, shift: float, rng):
    """The two samples of one trial, each drawn as one (rows, d) array: the same
    values as one draw per sample, since the generator fills arrays in row order."""
    d = len(space.grid) if isinstance(space, FuncLp) else space.dim
    return rng.normal(scale=noise, size=(n, d)), shift + rng.normal(scale=noise, size=(m, d))


def cmd_power(args) -> int:
    _require(args, "out")
    if args.trials < 1:
        raise UsageError("--trials must be a positive integer")
    _check_test_flags(args)
    if not args.scenario:
        raise UsageError("--scenario is required")
    space, shifts, n, m, noise = kio.scenario_from_json(_read_json(args.scenario))
    grid = _load_grid(args)
    k = _load_kernel(args, space, grid)
    lines = ["shift,rejection_rate,trials,mc_stderr"]
    for shift_index, shift in enumerate(shifts):
        rejections = 0
        for trial in range(args.trials):
            # counter-based stream: independent of loop scheduling
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(args.seed, shift_index, trial))
            )
            xs, ys = _scenario_samples(space, n, m, noise, shift, rng)
            res = permutation_test(
                k, xs, ys, n_perm=args.perms, seed=int(rng.integers(2**32))
            )
            if res.p_value <= args.alpha:
                rejections += 1
        rate = rejections / args.trials
        stderr = float(np.sqrt(rate * (1.0 - rate) / args.trials))
        lines.append(
            f"{kio.fmt(shift)},{kio.fmt(rate)},{args.trials},{kio.fmt(stderr)}"
        )
    kio.write_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck  # here, so that no other command pays its import

    ok = run_selfcheck()
    return EXIT_OK if ok else EXIT_SELFCHECK


_COMMANDS = {
    "gram": cmd_gram,
    "mmd": cmd_mmd,
    "test2": cmd_test2,
    "score": cmd_score,
    "power": cmd_power,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        code = _COMMANDS[args.command](args)
        # written out here, so that a reader that has gone away raises below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the Python docs (signal module, "Note on SIGPIPE"): send what
        # is left to devnull, so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KernmetricError, MemoryError) as exc:  # MemoryError: a size that fits no memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # an input or output path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
