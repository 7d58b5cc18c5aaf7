"""Spans and counts around kernmetric's public names, for the traced run.

Nothing in the program is changed on disk.  For one traced job the tracer
replaces every binding of each wrapped function in every loaded kernmetric
module (``cli``, ``stats`` and ``embeddings`` import ``gram``,
``permutation_test``, ``kme_sq_norm`` and ``kernels._base_gram`` by name),
then puts the originals back.  ``_base_gram`` is private, but it is the one
routine every Gram matrix goes through, so it marks the boundary between
``stats``/``embeddings`` and ``kernels``.

Calls into layer functions are timed as spans (name, start, end, parent,
job).  Scalar kernel evaluations ``k(x, y)``, profile evaluations,
``spaces.metric_dist`` and measure constructions are only counted, since
timing them would cost more than the work.  A wrap target that no longer
exists is an error, never a silent zero.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pickle
import sys
import typing
from collections import defaultdict
from time import perf_counter

# layer -> public names timed as spans
SPANS = {
    "cli": ("main",),
    "io": ("read_grid_csv", "read_function_csv", "read_points_csv", "read_measure_csv",
           "read_gram_csv", "write_gram_csv", "write_grid_csv", "write_atomic",
           "kernel_from_json", "default_kernel"),
    "kernels": ("make_radial_hilbert", "make_tee_radial", "make_lp_operator",
                "make_metric_phi", "make_distance_kernel", "make_mixture",
                "make_kme_measure", "make_fourier_measure", "make_quantile_monge",
                "_base_gram"),
    "embeddings": ("gram", "kme_sq_norm", "kme_inner", "min_eigenvalue"),
    "stats": ("mmd", "kernel_score", "expected_score", "divergence", "mmd_u_statistic",
              "permutation_test", "energy_distance"),
}
LAYERS = tuple(SPANS)
GRAM = "kernels._base_gram"
READS = {f"io.{n}" for n in SPANS["io"] if n.startswith("read_")}
WRITES = {f"io.{n}" for n in SPANS["io"] if n.startswith("write_")}
BUILDS = {f"kernels.{n}" for n in SPANS["kernels"] if n.startswith("make_")}

class TraceTargetMissing(RuntimeError):
    """A name the tracer wraps is gone from the program."""


def _measure_key(mu) -> bytes:
    return mu.weights.tobytes() + b"".join(
        getattr(p, "values", p).tobytes() for p in mu.points)


class Tracer:
    """Spans and counts for traced jobs, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []  # (span index, is a Gram span)
        self._evals = 0  # scalar evaluations in progress inside the top span
        self._distinct = defaultdict(set)  # per-job distinct keys, by counter
        self._functions = []  # (original, wrapper)
        self._methods = []  # (class, attribute, original, wrapper)
        self._patched = []
        self._resolve()

    # -- targets ----------------------------------------------------------

    def _resolve(self):
        def module(layer):
            try:
                return importlib.import_module(f"kernmetric.{layer}")
            except ImportError as exc:
                raise TraceTargetMissing(f"kernmetric.{layer}: {exc}") from exc

        def function(layer, name):
            fn = getattr(module(layer), name, None)
            if not callable(fn):
                raise TraceTargetMissing(f"kernmetric.{layer}.{name}")
            return fn

        hooks = {
            GRAM: self._on_gram,
            "embeddings.kme_sq_norm": self._on_kme_sq_norm,
            "stats.permutation_test": self._on_permutation_test,
            "io.write_atomic": self._on_write,
        }
        for name in READS:
            hooks[name] = self._on_read
        for name in BUILDS:
            hooks[name] = self._on_build
        for layer, names in SPANS.items():
            for name in names:
                fn = function(layer, name)
                span = f"{layer}.{name}"
                hook = hooks.get(span)
                bind = inspect.signature(fn).bind if hook else None
                self._functions.append((fn, self._span(span, fn, hook, bind)))
        metric_dist = function("spaces", "metric_dist")
        self._functions.append((metric_dist, self._counter("spaces.metric_dist_calls", metric_dist)))

        kernel_classes = self._own_call(_subclasses(function("kernels", "KernelSpec")))
        profile_classes = self._own_call(typing.get_args(getattr(module("profiles"), "PhiProfile", None)))
        if not kernel_classes or not profile_classes:
            raise TraceTargetMissing("kernel or profile classes with a __call__")
        for cls in kernel_classes:
            self._method(cls, "__call__", "kernels.pair_evals")
        for cls in profile_classes:
            self._method(cls, "__call__", "profiles.evals")
        measure = function("spaces", "DiscreteMeasure")
        if "__post_init__" not in vars(measure):
            raise TraceTargetMissing("kernmetric.spaces.DiscreteMeasure.__post_init__")
        orig = vars(measure)["__post_init__"]
        self._methods.append((measure, "__post_init__", orig,
                              self._counter("spaces.measure_builds", orig)))

    @staticmethod
    def _own_call(classes):
        return [c for c in classes if "__call__" in vars(c)]

    def _method(self, cls, attr, counter):
        orig = vars(cls)[attr]
        self._methods.append((cls, attr, orig, self._evaluation(counter, orig)))

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, hook, bind):
        spans, stack, counts = self.spans, self._stack, self.counts
        is_gram = name == GRAM
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if hook is not None:
                bound = bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1][0] if stack else None, self.job]
            spans.append(record)
            stack.append((index, is_gram))
            evals, self._evals = self._evals, 0
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._evals = evals
                stack.pop()

        return wrapper

    def _evaluation(self, counter, fn):
        """Count a scalar evaluation; one made directly by a Gram is an entry computed."""
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if self._evals == 0 and stack and stack[-1][1]:
                counts["kernels.gram_computed"] += 1
            self._evals += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._evals -= 1

        return wrapper

    def _counter(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks (called with the bound arguments) ---------------------------

    def _on_gram(self, a):
        n = len(a["points"])
        self.counts["kernels.gram_entries"] += n * n
        self.counts["kernels.gram_useful"] += n * (n + 1) // 2

    def _on_kme_sq_norm(self, a):
        self._distinct["embeddings.kme_sq_norm"].add(_measure_key(a["mu"]))

    def _on_permutation_test(self, a):
        n_perm, size = a["n_perm"], len(a["xs"]) + len(a["ys"])
        self.counts["stats.perm_replicates"] += n_perm
        # computed, not measured: each replicate copies the permuted N x N Gram
        self.counts["stats.perm_bytes_copied"] += n_perm * size * size * 8

    def _on_read(self, a):
        self.counts["io.read_bytes"] += os.path.getsize(a["path"])

    def _on_write(self, a):
        self.counts["io.write_bytes"] += len(a["text"].encode())

    def _on_build(self, a):
        self._distinct["kernels.build"].add(pickle.dumps(tuple(a.items())))

    # -- one traced job ---------------------------------------------------

    def start(self, job):
        """Patch every binding of the wrapped names for one job."""
        self.job = job
        self._distinct.clear()
        wrappers = {id(fn): (fn, w) for fn, w in self._functions}
        for name, mod in list(sys.modules.items()):
            if name != "kernmetric" and not name.startswith("kernmetric."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        for cls, attr, _, wrapper in self._methods:
            setattr(cls, attr, wrapper)

    def stop(self):
        """Restore the originals and fold this job's distinct keys into the counts."""
        for cls, attr, orig, _ in self._methods:
            setattr(cls, attr, orig)
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        for key, seen in self._distinct.items():
            self.counts[key + ".distinct"] += len(seen)
        self.job = None

    # -- results ----------------------------------------------------------

    def metrics(self, jobs: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics, per traced job.

        ``traced_s`` and ``untraced_s`` are the summed wall times of the
        traced jobs and of the same jobs run untraced.
        """
        spans, c = self.spans, self.counts
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        self_by_name = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            self_by_name[name] += end - start - child[i]

        def outermost(names):
            """Wall time inside spans of these names, nested ones counted once."""
            total = 0.0
            for name, start, end, parent, _ in spans:
                if name not in names:
                    continue
                while parent is not None and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent is None:
                    total += end - start
            return total

        def ratio(a, b):
            return a / b if b else 0.0

        def layer_self(layer):
            return sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))

        perm_loop = self_by_name["stats.permutation_test"]
        gram_s = outermost({GRAM})
        builds = sum(c[f"{b}.calls"] for b in BUILDS)
        totals = {
            "stats.permutation_test_s": outermost({"stats.permutation_test"}),
            "stats.perm_loop_s": perm_loop,
            "stats.perm_replicates": c["stats.perm_replicates"],
            "stats.perm_bytes_copied": c["stats.perm_bytes_copied"],
            "stats.score_s": outermost({"stats.kernel_score"}),
            "stats.kernel_score_calls": c["stats.kernel_score.calls"],
            "stats.energy_distance_s": outermost({"stats.energy_distance"}),
            "stats.mmd_s": outermost({"stats.mmd"}),
            "embeddings.gram_s": outermost({"embeddings.gram"}),
            "embeddings.kme_sq_norm_calls": c["embeddings.kme_sq_norm.calls"],
            "embeddings.kme_sq_norm_s": outermost({"embeddings.kme_sq_norm"}),
            "embeddings.kme_inner_s": outermost({"embeddings.kme_inner"}),
            "kernels.gram_s": gram_s,
            "kernels.gram_entries": c["kernels.gram_entries"],
            "kernels.pair_evals": c["kernels.pair_evals"],
            "kernels.build_calls": builds,
            "kernels.build_s": outermost(BUILDS),
            "profiles.evals": c["profiles.evals"],
            "spaces.metric_dist_calls": c["spaces.metric_dist_calls"],
            "spaces.measure_builds": c["spaces.measure_builds"],
            "io.read_s": outermost(READS),
            "io.read_bytes": c["io.read_bytes"],
            "io.write_s": outermost(WRITES),
            "io.write_bytes": c["io.write_bytes"],
        }
        totals.update({f"{layer}.self_s": layer_self(layer) for layer in LAYERS})
        out = {k: v / jobs for k, v in totals.items()}
        out.update({
            "stats.perm_replicates_per_s": ratio(c["stats.perm_replicates"], perm_loop),
            "embeddings.kme_sq_norm_reuse_ratio": ratio(
                c["embeddings.kme_sq_norm.distinct"], c["embeddings.kme_sq_norm.calls"]),
            "kernels.gram_entries_per_s": ratio(c["kernels.gram_entries"], gram_s),
            "kernels.gram_useful_ratio": ratio(c["kernels.gram_useful"], c["kernels.gram_computed"]),
            "kernels.build_reuse_ratio": ratio(c["kernels.build.distinct"], builds),
            "trace.coverage": ratio(sum(layer_self(layer) for layer in LAYERS), traced_s),
            # traced ops/s over untraced ops/s on the same jobs
            "trace.overhead": ratio(untraced_s, traced_s),
        })
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
