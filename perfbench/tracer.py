"""Outside-in spans around the library's public functions.

``Tracer.install`` replaces every public function of ``distreg.data``,
``kernels``, ``rff``, ``models``, ``evaluate`` and ``cli`` with a timing
wrapper, at every import site: any ``distreg`` module attribute that is the
original function object is swapped, so calls between modules and within a
module (both resolve through module globals) are seen. The library source is
not touched; ``uninstall`` puts the originals back.

Spans stay in memory as (id, parent, name, start, end, op) and are written
once, by ``write``, when the benchmark ends. Self time is a span's duration
minus the durations of its direct children; the harness opens one root span
per operation, so the root's self time is the wall time no library span
covers.

Some counts are *computed* from argument and result shapes rather than
counted as events (kernel entries, trig evaluations, Gram bytes); ``LAYER``
marks which.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("data", "kernels", "rff", "models", "evaluate", "cli")
ROOT = "bench.op"

# Per-layer metrics: name -> (unit, source). "computed" values are derived
# from argument shapes; "spans" values from span timings and call counts.
LAYER = {
    "kernels.bag_gram.self_s": ("s", "spans"),
    "kernels.cross_bag_gram.self_s": ("s", "spans"),
    "kernels.cross_gram.self_s": ("s", "spans"),
    "kernels.entries": ("count", "computed"),
    "kernels.entries_per_s": ("1/s", "computed"),
    "kernels.median_heuristic.self_s": ("s", "spans"),
    "kernels.mmd_permutation_test.self_s": ("s", "spans"),
    "kernels.mmd.gram_bytes": ("B", "computed"),
    "rff.feature_matrix.self_s": ("s", "spans"),
    "rff.bag_feature_matrix.self_s": ("s", "spans"),
    "rff.trig_evals": ("count", "computed"),
    "rff.trig_per_s": ("1/s", "computed"),
    "rff.sample_basis.redundant_frac": ("ratio", "spans"),
    "data.canonical_rows.calls": ("count", "spans"),
    "data.canonical_rows.self_s": ("s", "spans"),
    "data.canonical_rows.redundant_frac": ("ratio", "spans"),
    "data.normalize.self_s": ("s", "spans"),
    "data.load_bags.self_s": ("s", "spans"),
    "data.load_bags.rows_per_s": ("1/s", "spans"),
    "models.solve.calls": ("count", "spans"),
    "models.solve.self_s": ("s", "spans"),
    "models.stack_multisource.self_s": ("s", "spans"),
    "models.save_model.self_s": ("s", "spans"),
    "models.load_model.self_s": ("s", "spans"),
    "models.model_file_bytes": ("B", "computed"),
    "evaluate.grid_search_cv.self_s": ("s", "spans"),
    "evaluate.default_grid.self_s": ("s", "spans"),
    "evaluate.cells": ("count", "spans"),
    "evaluate.cells_failed": ("count", "spans"),
    "cli.fit.self_s": ("s", "spans"),
    "cli.predict.self_s": ("s", "spans"),
    "cli.mmd.self_s": ("s", "spans"),
    "trace.wall_s": ("s", "spans"),
    "trace.unattributed_s": ("s", "spans"),
    "trace.attributed_frac": ("ratio", "spans"),
    "trace.overhead_frac": ("ratio", "spans"),
}

# fit_* given a precomputed representation: their self time is one ridge solve.
SOLVES = ("models.fit_kdr", "models.fit_rdr", "models.fit_mdr", "models.fit_baseline")


def _arg(params, args, kwargs, name):
    return kwargs[name] if name in kwargs else args[params.index(name)]


class Tracer:
    """Spans and counters for one benchmark process; see the module docstring."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self.n_ops = 0
        self.t0 = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def _public(self, module):
        names = getattr(module, "__all__", None)
        if names is None:  # cli has no __all__: its own non-underscore functions
            names = [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield name, obj

    def install(self) -> None:
        """Wrap every public function at every distreg import site."""
        originals = {}
        for short in MODULES:
            module = sys.modules[f"distreg.{short}"]
            for name, fn in self._public(module):
                key = f"{short}.{name}"
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(key, fn)
                originals[id(fn)] = self._wrappers[key]
        for modname, module in list(sys.modules.items()):
            if modname != "distreg" and not modname.startswith("distreg."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        counter = getattr(self, "_count_" + key.replace(".", "_"), None)
        params = list(inspect.signature(fn).parameters)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if counter is not None:
                counter(params, args, kwargs, result)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append((sid, parent, name, time.perf_counter() - self.t0, None, self.op))
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.stack.pop()
        s = self.spans[sid]
        self.spans[sid] = (s[0], s[1], s[2], s[3], time.perf_counter() - self.t0, s[5])

    def begin_op(self, op: str) -> int:
        """Start one traced operation (a trial or a CLI session) under a root span."""
        self.n_ops += 1
        self.scope(op)
        self.install()
        return self._open(ROOT)

    def scope(self, label: str) -> None:
        """Label later spans and restart repeat detection ("the same trial")."""
        self.op = label
        self._seen.clear()

    def end_op(self, sid: int) -> float:
        self._close(sid)
        self.uninstall()
        s = self.spans[sid]
        return s[4] - s[3]

    # -- computed counts ----------------------------------------------------

    def _redundant(self, family: str, key) -> None:
        self.counts[family + ".calls"] += 1
        if key in self._seen[family]:
            self.counts[family + ".repeats"] += 1
        else:
            self._seen[family].add(key)

    def _count_data_canonical_rows(self, params, args, kwargs, result):
        x = _arg(params, args, kwargs, "x")
        self._redundant("data.canonical_rows", (x.shape, hash(x.tobytes())))

    def _count_data_load_bags(self, params, args, kwargs, result):
        self.counts["data.load_bags.rows"] += sum(b.n_instances for b in result.bags)

    def _count_kernels_bag_gram(self, params, args, kwargs, result):
        rows = sum(b.n_instances for b in _arg(params, args, kwargs, "data").bags)
        self.counts["kernels.entries"] += rows * rows

    def _count_kernels_cross_bag_gram(self, params, args, kwargs, result):
        test, train = _arg(params, args, kwargs, "test"), _arg(params, args, kwargs, "train")
        self.counts["kernels.entries"] += sum(b.n_instances for b in test.bags) * sum(
            b.n_instances for b in train.bags
        )

    def _count_kernels_cross_gram(self, params, args, kwargs, result):
        self.counts["kernels.entries"] += result.shape[0] * result.shape[1]

    def _count_kernels_mmd_permutation_test(self, params, args, kwargs, result):
        n = len(_arg(params, args, kwargs, "sample_x")) + len(_arg(params, args, kwargs, "sample_y"))
        self.counts["kernels.mmd.gram_bytes"] += 8 * n * n

    def _count_rff_feature_matrix(self, params, args, kwargs, result):
        self.counts["rff.trig_evals"] += result.shape[0] * result.shape[1]

    def _count_rff_sample_basis(self, params, args, kwargs, result):
        self._redundant("rff.sample_basis", (result.dim, result.n_components, result.sigma, result.seed))

    def _count_models_save_model(self, params, args, kwargs, result):
        self.counts["models.model_file_bytes"] += os.path.getsize(_arg(params, args, kwargs, "path"))

    def _count_evaluate_grid_search_cv(self, params, args, kwargs, result):
        self.counts["evaluate.cells"] += len(result.table)
        self.counts["evaluate.cells_failed"] += sum(c.error is not None for c in result.table)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Total self seconds, call count and wall seconds per span name."""
        child = defaultdict(float)
        for sid, parent, name, start, end, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, calls, wall = defaultdict(float), defaultdict(int), defaultdict(float)
        for sid, parent, name, start, end, op in self.spans:
            self_s[name] += (end - start) - child[sid]
            calls[name] += 1
            wall[name] += end - start
        return self_s, calls, wall

    def layer_metrics(self, untraced_s: float, traced_s: float) -> dict:
        """Per-operation means of the LAYER metrics over the traced operations.

        ``untraced_s``/``traced_s`` are the median operation times with
        tracing off and on, for ``trace.overhead_frac``.
        """
        self_s, calls, wall = self.self_times()
        c = self.counts

        def per_op(v):
            return v / self.n_ops

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        entries_s = sum(self_s[k] for k in ("kernels.bag_gram", "kernels.cross_bag_gram", "kernels.cross_gram"))
        trig_s = self_s["rff.feature_matrix"]
        attributed = wall[ROOT] - self_s[ROOT]
        values = {
            "kernels.bag_gram.self_s": per_op(self_s["kernels.bag_gram"]),
            "kernels.cross_bag_gram.self_s": per_op(self_s["kernels.cross_bag_gram"]),
            "kernels.cross_gram.self_s": per_op(self_s["kernels.cross_gram"]),
            "kernels.entries": per_op(c["kernels.entries"]),
            "kernels.entries_per_s": ratio(c["kernels.entries"], entries_s),
            "kernels.median_heuristic.self_s": per_op(self_s["kernels.median_heuristic"]),
            "kernels.mmd_permutation_test.self_s": per_op(self_s["kernels.mmd_permutation_test"]),
            "kernels.mmd.gram_bytes": per_op(c["kernels.mmd.gram_bytes"]),
            "rff.feature_matrix.self_s": per_op(trig_s),
            "rff.bag_feature_matrix.self_s": per_op(self_s["rff.bag_feature_matrix"]),
            "rff.trig_evals": per_op(c["rff.trig_evals"]),
            "rff.trig_per_s": ratio(c["rff.trig_evals"], trig_s),
            "rff.sample_basis.redundant_frac": ratio(
                c["rff.sample_basis.repeats"], c["rff.sample_basis.calls"]
            ),
            "data.canonical_rows.calls": per_op(calls["data.canonical_rows"]),
            "data.canonical_rows.self_s": per_op(self_s["data.canonical_rows"]),
            "data.canonical_rows.redundant_frac": ratio(
                c["data.canonical_rows.repeats"], c["data.canonical_rows.calls"]
            ),
            "data.normalize.self_s": per_op(self_s["data.fit_normalizer"] + self_s["data.apply_normalizer"]),
            "data.load_bags.self_s": per_op(self_s["data.load_bags"]),
            "data.load_bags.rows_per_s": ratio(c["data.load_bags.rows"], self_s["data.load_bags"]),
            "models.solve.calls": per_op(sum(calls[k] for k in SOLVES)),
            "models.solve.self_s": per_op(sum(self_s[k] for k in SOLVES)),
            "models.stack_multisource.self_s": per_op(self_s["models.stack_multisource"]),
            "models.save_model.self_s": per_op(self_s["models.save_model"]),
            "models.load_model.self_s": per_op(self_s["models.load_model"]),
            "models.model_file_bytes": per_op(c["models.model_file_bytes"]),
            "evaluate.grid_search_cv.self_s": per_op(self_s["evaluate.grid_search_cv"]),
            "evaluate.default_grid.self_s": per_op(self_s["evaluate.default_grid"]),
            "evaluate.cells": per_op(c["evaluate.cells"]),
            "evaluate.cells_failed": per_op(c["evaluate.cells_failed"]),
            "cli.fit.self_s": per_op(self_s["cli.cmd_fit"]),
            "cli.predict.self_s": per_op(self_s["cli.cmd_predict"]),
            "cli.mmd.self_s": per_op(self_s["cli.cmd_mmd"]),
            "trace.wall_s": per_op(wall[ROOT]),
            "trace.unattributed_s": per_op(self_s[ROOT]),
            "trace.attributed_frac": ratio(attributed, wall[ROOT]),
            "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
        }
        return {name: {"value": float(values[name]), "unit": LAYER[name][0]} for name in LAYER}

    def write(self, path, metrics: dict, extra: dict) -> None:
        """Write spans, the full per-function table and the layer metrics, once."""
        self_s, calls, wall = self.self_times()
        doc = dict(extra)
        doc["workload"] = self.workload
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s", "op"]
        doc["spans"] = self.spans
        doc["functions"] = {
            name: {"calls": calls[name], "self_s": self_s[name], "wall_s": wall[name]}
            for name in sorted(calls)
        }
        doc["metrics"] = {
            name: dict(m, source=LAYER[name][1]) for name, m in metrics.items()
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
