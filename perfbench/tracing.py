"""Spans around calls into the program's layers, recorded from outside.

Each traced function is wrapped in every module that holds a reference to
it, which is where its callers look it up (``btd1.solver.null_space``,
``btd1.sjbd.lstsq``, ``numpy.linalg.svd``).  Spans (name, start, end,
parent, operation) are kept in flat arrays and written out at the end; a
layer's self time is its span's duration minus its child spans.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  Span names are the per-layer metric
# prefixes; ``_kernels`` is written ``kernels`` because metric names start
# with a letter.
LAYERS = (
    ("btd1.solver", "decompose", "solver.decompose"),
    ("btd1.solver", "phase1_recover_A", "solver.phase1_recover_A"),
    ("btd1.solver", "phase2_case1", "solver.phase2_case1"),
    ("btd1.solver", "phase2_case2", "solver.phase2_case2"),
    ("btd1.solver", "phase2_case3", "solver.phase2_case3"),
    ("btd1.solver", "gevd_two_slice_btd", "solver.gevd_two_slice_btd"),
    ("btd1.minors", "build_Q2", "minors.build_Q2"),
    ("btd1._kernels", "minor_matrix_fill", "kernels.minor_matrix_fill"),
    ("btd1._kernels", "gf2k_eliminate", "kernels.gf2k_eliminate"),
    ("btd1._kernels", "gfp_eliminate", "kernels.gfp_eliminate"),
    ("btd1.linalg", "null_space", "linalg.null_space"),
    ("btd1.linalg", "numerical_rank", "linalg.numerical_rank"),
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("btd1.sjbd", "build_commutant_matrix", "sjbd.build_commutant_matrix"),
    ("btd1.sjbd", "simultaneous_evd_single", "sjbd.simultaneous_evd_single"),
    ("btd1.sjbd", "simultaneous_evd_cpd", "sjbd.simultaneous_evd_cpd"),
    ("btd1.sjbd", "cpd_als", "sjbd.cpd_als"),
    ("btd1.sjbd", "cluster_columns", "sjbd.cluster_columns"),
    ("btd1.sjbd", "_cluster_scalars", "sjbd._cluster_scalars"),
    ("btd1.tensor", "compress_third_mode", "tensor.compress_third_mode"),
    ("btd1.tensor", "compose", "tensor.compose"),
    ("btd1.tensor", "add_noise", "tensor.add_noise"),
    ("btd1.tensor", "match_decompositions", "tensor.match_decompositions"),
    ("btd1.experiment", "run_experiment", "experiment.run_experiment"),
    ("btd1.experiment", "draw_instance", "experiment.draw_instance"),
    ("btd1.gf", "gf_q2_from_factors", "gf.gf_q2_from_factors"),
    ("btd1.gf", "gf_phi", "gf.gf_phi"),
    ("btd1.gf", "gf_rank", "gf.gf_rank"),
    ("btd1.gf", "verify_generic_q2_dim", "gf.verify_generic_q2_dim"),
    ("btd1.gf", "verify_phi_full_rank", "gf.verify_phi_full_rank"),
    ("btd1.uniqueness", "parameter_count_S", "uniqueness.parameter_count_S"),
    ("btd1.uniqueness", "generic_bounds", "uniqueness.generic_bounds"),
    ("btd1.uniqueness", "check_deterministic_uniqueness", "uniqueness.check_deterministic_uniqueness"),
)

# Per-layer metrics: (metric name, unit, better).  ".s" is self time per
# operation, ".total_s" span time per operation, ".calls" spans per
# operation; the other counts are explained in ``Tracer.metrics``.
METRICS = tuple(
    [
        (f"{name}.s", "s", "lower")
        for name in (
            "minors.build_Q2",
            "kernels.minor_matrix_fill",
            "linalg.null_space",
            "linalg.numerical_rank",
            "numpy.linalg.svd",
            "sjbd.build_commutant_matrix",
            "sjbd.simultaneous_evd_single",
            "sjbd.simultaneous_evd_cpd",
            "sjbd.cpd_als",
            "sjbd.cluster_columns",
            "sjbd._cluster_scalars",
            "solver.phase1_recover_A",
            "solver.phase2_case1",
            "solver.phase2_case2",
            "solver.phase2_case3",
            "solver.gevd_two_slice_btd",
            "tensor.compress_third_mode",
            "tensor.compose",
            "tensor.add_noise",
            "tensor.match_decompositions",
            "experiment.draw_instance",
            "gf.GFMatrix.matmul",
            "gf.gf_q2_from_factors",
            "gf.gf_phi",
            "gf.gf_rank",
            "kernels.gf2k_eliminate",
            "kernels.gfp_eliminate",
            "uniqueness.check_deterministic_uniqueness",
            "uniqueness.generic_bounds",
        )
    ]
    + [
        ("linalg.null_space.total_s", "s", "lower"),
        ("linalg.numerical_rank.total_s", "s", "lower"),
        ("linalg.null_space.calls", "count", "lower"),
        ("linalg.numerical_rank.calls", "count", "lower"),
        ("numpy.linalg.svd.calls", "count", "lower"),
        ("sjbd.cpd_als.iters", "count", "lower"),
        ("sjbd.cpd_als.converged", "count", "higher"),
        ("experiment.rejected_draws", "count", "lower"),
        ("gf.trials", "count", "lower"),
    ]
)


class Tracer:
    """Records spans while installed; ``op`` is the current operation id."""

    def __init__(self):
        self.names = []
        self.name_id = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._patches = []

    def _name(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name, on_return=None):
        nid = self._name(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _count_inside(self, fn, parent_name, counter):
        """Count calls made while ``parent_name`` is the innermost span."""
        pid = self._name(parent_name)
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and self.name_id[stack[-1]] == pid:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        hooks = {
            "sjbd.cpd_als": lambda out: self.counts.update({"cpd_converged": int(out[2])}),
            "experiment.draw_instance": lambda out: self.counts.update({"rejected": out[2]}),
            "gf.verify_generic_q2_dim": lambda out: self.counts.update({"gf_trials": out.trials}),
            "gf.verify_phi_full_rank": lambda out: self.counts.update({"gf_trials": out.trials}),
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "btd1" or n.startswith("btd1.")]
        for home, attr, name in LAYERS:
            original = getattr(sys.modules[home], attr)
            traced = self._wrap(original, name, hooks.get(name))
            owners = [sys.modules[home]] if home == "numpy.linalg" else modules
            for mod in owners:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, traced)
        gf = sys.modules["btd1.gf"]
        self._patch(gf.GFMatrix, "matmul", self._wrap(gf.GFMatrix.matmul, "gf.GFMatrix.matmul"))
        sjbd = sys.modules["btd1.sjbd"]
        self._patch(sjbd, "lstsq", self._count_inside(sjbd.lstsq, "sjbd.cpd_als", "cpd_lstsq"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_times(self):
        """{name: (self seconds, span seconds, span count)} over all spans."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        n = len(self.names)
        self_sum = np.bincount(name_id, weights=self_time, minlength=n)
        span_sum = np.bincount(name_id, weights=dur, minlength=n)
        calls = np.bincount(name_id, minlength=n)
        return {
            name: (float(self_sum[i]), float(span_sum[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def metrics(self, n_ops):
        """Every per-layer metric, per operation.  ``sjbd.cpd_als.iters`` is
        the lstsq calls made inside cpd_als divided by three (one ALS sweep
        solves for three factors); ``sjbd.cpd_als.converged`` counts calls
        that met the stopping rule; ``experiment.rejected_draws`` and
        ``gf.trials`` are summed from the traced functions' results."""
        times = self.layer_times()
        zero = (0.0, 0.0, 0)
        values = {}
        for metric, unit, _ in METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "s":
                value = times.get(layer, zero)[0]
            elif kind == "total_s":
                value = times.get(layer, zero)[1]
            elif kind == "calls":
                value = times.get(layer, zero)[2]
            elif metric == "sjbd.cpd_als.iters":
                value = self.counts["cpd_lstsq"] / 3
            elif metric == "sjbd.cpd_als.converged":
                value = self.counts["cpd_converged"]
            elif metric == "experiment.rejected_draws":
                value = self.counts["rejected"]
            elif metric == "gf.trials":
                value = self.counts["gf_trials"]
            else:
                raise KeyError(metric)
            values[metric] = {"value": value / n_ops, "unit": unit}
        return values

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            op=np.frombuffer(self.op_id, dtype=np.int32),
            start=start,
            end=end,
        )
