"""Span tracing around the program's layer boundaries, from outside.

Modules bind imported names when they are imported, so wrapping a
function where it is defined is not enough: ``outreg.regress`` calls its
own ``pinv_solve`` binding, ``outreg.evalharness.experiment`` calls its
own ``ensemble_train``, and so on.  ``Tracer.install`` therefore scans
every loaded ``outreg`` module and replaces each attribute that is one
of the traced functions, whatever name it is bound under, and
``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, run_id, amount]``: ``parent`` is
the index of the span that was open when it began (-1 for none),
``run_id`` names the set-up repetition or measured round it belongs to,
and ``amount`` is a work count taken from the arguments (rows, flop,
bytes) or None.  Spans stay in memory; ``write`` dumps them at the end.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def _rows(args, kwargs):
    return int(np.shape(args[1])[0])


def _svd_gflop(args, kwargs):
    """Flop count of the SVD least-squares solve, from the design shapes.

    Thin R-SVD of an m x n design (m >= n) costs 6 m n^2 + 20 n^3 flops
    (Golub & Van Loan, Matrix Computations, table 5.5.1); applying U^T
    and V to k right-hand sides adds 2 m n k + 2 n^2 k.
    """
    m, n = np.shape(args[0])
    k = np.shape(args[1])[1]
    m, n = max(m, n), min(m, n)
    return (6.0 * m * n * n + 20.0 * n ** 3 + 2.0 * m * n * k + 2.0 * n * n * k) / 1e9


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


# span name -> (defining module, function names, amount taken from the args);
# names with no metric of their own (ensemble_train, lr_fit, load_manifest,
# write_gate_csv) are traced so that their time leaves their callers' self time
TRACED = {
    "numkernel.pinv_solve": ("outreg.numkernel", ("pinv_solve",), _svd_gflop),
    "regress.elm_train": ("outreg.regress", ("elm_train",), None),
    "regress.ensemble_train": ("outreg.regress", ("ensemble_train",), None),
    "regress.ensemble_predict": ("outreg.regress", ("ensemble_predict",), _rows),
    "regress.select_node_count": ("outreg.regress", ("select_node_count",), None),
    "regress.lr_fit": ("outreg.regress", ("lr_fit",), None),
    "outlier_gate.fit_gate": ("outreg.outlier_gate", ("fit_gate",), None),
    "outlier_gate.classify": ("outreg.outlier_gate", ("classify",), None),
    "outlier_gate.nearest_training_neighbor":
        ("outreg.outlier_gate", ("nearest_training_neighbor",), None),
    "extrapolate.nlror_predict":
        ("outreg.extrapolate", ("nlror_predict", "nlror_predict_detailed"), None),
    "modelio.save": ("outreg.modelio", ("save_ensemble", "save_gate"), None),
    "modelio.load": ("outreg.modelio", ("load_ensemble", "load_gate"), _file_bytes),
    "evalharness.dataset.load_manifest":
        ("outreg.evalharness.dataset", ("load_manifest",), None),
    "evalharness.dataset.load_dataset":
        ("outreg.evalharness.dataset", ("load_dataset",), None),
    "evalharness.metrics":
        ("outreg.evalharness.metrics", ("mad", "maen", "spearman", "boxplot_stats"), None),
    "evalharness.experiment.run_experiment":
        ("outreg.evalharness.experiment", ("run_experiment",), None),
    "evalharness.report.emit_report":
        ("outreg.evalharness.report", ("emit_report",), None),
    "evalharness.report.write_gate_csv":
        ("outreg.evalharness.report", ("write_gate_csv",), None),
    "evalharness.cli.main": ("outreg.evalharness.cli", ("main",), None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.run_id = ""

    def _wrap(self, name, fn, amount):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if amount is not None:
                    span[5] = amount(args, kwargs)
        return traced

    def install(self, run_id: str) -> None:
        """Wrap every binding of every traced function in loaded outreg modules."""
        self.run_id = run_id
        wrappers = {}
        for name, (module, functions, amount) in TRACED.items():
            for function in functions:
                original = getattr(sys.modules[module], function)
                wrappers[id(original)] = self._wrap(name, original, amount)
        for module_name, module in list(sys.modules.items()):
            if module_name != "outreg" and not module_name.startswith("outreg."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "run_id", "amount")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def _unit_totals(spans, indices):
    """Per-name totals over one run id: calls, busy, self time, amounts."""
    index_set = set(indices)
    child_time: dict[int, float] = {}
    for i in indices:
        parent = spans[i][3]
        if parent in index_set:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i][2] - spans[i][1]
    totals = collections.defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0,
                                              "amount": 0.0, "surface_calls": 0})
    for i in indices:
        name, start, end, parent, _, amount = spans[i]
        t = totals[name]
        duration = end - start
        t["self"] += duration - child_time.get(i, 0.0)
        # a span nested in a span of its own name is counted once, as the outer one
        outer = True
        ancestor = parent
        while ancestor != -1:
            if spans[ancestor][0] == name:
                outer = False
                break
            ancestor = spans[ancestor][3]
        if outer:
            t["calls"] += 1
            t["busy"] += duration
        if amount is not None:
            t["amount"] += amount
        if (name == "regress.ensemble_predict" and parent != -1
                and spans[parent][0] == "extrapolate.nlror_predict"):
            totals["extrapolate.nlror_predict"]["surface_calls"] += 1
    return dict(totals)


def _metric_values(totals):
    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    predict_calls = get("regress.ensemble_predict", "calls")
    nlror_calls = get("extrapolate.nlror_predict", "calls")
    return {
        "numkernel.pinv_solve.calls": get("numkernel.pinv_solve", "calls"),
        "numkernel.pinv_solve.busy_s": get("numkernel.pinv_solve", "busy"),
        "numkernel.pinv_solve.gflop": get("numkernel.pinv_solve", "amount"),
        "regress.elm_train.self_s": get("regress.elm_train", "self"),
        "regress.select_node_count.busy_s": get("regress.select_node_count", "busy"),
        "regress.ensemble_predict.calls": predict_calls,
        "regress.ensemble_predict.rows_per_call":
            get("regress.ensemble_predict", "amount") / predict_calls if predict_calls else 0.0,
        "regress.ensemble_predict.busy_s": get("regress.ensemble_predict", "busy"),
        "outlier_gate.fit_gate.calls": get("outlier_gate.fit_gate", "calls"),
        "outlier_gate.classify.busy_s": get("outlier_gate.classify", "busy"),
        "outlier_gate.nearest_training_neighbor.calls":
            get("outlier_gate.nearest_training_neighbor", "calls"),
        "outlier_gate.nearest_training_neighbor.busy_s":
            get("outlier_gate.nearest_training_neighbor", "busy"),
        "extrapolate.nlror_predict.busy_s": get("extrapolate.nlror_predict", "busy"),
        "extrapolate.nlror_predict.self_s": get("extrapolate.nlror_predict", "self"),
        "extrapolate.surface_calls_per_outlier":
            get("extrapolate.nlror_predict", "surface_calls") / nlror_calls
            if nlror_calls else 0.0,
        "modelio.save.busy_s": get("modelio.save", "busy"),
        "modelio.load.busy_s": get("modelio.load", "busy"),
        "modelio.load.bytes": get("modelio.load", "amount"),
        "evalharness.dataset.load_dataset.busy_s":
            get("evalharness.dataset.load_dataset", "busy"),
        "evalharness.metrics.busy_s": get("evalharness.metrics", "busy"),
        "evalharness.experiment.run_experiment.self_s":
            get("evalharness.experiment.run_experiment", "self"),
        "evalharness.report.emit_report.busy_s":
            get("evalharness.report.emit_report", "busy"),
        "evalharness.cli.main.self_s": get("evalharness.cli.main", "self"),
    }


# metric -> the span name whose presence in a round says the metric is
# taken from the rounds rather than from the set-up repetitions
_LAYER_OF = {metric: metric.rsplit(".", 1)[0] for metric in _metric_values({})}
_LAYER_OF["extrapolate.surface_calls_per_outlier"] = "extrapolate.nlror_predict"


def layer_metrics(spans, round_ids, setup_ids):
    """Best (lowest) unit total of each per-layer figure.

    A layer's figure is the lowest of its per-round totals over the traced
    measured rounds, as the end-to-end timings are best-of-rounds; a layer
    that no round runs takes the lowest over the set-up repetitions
    instead, and reads 0 where neither runs it.  Counts are the same in
    every round, so for them lowest and typical agree.
    """
    by_unit: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_unit.setdefault(span[4], []).append(i)
    rounds = [_unit_totals(spans, by_unit.get(r, [])) for r in round_ids]
    setups = [_unit_totals(spans, by_unit.get(s, [])) for s in setup_ids]
    round_values = [_metric_values(t) for t in rounds]
    setup_values = [_metric_values(t) for t in setups]
    out = {}
    for metric, layer in _LAYER_OF.items():
        in_rounds = any(layer in t for t in rounds)
        values = round_values if in_rounds or not setups else setup_values
        out[metric] = float(min(v[metric] for v in values)) if values else 0.0
    return out
