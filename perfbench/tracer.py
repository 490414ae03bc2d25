"""Spans recorded from outside flowguard by wrapping its public functions.

Each target function is replaced at every binding its callers look up: the
defining module and every flowguard module that imported the name (for
example ``flowguard.experiment.smote_oversample`` as well as
``flowguard.preprocess.smote_oversample``). Spans live in memory as
(name, start, end, parent, attrs) and are turned into per-layer metrics
once the instance has finished.
"""

from __future__ import annotations

import functools
import os
import sys
import time

DISPLAY = {"RF": "rf", "SVC": "svc", "KNN": "knn", "MLP": "mlp", "GBT": "xgb"}


def _grid_attrs(outcome, *args, **kwargs):
    return {"points": len(outcome.trace),
            "failed": sum(1 for p in outcome.trace if p.error is not None)}


# (module, attribute, span name or name(*args), attrs(result, *args) or None)
TARGETS = (
    ("flowguard.cli", "main", "cli.main", None),
    ("flowguard.experiment", "run_full_experiment",
     "experiment.run_full_experiment", None),
    ("flowguard.experiment", "run_track", "experiment.run_track", None),
    ("flowguard.experiment", "fit_track_pipeline", "experiment.fit_track_pipeline",
     None),
    ("flowguard.experiment", "build_fold_datasets", "experiment.fold_build", None),
    ("flowguard.experiment", "grid_search", "experiment.grid_search", _grid_attrs),
    ("flowguard.experiment", "write_report_files", "experiment.write_report", None),
    ("flowguard.preprocess", "smote_oversample", "preprocess.smote",
     lambda out, train, cfg: {"rows_added": out.n_rows - train.n_rows}),
    ("flowguard.preprocess", "remove_outliers", "preprocess.lof",
     lambda out, train, cfg: {"rows_in": train.n_rows,
                              "rows_removed": out.removed_count}),
    ("flowguard.preprocess", "fit_scaler", "preprocess.scale", None),
    ("flowguard.preprocess", "apply_scaler", "preprocess.scale", None),
    ("flowguard.distance", "sq_dists", "distance.sq_dists",
     lambda out, A, B: {"cells": out.size}),
    ("flowguard.classifiers", "train",
     lambda spec, ds: f"classifiers.{DISPLAY[spec.kind]}.fit",
     lambda out, spec, ds: {"rows": ds.n_rows}),
    ("flowguard.classifiers", "predict",
     lambda model, ds: f"classifiers.{DISPLAY[model.kind]}.predict",
     lambda out, model, ds: {"rows": ds.n_rows}),
    ("flowguard.classifiers.tree", "build_gini_tree", "classifiers.rf.tree", None),
    ("flowguard.classifiers.tree", "build_newton_tree", "classifiers.xgb.tree", None),
    ("flowguard.classifiers.persistence", "save_model", "classifiers.persistence.save",
     lambda out, model, path, **kw: {"bytes": os.path.getsize(path)}),
    ("flowguard.classifiers.persistence", "load_model", "classifiers.persistence.load",
     None),
    ("flowguard.metrics", "evaluate_predictions", "metrics.evaluate", None),
    ("flowguard.dataset", "load_csv", "dataset.load_csv", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs]
        self._open = []
        self.enabled = True

    def wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, self._open[-1] if self._open else None, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[4] = attrs(result, *args, **kwargs)
            return result
        return traced

    def install(self):
        """Wrap every target at every flowguard binding of it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "flowguard" or name.startswith("flowguard.")]
        for module_name, attr, name, attrs in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, name, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def layer_metrics(spans) -> dict:
    """Per-layer totals, self time and the --save-models refit from spans."""
    total = {}
    calls = {}
    sums = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, attrs in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in attrs.items():
            sums[(name, key)] = sums.get((name, key), 0) + value
        if parent is not None:
            child_time[parent] += end - start

    def ancestors(i):
        parent = spans[i][3]
        while parent is not None:
            yield spans[parent][0]
            parent = spans[parent][3]

    refit = [i for i, span in enumerate(spans)
             if span[0].endswith(".fit") and "cli.main" in ancestors(i)
             and "experiment.run_full_experiment" not in ancestors(i)]

    out = {
        "distance.sq_dists.s": total.get("distance.sq_dists", 0.0),
        "distance.sq_dists.calls": calls.get("distance.sq_dists", 0),
        "distance.sq_dists.cells": sums.get(("distance.sq_dists", "cells"), 0),
        "preprocess.lof.s": total.get("preprocess.lof", 0.0),
        "preprocess.lof.calls": calls.get("preprocess.lof", 0),
        "preprocess.lof.rows_in": sums.get(("preprocess.lof", "rows_in"), 0),
        "preprocess.lof.rows_removed": sums.get(("preprocess.lof", "rows_removed"), 0),
        "preprocess.smote.s": total.get("preprocess.smote", 0.0),
        "preprocess.smote.rows_added": sums.get(("preprocess.smote", "rows_added"), 0),
        "preprocess.scale.s": total.get("preprocess.scale", 0.0),
        "experiment.fold_build.s": total.get("experiment.fold_build", 0.0),
        "experiment.grid_search.s": total.get("experiment.grid_search", 0.0),
        "experiment.grid_points": sums.get(("experiment.grid_search", "points"), 0),
        "experiment.grid_points_failed":
            sums.get(("experiment.grid_search", "failed"), 0),
        "experiment.write_report.s": total.get("experiment.write_report", 0.0),
        "experiment.self_s": sum(end - start - child_time[i]
                                 for i, (name, start, end, _, _) in enumerate(spans)
                                 if name.startswith("experiment.")),
    }
    for kind in DISPLAY.values():
        fit, pred = f"classifiers.{kind}.fit", f"classifiers.{kind}.predict"
        out[f"{fit}.s"] = total.get(fit, 0.0)
        out[f"{fit}.calls"] = calls.get(fit, 0)
        out[f"{fit}.rows"] = sums.get((fit, "rows"), 0)
        out[f"{pred}.s"] = total.get(pred, 0.0)
        out[f"{pred}.rows"] = sums.get((pred, "rows"), 0)
    out.update({
        "classifiers.rf.trees": calls.get("classifiers.rf.tree", 0),
        "classifiers.xgb.trees": calls.get("classifiers.xgb.tree", 0),
        "classifiers.persistence.save_s": total.get("classifiers.persistence.save", 0.0),
        "classifiers.persistence.load_s": total.get("classifiers.persistence.load", 0.0),
        "classifiers.persistence.bytes":
            sums.get(("classifiers.persistence.save", "bytes"), 0),
        "cli.refit.calls": len(refit),
        "cli.refit.s": sum(spans[i][2] - spans[i][1] for i in refit),
        "metrics.evaluate.s": total.get("metrics.evaluate", 0.0),
        "dataset.load_csv.s": total.get("dataset.load_csv", 0.0),
    })
    return out
