"""One benchmark instance, in a process of its own.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORKDIR RESULT [BUNDLE_DIR]

Run from the root of a flowguard checkout: flowguard is imported from its
``src/`` directory. MODE is one of

- ``setup``: build the inputs only, and record the environment;
- ``run``: build the inputs, run the workload (timed as ``wall_s``), save
  its chosen models, score fresh flows with the reloaded bundles and check
  every output;
- ``trace``: as ``run``, with spans recorded around flowguard's public
  functions;
- ``score``: build the inputs, then score the fresh flows with the bundles
  a ``run`` instance saved under BUNDLE_DIR (the extra argument), as a
  deployed scorer would in a process of its own; the median of several
  passes gives ``score_rows_per_s``;
- ``lof_sweep``: time ``lof_scores`` at each size of the LOF sweep.

SEED fixes every input. The result is written as JSON to RESULT.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, so the imports count

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd().resolve() / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import flowguard  # noqa: E402
from flowguard import classifiers as clf  # noqa: E402
from flowguard import cli, experiment, preprocess  # noqa: E402
from flowguard.dataset import (apply_category_maps, impute_missing,  # noqa: E402
                               load_csv, stratified_split)
from flowguard.synth import SynthConfig, generate, write_csv  # noqa: E402

sys.path.insert(0, str(HERE))
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
MODELS = ("rf", "svc", "knn", "mlp", "xgb")
TRACKS = ("imbalanced", "balanced")
PLOT_FILES = ("roc", "validation_curve", "confusion")
RELOAD_CHECK_ROWS = 500  # fresh rows on which a reloaded bundle must match its model


def synth(benign, ddos, seed):
    return SynthConfig(n_benign=benign, n_ddos=ddos, seed=seed, **SPEC["synth"])


def duplicated(ds, copies, seed):
    """Every row ``copies`` times, shuffled: repeated flow-stat records."""
    order = np.random.default_rng(seed).permutation(copies * ds.n_rows)
    return ds.replace(X=np.vstack([ds.X] * copies)[order],
                      y=np.concatenate([ds.y] * copies)[order])


def digest_update(h, predictions):
    for name in sorted(predictions):
        h.update(name.encode())
        h.update(predictions[name].probabilities.tobytes())


# --- dual_track_cli: `flowguard run --folds 3 --save-models` on a CSV ------

def setup_dual_track_cli(seed, size):
    # Relative paths: the report records the data path, and its bytes must
    # not depend on the directory an instance runs in.
    write_csv(synth(size["benign"], size["ddos"], seed), "flows.csv")
    write_csv(synth(size["score_benign"], size["score_ddos"], seed + 1), "score.csv")
    return {"score": impute_missing(load_csv("score.csv"))}


def run_dual_track_cli(inputs):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", "--data", "flows.csv", "--folds", "3",
                         "--save-models", "--out", "out"])


def finish_dual_track_cli(rc, inputs, h):
    out = Path("out")
    failures = [] if rc == 0 else [f"cli.main returned {rc}"]
    expected = {"report.json"}
    for name in MODELS:
        for track in TRACKS:
            expected.add(f"model_{name}_{track}.json")
            expected.update(f"{kind}_{name}_{track}.csv" for kind in PLOT_FILES)
    written = set(os.listdir(out)) if out.is_dir() else set()
    if expected - written:
        failures.append(f"missing outputs: {sorted(expected - written)}")
        return failures, {}, [], {}
    report = (out / "report.json").read_bytes()
    h.update(report)
    accuracy = {f"test/{m['name']}/{t['track']}": m["test"]["accuracy"]
                for t in json.loads(report)["tracks"] for m in t["models"]}
    return failures, accuracy, sorted(out.glob("model_*.json")), {}


# --- neighbors_dup: KNN-only dual-track experiment on duplicated flows ----

def setup_neighbors_dup(seed, size):
    ds = generate(synth(size["benign"], size["ddos"], seed))
    fresh = generate(synth(size["score_benign"], size["score_ddos"], seed + 1))
    return {"data": duplicated(ds, size["copies"], seed),
            "score": duplicated(fresh, size["copies"], seed + 1)}


def run_neighbors_dup(inputs):
    cfg = experiment.ExperimentConfig(cv_folds=5, models=("KNN",))
    return experiment.run_full_experiment(cfg, inputs["data"])


def finish_neighbors_dup(report, inputs, h):
    """Saves each track's chosen KNN with its pipeline, as --save-models does.

    Also returns each model's in-memory predictions on the first fresh rows,
    which its reloaded bundle must reproduce bit for bit.
    """
    h.update(experiment.report_to_json(report).encode())
    cfg = report.config
    split = stratified_split(inputs["data"], cfg.split_ratio, cfg.seed)
    fresh = inputs["score"].take(range(min(RELOAD_CHECK_ROWS, inputs["score"].n_rows)))
    accuracy, bundles, expected = {}, [], {}
    for track in report.tracks:
        smote = cfg.smote if track.track == "balanced" else None
        train, state = experiment.fit_track_pipeline(split.train, smote, cfg.lof,
                                                     cfg.select_top_m,
                                                     select_seed=cfg.seed)
        for m in track.models:
            accuracy[f"test/{m.name}/{track.track}"] = m.test.accuracy
            spec = clf.ModelSpec(kind=m.kind, hyperparameters=m.hyperparameters,
                                 seed=cfg.seed)
            path = Path(f"model_{m.name}_{track.track}.json")
            model = clf.train(spec, train)
            clf.save_model(model, path,
                           pipeline={"scaler": preprocess.scaler_to_dict(state.scaler)})
            bundles.append(path)
            expected[path.stem] = clf.predict(
                model, preprocess.apply_scaler(state.scaler, fresh)).probabilities
    return [], accuracy, bundles, expected


WORKLOADS = {
    "dual_track_cli": (setup_dual_track_cli, run_dual_track_cli,
                       finish_dual_track_cli),
    "neighbors_dup": (setup_neighbors_dup, run_neighbors_dup, finish_neighbors_dup),
}


def score(bundles, fresh):
    """Each reloaded bundle reproduces its preprocessing and scores ``fresh``."""
    scored = {}
    for path in bundles:
        model, pipeline = clf.load_model(path)
        ds = fresh
        if pipeline.get("category_maps"):
            ds = apply_category_maps(ds, pipeline["category_maps"])
        ds = preprocess.apply_scaler(preprocess.scaler_from_dict(pipeline["scaler"]), ds)
        scored[path.stem] = clf.predict(model, ds)
    return scored


def score_digest(scored):
    h = hashlib.sha256()
    digest_update(h, scored)
    return h.hexdigest()


def time_scoring(bundles, fresh):
    """Scores ``fresh`` in several passes, each reloading every bundle.

    Reports the median pass and the digest of every distinct pass, which
    must all equal the instance's own score_digest.
    """
    rates, digests = [], set()
    for _ in range(SPEC["score_passes"]):
        start = time.perf_counter()
        scored = score(bundles, fresh)
        rates.append(sum(p.labels.size for p in scored.values())
                     / (time.perf_counter() - start))
        digests.add(score_digest(scored))
    return {"score_rows_per_s": statistics.median(rates),
            "score_digests": sorted(digests)}


def check_accuracy(workload, accuracy):
    """Each model's accuracy must reach the floor recorded in spec.json."""
    floors = SPEC["workloads"][workload]["accuracy_floor"]
    failures = []
    for key, value in accuracy.items():
        model = key.split("/")[1]
        if value < floors[model]:
            failures.append(f"{key} accuracy {value:.4f} below floor {floors[model]}")
    return failures


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def lof_sweep(seed):
    sweep = SPEC["lof_sweep"]
    out = {}
    for n in sweep["rows"]:
        ds = generate(synth(n - n // 3, n // 3, seed))
        ds = preprocess.apply_scaler(preprocess.fit_scaler(ds), ds)
        start = time.perf_counter()
        preprocess.lof_scores(ds, sweep["k_neighbors"])
        out[f"preprocess.lof.s.n{n}"] = time.perf_counter() - start
    return out


def main(argv):
    mode, workload, seed, work, result_path, *rest = argv
    result_path = Path(result_path).resolve()
    os.chdir(work)  # every file an instance writes goes to its own directory
    if Path(flowguard.__file__).resolve().parent != SRC / "flowguard":
        raise SystemExit(f"flowguard imported from {flowguard.__file__}, not {SRC}")
    if mode == "lof_sweep":
        result = {"layers": lof_sweep(int(seed))}
        result_path.write_text(json.dumps(result), encoding="utf-8")
        return
    setup, run, finish = WORKLOADS[workload]
    inputs = setup(int(seed), SPEC["workloads"][workload]["inputs"])
    result = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        result["env"] = environment()
    if mode == "score":
        (bundle_dir,) = rest
        result.update(time_scoring(sorted(Path(bundle_dir).glob("**/model_*.json")),
                                   inputs["score"]))
    if mode in ("setup", "score"):
        result_path.write_text(json.dumps(result), encoding="utf-8")
        return

    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    start = time.perf_counter()
    produced = run(inputs)
    result["wall_s"] = time.perf_counter() - start

    tracer.enabled = False  # saving the chosen models is not part of a timed phase
    h = hashlib.sha256()
    failures, accuracy, bundles, expected = finish(produced, inputs, h)
    tracer.enabled = True
    scored = score(bundles, inputs["score"])
    tracer.enabled = False

    digest_update(h, scored)
    result["score_digest"] = score_digest(scored)
    for stem, pred in scored.items():
        _, *name = stem.split("_")  # model_<model>[_<track>]
        accuracy["/".join(["fresh"] + name)] = float(np.mean(pred.labels
                                                             == inputs["score"].y))
    failures += check_accuracy(workload, accuracy)
    for stem, probabilities in expected.items():
        if probabilities.tobytes() != scored[stem].probabilities[:probabilities.size].tobytes():
            failures.append(f"reloaded {stem} predicts differently from the trained model")
    if not bundles:
        failures.append("no model bundles to score")
    result.update(digest=h.hexdigest(), accuracy=accuracy, failures=failures)
    if mode == "trace":
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = tracer.spans
    result_path.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
