"""Command-line surface: synth, inspect, run, evaluate."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flowguard
from flowguard import dataset
from flowguard.classifiers import load_model
from flowguard.cli import main
from flowguard.dataset import load_csv
from flowguard.experiment import PipelineState
from oracles import apply_category_maps_cellwise


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One synthetic CSV shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    path = root / "flows.csv"
    code = main(["synth", "--n-benign", "90", "--n-ddos", "60", "--features",
                 "5", "--sep", "4.0", "--seed", "0", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def finished_run(corpus, tmp_path_factory):
    """A completed `run --save-models` invocation, shared across tests."""
    out = tmp_path_factory.mktemp("run_out")
    code = main(["run", "--data", str(corpus), "--folds", "3", "--out",
                 str(out), "--save-models"])
    assert code == 0
    return out


def test_synth_reports_shape(corpus, capsys):
    lines = corpus.read_text().strip().split("\n")
    assert len(lines) == 151
    assert lines[0].split(",")[-1] == "label"
    code = main(["synth", "--n-benign", "5", "--n-ddos", "5", "--features",
                 "4", "--out", str(corpus.parent / "tiny.csv")])
    assert code == 0
    assert "wrote 10 rows (5 benign / 5 ddos" in capsys.readouterr().out


def test_inspect_types_columns(corpus, capsys):
    assert main(["inspect", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "rows: 150" in out
    assert "labels: 90 benign / 60 ddos" in out
    assert "f03: categorical" in out
    assert "f00: numeric" in out


@pytest.mark.parametrize("text, columns", [
    ("a,p,b,label\n1,tcp,5,0\n,?,6,1\n3,udp,7,0\n4,,8,1\n",
     ["a: numeric (1 missing)", "p: categorical (2 missing)", "b: numeric"]),
    ("a,b,label\n1,,0\nnan,2,1\n3,inf,0\n",  # an all-numeric capture
     ["a: numeric (1 missing)", "b: numeric (2 missing)"]),
])
def test_inspect_counts_gaps(tmp_path, capsys, text, columns):
    data = tmp_path / "gaps.csv"
    data.write_text(text)
    assert main(["inspect", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.strip() for line in lines[4:]] == columns


def test_inspect_refuses_a_capture_without_rows(corpus, tmp_path, capsys):
    # with no rows, a coded column such as f03 cannot be told from a numeric one
    data = tmp_path / "header_only.csv"
    data.write_text(corpus.read_text().split("\n")[0] + "\n")
    assert main(["inspect", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[load]: the capture has no rows\n"


def test_run_writes_report_and_models(finished_run, capsys):
    out = capsys.readouterr().out
    report = json.loads((finished_run / "report.json").read_text())
    assert [t["track"] for t in report["tracks"]] == ["imbalanced", "balanced"]
    for track in report["tracks"]:
        names = [m["name"] for m in track["models"]]
        assert names == ["rf", "svc", "knn", "mlp", "xgb"]
        for m in track["models"]:
            assert (finished_run / f"roc_{m['name']}_{track['track']}.csv").exists()
            assert (finished_run /
                    f"model_{m['name']}_{track['track']}.json").exists()


def test_run_stdout_matches_report(corpus, finished_run, capsys, tmp_path):
    # rerun without model saving; the table must quote report values at 4dp
    out_dir = tmp_path / "again"
    assert main(["run", "--data", str(corpus), "--folds", "3", "--out",
                 str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text())
    for track in report["tracks"]:
        for m in track["models"]:
            row = next(line for line in stdout.splitlines()
                       if line.startswith(track["track"]) and f" {m['name']} " in
                       f"{line} ")
            assert f"{m['test']['accuracy']:.4f}" in row
            assert f"{m['test']['auc']:.4f}" in row
    # byte-identical with the first run's report
    assert ((out_dir / "report.json").read_bytes() ==
            (finished_run / "report.json").read_bytes())


def test_evaluate_saved_model(corpus, finished_run, capsys, tmp_path):
    preds = tmp_path / "preds.csv"
    code = main(["evaluate", "--model",
                 str(finished_run / "model_rf_balanced.json"),
                 "--data", str(corpus), "--out", str(preds)])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    assert "confusion:" in out
    lines = preds.read_text().strip().split("\n")
    assert lines[0] == "row,label,probability"
    assert len(lines) == 151
    for line in lines[1:]:
        row, label, prob = line.split(",")
        assert label in ("0", "1")
        assert 0.0 <= float(prob) <= 1.0  # plain decimal text, no reprs


def test_every_csv_of_run_and_evaluate_ends_lines_in_crlf(corpus, tmp_path,
                                                         monkeypatch, capsys):
    from flowguard import cli

    reports = []
    write = cli.write_report_files
    monkeypatch.setattr(cli, "write_report_files",
                        lambda report, out: reports.append(report) or write(report, out))
    out, preds = tmp_path / "run", tmp_path / "preds.csv"
    assert main(["run", "--data", str(corpus), "--folds", "3", "--save-models",
                 "--out", str(out)]) == 0
    assert main(["evaluate", "--model", str(out / "model_knn_balanced.json"),
                 "--data", str(corpus), "--out", str(preds)]) == 0
    capsys.readouterr()
    paths = sorted(out.glob("*.csv")) + [preds]
    assert len(paths) == 3 * 10 + 1  # roc, validation curve, confusion; predictions
    for path in paths:
        text = path.read_bytes().decode("utf-8")
        assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", ""), path.name

    def cells(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    (report,) = reports
    for track in report.tracks:
        for m in track.models:
            tag = f"{m.name}_{track.track}"
            roc = cells(out / f"roc_{tag}.csv")
            assert roc[0] == ["fpr", "tpr"]
            assert [(float(x), float(t)) for x, t in roc[1:]] == list(
                zip(m.roc.fpr.tolist(), m.roc.tpr.tolist()))
            curve = cells(out / f"validation_curve_{tag}.csv")
            assert curve[0] == ["fold", "train_accuracy", "validation_accuracy"]
            assert [(int(f), float(a), float(v)) for f, a, v in curve[1:]] == [
                (fr.fold, fr.train_accuracy, fr.validation_accuracy)
                for fr in m.search.folds]
            cm = m.test.confusion
            assert cells(out / f"confusion_{tag}.csv") == [
                ["", "predicted_benign", "predicted_ddos"],
                ["actual_benign", str(cm.tn), str(cm.fp)],
                ["actual_ddos", str(cm.fn), str(cm.tp)]]
    rows = cells(preds)
    assert rows[0] == ["row", "label", "probability"]
    assert [int(row[0]) for row in rows[1:]] == list(range(150))


def test_save_models_trains_nothing_extra(corpus, tmp_path, monkeypatch, capsys,
                                         one_cpu):
    # On one CPU the searches run in this process, where the counter sees them.
    import flowguard.classifiers as classifiers
    from flowguard import cli
    from oracles import save_track_models_retrain

    trained = []
    train = classifiers.train
    monkeypatch.setattr(classifiers, "train",
                        lambda spec, ds: trained.append(spec) or train(spec, ds))
    saved = []
    save = cli._save_track_models
    monkeypatch.setattr(cli, "_save_track_models",
                        lambda *args: saved.append(args) or save(*args))
    counts = {}
    for flags in ([], ["--save-models"]):
        trained.clear()
        out = tmp_path / ("saved" if flags else "plain")
        assert main(["run", "--data", str(corpus), "--folds", "3",
                     "--out", str(out)] + flags) == 0
        counts[bool(flags)] = len(trained)
    capsys.readouterr()
    assert counts[False] > 0
    assert counts[True] == counts[False]

    # the saved bundles are those a retraining writer produces, byte for byte
    (report, out, label_column), = saved
    ds = cli._load_dataset(cli.build_parser().parse_args(["run", "--data", str(corpus)]))
    retrained = tmp_path / "retrained"
    retrained.mkdir()
    save_track_models_retrain(report, ds, retrained, label_column)
    names = sorted(p.name for p in out.glob("model_*.json"))
    assert len(names) == 10
    assert sorted(p.name for p in retrained.glob("model_*.json")) == names
    for name in names:
        assert (out / name).read_bytes() == (retrained / name).read_bytes(), name


def test_evaluate_single_class_capture(corpus, finished_run, tmp_path, capsys):
    lines = corpus.read_text().strip().split("\n")
    label = lines[0].split(",").index("label")
    benign = [line for line in lines[1:] if line.split(",")[label] == "0"]
    data = tmp_path / "benign.csv"
    data.write_text("\n".join([lines[0]] + benign) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(finished_run / "model_rf_balanced.json"),
                 "--data", str(data)]) == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert f"rows: {len(benign)}" in out
    for metric in ("accuracy", "precision", "recall", "f1", "auc", "kappa",
                   "mcc", "brier"):
        assert f"{metric}: " in out
    assert "auc: 0.000000" in out
    degenerate = next(line for line in out.splitlines()
                      if line.startswith("degenerate: "))
    assert "auc" in degenerate.split(": ")[1].split(", ")
    assert "tp=0" in out and "fn=0" in out


def _rewrite_csv(src, dst, header_map=None, order=None):
    """Copy a CSV, renaming header cells and/or reordering its columns."""
    rows = [line.split(",") for line in src.read_text().strip().split("\n")]
    header_map = header_map or {}
    rows[0] = [header_map.get(cell, cell) for cell in rows[0]]
    if order is not None:
        index = [rows[0].index(name) for name in order]
        rows = [[row[i] for i in index] for row in rows]
    dst.write_text("\n".join(",".join(row) for row in rows) + "\n")
    return dst


def test_evaluate_refuses_a_capture_without_rows(corpus, finished_run, tmp_path,
                                                capsys):
    data = tmp_path / "header_only.csv"
    data.write_text(corpus.read_text().split("\n")[0] + "\n")
    assert main(["evaluate", "--model", str(finished_run / "model_knn_balanced.json"),
                 "--data", str(data)]) == 1
    assert capsys.readouterr().err == "error[load]: the capture has no rows\n"


def test_saved_bundle_keeps_label_column(corpus, tmp_path, capsys):
    data = _rewrite_csv(corpus, tmp_path / "cls.csv", header_map={"label": "cls"})
    out = tmp_path / "out"
    assert main(["run", "--data", str(data), "--label-column", "cls",
                 "--tracks", "imbalanced", "--folds", "3", "--out", str(out),
                 "--save-models"]) == 0
    bundle = json.loads((out / "model_knn_imbalanced.json").read_text())
    assert bundle["pipeline"]["label_column"] == "cls"
    capsys.readouterr()
    assert main(["evaluate", "--model", str(out / "model_knn_imbalanced.json"),
                 "--data", str(data)]) == 0, capsys.readouterr().err


def test_evaluate_selects_columns_by_name(corpus, finished_run, tmp_path, capsys):
    model = str(finished_run / "model_svc_balanced.json")
    header = corpus.read_text().split("\n", 1)[0].split(",")
    swapped = list(header)
    i, j = swapped.index("f00"), swapped.index("f03")
    swapped[i], swapped[j] = swapped[j], swapped[i]
    runs = {}
    for name, order in (("plain", header), ("swapped", swapped)):
        data = _rewrite_csv(corpus, tmp_path / f"{name}.csv", order=order)
        preds = tmp_path / f"{name}_preds.csv"
        assert main(["evaluate", "--model", model, "--data", str(data),
                     "--out", str(preds)]) == 0
        runs[name] = preds.read_text()
    assert runs["swapped"] == runs["plain"]
    capsys.readouterr()

    missing = _rewrite_csv(corpus, tmp_path / "missing.csv",
                           order=[c for c in header if c != "f03"])
    extra = tmp_path / "extra.csv"
    lines = corpus.read_text().strip().split("\n")
    extra.write_text("\n".join([lines[0] + ",f99"] + [line + ",1.0" for line in lines[1:]])
                     + "\n")
    for data, column in ((missing, "f03"), (extra, "f99")):
        assert main(["evaluate", "--model", model, "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert "error[load]" in err and column in err


def test_evaluate_keeps_numeric_looking_categories_as_text(corpus, tmp_path, monkeypatch,
                                                          capsys):
    from flowguard.experiment import PipelineState

    # protocol numbers 6 and 17 in a column that also holds "tcp"
    lines = corpus.read_text().strip().split("\n")
    proto = lines[0].split(",").index("f03")
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        row[proto] = {"udp": "6", "icmp": "17"}.get(row[proto], row[proto])
    data = tmp_path / "proto.csv"
    data.write_text("\n".join(",".join(row) for row in rows) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--data", str(data), "--tracks", "imbalanced", "--folds", "3",
                 "--out", str(out), "--save-models"]) == 0
    model = out / "model_knn_imbalanced.json"
    assert json.loads(model.read_text())["pipeline"]["category_maps"] == {
        "f03": ["6", "17", "tcp"]}

    # a capture whose protocol tokens all look numeric scores them as codes
    capture = tmp_path / "capture.csv"
    kept = [row for row in rows[1:] if row[proto] != "tcp"]
    capture.write_text("\n".join(",".join(row) for row in [rows[0]] + kept) + "\n")
    prepared = []
    transform = PipelineState.transform
    monkeypatch.setattr(PipelineState, "transform",
                        lambda self, ds: prepared.append(ds) or transform(self, ds))
    assert main(["evaluate", "--model", str(model), "--data", str(capture)]) == 0, (
        capsys.readouterr().err)
    (ds,) = prepared
    codes = {"6": 0.0, "17": 1.0}
    assert ds.X[:, ds.feature_names.index("f03")].tolist() == [codes[row[proto]]
                                                               for row in kept]


def test_bundles_scoring_one_capture_read_its_tokens_once(corpus, finished_run,
                                                          monkeypatch):
    states = [PipelineState.from_dict(load_model(finished_run / f"model_{n}.json")[1])
              for n in ("rf_balanced", "knn_imbalanced", "xgb_balanced")]
    maps = states[0].category_maps
    assert maps and all(s.category_maps == maps for s in states)
    capture = load_csv(corpus, text_columns=tuple(maps))
    calls, tokens = [], dataset._tokens
    monkeypatch.setattr(dataset, "_tokens",
                        lambda column: calls.append(1) or tokens(column))
    want = apply_category_maps_cellwise(capture, maps).X
    for state in states:
        assert state.prepare(capture).X.tobytes() == want.tobytes()
    assert len(calls) == len(maps)


def test_evaluate_requires_pipeline_bundle(corpus, tmp_path, capsys):
    import numpy as np
    from flowguard.classifiers import make_spec, save_model, train
    from flowguard.dataset import Dataset

    rng = np.random.default_rng(0)
    ds = Dataset(feature_names=("a", "b"), X=rng.standard_normal((10, 2)),
                 y=np.array([0, 1] * 5))
    bare = tmp_path / "bare.json"
    save_model(train(make_spec("KNN", k=1), ds), bare)
    code = main(["evaluate", "--model", str(bare), "--data", str(corpus)])
    assert code == 1
    assert "error[model]" in capsys.readouterr().err


# Stand-ins that dumps_with_literals writes as number literals json cannot
# hold in a float: 1e999, which json reads as inf, and a 401-digit integer,
# which float() refuses. json.dumps would write float("inf") as Infinity.
HUGE, OVERFLOW = 1.25e300, 1.5e300


def dumps_with_literals(doc):
    return (json.dumps(doc).replace(repr(HUGE), "1e999")
            .replace(repr(OVERFLOW), "1" + "0" * 400))


@pytest.mark.parametrize("edit", [
    lambda p: p.pop("scaler"),
    lambda p: p["scaler"].pop("scale"),
    lambda p: p["scaler"].update(mean=p["scaler"]["mean"][:-1]),
    lambda p: p["scaler"].update(constant_mask="yes"),
    lambda p: p.update(feature_names=p["feature_names"][:-1]),
    lambda p: p.update(feature_names="f00"),
    lambda p: p.update(selected=[0, 99]),
    lambda p: p.update(selected=[True]),
    lambda p: p.update(category_maps={"f03": "tcp"}),
    lambda p: p.update(category_maps=["f03"]),
    lambda p: p["scaler"]["mean"].__setitem__(0, HUGE),
    lambda p: p["scaler"]["scale"].__setitem__(0, OVERFLOW),
    lambda p: p["scaler"]["scale"].__setitem__(0, 0),
    lambda p: p["scaler"]["scale"].__setitem__(0, -1),
    lambda p: p.update(selected=[0, 1, 2]),  # 3 columns for a model of 5
    lambda p: p.update(selected=[0, 0]),
    lambda p: p["feature_names"].__setitem__(1, p["feature_names"][0]),
    lambda p: p["category_maps"]["f03"].append(p["category_maps"]["f03"][0]),
    lambda p: p.update(label_column=5),
    # every column, at the model's width, but in the wrong order
    lambda p: p.update(selected=list(range(len(p["scaler"]["mean"])))[::-1]),
], ids=["no_scaler", "no_scale", "short_mean", "mask_text", "short_names", "names_text",
        "selected_range", "selected_bool", "map_text", "maps_list", "mean_1e999",
        "scale_401_digits", "scale_zero", "scale_negative", "narrower_than_model",
        "selected_repeated", "names_repeated", "token_repeated", "label_column_number",
        "selected_reversed"])
def test_evaluate_refuses_malformed_pipeline(corpus, finished_run, tmp_path, capsys,
                                             edit):
    doc = json.loads((finished_run / "model_knn_balanced.json").read_text())
    edit(doc["pipeline"])
    bundle = tmp_path / "bad.json"
    bundle.write_text(dumps_with_literals(doc))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(bundle), "--data", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[model]: malformed model pipeline"), err


def with_nan_scaler_mean(doc):
    doc["pipeline"]["scaler"]["mean"][0] = float("nan")
    return doc


def with_hyperparameter(key, value):
    return lambda doc: {**doc,
                        "hyperparameters": {**doc["hyperparameters"], key: value}}


@pytest.mark.parametrize("name, edit", [
    ("knn", lambda doc: [1, 2]),
    ("knn", lambda doc: {**doc, "hyperparameters": [1]}),
    ("knn", lambda doc: {**doc, "state": [1]}),
    ("knn", lambda doc: {k: v for k, v in doc.items() if k != "feature_arity"}),
    ("knn", with_nan_scaler_mean),  # json.dumps writes NaN, which json would read back
    ("svc", with_hyperparameter("reg_lambda", HUGE)),
    ("xgb", with_hyperparameter("learning_rate", HUGE)),
    ("xgb", with_hyperparameter("learning_rate", OVERFLOW)),
], ids=["list", "hyperparameters_list", "state_list", "no_arity", "scaler_mean_nan",
        "svc_lambda_1e999", "xgb_rate_1e999", "xgb_rate_401_digits"])
def test_evaluate_refuses_malformed_model_file(corpus, finished_run, tmp_path, capsys,
                                              name, edit):
    doc = json.loads((finished_run / f"model_{name}_balanced.json").read_text())
    bundle = tmp_path / "bad.json"
    bundle.write_text(dumps_with_literals(edit(doc)))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(bundle), "--data", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[model]: malformed model file"), err
    assert str(bundle) in err


def point_child_at(tree, child):
    """Sets the left child of a saved tree's first internal node to
    ``child(node, n_nodes)``."""
    node = next(i for i, f in enumerate(tree["feature"]) if f != -1)
    tree["left"][node] = child(node, len(tree["feature"]))


@pytest.mark.parametrize("name, edit", [
    ("knn", lambda s: s.update(train_y=s["train_y"][:1])),
    ("knn", lambda s: s.update(train_X=[row[:-1] for row in s["train_X"]])),
    ("knn", lambda s: s["train_y"].__setitem__(0, 5)),
    ("rf", lambda s: s["trees"][0].update(left=s["trees"][0]["left"][:1])),
    ("rf", lambda s: s["trees"][1]["feature"].__setitem__(0, 5)),
    ("rf", lambda s: s["trees"].pop()),
    ("rf", lambda s: s.update(feature_importance=s["feature_importance"][:-1])),
    ("xgb", lambda s: s["trees"][0].update(value=s["trees"][0]["value"][:-1])),
    ("xgb", lambda s: point_child_at(s["trees"][2], lambda node, n: n)),
    ("xgb", lambda s: s["trees"].__setitem__(3, {k: [] for k in s["trees"][3]})),
    ("rf", lambda s: s["trees"][2].update(threshold=s["trees"][2]["threshold"][:-1])),
    ("rf", lambda s: s["trees"][0].update(value=1.0)),
    ("xgb", lambda s: s["trees"][1].update(feature="0")),
    ("mlp", lambda s: s["weights"][0].pop()),
    ("mlp", lambda s: s["biases"][-1].append(0.0)),
    ("mlp", lambda s: s.update(weights=s["weights"][:-1], biases=s["biases"][:-1])),
    ("svc", lambda s: s["w"].pop()),
    # json.dumps writes Infinity and NaN tokens, which json would read back
    ("mlp", lambda s: s["biases"][-1].__setitem__(0, float("inf"))),
    ("svc", lambda s: s.update(platt_a=float("nan"))),
    ("xgb", lambda s: s["trees"][0]["value"].__setitem__(
        s["trees"][0]["feature"].index(-1), float("nan"))),
    ("knn", lambda s: s["train_X"][0].__setitem__(0, float("nan"))),
    ("svc", lambda s: s["w"].__setitem__(0, HUGE)),
    ("svc", lambda s: s.update(platt_a=HUGE)),
    ("mlp", lambda s: s["biases"][-1].__setitem__(0, HUGE)),
    ("mlp", lambda s: s["loss_curve"].__setitem__(1, HUGE)),
    ("rf", lambda s: s["feature_importance"].__setitem__(0, HUGE)),
    ("xgb", lambda s: s["trees"][0]["value"].__setitem__(
        s["trees"][0]["feature"].index(-1), HUGE)),
    ("knn", lambda s: s["train_X"][0].__setitem__(0, HUGE)),
    ("svc", lambda s: s["w"].__setitem__(0, OVERFLOW)),
    ("rf", lambda s: s["trees"][0]["threshold"].__setitem__(0, OVERFLOW)),
    ("knn", lambda s: s["train_y"].__setitem__(0, OVERFLOW)),
], ids=["knn_labels", "knn_columns", "knn_label_not_binary", "rf_tree_arrays",
        "rf_feature", "rf_tree_count", "rf_importance", "xgb_tree_arrays",
        "xgb_child_past_end", "xgb_empty_tree", "rf_short_threshold",
        "rf_value_not_list", "xgb_feature_text", "mlp_weight_rows", "mlp_bias",
        "mlp_layers", "svc_weights", "mlp_bias_infinite", "svc_platt_nan",
        "xgb_leaf_nan", "knn_train_nan", "svc_weight_1e999", "svc_platt_1e999",
        "mlp_bias_1e999", "mlp_loss_1e999", "rf_importance_1e999", "xgb_leaf_1e999",
        "knn_train_1e999", "svc_weight_401_digits", "rf_threshold_401_digits",
        "knn_label_401_digits"])
def test_evaluate_refuses_inconsistent_model_state(corpus, finished_run, tmp_path,
                                                   capsys, name, edit):
    doc = json.loads((finished_run / f"model_{name}_balanced.json").read_text())
    edit(doc["state"])
    bundle = tmp_path / "bad.json"
    bundle.write_text(dumps_with_literals(doc))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(bundle), "--data", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[model]: malformed model file"), err
    assert str(bundle) in err


@pytest.mark.parametrize("name", ["rf", "xgb"])
@pytest.mark.parametrize("child", [lambda node, n: node, lambda node, n: 0],
                         ids=["self", "root"])
def test_evaluate_refuses_cyclic_tree(corpus, finished_run, tmp_path, name, child):
    # Routing this tree would never end, so it runs in a child process that
    # must finish by itself.
    doc = json.loads((finished_run / f"model_{name}_balanced.json").read_text())
    point_child_at(doc["state"]["trees"][0], child)
    bundle = tmp_path / "cyclic.json"
    bundle.write_text(json.dumps(doc))
    package_root = Path(flowguard.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "flowguard", "evaluate", "--model",
                           str(bundle), "--data", str(corpus)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error[model]: malformed model file"), proc.stderr


def test_evaluate_scores_scaler_only_bundle(corpus, finished_run, tmp_path, capsys):
    # a pipeline of a scaler alone scores a capture that is already numeric
    doc = json.loads((finished_run / "model_knn_imbalanced.json").read_text())
    doc["pipeline"] = {"scaler": doc["pipeline"]["scaler"]}
    bundle = tmp_path / "scaler_only.json"
    bundle.write_text(json.dumps(doc))
    text = corpus.read_text()
    numeric = tmp_path / "numeric.csv"
    numeric.write_text(text.replace("tcp", "0").replace("udp", "1").replace("icmp", "2"))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(bundle), "--data", str(numeric)]) == 0, \
        capsys.readouterr().err
    assert "rows: 150" in capsys.readouterr().out


def test_unparsable_csv_fails_with_load_error(corpus, finished_run, tmp_path, capsys):
    # a field longer than the csv module's limit, in the header or a row
    lines = corpus.read_text().strip().split("\n")
    long_field = "x" * 200_000
    long_row = tmp_path / "long_row.csv"
    long_row.write_text("\n".join(lines[:3] + [long_field + lines[3]] + lines[4:]))
    long_header = tmp_path / "long_header.csv"
    long_header.write_text("\n".join([long_field + lines[0]] + lines[1:]))
    model = str(finished_run / "model_rf_balanced.json")
    for data, where in ((long_row, "row 3: "), (long_header, "header: ")):
        for argv in (["inspect", str(data)],
                     ["run", "--data", str(data), "--out", str(tmp_path / "o")],
                     ["evaluate", "--model", model, "--data", str(data)]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error[load]: {where}field larger than field"), err


def test_run_requires_exactly_one_source(corpus, capsys):
    assert main(["run", "--out", "x"]) == 1
    assert "error[load]" in capsys.readouterr().err
    assert main(["run", "--data", str(corpus), "--synth", "n=10",
                 "--out", "x"]) == 1
    assert "error[load]" in capsys.readouterr().err


def test_missing_paths_fail_cleanly(capsys, tmp_path):
    assert main(["inspect", str(tmp_path / "absent.csv")]) == 1
    assert "error[load]" in capsys.readouterr().err
    assert main(["evaluate", "--model", str(tmp_path / "no.json"),
                 "--data", str(tmp_path / "no.csv")]) == 1
    assert "error[model]" in capsys.readouterr().err


def test_run_refuses_a_track_named_twice(corpus, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--data", str(corpus), "--tracks", "balanced,balanced",
                 "--folds", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and "more than once" in err, err
    assert not out.exists()


def test_evaluate_reports_an_unwritable_predictions_file(corpus, finished_run,
                                                         tmp_path, capsys):
    capsys.readouterr()
    assert main(["evaluate", "--model", str(finished_run / "model_rf_balanced.json"),
                 "--data", str(corpus), "--out",
                 str(tmp_path / "missing" / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[write]:"), err


def test_run_reports_a_bundle_it_cannot_write(corpus, tmp_path, capsys):
    out = tmp_path / "o"
    (out / "model_rf_imbalanced.json").mkdir(parents=True)
    assert main(["run", "--data", str(corpus), "--tracks", "imbalanced",
                 "--folds", "3", "--out", str(out), "--save-models"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[write]:") and "model_rf_imbalanced.json" in err, err


def test_config_file_with_flag_override(corpus, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cv_folds": 4, "seed": 9,
                                    "tracks": "imbalanced"}))
    out_dir = tmp_path / "out"
    code = main(["run", "--data", str(corpus), "--config", str(cfg_path),
                 "--folds", "3", "--out", str(out_dir)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["cv_folds"] == 3  # flag beats file
    assert report["config"]["seed"] == 9
    assert [t["track"] for t in report["tracks"]] == ["imbalanced"]
    # every flag beats its file value
    from flowguard.cli import _build_experiment_config, build_parser

    cfg_path.write_text(json.dumps({"cv_folds": 4, "seed": 9, "split_ratio": 0.6,
                                    "tracks": "imbalanced"}))
    cfg = _build_experiment_config(build_parser().parse_args(
        ["run", "--config", str(cfg_path), "--folds", "3", "--seed", "5",
         "--ratio", "0.7", "--tracks", "balanced"]))
    assert (cfg.cv_folds, cfg.seed, cfg.split_ratio, cfg.tracks) == (
        3, 5, 0.7, ("balanced",))


def test_run_help_names_folds_and_ratio(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    out = capsys.readouterr().out
    assert "--folds FOLDS" in out and "--ratio RATIO" in out


def test_run_without_settings_uses_config_defaults(corpus, tmp_path, capsys):
    from flowguard.experiment import ExperimentConfig, config_to_dict

    out_dir = tmp_path / "out"
    assert main(["run", "--data", str(corpus), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    # compared as JSON text, so 1 and 1.0 differ
    assert (json.dumps(report["config"]) ==
            json.dumps(config_to_dict(ExperimentConfig())))


def test_config_rejects_unknown_keys(corpus, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"folds": 3}))
    assert main(["run", "--data", str(corpus), "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("cv_folds", 3.9),        # int() would truncate to 3
    ("seed", True),           # int() would read 1
    ("smote_k_neighbors", 2.5),
    ("lof_threshold", False),  # float() would read 0.0
    ("split_ratio", True),
    ("tracks", 3),
    ("tracks", ["imbalanced"]),
    ("seed", "3"),            # a number written as a string
    ("split_ratio", "0.5"),
])
def test_config_rejects_values_a_conversion_would_change(corpus, tmp_path, capsys,
                                                        key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    assert main(["run", "--data", str(corpus), "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error[config]" in err and repr(key) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [
    b'{"seed": 1, "x": "\xff"}',           # not UTF-8
    b'{"smote_target_ratio": Infinity}',   # json would read inf
    b'{"smote_target_ratio": 1e999}',      # json reads inf
    b'{"lof_threshold": 1e999}',
    b'{"split_ratio": 1' + b'0' * 400 + b'}',  # too large for a float
], ids=["not_utf8", "infinity", "overflow", "lof_overflow", "float_overflow"])
def test_config_file_must_be_utf8_json_with_finite_numbers(corpus, tmp_path, capsys,
                                                          text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text)
    assert main(["run", "--data", str(corpus), "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error[config]:")
    assert not (tmp_path / "o").exists()


def test_config_accepts_integral_numbers(tmp_path):
    from flowguard.cli import _load_config_file

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cv_folds": 3.0, "seed": 7, "split_ratio": 1,
                                    "lof_threshold": 1.5, "tracks": "balanced"}))
    got = _load_config_file(cfg_path)
    assert got == {"cv_folds": 3, "seed": 7, "split_ratio": 1.0,
                   "lof_threshold": 1.5, "tracks": "balanced"}
    assert type(got["cv_folds"]) is int and type(got["split_ratio"]) is float


@pytest.mark.parametrize("stage, argv, key", [
    ("config", ["run", "--data", "{corpus}", "--seed", "-1"], None),
    ("config", ["run", "--data", "{corpus}", "--config", "{config}"], "smote_seed"),
    ("synth", ["synth", "--seed", "-1"], None),
    ("load", ["run", "--synth", "n=60,seed=-1"], None),
], ids=["run_seed", "config_smote_seed", "synth_seed", "run_synth_seed"])
def test_negative_seed_is_refused_by_its_config(corpus, tmp_path, capsys, stage, argv,
                                                key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"smote_seed": -2}))
    out = tmp_path / "out"
    argv = [arg.format(corpus=corpus, config=config) for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    named = "" if key is None else f"bad value for {key!r}: "
    assert err.startswith(f"error[{stage}]: {named}seed must be >= 0"), err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("lof_k_neighbors", 0, "k_neighbors must be >= 1"),
    ("smote_k_neighbors", 0, "k_neighbors must be >= 1"),
    ("smote_seed", -2, "seed must be >= 0, got -2"),
])
def test_stage_config_errors_name_their_key(corpus, tmp_path, capsys, key, value,
                                            message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main(["run", "--data", str(corpus), "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error[config]: bad value for {key!r}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--synth", "n=6"], "LOF: lof_k_neighbors must lie in [1, "),
    (["--synth", "n_benign=40,n_ddos=4", "--tracks", "balanced"],
     "SMOTE: smote_k_neighbors=5 must be < minority class size "),
], ids=["lof", "smote"])
def test_neighbour_counts_the_data_cannot_meet_name_their_stage(tmp_path, capsys, argv,
                                                                message):
    out = tmp_path / "out"
    assert main(["run", *argv, "--folds", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error[experiment]: {message}")
    assert not out.exists()


def test_synth_refuses_non_finite_separation(tmp_path, capsys):
    for sep in ("inf", "nan"):
        out = tmp_path / f"{sep}.csv"
        assert main(["synth", "--sep", sep, "--out", str(out)]) == 1
        assert "error[synth]: class_separation must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_run_synth_runs_on_the_capture_synth_writes(tmp_path, capsys):
    data = tmp_path / "flows.csv"
    assert main(["synth", "--n-benign", "60", "--n-ddos", "40", "--features", "5",
                 "--sep", "3", "--seed", "3", "--out", str(data)]) == 0
    reports, outs = [], []
    for source in (["--synth", "n_benign=60,n_ddos=40,features=5,sep=3,seed=3"],
                   ["--data", str(data)]):
        outs.append(tmp_path / source[0].strip("-"))
        assert main(["run", *source, "--folds", "3", "--save-models",
                     "--out", str(outs[-1])]) == 0
        reports.append(json.loads((outs[-1] / "report.json").read_text()))
        reports[-1]["dataset"].pop("provenance")
    assert reports[0] == reports[1]
    bundles = sorted(outs[0].glob("model_*.json"))
    assert len(bundles) == 10
    for bundle in bundles:
        assert bundle.read_bytes() == (outs[1] / bundle.name).read_bytes()
        assert main(["evaluate", "--model", str(bundle), "--data", str(data)]) == 0
    capsys.readouterr()


def test_bad_synth_spec_fails(capsys):
    assert main(["run", "--synth", "bogus", "--out", "x"]) == 1
    assert "error[load]" in capsys.readouterr().err


def test_synth_defaults_come_from_synth_config(tmp_path, capsys):
    from flowguard.cli import _parse_synth_spec
    from flowguard.synth import SynthConfig, write_csv

    assert _parse_synth_spec("") == SynthConfig()
    assert _parse_synth_spec("n=50,sep=2") == SynthConfig(
        n_benign=50, n_ddos=50, class_separation=2.0)
    flags = ["--n-benign", "30", "--n-ddos", "20", "--features", "4", "--sep",
             "3", "--noise", "0.1", "--seed", "5"]
    for argv, cfg in (([], SynthConfig()),
                      (flags, SynthConfig(n_benign=30, n_ddos=20, n_features=4,
                                          class_separation=3.0, noise_fraction=0.1,
                                          seed=5))):
        assert main(["synth", *argv, "--out", str(tmp_path / "cli.csv")]) == 0
        write_csv(cfg, tmp_path / "lib.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    capsys.readouterr()


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    # The child processes import the flowguard this suite imported, however
    # that package came to be on this process's path.
    package_root = Path(flowguard.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")]))
    commands = [[sys.executable, "-m", "flowguard", "--help"]]
    if shutil.which("flowguard"):  # the console script, when installed
        commands.append(["flowguard", "--help"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, (command, proc.stderr)
        assert "imbalanced" in proc.stdout
