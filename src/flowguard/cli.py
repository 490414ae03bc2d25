"""Command-line interface.

Subcommands: run (full dual-track experiment), inspect (dataset summary),
synth (emit a synthetic CSV), evaluate (score a saved model on a CSV).
Errors exit nonzero with a stage-tagged message on stderr. Every number the
summary prints is also present (at full precision) in the serialized report.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

from . import classifiers as clf
from .dataset import (DEFAULT_LABEL_COLUMN, encode_categoricals, impute_missing,
                      label_distribution, load_csv, write_rows)
from .experiment import (ExperimentConfig, PipelineState, report_to_dict,
                         run_full_experiment, write_report_files)
from .metrics import evaluate_predictions
from .preprocess import LofConfig, SmoteConfig
from .synth import SynthConfig, generate, with_tokens, write_csv


class StageError(Exception):
    """Carries the pipeline stage where a failure happened."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


@contextlib.contextmanager
def _stage(name):
    """Turns bad input (ValueError) or a failed read or write (OSError) raised
    in the block into StageError(name). Any other exception is a bug."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise StageError(name, str(exc)) from exc


# Config-file keys (flat JSON) mirroring the scalar ExperimentConfig fields.
_CONFIG_KEYS = {
    "split_ratio": float,
    "cv_folds": int,
    "seed": int,
    "tracks": str,           # comma-separated
    "smote_k_neighbors": int,
    "smote_target_ratio": float,
    "smote_seed": int,
    "lof_k_neighbors": int,
    "lof_threshold": float,
    "select_top_m": int,
}


# Synthetic-data spec keys: the SynthConfig fields each one sets, and its type.
_SYNTH_SPEC_KEYS = {"n": (("n_benign", "n_ddos"), int), "n_benign": (("n_benign",), int),
                    "n_ddos": (("n_ddos",), int), "features": (("n_features",), int),
                    "sep": (("class_separation",), float),
                    "noise": (("noise_fraction",), float), "seed": (("seed",), int)}


def _parse_synth_spec(text):
    """Parse "sep=6,n=2000,noise=0.01" style specs; SynthConfig defaults the rest."""
    values = {}
    if text.strip():
        for part in text.split(","):
            if "=" not in part:
                raise ValueError(f"bad synth spec fragment {part!r}; expected key=value")
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in _SYNTH_SPEC_KEYS:
                raise ValueError(f"unknown synth spec key {key!r}")
            names, kind = _SYNTH_SPEC_KEYS[key]
            for name in names:
                values[name] = kind(raw.strip())
    return SynthConfig(**values)


def _load_config_file(path):
    raw = clf.read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a flat JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if value is not None:
            try:
                out[key] = _config_value(_CONFIG_KEYS[key], value)
            except (OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from exc
    return out


def _config_value(kind, value):
    """``kind(value)``, refusing what the conversion would silently change."""
    if kind is str and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    if kind is not str and isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def _build_experiment_config(args):
    """ExperimentConfig from the settings given; the dataclasses default the rest."""
    settings = _load_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:  # a flag, named by the key it sets, beats the file
        if (flag := getattr(args, key, None)) is not None:
            settings[key] = flag
    fields = {}
    stages = {"smote": {}, "lof": {}}  # keywords of SmoteConfig and LofConfig
    for key, value in settings.items():
        stage, _, name = key.partition("_")
        if stage in stages:
            stages[stage][name] = value
        elif key == "tracks":
            fields[key] = tuple(t.strip() for t in value.split(",") if t.strip())
        else:
            fields[key] = value
    return ExperimentConfig(smote=_stage_config(SmoteConfig, "smote", stages["smote"]),
                            lof=_stage_config(LofConfig, "lof", stages["lof"]), **fields)


def _stage_config(cls, stage, values):
    """``cls(**values)``; a value the stage refuses is named by its config key."""
    for name, value in values.items():
        try:
            cls(**{name: value})
        except ValueError as exc:
            key = f"{stage}_{name}"
            raise ValueError(f"bad value for {key!r}: {exc}") from exc
    return cls(**values)


def _load_dataset(args):
    with _stage("load"):
        if (args.data is None) == (args.synth is None):
            raise ValueError("exactly one of --data or --synth is required")
        ds = (load_csv(args.data, label_column=args.label_column) if args.synth is None
              else with_tokens(generate(_parse_synth_spec(args.synth))))
    with _stage("clean"):
        return encode_categoricals(impute_missing(ds))


def _print_summary(report):
    doc = report_to_dict(report)
    print(f"dataset: {doc['dataset']['provenance']} "
          f"({doc['dataset']['rows']} rows, {doc['dataset']['features']} features, "
          f"{doc['dataset']['labels']['benign']} benign / "
          f"{doc['dataset']['labels']['ddos']} ddos)")
    print(f"split: {doc['split']['train_rows']} train / {doc['split']['test_rows']} "
          f"test (ratio {doc['split']['ratio']}, seed {doc['split']['seed']})")
    header = (f"{'track':<12} {'model':<6} {'train_acc':>10} {'cv_acc':>10} "
              f"{'test_acc':>10} {'auc':>8} {'kappa':>8} {'mcc':>8} {'brier':>8}")
    print(header)
    for track in doc["tracks"]:
        for m in track["models"]:
            t = m["test"]
            print(f"{track['track']:<12} {m['name']:<6} "
                  f"{m['training_accuracy']:>10.4f} {m['mean_cv_accuracy']:>10.4f} "
                  f"{t['accuracy']:>10.4f} {t['auc']:>8.4f} {t['kappa']:>8.4f} "
                  f"{t['mcc']:>8.4f} {t['brier']:>8.4f}")


def _cmd_run(args):
    ds = _load_dataset(args)
    with _stage("config"):
        cfg = _build_experiment_config(args)
    with _stage("experiment"):
        report = run_full_experiment(cfg, ds)
    out_dir = Path(args.out)
    with _stage("write"):
        write_report_files(report, out_dir)
        if args.save_models:
            _save_track_models(report, out_dir, args.label_column)
    _print_summary(report)
    print(f"report written to {out_dir / 'report.json'}")
    return 0


def _save_track_models(report, out_dir, label_column):
    # The run's own final models, each bundled with its track's fitted
    # pipeline so `evaluate` can reproduce preprocessing.
    for track_report in report.tracks:
        state = dataclasses.replace(track_report.state, label_column=label_column)
        for m in track_report.models:
            path = out_dir / f"model_{m.name}_{track_report.track}.json"
            clf.save_model(m.model, path, pipeline=state.to_dict())


def _cmd_inspect(args):
    with _stage("load"):
        ds = load_csv(args.data, label_column=args.label_column)
    dist = label_distribution(ds)
    print(f"path: {args.data}")
    print(f"rows: {ds.n_rows}")
    print(f"features: {ds.n_features}")
    print(f"labels: {dist.benign_count} benign / {dist.ddos_count} ddos")
    for name, (categorical, gaps, _) in zip(ds.feature_names, ds.scans):
        missing = int(gaps.sum())
        suffix = f" ({missing} missing)" if missing else ""
        print(f"  {name}: {'categorical' if categorical else 'numeric'}{suffix}")
    return 0


def _cmd_synth(args):
    with _stage("synth"):
        given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SynthConfig)
                 if getattr(args, f.name) is not None}
        ds = write_csv(SynthConfig(**given), args.out)
    dist = label_distribution(ds)
    print(f"wrote {ds.n_rows} rows ({dist.benign_count} benign / "
          f"{dist.ddos_count} ddos, {ds.n_features} features) to {args.out}")
    return 0


def _cmd_evaluate(args):
    with _stage("model"):
        model, pipeline = clf.load_model(args.model)
        state = PipelineState.from_dict(pipeline)
        width = state.scaler.n_features if state.selected is None else len(state.selected)
        if width != model.feature_arity:
            raise ValueError(f"malformed model pipeline: it gives {width} features, "
                             f"the model takes {model.feature_arity}")
    with _stage("load"):
        # A column the model encodes by category stays text, even where its
        # tokens look like numbers (protocol numbers such as 6 and 17).
        ds = state.prepare(load_csv(args.data,
                                    label_column=args.label_column or state.label_column,
                                    text_columns=tuple(state.category_maps)))
    with _stage("evaluate"):
        ds = state.transform(ds)
        pred = clf.predict(model, ds)
        report, _ = evaluate_predictions(ds.y, pred.labels, pred.probabilities)
    print(f"model: {args.model} (kind {model.kind})")
    print(f"rows: {ds.n_rows}")
    for key, value in report.to_dict().items():
        if key in ("confusion", "degenerate"):
            continue
        print(f"{key}: {value:.6f}")
    if report.degenerate:
        print(f"degenerate: {', '.join(report.degenerate)}")
    cm = report.confusion
    print(f"confusion: tp={cm.tp} tn={cm.tn} fp={cm.fp} fn={cm.fn}")
    if args.out:
        with _stage("write"):
            write_rows(args.out, [("row", "label", "probability"),
                                  *zip(range(ds.n_rows), pred.labels.tolist(),
                                       pred.probabilities.tolist())])
        print(f"predictions written to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowguard",
        description="DDoS flow classification experiments (imbalanced vs "
                    "SMOTE-balanced training).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the dual-track experiment")
    run.add_argument("--data", help="labeled CSV dataset")
    run.add_argument("--synth", metavar="SPEC",
                     help='synthetic data spec, e.g. "sep=6,n=2000,seed=0"')
    run.add_argument("--label-column", default=DEFAULT_LABEL_COLUMN)
    run.add_argument("--tracks", help="comma list: imbalanced,balanced")
    run.add_argument("--seed", type=int)
    # --folds and --ratio store under the config keys they override.
    run.add_argument("--folds", type=int, dest="cv_folds", metavar="FOLDS",
                     help="cross-validation folds")
    run.add_argument("--ratio", type=float, dest="split_ratio", metavar="RATIO",
                     help="train split ratio")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--config", help="flat JSON config file (flags override)")
    run.add_argument("--save-models", action="store_true",
                     help="also write model_<name>_<track>.json bundles")
    run.set_defaults(func=_cmd_run)

    inspect = sub.add_parser("inspect", help="summarize a dataset CSV")
    inspect.add_argument("data", help="CSV path")
    inspect.add_argument("--label-column", default=DEFAULT_LABEL_COLUMN)
    inspect.set_defaults(func=_cmd_inspect)

    synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    # Flags left out take SynthConfig's defaults.
    synth.add_argument("--n-benign", type=int)
    synth.add_argument("--n-ddos", type=int)
    synth.add_argument("--features", type=int, dest="n_features")
    synth.add_argument("--sep", type=float, dest="class_separation",
                       help="class separation in feature units")
    synth.add_argument("--noise", type=float, dest="noise_fraction",
                       help="fraction of labels flipped")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--out", required=True, help="CSV path to write")
    synth.set_defaults(func=_cmd_synth)

    evaluate = sub.add_parser("evaluate", help="score a saved model on a CSV")
    evaluate.add_argument("--model", required=True, help="model JSON file")
    evaluate.add_argument("--data", required=True, help="labeled CSV")
    evaluate.add_argument("--label-column")
    evaluate.add_argument("--out", help="optional predictions CSV")
    evaluate.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error[{exc.stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
