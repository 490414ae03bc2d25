"""The dual-track experiment in one call, scaled down to run in seconds.

Track "imbalanced" trains on the raw class mix; track "balanced" first
oversamples the minority class. Both prune outliers, standardize, tune
each model by cross-validation, and score the same untouched test split.
"""

import tempfile
from pathlib import Path

from flowguard import SynthConfig, generate
from flowguard.experiment import (
    ExperimentConfig,
    report_to_dict,
    run_full_experiment,
    write_report_files,
)
from flowguard.preprocess import LofConfig

ds = generate(SynthConfig(n_benign=500, n_ddos=250, n_features=10,
                          class_separation=2.5, seed=4))

cfg = ExperimentConfig(
    cv_folds=3,
    seed=0,
    models=("RF", "KNN", "GBT"),
    grids={"RF": {"n_trees": (25, 50)},
           "KNN": {"k": (3, 5)},
           "GBT": {"rounds": (25,), "learning_rate": (0.1, 0.3)}},
    lof=LofConfig(k_neighbors=10, threshold=1.5),
)

report = run_full_experiment(cfg, ds)
# the run returns what it made; report_to_dict writes it in the report format
doc = report_to_dict(report)

print(f"dataset: {doc['dataset']['rows']} rows, labels {doc['dataset']['labels']}")
print(f"split: {report.split.train.n_rows} train / {report.split.test.n_rows} test")
for track, entry in zip(report.tracks, doc["tracks"]):
    # what a track's preprocessing did is read off its fitted pipeline
    print(f"--- {track.track}: pipeline {'+'.join(entry['pipeline'])}, "
          f"+{track.state.smote_added} synthetic, -{track.state.lof_removed} outliers, "
          f"{track.train_rows} final train rows")
    for m in track.models:
        # a model's CV facts are those of its grid search
        print(f"  {m.name:<4} cv {m.search.mean_cv_accuracy:.4f}  "
              f"test acc {m.test.accuracy:.4f}  auc {m.test.auc:.4f}  "
              f"kappa {m.test.kappa:.4f}  brier {m.test.brier:.4f}  "
              f"best {m.hyperparameters}")

with tempfile.TemporaryDirectory(prefix="flowguard_demo_") as out_dir:
    written = write_report_files(report, Path(out_dir))
    print(f"wrote {len(written)} artifact files to {out_dir}")
print("rerunning with the same config reproduces report.json byte for byte")
