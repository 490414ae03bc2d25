"""The five classifier families share one spec/train/predict surface."""

import tempfile
from pathlib import Path

import numpy as np

from flowguard import SynthConfig, generate, stratified_split
from flowguard.classifiers import (
    MODEL_KINDS,
    load_model,
    make_spec,
    predict,
    save_model,
    train,
)
from flowguard.preprocess import apply_scaler, fit_scaler

ds = generate(SynthConfig(n_benign=400, n_ddos=400, n_features=10,
                          class_separation=4.0, seed=2))
split = stratified_split(ds, 0.8, seed=2)
scaler = fit_scaler(split.train)
tr = apply_scaler(scaler, split.train)
te = apply_scaler(scaler, split.test)

for kind in MODEL_KINDS:
    spec = make_spec(kind, seed=0)
    model = train(spec, tr)
    out = predict(model, te)
    acc = float(np.mean(out.labels == te.y))
    print(f"{kind:<4} test accuracy {acc:.4f} "
          f"(hyperparameters {spec.hyperparameters})")

# a boosted model exposes its training-loss trajectory
booster = train(make_spec("GBT", seed=0, rounds=25), tr)
curve = booster.loss_curve
print(f"boosting loss: {curve[0]:.4f} -> {curve[-1]:.6f} over {len(curve) - 1} rounds")

# a random forest ranks the features it split on
forest = train(make_spec("RF", seed=0, n_trees=25), tr)
top = np.argsort(forest.feature_importance)[::-1][:3]
print(f"top forest features: {[tr.feature_names[i] for i in top]}")

# models serialize to a versioned JSON file and predict identically after reload
with tempfile.TemporaryDirectory(prefix="flowguard_demo_") as workdir:
    path = Path(workdir) / "model.json"
    save_model(forest, path)
    reloaded, _ = load_model(path)
same = np.array_equal(reloaded.predict_proba(te.X), forest.predict_proba(te.X))
print(f"round-trip predictions identical: {same}")
