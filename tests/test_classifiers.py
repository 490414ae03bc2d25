"""Model behaviors: memorization, gradients, tie rules, persistence."""

import json

import numpy as np
import pytest

from flowguard.classifiers import (
    MODEL_KINDS,
    gradient_check,
    learner,
    load_model,
    make_spec,
    predict,
    save_model,
    train,
)
from flowguard.classifiers.base import TrainedModel, sigmoid
from flowguard.classifiers.mlp import max_gradient_error
from flowguard.dataset import Dataset
from oracles import (boosting_raw_scores, forest_vote_fraction,
                     knn_predict_brute)


def make_ds(X, y):
    X = np.asarray(X, dtype=np.float64)
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(feature_names=names, X=X, y=np.asarray(y, dtype=np.int64))


def random_ds(rng, n=40, d=4, scale=1.0):
    X = rng.standard_normal((n, d)) * scale
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    return make_ds(X, y)


def separable_ds(rng, n_per_class=60, d=5, gap=6.0):
    X = np.vstack([rng.standard_normal((n_per_class, d)),
                   rng.standard_normal((n_per_class, d)) + gap])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return make_ds(X, y)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec("LSTM")
    with pytest.raises(ValueError):
        make_spec("RF", lerning_rate=0.1)
    with pytest.raises(ValueError):
        make_spec("KNN", k=0)
    spec = make_spec("RF", seed=3, n_trees=7)
    assert spec.hyperparameters["n_trees"] == 7
    # unspecified keys fall back to defaults
    assert spec.hyperparameters["bootstrap"] is learner("RF").defaults["bootstrap"]


def test_train_input_validation():
    rng = np.random.default_rng(0)
    ds = random_ds(rng)
    with pytest.raises(ValueError):
        train(make_spec("RF"), ds.take(np.array([], dtype=np.int64)))
    X = np.array([["tcp", 1.0], ["udp", 2.0]], dtype=object)
    cat = Dataset(feature_names=("p", "v"), X=X, y=np.array([0, 1]))
    with pytest.raises(ValueError):
        train(make_spec("RF"), cat)


def test_predict_arity_check():
    rng = np.random.default_rng(1)
    model = train(make_spec("KNN", k=1), random_ds(rng, d=3))
    with pytest.raises(ValueError):
        predict(model, random_ds(rng, d=4))


def test_single_tree_memorizes_distinct_rows():
    rng = np.random.default_rng(2)
    for trial in range(5):
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        ds = make_ds(X, y)
        spec = make_spec("RF", seed=trial, n_trees=1, bootstrap=False,
                         max_depth=None)
        out = predict(train(spec, ds), ds)
        assert np.array_equal(out.labels, ds.y)


def test_forest_probability_is_vote_fraction():
    rng = np.random.default_rng(3)
    ds = random_ds(rng, n=50)
    model = train(make_spec("RF", seed=0, n_trees=5), ds)
    probs = model.predict_proba(ds.X)
    votes = probs * 5
    assert np.all(np.abs(votes - np.round(votes)) < 1e-12)


def test_forest_feature_importance_shape():
    rng = np.random.default_rng(4)
    ds = separable_ds(rng, n_per_class=30, d=4)
    model = train(make_spec("RF", seed=0, n_trees=10), ds)
    imp = model.feature_importance
    assert imp.shape == (4,)
    assert np.all(imp >= 0)
    assert imp.sum() > 0


def test_boosting_loss_never_increases():
    rng = np.random.default_rng(5)
    for trial in range(4):
        ds = random_ds(rng, n=60, d=3)
        model = train(make_spec("GBT", seed=trial, rounds=30), ds)
        curve = np.asarray(model.loss_curve)
        assert len(curve) == 31
        assert np.all(np.diff(curve) <= 1e-12)


def test_boosting_probability_is_sigmoid_of_score():
    rng = np.random.default_rng(6)
    ds = random_ds(rng, n=40)
    model = train(make_spec("GBT", seed=0, rounds=10), ds)
    scores = boosting_raw_scores(model, ds.X)
    probs = model.predict_proba(ds.X)
    assert np.allclose(probs, 1.0 / (1.0 + np.exp(-scores)), atol=1e-12)


def test_nearest_neighbor_memorizes():
    rng = np.random.default_rng(7)
    ds = random_ds(rng, n=35, d=3)
    out = predict(train(make_spec("KNN", k=1), ds), ds)
    assert np.array_equal(out.labels, ds.y)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(8)
    for trial in range(15):
        n = int(rng.integers(10, 80))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(9, n)))
        # integer grid coordinates force exact distance ties
        train_X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        ds = make_ds(train_X, y)
        queries = rng.integers(0, 4, size=(25, d)).astype(np.float64)
        model = train(make_spec("KNN", k=k), ds)
        got = model.predict_set(queries)
        for q_idx in range(25):
            label, frac = knn_predict_brute(train_X.tolist(), y.tolist(),
                                            queries[q_idx].tolist(), k)
            assert got.labels[q_idx] == label
            assert abs(got.probabilities[q_idx] - frac) < 1e-15


def test_knn_even_vote_uses_nearest_label():
    # query at origin: neighbors at distance 1 (label 0) and 2 (label 1)
    ds = make_ds([[1.0], [2.0], [9.0], [9.5]], [0, 1, 1, 0])
    model = train(make_spec("KNN", k=2), ds)
    out = model.predict_set(np.array([[0.0]]))
    assert out.probabilities[0] == 0.5
    assert out.labels[0] == 0


def test_knn_k_exceeding_rows_raises():
    ds = make_ds([[0.0], [1.0]], [0, 1])
    with pytest.raises(ValueError):
        train(make_spec("KNN", k=3), ds)


def test_mlp_learns_xor():
    ds = make_ds([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0])
    spec = make_spec("MLP", seed=0, hidden_sizes=(8, 4), learning_rate=0.1,
                     epochs=300, batch_size=4)
    model = train(spec, ds)
    assert model.loss_curve[-1] < 0.05
    out = predict(model, ds)
    assert np.array_equal(out.labels, ds.y)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    for trial in range(5):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(2, 5))
        ds = random_ds(rng, n=n, d=d)
        spec = make_spec("MLP", seed=trial, hidden_sizes=(5, 3))
        assert gradient_check(spec, ds) < 1e-4


def test_mlp_zero_network_output_bias_gradient():
    # dead ReLUs leave only the output bias with signal; the analytic
    # value mean(sigmoid(0) - y) must match central differences tightly
    sizes = (3, 4, 1)
    weights = [np.zeros((sizes[0], sizes[1])), np.zeros((sizes[1], sizes[2]))]
    biases = [np.zeros(sizes[1]), np.zeros(sizes[2])]
    X = np.zeros((3, 3))
    y = np.array([0.0, 1.0, 1.0])
    assert max_gradient_error(weights, biases, X, y, step=1e-5) < 1e-9


def test_mlp_loss_curve_length():
    rng = np.random.default_rng(10)
    ds = random_ds(rng, n=20)
    model = train(make_spec("MLP", seed=0, epochs=12, hidden_sizes=(4,)), ds)
    assert len(model.loss_curve) == 13


def test_linear_svc_separates_blobs():
    rng = np.random.default_rng(11)
    ds = separable_ds(rng, n_per_class=80, d=4, gap=8.0)
    model = train(make_spec("SVC", seed=0), ds)
    out = predict(model, ds)
    assert np.mean(out.labels == ds.y) == 1.0
    assert np.all(out.probabilities > 0.0) and np.all(out.probabilities < 1.0)


def test_labels_follow_probability_threshold():
    rng = np.random.default_rng(12)
    ds = random_ds(rng, n=60, d=4)
    holdout = rng.standard_normal((30, 4))
    for kind, hp in (("RF", {}), ("GBT", {"rounds": 15}), ("KNN", {"k": 5}),
                     ("MLP", {"epochs": 10}), ("SVC", {})):
        model = train(make_spec(kind, seed=1, **hp), ds)
        out = model.predict_set(holdout)
        assert np.array_equal(out.labels, (out.probabilities >= 0.5).astype(np.int64))


def test_single_class_training_behavior():
    X = np.random.default_rng(13).standard_normal((12, 3))
    ds = make_ds(X, np.ones(12, dtype=np.int64))
    for kind in ("GBT", "SVC", "MLP"):
        with pytest.raises(ValueError):
            train(make_spec(kind), ds)
    for kind, hp in (("RF", {"n_trees": 3}), ("KNN", {"k": 3})):
        out = predict(train(make_spec(kind, **hp), ds), ds)
        assert np.all(out.labels == 1)


def test_training_is_seeded():
    rng = np.random.default_rng(14)
    ds = random_ds(rng, n=80, d=4)
    probe = rng.standard_normal((40, 4))
    for kind in MODEL_KINDS:
        hp = {"epochs": 8} if kind in ("MLP", "SVC") else {}
        a = train(make_spec(kind, seed=5, **hp), ds).predict_proba(probe)
        b = train(make_spec(kind, seed=5, **hp), ds).predict_proba(probe)
        assert np.array_equal(a, b), kind


def test_persistence_round_trip_all_kinds(tmp_path):
    rng = np.random.default_rng(15)
    ds = separable_ds(rng, n_per_class=40, d=4)
    probe = rng.standard_normal((50, 4)) * 3 + 3
    for kind in MODEL_KINDS:
        hp = {"epochs": 6} if kind in ("MLP", "SVC") else {}
        model = train(make_spec(kind, seed=2, **hp), ds)
        path = tmp_path / f"{kind.lower()}.json"
        save_model(model, path)
        loaded, pipeline = load_model(path)
        assert pipeline is None
        assert np.array_equal(loaded.predict_proba(probe),
                              model.predict_proba(probe)), kind
        a, b = loaded.predict_set(probe), model.predict_set(probe)
        assert np.array_equal(a.labels, b.labels)
        # the state lists the declared fields in order, and a reloaded
        # model saves to the same bytes
        assert list(model.to_state()) == list(type(model).state_fields), kind
        again = tmp_path / f"{kind.lower()}_again.json"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes(), kind


def _reference_scores(model, X):
    """(labels, probabilities) of RF, GBT or KNN from the reference loops."""
    if model.kind == "KNN":
        k = model.spec.hyperparameters["k"]
        votes = [knn_predict_brute(model.train_X, model.train_y, q, k) for q in X]
        return (np.array([v[0] for v in votes], dtype=np.int64),
                np.array([v[1] for v in votes], dtype=np.float64))
    if model.kind == "RF":
        probs = forest_vote_fraction(model, X)
    else:
        probs = sigmoid(boosting_raw_scores(model, X))
    return (probs >= 0.5).astype(np.int64), probs


def test_staged_learners_score_as_the_reference_loops(tmp_path):
    rng = np.random.default_rng(17)
    # Integer coordinates keep distances exact, so KNN's neighbour order and
    # ties are those of the python-loop reference.
    ds = make_ds(rng.integers(0, 5, size=(60, 3)).astype(np.float64),
                 np.resize([0, 1, 1, 0, 1], 60))
    probe = rng.integers(-1, 6, size=(80, 3)).astype(np.float64)
    # Six trees and k=4 give exact half votes.
    for kind, hp in (("RF", {"n_trees": 6}), ("GBT", {"rounds": 12}),
                     ("KNN", {"k": 4})):
        model = train(make_spec(kind, seed=3, **hp), ds)
        save_model(model, tmp_path / "m.json")
        loaded, _ = load_model(tmp_path / "m.json")
        labels, probs = _reference_scores(model, probe)
        if kind != "GBT":
            assert np.any(probs == 0.5), kind
        for m in (model, loaded):
            assert m.predict_proba(probe).tobytes() == probs.tobytes(), kind
            out = m.predict_set(probe)
            assert out.labels.tobytes() == labels.tobytes(), kind
            assert out.probabilities.tobytes() == probs.tobytes(), kind


def test_learner_without_a_scoring_method_raises():
    class Unstaged(TrainedModel):
        pass

    class Staged(TrainedModel):
        staged_hyperparameter = "k"

    X = np.zeros((2, 3))
    for cls, spec in ((Unstaged, make_spec("SVC")), (Staged, make_spec("KNN", k=3))):
        model = cls(spec, 3)
        for call in (model.predict_proba, model.predict_set,
                     lambda X: model.staged_predict_sets(X, (1,))):
            with pytest.raises(NotImplementedError):
                call(X)


def test_persistence_carries_pipeline_payload(tmp_path):
    rng = np.random.default_rng(16)
    ds = random_ds(rng, n=30)
    model = train(make_spec("KNN", k=3), ds)
    path = tmp_path / "m.json"
    save_model(model, path, pipeline={"note": [1, 2, 3]})
    _, pipeline = load_model(path)
    assert pipeline == {"note": [1, 2, 3]}


def test_persistence_rejects_foreign_files(tmp_path):
    path = tmp_path / "strange.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_model(path)
    rng = np.random.default_rng(17)
    model = train(make_spec("KNN", k=1), random_ds(rng, n=10))
    good = tmp_path / "good.json"
    save_model(model, good)
    doc = json.loads(good.read_text())
    doc["version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(bad)
