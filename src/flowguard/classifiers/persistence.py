"""Versioned JSON persistence for trained models.

The file is self-describing: format tag, version, model kind, seed,
hyperparameters, feature arity, learned state, and an optional pipeline
bundle (scaler, category maps, ...) so a saved model can reproduce its
train-time preprocessing at evaluation time. JSON's repr-based float
round-trip is exact, so save -> load -> predict is bit-identical.
"""

from __future__ import annotations

import json

from .base import ModelSpec, all_finite

FORMAT_TAG = "flowguard-model"
FORMAT_VERSION = 1


def save_model(model, path, pipeline: dict | None = None) -> None:
    doc = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "kind": model.spec.kind,
        "seed": model.spec.seed,
        "hyperparameters": model.spec.hyperparameters,
        "feature_arity": model.feature_arity,
        "state": model.to_state(),
    }
    if pipeline is not None:
        doc["pipeline"] = pipeline
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")  # json.dumps encodes in C, json.dump in Python


def _refuse_constant(token):
    raise ValueError(f"{token} is not a finite number")


def read_json(path):
    """The JSON document in a UTF-8 file, refusing the NaN, Infinity and
    -Infinity tokens that Python's json would read as non-finite floats."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def load_model(path):
    """Returns (model, pipeline_dict_or_None); ValueError if the file is not
    a well-formed model file, or if its learned state is not finite or does
    not fit its kind, hyperparameters and feature arity."""
    try:
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        if doc.get("format") != FORMAT_TAG:
            raise ValueError(f"not a {FORMAT_TAG} file")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model file version {doc.get('version')!r}")
        spec = ModelSpec(kind=doc["kind"], hyperparameters=doc["hyperparameters"],
                         seed=doc["seed"])
        arity = doc["feature_arity"]
        if type(arity) is not int or arity < 1:
            raise ValueError(f"feature_arity {arity!r} is not a positive integer")
        model = spec.learner.from_state(spec, arity, doc["state"])
        for name in model.state_fields:
            if not all_finite(getattr(model, name)):
                raise ValueError(f"{spec.kind} state {name} holds a non-finite number")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path!r}: {exc!r}") from exc
    return model, doc.get("pipeline")
