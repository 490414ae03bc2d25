"""flowguard: dual-track DDoS flow-classification experiments.

Library-first: load or synthesize labeled flow records, balance with SMOTE,
clean with LOF, standardize, then grid-search five from-scratch classifiers
under stratified cross-validation and compare the imbalanced and balanced
training regimes on one shared test split.
"""

from .dataset import (Dataset, apply_category_maps, encode_categoricals,
                      impute_missing, label_distribution, load_csv,
                      stratified_split)
from .preprocess import (LofConfig, SmoteConfig, apply_scaler, fit_scaler,
                         lof_scores, remove_outliers, smote_oversample)
from .synth import SynthConfig, generate, write_csv

__version__ = "0.1.0"

__all__ = [
    "Dataset", "apply_category_maps", "encode_categoricals", "impute_missing",
    "label_distribution", "load_csv", "stratified_split",
    "LofConfig", "SmoteConfig", "apply_scaler", "fit_scaler", "lof_scores",
    "remove_outliers", "smote_oversample",
    "SynthConfig", "generate", "write_csv",
]
