"""Loading flow records from CSV: typing, gaps, encoding, splitting.

Writes a small synthetic capture to a temp file, then walks it through
the ingestion pipeline a real capture would follow.
"""

import tempfile
from pathlib import Path

from flowguard import (
    SynthConfig,
    apply_category_maps,
    encode_categoricals,
    impute_missing,
    label_distribution,
    load_csv,
    stratified_split,
    write_csv,
)

with tempfile.TemporaryDirectory(prefix="flowguard_demo_") as workdir:
    csv_path = Path(workdir) / "flows.csv"

    write_csv(SynthConfig(n_benign=120, n_ddos=80, n_features=8,
                          class_separation=3.0, seed=0), csv_path)
    print(f"wrote {csv_path}")

    ds = load_csv(csv_path)
    dist = label_distribution(ds)
    print(f"{ds.n_rows} rows, {ds.n_features} features, "
          f"{dist.benign_count} benign / {dist.ddos_count} ddos")
    print(f"numeric already: {ds.is_numeric}")  # protocol columns arrive as tokens

    ds = impute_missing(ds)       # no-op here, but the step is part of the contract
    ds = encode_categoricals(ds)  # tokens -> first-appearance integer codes
    print(f"category maps: {ds.category_maps}")

    # the recorded maps reproduce the same encoding on future data
    again = apply_category_maps(impute_missing(load_csv(csv_path)), ds.category_maps)
    print(f"re-encoding matches: {bool((again.X == ds.X).all())}")

split = stratified_split(ds, ratio=0.8, seed=0)
tr, te = label_distribution(split.train), label_distribution(split.test)
print(f"train: {split.train.n_rows} rows ({tr.benign_count}/{tr.ddos_count}), "
      f"test: {split.test.n_rows} rows ({te.benign_count}/{te.ddos_count})")
