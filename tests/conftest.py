import numpy as np
import pytest

import recourselab as rl


@pytest.fixture(scope="session")
def synth_small():
    return rl.make_synthetic(60, seed=3)


@pytest.fixture(scope="session")
def baseline_small(synth_small):
    # compact net, extra steps: a well-converged classifier for search tests
    return rl.train_baseline(synth_small, steps=150, seed=1, hidden=(16, 16)).model


def negative_test_rows(dataset, model):
    rows = [i for i in dataset.test_idx if model.forward(dataset.features[i]) <= 0.5]
    return np.array(rows)


def csv_dataset(directory, d, seed):
    """Two label clusters in `d` standard-normal features, loaded from CSV."""
    rng = np.random.default_rng(seed)
    label = rng.integers(0, 2, 120)
    feats = rng.standard_normal((120, d)) + np.where(label == 1, 1.0, -1.0)[:, None]
    group = rng.integers(0, 2, 120)
    names = [f"f{j}" for j in range(d)]
    lines = [",".join(names + ["group", "label"])]
    lines += [",".join(map(repr, row.tolist())) + f",{g},{y}"
              for row, g, y in zip(feats, group, label)]
    path = directory / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    schema = rl.CsvSchema(label="label", protected_column="group", features=names)
    return rl.load_csv(path, schema, seed=0)
