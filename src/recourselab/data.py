"""Tabular dataset handling: CSV loading, standardization, splits, MAD statistics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

TRAIN_FRACTION = 0.8

_PREDICATE_OPS = {
    ">": np.greater,
    ">=": np.greater_equal,
    "<": np.less,
    "<=": np.less_equal,
    "==": np.equal,
}


class DataError(ValueError):
    """Raised for unreadable or malformed input data."""


class SchemaError(ValueError):
    """Raised when the data does not match the declared schema."""


def checked_delta(delta, d: int) -> np.ndarray:
    """A perturbation as a float vector of one finite value per feature; a
    DataError starting "delta:" for anything else, a scalar included."""
    dvec = np.asarray(delta, dtype=float)
    if dvec.shape != (d,):
        raise DataError(f"delta: expected shape ({d},), one value per feature, "
                        f"got shape {dvec.shape}")
    if not np.isfinite(dvec).all():
        raise DataError("delta: must be finite")
    return dvec


def compute_mad_raw(column) -> float:
    """Median absolute deviation from the median, without the zero guard."""
    col = np.asarray(column, dtype=float)
    if col.size == 0:
        raise DataError("cannot compute MAD of an empty column")
    med = np.median(col)
    return float(np.median(np.abs(col - med)))


def compute_mad(column) -> float:
    """MAD with the degenerate-scale guard: a zero MAD is replaced by 1.

    The substitution keeps MAD-weighted distances finite on constant
    features (the feature then contributes its unweighted deviation).
    """
    raw = compute_mad_raw(column)
    return 1.0 if raw == 0.0 else raw


def mad_vector(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column MAD plus a flag marking columns where the guard fired."""
    feats = np.asarray(features, dtype=float)
    raw = np.array([compute_mad_raw(feats[:, j]) for j in range(feats.shape[1])])
    substituted = raw == 0.0
    return np.where(substituted, 1.0, raw), substituted


@dataclass(frozen=True)
class GroupSlice:
    """Row indices for one protected-status x predicted-class cell."""

    role: str
    indices: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Standardized feature matrix with labels, protection mask, and split.

    `features` is always in standardized coordinates (fit on the train
    split); `center`/`scale` allow exact round-trips back to raw values.
    `mad` is computed on the standardized train rows.
    """

    features: np.ndarray
    labels: np.ndarray
    protected: np.ndarray
    feature_names: tuple[str, ...]
    mad: np.ndarray
    mad_substituted: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        n, d = self.features.shape
        if not (self.labels.shape == (n,) and self.protected.shape == (n,)):
            raise DataError("labels/protected length does not match features")
        if len(self.feature_names) != d or self.mad.shape != (d,):
            raise DataError("feature metadata does not match feature count")
        combined = np.sort(np.concatenate([self.train_idx, self.test_idx]))
        if not np.array_equal(combined, np.arange(n)):
            raise DataError("train/test indices must partition the rows")
        for arr in (self.features, self.labels, self.protected, self.mad,
                    self.mad_substituted, self.train_idx, self.test_idx,
                    self.center, self.scale):
            arr.flags.writeable = False

    # -- basic views ---------------------------------------------------
    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def train_features(self) -> np.ndarray:
        return self.features[self.train_idx]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[self.train_idx]

    @property
    def test_features(self) -> np.ndarray:
        return self.features[self.test_idx]

    @property
    def test_labels(self) -> np.ndarray:
        return self.labels[self.test_idx]

    # -- coordinate transforms ------------------------------------------
    def standardize(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.center) / self.scale

    def destandardize(self, std: np.ndarray) -> np.ndarray:
        return np.asarray(std, dtype=float) * self.scale + self.center

    def train_feature_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        tr = self.train_features
        return tr.min(axis=0), tr.max(axis=0)

    # -- group slices ----------------------------------------------------
    def group_slices(self, model, split: str = "test") -> dict[str, GroupSlice]:
        """Partition one split by protected status and model-predicted class.

        Negative cells use f(x) <= 0.5. Recompute whenever the model changes.
        """
        if split == "train":
            rows = self.train_idx
        elif split == "test":
            rows = self.test_idx
        elif split == "all":
            rows = np.arange(self.n)
        else:
            raise ValueError(f"unknown split {split!r}")
        probs = np.asarray(model.forward(self.features[rows]))
        negative = probs <= 0.5
        prot = self.protected[rows]
        cells = {
            "protected-neg": rows[prot & negative],
            "nonprotected-neg": rows[~prot & negative],
            "protected-pos": rows[prot & ~negative],
            "nonprotected-pos": rows[~prot & ~negative],
        }
        return {role: GroupSlice(role, idx) for role, idx in cells.items()}

    def to_csv(self, path) -> None:
        """Snapshot in standardized coordinates, with label/protected/split."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.feature_names) + ["label", "protected", "split"])
            role = np.empty(self.n, dtype=object)
            role[self.train_idx] = "train"
            role[self.test_idx] = "test"
            for i in range(self.n):
                writer.writerow(
                    [repr(float(v)) for v in self.features[i]]
                    + [int(self.labels[i]), int(self.protected[i]), role[i]]
                )


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(TRAIN_FRACTION * n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _finalize(raw: np.ndarray, labels: np.ndarray, protected: np.ndarray,
              names: Sequence[str], seed: int) -> Dataset:
    raw = np.asarray(raw, dtype=float)
    n = raw.shape[0]
    if n < 5:
        raise DataError(f"need at least 5 rows to split, got {n}")
    train_idx, test_idx = _split_indices(n, seed)
    center = raw[train_idx].mean(axis=0)
    std = raw[train_idx].std(axis=0)
    scale = np.where(std == 0.0, 1.0, std)
    feats = (raw - center) / scale
    mad, substituted = mad_vector(feats[train_idx])
    return Dataset(
        features=feats,
        labels=np.asarray(labels, dtype=int).copy(),
        protected=np.asarray(protected, dtype=bool).copy(),
        feature_names=tuple(names),
        mad=mad,
        mad_substituted=substituted,
        train_idx=train_idx,
        test_idx=test_idx,
        center=center,
        scale=scale,
    )


def split(dataset: Dataset, seed: int) -> Dataset:
    """Re-split a dataset deterministically, refitting scaler and MAD on train."""
    raw = dataset.destandardize(dataset.features)
    return _finalize(raw, dataset.labels, dataset.protected, dataset.feature_names, seed)


@dataclass
class CsvSchema:
    """Column roles for `load_csv`.

    `features=None` selects every column except the label.  The protected
    predicate is evaluated on raw (pre-standardization) values.  Label rules:
    'binary' requires {0,1} values; 'below-median'/'above-median' binarize a
    numeric outcome column at its median (strict inequality, ties negative).
    """

    label: str
    protected_column: str
    protected_op: str = ">"
    protected_threshold: float = 0.5
    features: list[str] | None = None
    label_rule: str = "binary"

    def __post_init__(self):
        if self.protected_op not in _PREDICATE_OPS:
            raise SchemaError(f"protected_op: unknown predicate op {self.protected_op!r}")
        if self.label_rule not in ("binary", "below-median", "above-median"):
            raise SchemaError(f"label_rule: unknown label rule {self.label_rule!r}")


def _parse_cell(text: str, column: str, line: int) -> float:
    """The cell's number, or nan when it is missing; a DataError for text
    that is not a finite number (`inf`, `1e999`), which standardization would
    spread to the whole column."""
    text = text.strip()
    if text in ("", "?", "NA", "nan"):
        return np.nan
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or math.isinf(value):
        raise DataError(f"line {line}: cannot parse {column}={text!r} as a number")
    return value


def load_csv(path, schema: CsvSchema, seed: int = 0) -> Dataset:
    """Load a CSV, binarize labels, apply the protected predicate, split and
    standardize.

    Rows with a missing value in any used column are dropped; malformed
    cells raise with their line number.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col_of = {name: i for i, name in enumerate(header)}
        roles = [("label", schema.label), ("protected_column", schema.protected_column)]
        for role, required in roles + [("features", f) for f in schema.features or []]:
            if required not in col_of:
                raise SchemaError(f"{role}: column {required!r} not found in header")
        feature_names = schema.features or [h for h in header if h != schema.label]
        used = feature_names + [schema.label, schema.protected_column]

        rows, raw_labels, prot_values = [], [], []
        for record in reader:
            line = reader.line_num
            if len(record) != len(header):
                raise DataError(
                    f"line {line}: expected {len(header)} fields, got {len(record)}"
                )
            values = {c: _parse_cell(record[col_of[c]], c, line) for c in used}
            if any(np.isnan(values[c]) for c in used):
                continue
            rows.append([values[c] for c in feature_names])
            raw_labels.append(values[schema.label])
            prot_values.append(values[schema.protected_column])

    if not rows:
        raise DataError(f"{path}: no usable rows")
    raw = np.array(rows, dtype=float)
    raw_labels = np.array(raw_labels, dtype=float)
    prot_values = np.array(prot_values, dtype=float)

    if schema.label_rule == "binary":
        distinct = np.unique(raw_labels)
        if not np.isin(distinct, (0.0, 1.0)).all():
            raise SchemaError(
                f"label: column {schema.label!r} is not binary: values {distinct.tolist()}"
            )
        labels = raw_labels.astype(int)
    else:
        cutoff = np.median(raw_labels)
        if schema.label_rule == "below-median":
            labels = (raw_labels < cutoff).astype(int)
        else:
            labels = (raw_labels > cutoff).astype(int)

    protected = _PREDICATE_OPS[schema.protected_op](prot_values, schema.protected_threshold)
    return _finalize(raw, labels, protected, feature_names, seed)


def make_synthetic(n_per_cluster: int, seed: int = 0) -> Dataset:
    """Two-cluster 2-d benchmark: negatives at (-2, 0), positives at (+2, 0).

    Unit covariance, labels are exact cluster membership, and protection is
    the sign of the second coordinate's noise (roughly 50/50, independent of
    the label).
    """
    if n_per_cluster < 10:
        raise DataError("n_per_cluster must be at least 10")
    rng = np.random.default_rng(seed)
    neg = rng.normal(loc=(-2.0, 0.0), scale=1.0, size=(n_per_cluster, 2))
    pos = rng.normal(loc=(2.0, 0.0), scale=1.0, size=(n_per_cluster, 2))
    raw = np.vstack([neg, pos])
    labels = np.concatenate([np.zeros(n_per_cluster, int), np.ones(n_per_cluster, int)])
    protected = raw[:, 1] > 0.0
    return _finalize(raw, labels, protected, ("x1", "x2"), seed)
