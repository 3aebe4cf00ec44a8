"""Loading, validation, splitting, and fold planning for multi-label tabular data.

A :class:`Dataset` holds a dense real-valued feature matrix next to a binary
label matrix. Loaders exist for a small ARFF subset (``@relation``,
``@attribute <name> numeric|{0,1}``, ``@data`` CSV rows, ``%`` comments) and
for headered CSV files. Missing feature cells are imputed with the column
mean; non-finite feature cells and missing or non-binary label cells are an
error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MISSING = "?"


class ParseError(ValueError):
    """A data file could not be parsed; the message carries the location."""


def _fail(path, line_no, message):
    raise ParseError(f"{path}:{line_no}: {message}")


@dataclass
class Dataset:
    """Immutable multi-label table: features, 0/1 labels, and their names."""

    name: str
    features: np.ndarray  # (n_instances, n_features) float64
    feature_names: list[str]
    labels: np.ndarray  # (n_instances, n_labels) int64 with 0/1 entries
    label_names: list[str]

    def __post_init__(self):
        self.features = np.array(self.features, dtype=np.float64)
        self.labels = np.array(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D matrices")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"row count mismatch: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} label rows"
            )
        self.feature_names = [str(n) for n in self.feature_names]
        self.label_names = [str(n) for n in self.label_names]
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length does not match feature matrix width")
        if len(self.label_names) != self.labels.shape[1]:
            raise ValueError("label_names length does not match label matrix width")
        all_names = self.feature_names + self.label_names
        if len(set(all_names)) != len(all_names):
            raise ValueError("feature and label names must be unique")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain NaN or infinite values")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("label not binary")
        self.features.flags.writeable = False
        self.labels.flags.writeable = False

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(instances, features, labels), the triple quoted for each corpus."""
        return (self.n_instances, self.n_features, self.n_labels)


@dataclass
class FoldPlan:
    """Repeated k-fold assignments: per repetition, disjoint test sets covering all rows."""

    repetitions: int
    folds_per_rep: int
    assignments: list[list[tuple[np.ndarray, np.ndarray]]]  # [rep][fold] -> (train, test)
    seed: int


def _resolve_label_columns(path, names, label_spec):
    """Map a trailing-count or explicit name list onto column indices; a
    column name, or a label name, given twice raises ParseError naming it."""
    if len(set(names)) != len(names):
        name = next(name for i, name in enumerate(names) if name in names[:i])
        raise ParseError(f"{path}: column {name!r} is named twice")
    if isinstance(label_spec, int):
        if not 1 <= label_spec < len(names):
            raise ParseError(
                f"{path}: label count must identify at least 1 and fewer than all "
                f"{len(names)} attributes, got {label_spec}"
            )
        return list(range(len(names) - label_spec, len(names)))
    wanted = list(label_spec)
    if not 1 <= len(wanted) < len(names):
        raise ParseError(
            f"{path}: label names must identify at least 1 and fewer than all attributes"
        )
    indices = []
    for name in wanted:
        if name not in names:
            raise ParseError(f"{path}: missing column {name!r}")
        if names.index(name) in indices:
            raise ParseError(f"{path}: label {name!r} is named twice")
        indices.append(names.index(name))
    return indices


def _impute_column_means(path, features, missing_mask, names):
    """Replace missing feature cells with their column mean over present cells."""
    if not missing_mask.any():
        return features
    for col in range(features.shape[1]):
        col_missing = missing_mask[:, col]
        if not col_missing.any():
            continue
        present = features[~col_missing, col]
        if present.size == 0:
            raise ParseError(
                f"{path}: column {names[col]!r} has no present values to impute from"
            )
        features[col_missing, col] = present.mean()
    return features


def _first_bad_cell(path, cells, missing, names, label_set):
    """Raise the ParseError of the first bad cell in row order: a missing
    label, a non-numeric cell, a label other than 0 or 1, or a non-finite
    feature."""
    for r, (line_no, row) in enumerate(cells):
        for c, text in enumerate(row):
            if missing[r][c]:
                if c in label_set:
                    _fail(path, line_no, f"missing value in label column {names[c]!r}")
                continue
            try:
                value = float(text)
            except ValueError:
                _fail(path, line_no, f"non-numeric value {text!r} in column {names[c]!r}")
            if c in label_set and value not in (0.0, 1.0):
                _fail(path, line_no, f"label not binary: {names[c]!r} = {text!r}")
            if not math.isfinite(value):
                _fail(path, line_no, f"non-finite value {text!r} in column {names[c]!r}")


def _finish(path, name, cells, missing, names, label_cols):
    """Assemble a Dataset from parsed text cells, imputing missing feature values.

    Every present cell is read by ``float`` in one pass and checked as a
    whole; only a file with a bad cell is read again cell by cell, to name
    the first one.
    """
    n_cols = len(names)
    label_set = set(label_cols)
    feature_cols = [c for c in range(n_cols) if c not in label_set]
    missing_arr = np.array(missing, dtype=bool).reshape(len(cells), n_cols)
    texts = [text for _, row in cells for text in row]
    for i in np.flatnonzero(missing_arr).tolist():
        texts[i] = "0"  # imputed below, or refused in a label column
    try:
        values = np.fromiter(map(float, texts), dtype=np.float64,
                             count=len(texts)).reshape(missing_arr.shape)
    except ValueError:
        values = None
    if (values is None or missing_arr[:, label_cols].any()
            or not np.isfinite(values).all()
            or not np.isin(values[:, label_cols], (0.0, 1.0)).all()):
        _first_bad_cell(path, cells, missing, names, label_set)
    features = _impute_column_means(
        path, values[:, feature_cols], missing_arr[:, feature_cols],
        [names[c] for c in feature_cols],
    )
    return Dataset(
        name=name,
        features=features,
        feature_names=[names[c] for c in feature_cols],
        labels=values[:, label_cols].astype(np.int64),
        label_names=[names[c] for c in label_cols],
    )


def load_arff(path, label_spec) -> Dataset:
    """Load an ARFF file whose attributes are numeric or {0,1} nominal.

    ``label_spec`` is either a trailing-label count or an explicit list of
    attribute names. Binary nominal attributes become 0/1 values whether used
    as features or labels; label attributes must be declared ``{0,1}``.
    """
    path = Path(path)
    relation = path.stem
    names: list[str] = []
    kinds: list[str] = []  # "numeric" | "binary"
    declared_at: list[int] = []
    cells = []
    missing = []
    in_data = False
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                lowered = line.lower()
                if lowered.startswith("@relation"):
                    rest = line[len("@relation"):].strip().strip("'\"")
                    if rest:
                        relation = rest
                elif lowered.startswith("@attribute"):
                    rest = line[len("@attribute"):].strip()
                    if rest.startswith(("'", '"')):
                        quote = rest[0]
                        end = rest.find(quote, 1)
                        if end < 0:
                            _fail(path, line_no, "unterminated quoted attribute name")
                        attr_name, attr_type = rest[1:end], rest[end + 1:].strip()
                    else:
                        parts = rest.split(None, 1)
                        if len(parts) != 2:
                            _fail(path, line_no, "attribute declaration needs a name and a type")
                        attr_name, attr_type = parts
                    attr_type = attr_type.strip()
                    if attr_type.lower() in ("numeric", "real", "integer"):
                        kinds.append("numeric")
                    elif attr_type.startswith("{") and attr_type.endswith("}"):
                        levels = sorted(v.strip() for v in attr_type[1:-1].split(","))
                        if levels != ["0", "1"]:
                            _fail(path, line_no, f"unsupported nominal domain {attr_type}")
                        kinds.append("binary")
                    else:
                        _fail(path, line_no, f"unsupported attribute type {attr_type!r}")
                    names.append(attr_name)
                    declared_at.append(line_no)
                elif lowered.startswith("@data"):
                    if not names:
                        _fail(path, line_no, "@data before any @attribute")
                    in_data = True
                else:
                    _fail(path, line_no, f"unrecognized header line {line!r}")
                continue
            row = [v.strip() for v in line.split(",")]
            if len(row) != len(names):
                _fail(path, line_no, f"expected {len(names)} values, got {len(row)}")
            cells.append((line_no, row))
            missing.append([v == MISSING for v in row])
    if not in_data:
        _fail(path, 0, "no @data section found")
    label_cols = _resolve_label_columns(path, names, label_spec)
    for c in label_cols:
        if kinds[c] != "binary":
            _fail(path, declared_at[c],
                  f"label attribute {names[c]!r} not binary ({{0,1}})")
    return _finish(path, relation, cells, missing, names, label_cols)


def load_csv(path, label_names) -> Dataset:
    """Load a headered CSV file; the named columns become the label matrix."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            _fail(path, 0, "empty file, header row required")
        names = [h.strip() for h in header]
        cells = []
        missing = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            row = [v.strip() for v in row]
            if len(row) != len(names):
                _fail(path, line_no, f"expected {len(names)} values, got {len(row)}")
            cells.append((line_no, row))
            missing.append([v in ("", MISSING) for v in row])
    label_cols = _resolve_label_columns(path, names, list(label_names))
    return _finish(path, path.stem, cells, missing, names, label_cols)


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset as CSV with full-precision decimal feature values.

    Reloading with the same label names reproduces the dataset bit-exactly.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.feature_names + dataset.label_names)
        for i in range(dataset.n_instances):
            row = [repr(float(v)) for v in dataset.features[i]]
            row += [str(int(v)) for v in dataset.labels[i]]
            writer.writerow(row)


def make_folds(n_instances: int, repetitions: int, k: int, seed: int) -> FoldPlan:
    """Plan ``repetitions`` independent shuffled k-fold partitions of ``n_instances`` rows."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if k > n_instances:
        raise ValueError(f"k={k} exceeds n_instances={n_instances}")
    rng = np.random.default_rng(seed)
    everything = np.arange(n_instances)
    assignments = []
    for _ in range(repetitions):
        perm = rng.permutation(n_instances)
        sizes = np.full(k, n_instances // k)
        sizes[: n_instances % k] += 1
        pairs = []
        start = 0
        for size in sizes:
            test = np.sort(perm[start:start + size])
            train = np.setdiff1d(everything, test, assume_unique=True)
            pairs.append((train, test))
            start += size
        assignments.append(pairs)
    return FoldPlan(repetitions, k, assignments, seed)


def split(dataset: Dataset, indices) -> Dataset:
    """Row-subset a dataset, preserving names and the requested row order."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= dataset.n_instances):
        raise IndexError(
            f"indices out of range for dataset with {dataset.n_instances} rows"
        )
    return Dataset(
        name=dataset.name,
        features=dataset.features[indices],
        feature_names=dataset.feature_names,
        labels=dataset.labels[indices],
        label_names=dataset.label_names,
    )
