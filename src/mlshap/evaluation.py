"""Multi-label metrics, cross-validated grid search, and shipped presets.

The grid search trains every grid point on every (train, test) pair of a
:class:`~mlshap.data.FoldPlan` and ranks points by the mean of the chosen
metric. Presets carry the published winning hyperparameters so the reference
setup can be reproduced without searching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _json
from .data import Dataset, FoldPlan, split
from .forest import ForestParams
from .multilabel import check_mlknn_params, fit_br, fit_cc, fit_mlknn, predict_mlknn_grid

CV_REPORT_FORMAT = "mlshap-cv-report"
CV_REPORT_VERSION = 1


def _check_label_matrices(Y_true, Y_pred):
    Y_true = np.asarray(Y_true)
    Y_pred = np.asarray(Y_pred)
    if Y_true.shape != Y_pred.shape:
        raise ValueError(f"shape mismatch: {Y_true.shape} vs {Y_pred.shape}")
    if Y_true.ndim != 2 or Y_true.size == 0:
        raise ValueError("label matrices must be non-empty and 2-D")
    return Y_true, Y_pred


def hamming_loss(Y_true, Y_pred) -> float:
    """Fraction of label cells that disagree."""
    Y_true, Y_pred = _check_label_matrices(Y_true, Y_pred)
    return float(np.mean(Y_true != Y_pred))


def subset_accuracy(Y_true, Y_pred) -> float:
    """Fraction of instances whose full label vector is exactly right."""
    Y_true, Y_pred = _check_label_matrices(Y_true, Y_pred)
    return float(np.mean((Y_true == Y_pred).all(axis=1)))


def micro_f1(Y_true, Y_pred) -> float:
    """F1 over the confusion counts pooled across all labels and instances.

    With no true and no predicted positives there is nothing to get wrong,
    so the score is defined as 1.
    """
    Y_true, Y_pred = _check_label_matrices(Y_true, Y_pred)
    tp = int(np.sum((Y_true == 1) & (Y_pred == 1)))
    fp = int(np.sum((Y_true == 0) & (Y_pred == 1)))
    fn = int(np.sum((Y_true == 1) & (Y_pred == 0)))
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2 * tp / denom


# metric name -> (function, higher_is_better)
METRICS = {
    "hamming_loss": (hamming_loss, False),
    "subset_accuracy": (subset_accuracy, True),
    "micro_f1": (micro_f1, True),
}

# Published winning configurations, one per algorithm. Only the named values
# are part of the reference setup; everything else falls back to repo defaults.
PRESETS = {
    "paper-br": {"algo": "br", "max_depth": 15, "min_samples_leaf": 2},
    "paper-cc": {"algo": "cc", "max_depth": 3, "order": "random"},
    "paper-mlknn": {"algo": "mlknn", "k": 5},
}

_FOREST_KEYS = ("n_trees", "max_depth", "min_samples_leaf", "max_features", "seed",
                "bootstrap")

# algorithm -> (hyperparameters its fit reads, axes a grid must give)
_GRID_AXES = {
    "br": (_FOREST_KEYS, ()),
    "cc": (_FOREST_KEYS + ("order",), ()),
    "mlknn": (("k", "s"), ("k",)),
}


def _forest_params(params: dict) -> ForestParams:
    return ForestParams(**{k: params[k] for k in _FOREST_KEYS if k in params})


def fit_point(algorithm: str, train: Dataset, params: dict):
    """Fit one model from a flat hyperparameter dict."""
    if algorithm in ("br", "cc"):
        forest_params = _forest_params(params)
        if algorithm == "br":
            return fit_br(train, forest_params)
        return fit_cc(train, forest_params, order=params.get("order", "random"),
                      seed=params.get("seed", 0))
    if algorithm == "mlknn":
        return fit_mlknn(train, k=params["k"], s=params.get("s", 1.0))
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _check_point(algorithm: str, params: dict, n_train: int) -> None:
    """Raise the ValueError ``fit_point`` would raise for these values on
    ``n_train`` rows, without fitting. A CC ``order`` is checked at the fit."""
    if algorithm == "mlknn":
        check_mlknn_params(params["k"], params.get("s", 1.0), n_train)
    else:
        _forest_params(params)


@dataclass
class ParamGrid:
    """Named hyperparameter value lists crossed into a point list."""

    algorithm: str
    axes: dict[str, list]

    def __post_init__(self):
        if self.algorithm not in _GRID_AXES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.axes:
            raise ValueError("grid must have at least one axis")
        allowed, required = _GRID_AXES[self.algorithm]
        for name, values in self.axes.items():
            if name not in allowed:
                raise ValueError(f"grid axis {name!r} is not a {self.algorithm} "
                                 f"hyperparameter; expected one of {list(allowed)}")
            if not isinstance(values, (list, tuple, range)) or len(values) == 0:
                raise ValueError(f"grid axis {name!r} must be a non-empty list of values")
        for name in required:
            if name not in self.axes:
                raise ValueError(f"grid axis {name!r} is required for {self.algorithm}")

    @property
    def points(self) -> list[dict]:
        names = list(self.axes)
        combos = itertools.product(*(self.axes[n] for n in names))
        return [dict(zip(names, combo)) for combo in combos]


@dataclass
class CVReport:
    algorithm: str
    scoring: str
    higher_is_better: bool
    points: list[dict]
    scores: list[list[float]]  # per point, one score per (rep, fold)
    repetitions: int
    folds: int
    best_index: int
    means: np.ndarray = field(init=False)
    stds: np.ndarray = field(init=False)

    def __post_init__(self):
        self.means = np.array([np.mean(s) for s in self.scores])
        self.stds = np.array([np.std(s) for s in self.scores])

    @property
    def best_params(self) -> dict:
        return self.points[self.best_index]

    @property
    def total_evaluations(self) -> int:
        return sum(len(s) for s in self.scores)

    def to_doc(self) -> dict:
        return {
            "format": CV_REPORT_FORMAT,
            "version": CV_REPORT_VERSION,
            "algorithm": self.algorithm,
            "scoring": self.scoring,
            "higher_is_better": self.higher_is_better,
            "repetitions": self.repetitions,
            "folds": self.folds,
            "best_index": self.best_index,
            "best_params": self.best_params,
            "total_evaluations": self.total_evaluations,
            "points": [
                {
                    "params": point,
                    "mean": float(mean),
                    "std": float(std),
                    "scores": scores,
                }
                for point, mean, std, scores in zip(
                    self.points, self.means, self.stds, self.scores
                )
            ],
        }

    def to_json(self) -> str:
        return _json.dumps(self.to_doc())


def grid_search(dataset: Dataset, grid: ParamGrid, foldplan: FoldPlan,
                scoring: str = "hamming_loss") -> CVReport:
    """Evaluate every grid point on every (train, test) pair of the fold plan.

    Every point is checked before the first fit. ML-kNN points share one
    neighbor order over all rows, computed once for the whole plan (see
    ``predict_mlknn_grid``), so each pair's train rows must be strictly
    increasing and disjoint from its test rows, as ``make_folds`` gives
    them; any other pair raises ValueError naming it. Forest points are
    fitted one by one on each pair's train split, built once per pair. Best
    is the highest mean score, or the lowest for loss metrics; ties go to
    the first point in grid order.
    """
    if scoring not in METRICS:
        raise ValueError(f"unknown metric {scoring!r}, expected one of {sorted(METRICS)}")
    metric, higher = METRICS[scoring]
    for rep_pairs in foldplan.assignments:
        covered = np.sort(np.concatenate([test for _, test in rep_pairs]))
        if not np.array_equal(covered, np.arange(dataset.n_instances)):
            raise ValueError("fold plan does not match the dataset size")
    points = grid.points
    n_train = min(len(train_idx) for rep_pairs in foldplan.assignments
                  for train_idx, _ in rep_pairs)
    for params in points:
        _check_point(grid.algorithm, params, n_train)
    pairs = [pair for rep_pairs in foldplan.assignments for pair in rep_pairs]
    if grid.algorithm == "mlknn":
        per_pair = predict_mlknn_grid(dataset, foldplan.assignments, points)
    else:
        per_pair = ([fit_point(grid.algorithm, split(dataset, train_idx), params)
                     .predict(dataset.features[test_idx]) for params in points]
                    for train_idx, test_idx in pairs)
    all_scores = [[] for _ in points]
    for (_, test_idx), predictions in zip(pairs, per_pair):
        for point_scores, predicted in zip(all_scores, predictions):
            point_scores.append(metric(dataset.labels[test_idx], predicted))
    means = [np.mean(s) for s in all_scores]
    best = int(np.argmax(means)) if higher else int(np.argmin(means))
    return CVReport(
        algorithm=grid.algorithm,
        scoring=scoring,
        higher_is_better=higher,
        points=points,
        scores=all_scores,
        repetitions=foldplan.repetitions,
        folds=foldplan.folds_per_rep,
        best_index=best,
    )
