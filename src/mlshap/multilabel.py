"""Binary relevance, classifier chains, and ML-kNN behind one probability contract.

Every model maps a feature vector to one probability per label. Binary
relevance fits an independent forest per label; a classifier chain feeds the
hard 0/1 decisions of earlier links to later ones; ML-kNN scores each label by
maximum-a-posteriori reasoning over the label counts of the k nearest training
neighbors.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.spatial.distance import cdist

from . import _blocks, _json
from .data import Dataset
from .forest import ForestParams, fit_forest, forest_from_doc, forest_to_doc

MODEL_FORMAT = "mlshap-model"
MODEL_VERSION = 1


def derive_seed(seed: int, index: int) -> int:
    """Stable per-label seed derived from a global seed and a label index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class MultiLabelModel:
    """Base contract: per-label probabilities in [0, 1], one per label."""

    algorithm = "base"

    def __init__(self, n_features, n_labels, label_names=None, feature_names=None):
        self.n_features = n_features
        self.n_labels = n_labels
        self.label_names = list(label_names) if label_names else [
            f"label_{i}" for i in range(n_labels)
        ]
        self.feature_names = list(feature_names) if feature_names else None
        if len(self.label_names) != n_labels:
            raise ValueError(f"label_names must have {n_labels} entries, one per "
                             f"label, got {len(self.label_names)}")
        if self.feature_names is not None and len(self.feature_names) != n_features:
            raise ValueError(f"feature_names must have {n_features} entries, one per "
                             f"feature, got {len(self.feature_names)}")

    def _proba_matrix(self, X: np.ndarray, labels: list[int]) -> np.ndarray:
        """(n, len(labels)) probabilities of the requested labels, in that order,
        in C order (so the explainers can reshape it without a copy)."""
        raise NotImplementedError

    def _label_ids(self, labels) -> list[int]:
        ids = list(range(self.n_labels)) if labels is None else [int(l) for l in labels]
        if not ids or not all(0 <= l < self.n_labels for l in ids):
            raise ValueError(f"label ids must be a non-empty list of indices in "
                             f"[0, {self.n_labels}), got {ids}")
        return ids

    def predict_proba(self, X, labels=None):
        """Probabilities of ``labels`` (default: all, in label order) per row.

        BR and CC run only the forests the requested labels need; ML-kNN makes
        one neighbor query for all of them. Each column is bit-identical to
        the same column of the all-label matrix.
        """
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"input width {X.shape[1]} does not match training width {self.n_features}"
            )
        out = self._proba_matrix(X, self._label_ids(labels))
        return out[0] if single else out

    def predict(self, X, threshold: float = 0.5):
        return predict_labels(self.predict_proba(X), threshold)

    def label_proba_fn(self, labels):
        """Batched explainer target: an (n, M) matrix to (n, len(labels))."""
        labels = self._label_ids(labels)
        return lambda X: self.predict_proba(X, labels)

    def _payload(self) -> dict:
        raise NotImplementedError

    def to_doc(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "algorithm": self.algorithm,
            "n_features": self.n_features,
            "n_labels": self.n_labels,
            "label_names": self.label_names,
            "feature_names": self.feature_names,
            "payload": self._payload(),
        }


class BRModel(MultiLabelModel):
    """One independent forest per label."""

    algorithm = "br"

    def __init__(self, forests, label_names=None, feature_names=None):
        super().__init__(forests[0].n_features, len(forests), label_names, feature_names)
        self.per_label_models = list(forests)

    def _proba_matrix(self, X, labels):
        return np.column_stack([self.per_label_models[l].predict_proba(X) for l in labels])

    def _payload(self):
        return {"forests": [forest_to_doc(f) for f in self.per_label_models]}


class CCModel(MultiLabelModel):
    """Chained forests: link j consumes the features plus the j earlier labels."""

    algorithm = "cc"

    def __init__(self, chain_order, chained_models, n_features, label_names=None,
                 feature_names=None):
        super().__init__(n_features, len(chain_order), label_names, feature_names)
        self.chain_order = [int(i) for i in chain_order]
        self.chained_models = list(chained_models)
        if sorted(self.chain_order) != list(range(self.n_labels)):
            raise ValueError("chain_order is not a permutation of the label indices")
        for j, forest in enumerate(self.chained_models):
            if forest.n_features != n_features + j:
                raise ValueError(f"chain link {j} has width {forest.n_features}, "
                                 f"expected {n_features + j}")

    def _proba_matrix(self, X, labels):
        """Runs links 0..p only, p the deepest chain position requested.

        One augmented matrix holds the features and every earlier decision;
        link j reads its first M + j columns, and its 0/1 decision is written
        in place as column M + j.
        """
        positions = [self.chain_order.index(l) for l in labels]
        last = max(positions)
        M = self.n_features
        aug = np.empty((X.shape[0], M + last))
        aug[:, :M] = X
        probas = np.empty((X.shape[0], last + 1))
        for j in range(last + 1):
            probas[:, j] = self.chained_models[j].predict_proba(aug[:, :M + j])
            if j < last:
                aug[:, M + j] = probas[:, j] >= 0.5
        return probas.take(positions, axis=1)

    def _payload(self):
        return {
            "chain_order": self.chain_order,
            "chained_models": [forest_to_doc(f) for f in self.chained_models],
        }


class MLKNNModel(MultiLabelModel):
    """Lazy MAP model over neighbor label counts with Laplace smoothing ``s``."""

    algorithm = "mlknn"

    def __init__(self, k, s, train_features, train_labels, label_names=None,
                 feature_names=None, *, _loo=None):
        train_features = np.asarray(train_features, dtype=np.float64)
        if train_features.ndim != 2 or not np.isfinite(train_features).all():
            raise ValueError("train_features must be a 2-D matrix of finite numbers")
        raw_labels = np.asarray(train_labels)
        if raw_labels.ndim != 2 or raw_labels.shape[0] != train_features.shape[0]:
            raise ValueError(f"train_labels must have one row per train_features row "
                             f"({train_features.shape[0]}), got shape {raw_labels.shape}")
        if not np.isin(raw_labels, (0, 1)).all():
            raise ValueError("train_labels must hold only 0 and 1")
        check_mlknn_params(k, s, train_features.shape[0])
        train_labels = raw_labels.astype(np.int64)
        super().__init__(train_features.shape[1], train_labels.shape[1],
                         label_names, feature_names)
        self.k = int(k)
        self.s = float(s)
        self.train_features = train_features
        self.train_labels = train_labels
        self.priors = (self.s + train_labels.sum(axis=0)) / (
            2.0 * self.s + train_labels.shape[0]
        )
        # ``_loo`` is a leave-one-out order at some k' >= k over these rows;
        # its first k columns are the order computed here.
        loo = _loo_order(train_features, self.k) if _loo is None else _loo[:, : self.k]
        self.cond_counts_pos, self.cond_counts_neg = self._neighbor_statistics(loo)

    def _neighbor_statistics(self, loo):
        """Count, per label and per neighbor-positive count j in 0..k, how many
        training instances with(out) the label saw exactly j positive neighbors
        among their ``loo`` rows (self excluded)."""
        L = self.n_labels
        counts = self.train_labels[loo].sum(axis=1)  # (n, L)
        c_pos = np.zeros((L, self.k + 1), dtype=np.int64)
        c_neg = np.zeros((L, self.k + 1), dtype=np.int64)
        for l in range(L):
            has = self.train_labels[:, l] == 1
            c_pos[l] = np.bincount(counts[has, l], minlength=self.k + 1)
            c_neg[l] = np.bincount(counts[~has, l], minlength=self.k + 1)
        return c_pos, c_neg

    def _posterior(self, nn):
        """(n, L) label probabilities of rows whose k nearest training rows are ``nn``."""
        counts = self.train_labels[nn].sum(axis=1)  # (n, L)
        L = self.n_labels
        cols = np.arange(L)[None, :]
        s, k = self.s, self.k
        m_pos = self.cond_counts_pos.sum(axis=1)
        m_neg = self.cond_counts_neg.sum(axis=1)
        cond_pos = (s + self.cond_counts_pos[cols, counts]) / (s * (k + 1) + m_pos)
        cond_neg = (s + self.cond_counts_neg[cols, counts]) / (s * (k + 1) + m_neg)
        p1 = self.priors * cond_pos
        p0 = (1.0 - self.priors) * cond_neg
        return p1 / (p1 + p0)

    def _proba_matrix(self, X, labels):
        return self._posterior(_neighbors(X, self.train_features, self.k)).take(
            labels, axis=1)

    def _payload(self):
        return {
            "k": self.k,
            "s": self.s,
            "train_features": self.train_features.tolist(),
            "train_labels": self.train_labels.tolist(),
        }


def _nearest(d2, k: int):
    """Per row of ``d2``, the column indices of the k smallest entries in order,
    ties to the lower index.

    The order is that of a stable sort, so the first k columns of
    ``_nearest(d2, k')`` for any k' >= k are exactly ``_nearest(d2, k)``.
    ``partition`` gives each row's k-th distance v; the row keeps every entry
    below v and the lowest-index entries equal to v up to k in all, which is
    the stable sort's prefix as a set, and orders those k stably by distance.
    Only rows whose k-th distance is NaN (fewer than k comparable entries), and
    k >= n, go through the full sort.
    """
    n, n_train = d2.shape
    if k >= n_train:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    keep = d2 <= kth
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if tied.size:
        rows, v = d2[tied], kth[tied]
        at_v = rows == v
        room = k - np.count_nonzero(rows < v, axis=1, keepdims=True)
        keep[tied] = (rows < v) | (at_v & (np.cumsum(at_v, axis=1) <= room))
    nan = np.isnan(kth[:, 0])
    keep[nan, :k] = True  # placeholder columns, replaced below
    nn = np.nonzero(keep)[1].reshape(n, k)
    by_dist = np.argsort(np.take_along_axis(d2, nn, axis=1), axis=1, kind="stable")
    nn = np.take_along_axis(nn, by_dist, axis=1)
    if nan.any():
        nn[nan] = np.argsort(d2[nan], axis=1, kind="stable")[:, :k]
    return nn


def _neighbors(X, train_features, k: int, *, exclude_self: bool = False):
    """``_nearest`` of each row of ``X`` among ``train_features`` (squared
    Euclidean), in blocks of rows within the byte budget of ``_blocks``: per
    row, the float64 distances to every training row and their partition.

    ``cdist`` computes every row on its own, so the blocks change no distance
    and no index. With ``exclude_self``, ``X`` is ``train_features`` and each
    row's own entry is set to inf.
    """
    n_train = train_features.shape[0]
    nn = np.empty((X.shape[0], min(k, n_train)), dtype=np.intp)
    for rows in _blocks.row_slices(X.shape[0], 16 * n_train):
        d2 = cdist(X[rows], train_features, "sqeuclidean")
        if exclude_self:
            own = np.arange(d2.shape[0])
            d2[own, rows.start + own] = np.inf
        nn[rows] = _nearest(d2, k)
    return nn


def _loo_order(features, k: int):
    """Each row's k nearest other rows of ``features`` (self excluded)."""
    return _neighbors(features, features, k, exclude_self=True)


def fit_br(train: Dataset, forest_params: ForestParams) -> BRModel:
    """Fit one forest per label column, each with a (seed, label)-derived seed."""
    forests = []
    for l in range(train.n_labels):
        params_l = replace(forest_params, seed=derive_seed(forest_params.seed, l))
        forests.append(fit_forest(train.features, train.labels[:, l], params_l))
    return BRModel(forests, train.label_names, train.feature_names)


def fit_cc(train: Dataset, forest_params: ForestParams, order="random",
           seed: int = 0) -> CCModel:
    """Fit a classifier chain; training augments with ground-truth earlier labels."""
    L = train.n_labels
    if isinstance(order, str):
        if order != "random":
            raise ValueError(f'order must be "random" or a permutation, got {order!r}')
        chain = [int(i) for i in np.random.default_rng(seed).permutation(L)]
    else:
        chain = [int(i) for i in order]
        if sorted(chain) != list(range(L)):
            raise ValueError("order is not a permutation of the label indices")
    aug = train.features
    models = []
    for l in chain:
        params_l = replace(forest_params, seed=derive_seed(forest_params.seed, l))
        models.append(fit_forest(aug, train.labels[:, l], params_l))
        aug = np.column_stack([aug, train.labels[:, l].astype(np.float64)])
    return CCModel(chain, models, train.n_features, train.label_names,
                   train.feature_names)


def _check_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def check_mlknn_params(k, s, n_instances: int) -> None:
    """Raise ValueError unless ML-kNN can fit (k, s) on ``n_instances`` rows."""
    _check_k(k)
    if isinstance(s, bool) or not isinstance(s, (int, float, np.integer, np.floating)):
        raise ValueError(f"smoothing s must be a number, got {s!r}")
    if k >= n_instances:
        raise ValueError(f"k={k} must be smaller than n_instances={n_instances}")
    if s <= 0:
        raise ValueError("smoothing s must be positive")


def fit_mlknn(train: Dataset, k: int, s: float = 1.0) -> MLKNNModel:
    """Fit ML-kNN: smoothed label priors plus neighbor-count statistics."""
    return MLKNNModel(k, s, train.features, train.labels, train.label_names,
                      train.feature_names)


def predict_mlknn_grid(train: Dataset, X, points) -> list[np.ndarray]:
    """Hard 0/1 labels of ``X`` under ML-kNN at each ``{"k", "s"}`` point, in order.

    Each equals ``fit_mlknn(train, k, s).predict(X)`` bit for bit, but the
    leave-one-out order of the train rows and the neighbor order of ``X`` are
    computed once, at the widest k, and every point takes their first k
    columns (see ``_nearest``).
    """
    k_max = max(p["k"] for p in points)
    loo = _loo_order(train.features, k_max)
    nn = _neighbors(X, train.features, k_max)
    predictions = []
    for p in points:
        model = MLKNNModel(p["k"], p.get("s", 1.0), train.features, train.labels,
                           _loo=loo)
        predictions.append(predict_labels(model._posterior(nn[:, : model.k])))
    return predictions


def knn_indices(train_features, x, k: int):
    """Indices of the k nearest rows by Euclidean distance, ties to lower index."""
    _check_k(k)
    train_features = np.asarray(train_features, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if k > train_features.shape[0]:
        raise ValueError(f"k={k} exceeds the {train_features.shape[0]} available rows")
    return _neighbors(x[None, :], train_features, k)[0]


def predict_labels(probas, threshold: float = 0.5):
    """Hard 0/1 decisions; probabilities equal to the threshold round up."""
    return (np.asarray(probas) >= threshold).astype(np.int64)


def model_from_doc(doc: dict) -> MultiLabelModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model document: {doc.get('format')!r}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    algorithm = doc["algorithm"]
    payload = doc["payload"]
    names = doc["label_names"], doc["feature_names"]
    if algorithm == "br":
        return BRModel([forest_from_doc(f) for f in payload["forests"]], *names)
    if algorithm == "cc":
        return CCModel(
            payload["chain_order"],
            [forest_from_doc(f) for f in payload["chained_models"]],
            doc["n_features"], *names,
        )
    if algorithm == "mlknn":
        return MLKNNModel(payload["k"], payload["s"], payload["train_features"],
                          payload["train_labels"], *names)
    raise ValueError(f"unknown algorithm tag {algorithm!r}")


def model_to_json(model: MultiLabelModel) -> str:
    return _json.dumps(model.to_doc())


def model_from_json(text: str) -> MultiLabelModel:
    return model_from_doc(_json.loads(text))


def save_model(model: MultiLabelModel, path) -> None:
    _json.write(path, model.to_doc())


def load_model(path) -> MultiLabelModel:
    return model_from_doc(_json.read(path))
