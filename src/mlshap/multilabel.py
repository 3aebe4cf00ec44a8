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

from . import _blocks, _json
from .data import Dataset
from .forest import FOREST_DOC, ForestParams, _as_int, _forest, fit_forests, forest_to_doc

MODEL_FORMAT = "mlshap-model"
MODEL_VERSION = 1


def derive_seed(seed: int, index: int) -> int:
    """Stable per-label seed derived from a global seed and a label index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class MultiLabelModel:
    """Base contract: per-label probabilities in [0, 1], one per label."""

    algorithm = "base"

    def __init__(self, n_features, n_labels, label_names=None, feature_names=None):
        if n_labels < 1:
            raise ValueError("a model needs at least one label, got none")
        self.n_features = n_features
        self.n_labels = n_labels
        self.label_names = _names(label_names, n_labels, "label")
        if self.label_names is None:
            self.label_names = [f"label_{i}" for i in range(n_labels)]
        self.feature_names = _names(feature_names, n_features, "feature")

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
        the same column of the all-label matrix. A row holding nan or inf
        raises ValueError.
        """
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"input width {X.shape[1]} does not match training width {self.n_features}"
            )
        if not np.isfinite(X).all():
            raise ValueError("input rows must be finite, not nan or inf")
        out = self._proba_matrix(X, self._label_ids(labels))
        return out[0] if single else out

    def predict(self, X):
        """Hard 0/1 decisions; a probability of exactly 0.5 rounds up."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

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


def _names(names, count: int, kind: str):
    """``names`` as a list of ``count`` strings, or None when None; anything
    else raises ValueError naming ``{kind}_names``."""
    if names is None:
        return None
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{kind}_names must be a list of strings, got {names!r}")
    if len(names) != count:
        raise ValueError(f"{kind}_names must have {count} entries, one per {kind}, "
                         f"got {len(names)}")
    return list(names)


class BRModel(MultiLabelModel):
    """One independent forest per label."""

    algorithm = "br"

    def __init__(self, forests, label_names=None, feature_names=None):
        if not forests:
            raise ValueError("forests must hold one forest per label, got none")
        super().__init__(forests[0].n_features, len(forests), label_names, feature_names)
        self.per_label_models = list(forests)
        for l, forest in enumerate(self.per_label_models):
            if forest.n_features != self.n_features:
                raise ValueError(f"forest {l} has width {forest.n_features}, "
                                 f"forest 0 has {self.n_features}")

    def _proba_matrix(self, X, labels):
        return np.column_stack([self.per_label_models[l].predict_proba(X) for l in labels])

    def _payload(self):
        return {"forests": [forest_to_doc(f) for f in self.per_label_models]}


class CCModel(MultiLabelModel):
    """Chained forests: link j consumes the features plus the j earlier labels."""

    algorithm = "cc"

    def __init__(self, chain_order, chained_models, n_features, label_names=None,
                 feature_names=None):
        if not isinstance(chain_order, (list, tuple)):
            raise ValueError(f"chain_order must be a list, got {chain_order!r}")
        super().__init__(n_features, len(chain_order), label_names, feature_names)
        self.chain_order = [_as_int("chain_order entries", i) for i in chain_order]
        self.chained_models = list(chained_models)
        if sorted(self.chain_order) != list(range(self.n_labels)):
            raise ValueError("chain_order is not a permutation of the label indices")
        if len(self.chained_models) != self.n_labels:
            raise ValueError(f"chained_models must hold one forest per label "
                             f"({self.n_labels}), got {len(self.chained_models)}")
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
                 feature_names=None):
        train_features, train_labels = _train_rows(train_features, train_labels)
        check_mlknn_params(k, s, train_features.shape[0])
        super().__init__(train_features.shape[1], train_labels.shape[1],
                         label_names, feature_names)
        self.k = int(k)
        self.s = float(s)
        self.train_features = train_features
        self.train_labels = train_labels
        self.priors = _priors(train_labels, self.s)
        n = train_features.shape[0]
        statistics, _ = _plan_statistics(
            train_features, train_labels, [(np.arange(n), np.arange(0))], [self.k])
        self.cond_counts_pos, self.cond_counts_neg = statistics[0][0]
        self._ranking = _ranking_rhs(train_features)

    def _posterior(self, nn):
        """(n, L) label probabilities of rows whose k nearest training rows are
        ``nn``, in any order: the counts are integer sums over each row."""
        return _map_posterior(_positive_counts(self.train_labels, nn), self.priors,
                              self.cond_counts_pos, self.cond_counts_neg, self.s)

    def _proba_matrix(self, X, labels):
        return self._posterior(_neighbor_sets(X, self.train_features, self._ranking,
                                              self.k)).take(labels, axis=1)

    def _payload(self):
        return {
            "k": self.k,
            "s": self.s,
            "train_features": self.train_features.tolist(),
            "train_labels": self.train_labels.tolist(),
        }


def _train_rows(train_features, train_labels):
    """ML-kNN's training rows as float64 features and int64 0/1 labels, or
    ValueError."""
    message = "train_features must be a 2-D matrix of finite numbers"
    try:
        train_features = np.asarray(train_features, dtype=np.float64)
    except (TypeError, ValueError):  # an object, or ragged or non-numeric rows
        raise ValueError(message) from None
    if train_features.ndim != 2 or not np.isfinite(train_features).all():
        raise ValueError(message)
    raw_labels = np.asarray(train_labels)
    if raw_labels.ndim != 2 or raw_labels.shape[0] != train_features.shape[0]:
        raise ValueError(f"train_labels must have one row per train_features row "
                         f"({train_features.shape[0]}), got shape {raw_labels.shape}")
    if not np.isin(raw_labels, (0, 1)).all():
        raise ValueError("train_labels must hold only 0 and 1")
    return train_features, raw_labels.astype(np.int64)


def _priors(train_labels, s: float):
    """Laplace-smoothed prior probability of each label."""
    return (s + train_labels.sum(axis=0)) / (2.0 * s + train_labels.shape[0])


def _positive_counts(train_labels, nn):
    """(n, L) count, per row of ``nn`` and per label, of the positive labels
    among the training rows ``nn`` names, added one neighbor column at a time
    so no (n, k, L) gather is held."""
    counts = train_labels[nn[:, 0]]
    for j in range(1, nn.shape[1]):
        counts += train_labels[nn[:, j]]
    return counts


def _map_posterior(counts, priors, c_pos, c_neg, s: float):
    """(n, L) MAP label probabilities of rows with ``counts`` positive
    neighbors, from the statistics of a fit at k = ``c_pos.shape[1] - 1``:
    p1 / (p1 + p0), p1 the prior times the smoothed likelihood of the count
    given the label and p0 the same without it. Two (n, L) arrays hold the
    work, updated in place."""
    cols = np.arange(counts.shape[1])[None, :]
    k = c_pos.shape[1] - 1
    p1 = np.add(s, c_pos[cols, counts])
    p1 /= s * (k + 1) + c_pos.sum(axis=1)
    p1 *= priors
    p0 = np.add(s, c_neg[cols, counts])
    p0 /= s * (k + 1) + c_neg.sum(axis=1)
    p0 *= 1.0 - priors
    p0 += p1
    return np.divide(p1, p0, out=p1)


def _nearest(d2, k: int):
    """Per row of ``d2``, the column indices of the k smallest entries in order,
    ties to the lower index.

    The order is that of a stable sort, so the first k columns of
    ``_nearest(d2, k')`` for any k' >= k are exactly ``_nearest(d2, k)``.
    ``partition`` gives each row's k-th distance v; the row keeps every entry
    below v and the lowest-index entries equal to v up to k in all, which is
    the stable sort's prefix as a set, and orders those k stably by distance.
    Only rows whose k-th distance is NaN (fewer than k comparable entries), and
    k >= n, go through the full sort. The fit and the tune read such prefixes
    (``_plan_statistics``); prediction reads only the set (``_neighbor_sets``).

    Beside ``d2``, it holds at most 12 bytes per entry of rows with no NaN:
    the partition's copy (8), or on rows tied at v the mask, the masks below
    and at v, and the running count of entries at v (int32, 4, and 4 for
    ``cumsum``'s cast of its input).
    """
    n, n_train = d2.shape
    if k >= n_train:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    keep = d2 <= kth
    tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if tied.size:
        v = kth[tied]
        below = d2[tied] < v
        at_v = d2[tied] == v
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        at_v &= np.cumsum(at_v, axis=1, dtype=np.int32) <= room  # counts <= n_train
        keep[tied] = below | at_v
    nan = np.isnan(kth[:, 0])
    keep[nan, :k] = True  # placeholder columns, replaced below
    nn = np.nonzero(keep)[1].reshape(n, k)
    by_dist = np.argsort(np.take_along_axis(d2, nn, axis=1), axis=1, kind="stable")
    nn = np.take_along_axis(nn, by_dist, axis=1)
    if nan.any():
        nn[nan] = np.argsort(d2[nan], axis=1, kind="stable")[:, :k]
    return nn


def _block_order(features, rows, k: int):
    """``_nearest`` of the rows ``rows`` of ``features`` among all of them,
    each row's own entry set to inf, from one ``cdist`` block."""
    # Imported here, so a run that never measures a distance never loads scipy.
    from scipy.spatial.distance import cdist

    d2 = cdist(features[rows], features, "sqeuclidean")
    own = np.arange(d2.shape[0])
    d2[own, rows.start + own] = np.inf
    return _nearest(d2, k)


# OpenBLAS runs an (m, k) @ (k, n) product on the calling thread when
# m·n·k <= 2**18 (its SMP_THRESHOLD_MIN times GEMM_MULTITHREAD_THRESHOLD).
_ONE_THREAD_GEMM = 2**18


def _ranking_rhs(train_features):
    """The (M + 1, n_train) right-hand side ``[-2 Tᵀ; |t|²]`` of
    ``_neighbor_sets``' product: ``[q, 1] @ rhs`` is ``|q - t|² - |q|²`` per
    training row t."""
    rhs = np.empty((train_features.shape[1] + 1, train_features.shape[0]))
    with np.errstate(over="ignore"):  # an inf here makes every bound inf
        np.multiply(train_features.T, -2.0, out=rhs[:-1])
        np.einsum("ij,ij->i", train_features, train_features, out=rhs[-1])
    return rhs


def _neighbor_sets(X, train_features, rhs, k: int):
    """Each row of ``X``'s k nearest rows of ``train_features``, as a set in
    no particular order: the set ``_nearest`` selects from their ``cdist``
    distances, which is all the posterior reads. ``rhs`` is
    ``_ranking_rhs(train_features)`` and k < n_train. Rows run in blocks within the byte budget, on the
    threads of ``_blocks.map_slices``, and per block:

    1. One product ``d = [q, 1] @ rhs``. Each row of d is the row's squared
       distances less |q|², the same for the whole row, so d ranks as the
       distances do.
    2. One ``argpartition`` at k: the first k columns hold the k smallest
       entries of d, the k-th smallest being their max, and column k holds
       the (k+1)-th.
    3. A row is certified when its gap, the (k+1)-th entry less the k-th,
       exceeds ``τ = 4·γ_{2M+2}·(|q| + T)² + (3M + 2)·2**-1074``, with T the
       largest training-row norm and γ_n = n·u / (1 - n·u), u = 2**-53, the
       relative error bound of n rounded operations. Its first k columns are
       its set.
    4. Every other row goes through ``cdist`` and ``_nearest``, as a fit's
       rows do in ``_block_order``. Rows with nan, inf or overflowing values
       have a nan or inf τ or gap, so they land here too.

    Why a certified set is the one ``cdist`` and ``_nearest`` select. Let
    D_j = |q - t_j|² exactly, s_j the computed |t_j|², and c_j ``cdist``'s
    value. Each bound below holds in any summation order, with or without
    fused multiply-adds, so BLAS blocking and threads cannot move it.

    - E_gemm: d_j is a dot product of length M + 1 of [q, 1] and
      [-2 t_j, s_j], and |s_j - |t_j|²| <= γ_M·|t_j|². So |d_j - (D_j - |q|²)|
      <= γ_{M+1}·(2|q|·|t_j| + s_j) + γ_M·|t_j|² <= γ_{2M+1}·(2|q|·T + T²).
    - E_cdist: c_j sums M squared differences, each rounded twice, so
      |c_j - D_j| <= γ_{M+2}·D_j <= γ_{M+2}·(|q| + T)². The error scales with
      the whole distance, |q|² included.

    For j in the first k columns and i not, d_i - d_j >= gap, so c_i - c_j
    >= gap - 2·(E_gemm + E_cdist) > 0 once gap > 2·(E_gemm + E_cdist):
    ``cdist`` puts the whole set strictly below every other row, and
    ``_nearest`` has no tie to break. 2·(E_gemm + E_cdist) <=
    4·γ_{2M+1}·(|q| + T)², since 2|q|·T + T² <= (|q| + T)² and M + 2 <=
    2M + 1. τ takes γ_{2M+2}, a relative margin of 1/(2M + 1), far above
    the (M + 10)·2**-53 or less lost in rounding |q|, T, τ and the gap.
    Underflow adds at most 2**-1075 to each of the 2M + 1 products behind
    d_j and the M squares behind c_j, twice over: the second term of τ. The
    bounds need every partial sum finite; each is below 2·(|q| + T)², which
    τ is computed from, so τ is inf wherever one could overflow.

    The product runs on the thread that runs the block. Where
    ``_ONE_THREAD_GEMM`` holds at least two rows, it runs in chunks of that
    many rows, which OpenBLAS keeps on the calling thread, so no BLAS thread
    spins beside the ``map_slices`` threads while they partition: 29 rows
    at 407 × 21 training rows (foodtruck-like). Where it holds one row or
    none, a chunk would be a matrix-vector product that reads all of
    ``rhs`` per row, so each block is one product on BLAS's threads:
    2417 × 103 (yeast-like).

    Per row, the product phase holds d and the argpartition indices, 16
    bytes per training row. Both are freed before the fallback, which holds
    the ``cdist`` block and ``_nearest``'s copies, 20, the worst case, where
    every row falls back. Add 8·(M + 1) for the row and its constant column.
    """
    # Imported here, so a run that never measures a distance never loads scipy.
    from scipy.spatial.distance import cdist

    n_train, M = train_features.shape
    nn = np.empty((X.shape[0], k), dtype=np.intp)
    u = np.finfo(np.float64).eps / 2
    coefficient = 2 * (2 * M + 2) * u / (1 - (2 * M + 2) * u)  # 2·γ_{2M+2}
    floor = (3 * M + 2) * np.finfo(np.float64).smallest_subnormal
    reach = np.sqrt(rhs[-1].max())
    chunk = _ONE_THREAD_GEMM // ((M + 1) * n_train)

    def select(rows):
        q = X[rows]
        n = q.shape[0]
        lhs = np.empty((n, M + 1))
        lhs[:, :M] = q
        lhs[:, M] = 1.0
        d = np.empty((n, n_train))
        step = chunk if chunk > 1 else n
        # Non-finite or overflowing rows come out with a nan or inf bound.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, step):
                np.matmul(lhs[start:start + step], rhs, out=d[start:start + step])
            part = np.argpartition(d, k, axis=1)
            top = np.take_along_axis(d, part[:, :k + 1], axis=1)
            gap = top[:, k] - top[:, :k].max(axis=1)
            norm = np.sqrt(np.einsum("ij,ij->i", q, q))
            sure = gap > coefficient * (2 * (norm + reach) ** 2) + floor  # gap > τ
        out = nn[rows]
        out[sure] = part[sure, :k]
        del lhs, d, part
        unsure = np.flatnonzero(~sure)
        if unsure.size:
            out[unsure] = _nearest(cdist(q[unsure], train_features, "sqeuclidean"), k)

    _blocks.map_slices(select, X.shape[0], 20 * n_train + 8 * (M + 1))
    return nn


def fit_br(train: Dataset, forest_params: ForestParams) -> BRModel:
    """Fit one forest per label column, each with a (seed, label)-derived seed."""
    forests = fit_forests([
        (train.features, train.labels[:, l],
         replace(forest_params, seed=derive_seed(forest_params.seed, l)))
        for l in range(train.n_labels)])
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
    # One augmented matrix, as CCModel._proba_matrix builds: link j reads the
    # features and the labels of the j earlier links, its first M + j columns.
    M = train.n_features
    aug = np.empty((train.n_instances, M + L - 1))
    aug[:, :M] = train.features
    aug[:, M:] = train.labels[:, chain[:-1]]
    models = fit_forests([
        (aug[:, :M + j], train.labels[:, l],
         replace(forest_params, seed=derive_seed(forest_params.seed, l)))
        for j, l in enumerate(chain)])
    return CCModel(chain, models, train.n_features, train.label_names,
                   train.feature_names)


def check_mlknn_params(k, s, n_instances: int) -> None:
    """Raise ValueError unless ML-kNN can fit (k, s) on ``n_instances`` rows."""
    if _as_int("k", k) < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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


def predict_mlknn_grid(dataset: Dataset, assignments, points):
    """Hard 0/1 labels of the test rows of every (train, test) pair of a fold
    plan under ML-kNN at each ``{"k", "s"}`` point.

    ``assignments`` is a ``FoldPlan.assignments``: per repetition, a list of
    (train, test) pairs of row indices into ``dataset``. Each pair's train
    rows must be strictly increasing and disjoint from its test rows, and
    its test rows distinct; any other pair raises ValueError naming it. The
    result is an iterator over the pairs in plan order (repetition by
    repetition), each a list with one (n_test, L) matrix per point, equal bit
    for bit to ``fit_mlknn(split(dataset, train), k, s).predict(
    dataset.features[test])``.

    The rows are checked once, and one leave-one-out order of all n rows is
    computed at K = k_max + the most rows any pair leaves out of its train
    rows (< n, as every k is below every pair's train size). A pair's
    leave-one-out and test neighbours are, per row, the first k_max entries
    of that order that are its train rows. ``cdist`` computes every distance
    on its own, and a stable order restricted to a subset is the subset's
    stable order, ties still to the lower index, which is the lower position
    among increasing train rows; at most n - n_train of the first K entries
    lie outside the train rows, so every row keeps k_max. Every k takes the
    first k of them (see ``_nearest``), and the positive counts run on from
    one k to the next. The order is consumed block by block, within the
    byte budget of ``_blocks``: each block adds its rows' integer statistics
    per pair and k, which add exactly, and keeps the k_max test neighbours
    of its test rows, 8·k_max bytes per row and repetition. Each point's
    posterior is ``_map_posterior``, as in ``MLKNNModel._posterior``.
    """
    features, labels = _train_rows(dataset.features, dataset.labels)
    n = features.shape[0]
    pairs = [_plan_pair(train, test, n, r, f)
             for r, rep_pairs in enumerate(assignments)
             for f, (train, test) in enumerate(rep_pairs)]
    for p in points:
        check_mlknn_params(p["k"], p.get("s", 1.0), min(t.size for t, _ in pairs))
    ks = sorted({int(p["k"]) for p in points})
    statistics, test_nn = _plan_statistics(features, labels, pairs, ks)
    at_k = {k: i for i, k in enumerate(ks)}

    def predict(pair, tables, nn):
        train_labels = labels[pair[0]]
        at_each = list(_counts_by_k(labels, nn, ks))
        predictions = []
        for p in points:
            s = float(p.get("s", 1.0))
            i = at_k[int(p["k"])]
            c_pos, c_neg = tables[i]
            proba = _map_posterior(at_each[i], _priors(train_labels, s), c_pos, c_neg, s)
            predictions.append((proba >= 0.5).astype(np.int64))
        return predictions

    return map(predict, pairs, statistics, test_nn)


def _plan_pair(train, test, n: int, rep: int, fold: int):
    """A fold plan's (train, test) pair as intp arrays, or ValueError naming
    it unless its train rows are strictly increasing, its test rows
    distinct, both within the n rows, and the two disjoint."""
    where = f"fold plan pair (repetition {rep}, fold {fold})"
    train, test = np.asarray(train), np.asarray(test)
    for name, rows in (("train", train), ("test", test)):
        if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
            raise ValueError(f"{where}: {name} rows must be a non-empty list of "
                             "row indices")
        if rows.min() < 0 or rows.max() >= n:
            raise ValueError(f"{where}: {name} rows must be indices into the "
                             f"{n} rows")
    if not (np.diff(train) > 0).all():
        raise ValueError(f"{where}: train rows must be strictly increasing")
    if np.unique(test).size != test.size:
        raise ValueError(f"{where}: test rows must be distinct")
    if np.isin(test, train).any():
        raise ValueError(f"{where}: train and test rows must be disjoint")
    return train.astype(np.intp), test.astype(np.intp)


# Distance cells (row x row) the tune orders at a time: 256 KiB per float64
# array, so a chunk's distances and ``_nearest``'s copy of them stay in
# cache. On the foodtruck-like stand-in (407 rows, K = 102 on a 2 x 5
# plan), 80-row chunks ordered all rows in 5.6 ms and one 407-row block in
# 6.4 ms (minimum of 40), and the fit benchmark's peak RSS read about 1 MB
# less than with one block.
_ORDER_CELLS = 2**15


def _plan_statistics(features, labels, pairs, ks):
    """Per pair, the statistics (c_pos, c_neg) of its train rows at each k
    of ``ks``, and its test rows' first ``ks[-1]`` train neighbours, nearest
    first, as ``predict_mlknn_grid`` describes. A fit is the one pair of all
    n rows and no test rows, at one k (K = k). c_pos and c_neg are (L, k +
    1): per label and per neighbour-positive count j in 0..k, how many train
    rows with (c_pos) and without (c_neg) the label saw exactly j positive
    neighbours among their k nearest.

    The rows are taken in blocks that hold their order and each pair's work
    on it within half the byte budget of ``_blocks``: per row, the K-entry
    order and, per pair, its mask of train entries and running count of
    them, 24 bytes per order entry. The order of a block is computed on the
    threads of ``_blocks.map_slices``, in chunks of at most ``_ORDER_CELLS``
    distances; each chunk holds the ``cdist`` block and ``_nearest``'s
    copies (20 bytes per row of ``features``) and index arrays (24 per order
    entry), counted twice, so the chunks in flight hold at most the other
    half. The pairs' work runs on this thread, once per block: per pair,
    each train row's (label value, label) index once, then per k one
    ``bincount`` of the cells (label value, label, j) into the pair's
    (2, L, k + 1) table. Those are small numpy calls, which threads would
    only contend for; integers add exactly, so the tables do not depend on
    the blocks.
    """
    n, L = labels.shape
    k_max = ks[-1]
    K = k_max + max(n - train.size for train, _ in pairs)
    in_train = []
    test_at = []  # per pair, each row's position among its test rows, or -1
    for train, test in pairs:
        mask = np.zeros(n, dtype=bool)
        mask[train] = True
        in_train.append(mask)
        at = np.full(n, -1, dtype=np.intp)
        at[test] = np.arange(test.size)
        test_at.append(at)
    test_nn = [np.empty((test.size, k_max), dtype=np.intp) for _, test in pairs]
    tables = [[np.zeros((2, L, k + 1), dtype=np.int64) for k in ks] for _ in pairs]
    step = max(1, _ORDER_CELLS // n)
    for rows in _blocks.row_slices(n, 24 * K, _blocks._BLOCK_BYTES // 2):
        order = np.empty((rows.stop - rows.start, K), dtype=np.intp)

        def select(part):
            for start in range(part.start, part.stop, step):
                stop = min(start + step, part.stop)
                order[start:stop] = _block_order(
                    features, slice(rows.start + start, rows.start + stop), K)

        _blocks.map_slices(select, order.shape[0], 2 * (20 * n + 24 * K))
        own_labels = labels[rows]
        for mask, at, nn, pair_tables in zip(in_train, test_at, test_nn, tables):
            keep = mask[order]
            keep &= np.cumsum(keep, axis=1, dtype=np.int32) <= k_max
            nearest = order[keep].reshape(-1, k_max)
            tested = at[rows]
            nn[tested[tested >= 0]] = nearest[tested >= 0]
            trained = mask[rows]
            own = own_labels[trained] * L + np.arange(L)  # (label value, label)
            for table, k, counts in zip(pair_tables, ks,
                                        _counts_by_k(labels, nearest[trained], ks)):
                cells = own * (k + 1) + counts
                table += np.bincount(cells.ravel(), minlength=table.size).reshape(table.shape)
    statistics = [[(table[1], table[0]) for table in pair_tables] for pair_tables in tables]
    return statistics, test_nn


def _counts_by_k(labels, nn, ks):
    """``_positive_counts`` of the first k columns of ``nn`` at each k of
    ``ks`` (increasing), each running on from the last: integer counts add
    exactly."""
    counts, done = 0, 0
    for k in ks:
        counts = counts + _positive_counts(labels, nn[:, done:k])
        done = k
        yield counts


_PAYLOADS = {"br": {"forests": [FOREST_DOC]},
             "cc": {"chain_order": [int], "chained_models": [FOREST_DOC]},
             "mlknn": {"k": int, "s": float, "train_features": _json.Array(float, ndim=2),
                       "train_labels": _json.Array(int, ndim=2)}}
MODEL_DOC = {"format": MODEL_FORMAT, "version": MODEL_VERSION,
             "algorithm": tuple(_PAYLOADS), "n_features": int, "n_labels": int,
             "label_names": [str], "feature_names": (None, [str]),
             "payload": lambda doc: _PAYLOADS[doc["algorithm"]]}


def model_from_doc(doc: dict) -> MultiLabelModel:
    """The model of a ``to_doc`` document; one that breaks ``MODEL_DOC``, or whose
    ``n_features`` or ``n_labels`` is not the payload's, raises ValueError."""
    doc = _json.parse(doc, MODEL_DOC, "model")
    names = doc["label_names"], doc["feature_names"]
    payload = doc["payload"]
    if doc["algorithm"] == "br":
        model = BRModel([_forest(f) for f in payload["forests"]], *names)
    elif doc["algorithm"] == "cc":
        links = [_forest(f) for f in payload["chained_models"]]
        # The payload's width is link 0's, which reads no earlier label.
        model = CCModel(payload["chain_order"], links,
                        links[0].n_features if links else doc["n_features"], *names)
    else:
        model = MLKNNModel(payload["k"], payload["s"], payload["train_features"],
                           payload["train_labels"], *names)
    for name in ("n_features", "n_labels"):
        if getattr(model, name) != doc[name]:
            raise ValueError(f"model: {name} is {doc[name]}, the payload has "
                             f"{getattr(model, name)}")
    return model


def save_model(model: MultiLabelModel, path) -> None:
    _json.write(path, model.to_doc())


def load_model(path) -> MultiLabelModel:
    return model_from_doc(_json.read(path, "model"))
