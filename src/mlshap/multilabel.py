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
from .forest import (FOREST_DOC, ForestParams, _as_int, _forest, coalition_outputs, fit_forests,
                     forest_to_doc)

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
        ids = (list(range(self.n_labels)) if labels is None
               else [_as_int("label id", l) for l in labels])
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

    def coalition_fn(self, labels):
        """The ``ExplainTarget.coalitions`` of ``label_proba_fn(labels)``, or
        None where the explainers synthesize the rows and call that target
        (ML-kNN: its output is no sum of values that one table could hold)."""
        return None

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

    def coalition_fn(self, labels):
        return coalition_outputs(self.per_label_models, self._label_ids(labels), chained=False)

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
        self.chain_order = _chain(chain_order, self.n_labels, "chain_order")
        self.chained_models = list(chained_models)
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

    def coalition_fn(self, labels):
        """Runs links 0..p only, as ``_proba_matrix`` does."""
        positions = [self.chain_order.index(l) for l in self._label_ids(labels)]
        return coalition_outputs(self.chained_models, positions, chained=True)

    def _payload(self):
        return {
            "chain_order": self.chain_order,
            "chained_models": [forest_to_doc(f) for f in self.chained_models],
        }


def _chain(order, n_labels: int, name: str) -> list[int]:
    """``order`` as ints, or ValueError naming ``name`` unless they permute range(n_labels)."""
    chain = [_as_int(f"{name} entries", i) for i in order]
    if sorted(chain) != list(range(n_labels)):
        raise ValueError(f"{name} is not a permutation of the label indices")
    return chain


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
        self.cond_counts_pos, self.cond_counts_neg = statistics[0][0][:2]
        self._posteriors = _map_posterior(self.priors, statistics[0][0], self.s)
        self._ranking = _ranking_rhs(train_features)

    def _posterior(self, counts, labels=slice(None)):
        """Probabilities of the labels ``labels`` (default all) for rows whose
        k nearest training rows hold ``counts`` positives of each of them
        (``_neighbor_sets``), one column per label: per row and label, the
        entry of the model's ``_map_posterior`` table at that count."""
        return np.take_along_axis(self._posteriors[:, labels], counts, axis=0)

    def _proba_matrix(self, X, labels):
        """Counts and posteriors of the requested labels only; each column's
        counts are exact and its posterior is read for its label alone, so it
        equals the all-label one bit for bit."""
        return self._posterior(_neighbor_sets(X, self.train_features,
                                              self.train_labels[:, labels], self._ranking,
                                              self.k), labels)

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


def _map_posterior(priors, statistics, s: float):
    """(k + 1, L) table of MAP label probabilities, row j for a row with j
    positive neighbors of the label, from the ``statistics`` (c_pos, c_neg
    and their row sums) of a fit at k = ``c_pos.shape[1] - 1``: p1 / (p1 +
    p0), p1 the prior times the smoothed likelihood of the count given the
    label and p0 the same without it. ML-kNN's posterior depends on a row
    only through its counts, so a row's probabilities are the entries its
    counts pick: the same elementwise arithmetic on the same operands as for
    that row alone, so the same bits."""
    c_pos, c_neg, pos_total, neg_total = statistics
    k = c_pos.shape[1] - 1
    p1 = np.add(s, c_pos.T)
    p1 /= s * (k + 1) + pos_total
    p1 *= priors
    p0 = np.add(s, c_neg.T)
    p0 /= s * (k + 1) + neg_total
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
    (``_plan_statistics``); prediction reads only the positive labels the set
    holds, and only on rows whose set its sorted column tiles cannot certify
    (``_neighbor_sets``), so it is the one selection that partitions.

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


# Columns of d that one ``np.sort`` takes per row in ``_neighbor_sets``.
# numpy's SIMD sort of a row this short beats ``np.partition`` at every width
# measured, while a whole-row sort loses to it from about 1 200 columns on.
_SORT_TILE = 512

# float32 holds every integer below 2**24 exactly, float64 every one below
# 2**53: the widths of ``_label_words``' words.
_FLOAT32_BITS = 24


def _ranking_rhs(train_features):
    """The (M + 1, n_train) float32 right-hand side ``[-2 Tᵀ; |t|²]`` of
    ``_neighbor_sets``' product: ``[q, 1] @ rhs`` is ``|q - t|² - |q|²`` per
    training row t, up to the rounding that the product's bound covers. Each
    entry is computed in float64 and rounded to float32 once per model; an
    entry past float32's range is inf, and so then is every row's bound."""
    rhs = np.empty((train_features.shape[1] + 1, train_features.shape[0]))
    with np.errstate(over="ignore"):
        np.multiply(train_features.T, -2.0, out=rhs[:-1])
        np.einsum("ij,ij->i", train_features, train_features, out=rhs[-1])
        return rhs.astype(np.float32)


def _label_words(train_labels, k: int):
    """The 0/1 ``train_labels`` packed for counting sums of at most k rows:
    (n_train, W) words and the shifts of a word's F fields. With b =
    k.bit_length(), a float32 word holds F = ⌊24/b⌋ labels, label f of word
    w (label w·F + f, if there is one) at weight 2**(b·f); where b > 24, a
    float64 word holds ⌊53/b⌋. A sum of at most k words holds in each field
    a count of at most k < 2**b, so no field carries into the next, and the
    sum and every partial sum are integers below 2**24 (2**53): exact in
    any summation order."""
    b = k.bit_length()
    dtype, bits = (np.float32, _FLOAT32_BITS) if b <= _FLOAT32_BITS else (np.float64, 53)
    n, L = train_labels.shape
    fields = bits // b
    shifts = b * np.arange(fields)
    padded = np.zeros((n, -(-L // fields) * fields), dtype=np.int64)
    padded[:, :L] = train_labels
    words = (padded.reshape(n, -1, fields) << shifts).sum(axis=2)
    return words.astype(dtype), shifts


def _kth_and_gap(d, k: int):
    """Per row of ``d`` (n, width > k), its k-th smallest entry, (n, 1) of
    d's type, and its (k+1)-th less its k-th, in float64, from sorted column
    tiles: in chunks of rows whose sorted copy of a tile fits in
    ``_blocks._CACHE_BYTES``, each tile of at most ``_SORT_TILE`` columns is
    sorted along its rows (one ``np.sort``) and its first k + 1 columns kept,
    and with more than one tile the kept columns are sorted once more. Each
    of a row's k + 1 smallest entries has at most k entries of its tile below
    it, so it is kept, and columns k - 1 and k of the sorted kept columns are
    the row's k-th and (k+1)-th smallest entries (NaN sorts last): the two
    order statistics that a ``partition`` at k gives."""
    n, width = d.shape
    tiles = range(0, width, _SORT_TILE)
    widths = [min(_SORT_TILE, width - start, k + 1) for start in tiles]  # kept per tile
    row_bytes = d.itemsize * min(width, _SORT_TILE)  # a row of a tile's sorted copy
    kth = np.empty((n, 1), dtype=d.dtype)
    gap = np.empty(n)
    for rows in _blocks.row_slices(n, row_bytes, _blocks._CACHE_BYTES):
        block = d[rows]
        kept = np.empty((block.shape[0], sum(widths)), dtype=d.dtype)
        at = 0
        for tile, kept_width in zip(tiles, widths):
            kept[:, at:at + kept_width] = np.sort(block[:, tile:tile + _SORT_TILE],
                                                  axis=1)[:, :kept_width]
            at += kept_width
        if len(tiles) > 1:
            kept.sort(axis=1)
        kth[rows, 0] = kept[:, k - 1]
        np.subtract(kept[:, k], kept[:, k - 1], out=gap[rows], dtype=np.float64)
    return kth, gap


def _neighbor_sets(X, train_features, train_labels, rhs, k: int):
    """(n, L) count, per row of ``X`` and per label, of the positive
    ``train_labels`` among the row's k nearest rows of ``train_features``,
    the set ``_nearest`` selects from their ``cdist`` distances: all the
    posterior reads of that set. The counts are of the smallest unsigned
    integer type that holds k (uint8 up to k = 255). ``rhs`` is
    ``_ranking_rhs(train_features)`` and k < n_train. Rows run in blocks
    within the byte budget, on the threads of ``_blocks.map_slices``, and per
    block:

    1. One float32 product ``d = [q, 1] @ rhs``, the rows cast to float32
       (an entry past its range becomes inf). Each row of d is the row's
       squared distances less |q|², the same for the whole row, up to
       rounding, so d ranks as the distances do.
    2. ``_kth_and_gap``: per row, the k-th smallest entry of d (kth) and the
       (k+1)-th less it, from sorted column tiles of at most ``_SORT_TILE``
       columns: the two order statistics that a ``partition`` at k gives.
    3. A row is certified when its gap, the (k+1)-th entry less the k-th,
       taken in float64, exceeds ``τ = 2·γ_{M+7}·(|q| + T)² + (2M + 6)·2**-149``,
       with T the largest training-row norm and γ_n = n·u / (1 - n·u),
       u = 2**-24, the relative error bound of n rounded float32
       operations; τ is inf where 2·(|q| + T)² is at least float32's largest
       value. As τ > 0, exactly k entries of its d are at most its k-th, and
       they are its set, so its counts are those of ``(d <= kth) @ words``,
       the labels packed by ``_label_words`` (12 labels in 2 float32 words
       at k = 5), unpacked by one shift and mask per block. The mask rows of
       the rows not certified are cleared, so that a row sums k words or
       none, and every count is exact in any summation order.
    4. Every other row's counts are replaced by those of its set from
       ``cdist`` and ``_nearest``, as a fit's rows take theirs in
       ``_block_order``. Rows with nan, inf or values past float32's range
       have a nan or inf τ or gap, so they land here too.

    Why a certified set is the one ``cdist`` and ``_nearest`` select. Let
    D_j = |q - t_j|² exactly, p_j = D_j - |q|² = -2 q·t_j + |t_j|², c_j
    ``cdist``'s value, x = |q| + T, and γ'_n the float64 γ_n (u' = 2**-53),
    below u for n < 2**28. The arithmetic is IEEE rounding to nearest with
    gradual underflow, and each bound below holds in any summation order,
    with or without fused multiply-adds, so BLAS blocking and threads cannot
    move it (Higham, Accuracy and Stability of Numerical Algorithms, §3.1).

    - E_gemm = |d_j - p_j|. The operands are q̃ = fl32(q), ã = fl32(-2 t_j)
      and s̃ = fl32(s_j), with s_j the float64 |t_j|², within
      γ'_M·|t_j|² + M·2**-1075 of it. A cast moves a value v by at most
      u·|v| + 2**-150. The float32 dot product of length M + 1 adds at most
      γ_{M+1} times the sum of its absolute products, and 2**-149 per term
      for underflow. The relative errors compound to at most
      (1 + u)²·(1 + γ_{M+1}) <= 1 + γ_{M+3}. Each cast's 2**-150 meets the
      other factor of its product, and summed over the M products those
      factors are at most √M·|q| and 2√M·|t_j| (a 1-norm is at most √M
      times the 2-norm). So E_gemm <= γ_{M+3}·(2|q|·|t_j| + |t_j|²)
      + 2**-149·√M·(|q| + 2|t_j|) + (M + 2)·2**-149, the last term taking
      float64's underflow too.
    - E_cdist = |c_j - D_j|: c_j sums M squared differences, each rounded
      twice, in float64, so E_cdist <= γ'_{M+2}·D_j + M·2**-1074
      <= u·x² + M·2**-1074. Its error scales with the whole distance, |q|²
      included.

    For j among the k smallest entries and i not, d_i - d_j >= gap, so c_i
    - c_j >= gap - 2·(E_gemm + E_cdist) > 0 once gap > 2·(E_gemm + E_cdist):
    ``cdist`` puts the whole set strictly below every other row, and
    ``_nearest`` has no tie to break. With 2|q|·|t_j| + |t_j|² <= x² and
    |q| + 2|t_j| <= 2x, 2·(E_gemm + E_cdist) <= 2·γ_{M+4}·x²
    + 2**-147·√M·x + (2M + 5)·2**-149, and 2**-147·√M·x <= 2u·x² + M·2**-273
    (a·x <= b·x² + a²/4b), so it is below 2·γ_{M+6}·x² + (2M + 6)·2**-149.
    τ takes γ_{M+7}, a relative margin of 1/(M + 6), far above the
    (M + 12)·2**-53 or less lost in rounding |q|, T and τ in float64, and
    the gap: the float64 difference of two float32 values, within a
    relative 2**-53 of it. The bounds need every cast and partial sum
    finite. Each is at most 2x² or 2x, and 2x < max(2, 2x²), so all are
    where 2x² is below float32's largest value; elsewhere τ is inf.

    Both products run on the thread that runs the block, in the row slices
    of ``_blocks.gemm_slices``, so no BLAS thread spins beside the
    ``map_slices`` threads while they sort: 29 rows of the ranking product
    and 322 of the mask product at 407 × 21 training rows and 12 labels
    (foodtruck-like), and the ranking product as one product on BLAS's
    threads at 2417 × 103 (yeast-like).

    Per row, the product phase holds d, 4 bytes per training row. Its sort
    adds kth and the gap, 12 bytes, and a sorted copy of one chunk of one
    tile with the chunk's kept columns, at most ``_blocks._CACHE_BYTES`` each
    (or one row of a tile) whatever the block's rows: a block holds no
    second copy of d. The mask's chunk (its booleans and their float32 cast)
    adds 5 to d's 4 (9 in float64). d is freed before the words are
    unpacked, 8 bytes per field and 16 per word, and before the fallback,
    which holds the ``cdist`` block and ``_nearest``'s copies, 20 per
    training row, the worst case, where every row falls back. Add
    8·(M + 1) for the row and its constant column.
    """
    # Imported here, so a run that never measures a distance never loads scipy.
    from scipy.spatial.distance import cdist

    n_train, M = train_features.shape
    counts = np.empty((X.shape[0], train_labels.shape[1]), dtype=np.min_scalar_type(k))
    words, shifts = _label_words(train_labels, k)
    field = (1 << k.bit_length()) - 1
    u = 2.0**-24  # float32's unit roundoff; τ itself is computed in float64
    coefficient = 2 * (M + 7) * u / (1 - (M + 7) * u)  # 2·γ_{M+7}
    floor = (2 * M + 6) * 2.0**-149  # 2**-149: float32's smallest subnormal
    limit = float(np.finfo(np.float32).max)
    with np.errstate(over="ignore"):
        reach = np.sqrt(np.einsum("ij,ij->i", train_features, train_features).max())

    def select(rows):
        q = X[rows]
        n = q.shape[0]
        lhs = np.empty((n, M + 1), dtype=np.float32)
        d = np.empty((n, n_train), dtype=np.float32)
        sums = np.empty((n, words.shape[1]), dtype=words.dtype)
        out = counts[rows]
        # Non-finite or overflowing rows come out with a nan or inf bound.
        with np.errstate(over="ignore", invalid="ignore"):
            lhs[:, :M] = q
            lhs[:, M] = 1.0
            for chunk in _blocks.gemm_slices(n, M + 1, n_train):
                np.matmul(lhs[chunk], rhs, out=d[chunk])
            del lhs
            kth, gap = _kth_and_gap(d, k)
            x2 = (np.sqrt(np.einsum("ij,ij->i", q, q)) + reach) ** 2
            sure = gap > np.where(2 * x2 < limit, coefficient * x2 + floor, np.inf)
            for chunk in _blocks.gemm_slices(n, n_train, words.shape[1]):
                near = d[chunk] <= kth[chunk]
                near[~sure[chunk]] = False  # so no field carries
                np.matmul(near.astype(words.dtype), words, out=sums[chunk])
        del d
        unpacked = (sums.astype(np.int64)[:, :, None] >> shifts) & field
        out[...] = unpacked.reshape(n, -1)[:, :out.shape[1]]
        unsure = np.flatnonzero(~sure)
        if unsure.size:
            out[unsure] = _positive_counts(
                train_labels, _nearest(cdist(q[unsure], train_features, "sqeuclidean"), k))

    _blocks.map_slices(select, X.shape[0], 20 * n_train + 8 * (M + 1))
    return counts


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
        chain = _chain(order, L, "order")
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
    probabilities are read from the ``_map_posterior`` table of its pair, k
    and s, as in ``MLKNNModel._posterior``, with the pair's priors at each s
    computed once.
    """
    features, labels = _train_rows(dataset.features, dataset.labels)
    n = features.shape[0]
    pairs = [_plan_pair(train, test, n, r, f)
             for r, rep_pairs in enumerate(assignments)
             for f, (train, test) in enumerate(rep_pairs)]
    for p in points:
        check_mlknn_params(p["k"], p.get("s", 1.0), min(t.size for t, _ in pairs))
    ks = sorted({int(p["k"]) for p in points})
    smoothing = {float(p.get("s", 1.0)) for p in points}
    statistics, test_nn = _plan_statistics(features, labels, pairs, ks)
    at_k = {k: i for i, k in enumerate(ks)}

    def predict(pair, tables, nn):
        train_labels = labels[pair[0]]
        at_each = list(_counts_by_k(labels, nn, ks))
        priors = {s: _priors(train_labels, s) for s in smoothing}
        predictions = []
        for p in points:
            s = float(p.get("s", 1.0))
            i = at_k[int(p["k"])]
            proba = np.take_along_axis(_map_posterior(priors[s], tables[i], s), at_each[i],
                                       axis=0)
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


def _plan_statistics(features, labels, pairs, ks):
    """Per pair, the statistics (c_pos, c_neg, c_pos's and c_neg's row sums)
    of its train rows at each k of ``ks``, and its test rows' first
    ``ks[-1]`` train neighbours, nearest first, as ``predict_mlknn_grid``
    describes. A fit is the one pair of all n rows and no test rows, at one
    k (K = k). c_pos and c_neg are (L, k + 1): per label and per
    neighbour-positive count j in 0..k, how many train rows with (c_pos) and
    without (c_neg) the label saw exactly j positive neighbours among their k
    nearest. Their row sums are the posterior's denominators less s·(k + 1),
    summed here once per table, not once per point.

    The rows are taken in blocks that hold their order and each pair's work
    on it within half the byte budget of ``_blocks``: per row, the K-entry
    order and, per pair, its mask of train entries and running count of
    them, 24 bytes per order entry. The order of a block is computed on the
    threads of ``_blocks.map_slices``, in chunks within
    ``_blocks._CACHE_BYTES`` at 8 bytes a distance; each slice holds the
    ``cdist`` block and ``_nearest``'s copies (20 bytes per row of
    ``features``) and index arrays (24 per order entry), counted twice, so
    the slices in flight hold at most the other half. The pairs' work runs
    on this thread, once per block: per pair, each train row's (label value,
    label) index once, then per k one ``bincount`` of the cells (label
    value, label, j) into the pair's (2, L, k + 1) table. Those are small
    numpy calls, which threads would only contend for; integers add exactly,
    so the tables do not depend on the blocks.
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
    for rows in _blocks.row_slices(n, 24 * K, _blocks._BLOCK_BYTES // 2):
        order = np.empty((rows.stop - rows.start, K), dtype=np.intp)

        def select(part):
            first = rows.start + part.start
            for chunk in _blocks.row_slices(part.stop - part.start, 8 * n,
                                            _blocks._CACHE_BYTES):
                order[part][chunk] = _block_order(
                    features, slice(first + chunk.start, first + chunk.stop), K)

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
    statistics = [[(table[1], table[0], table[1].sum(axis=1), table[0].sum(axis=1))
                   for table in pair_tables] for pair_tables in tables]
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
