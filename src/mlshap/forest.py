"""Entropy decision trees bagged into seed-deterministic random forests.

The trees are binary probabilistic classifiers: each leaf stores the positive
fraction of its training rows, and a forest's prediction is the arithmetic
mean of the leaf probabilities reached in every tree. Each tree derives an
independent rng stream from (forest seed, tree index), so refits are
bit-identical regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _json

FOREST_FORMAT = "mlshap-forest"
FOREST_VERSION = 1


def _as_int(name: str, value, expected: str = "an integer") -> int:
    """``value`` as an int; a bool or a non-integer raises naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 15
    min_samples_leaf: int = 1
    max_features: int | str = "sqrt"
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        # Values arrive from JSON grids, config files and model.json, so check
        # types before the range checks compare them; numpy integers become int.
        for name in ("n_trees", "max_depth", "min_samples_leaf", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.max_features != "sqrt":
            object.__setattr__(self, "max_features", _as_int(
                "max_features", self.max_features, '"sqrt" or an integer'))
        if not isinstance(self.bootstrap, bool):
            raise ValueError(f"bootstrap must be true or false, got {self.bootstrap!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if self.max_features != "sqrt" and self.max_features < 1:
            raise ValueError('max_features must be "sqrt" or a positive count')
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, math.isqrt(n_features))
        return min(self.max_features, n_features)


@dataclass
class DecisionTree:
    """Flat node arena; ``feature[i] == -1`` marks a leaf.

    ``value[i]`` is the positive fraction of training rows reaching node i
    (the prediction at leaves).
    """

    feature: np.ndarray  # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int64, -1 at leaves
    right: np.ndarray  # (n_nodes,) int64, -1 at leaves
    value: np.ndarray  # (n_nodes,) float64 in [0, 1]

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf probability reached by each row of X."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = self.feature[node]
            live = feat >= 0
            if not live.any():
                return self.value[node]
            rows = np.nonzero(live)[0]
            at = node[rows]
            go_left = X[rows, feat[rows]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])

    def max_depth(self) -> int:
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        for i in range(self.n_nodes):  # parents precede children (preorder arena)
            if self.feature[i] >= 0:
                depth[self.left[i]] = depth[i] + 1
                depth[self.right[i]] = depth[i] + 1
        return int(depth.max()) if self.n_nodes else 0


@dataclass
class RandomForest:
    params: ForestParams
    trees: list[DecisionTree]
    n_features: int

    def __post_init__(self):
        if len(self.trees) != self.params.n_trees:
            raise ValueError("tree count does not match params.n_trees")

    def predict_proba(self, X):
        """Mean leaf probability over all trees; float for a single vector."""
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"input width {X.shape[1]} does not match training width {self.n_features}"
            )
        out = np.mean([tree.predict(X) for tree in self.trees], axis=0)
        return float(out[0]) if single else out


def leaf_paths(trees: list[DecisionTree]):
    """Every leaf of ``trees`` with the conditions its root path puts on a row.

    Returns ``(tree, value, feature, lower, upper)``: per leaf, the index of
    its tree in ``trees``, its value, and one column per distinct feature on
    its path, where a row reaches the leaf exactly when
    ``lower < row[feature] <= upper`` in every column (a split sends
    ``x <= threshold`` left, as ``DecisionTree.predict`` does). A leaf has at
    most its depth in columns; the rest, up to the widest leaf, are padding:
    feature -1, with bounds -inf and inf. All trees are walked together, one
    level per step, and the leaves come out level by level.
    """
    sizes = [tree.n_nodes for tree in trees]
    offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + o for tree, o in zip(trees, offsets)])
    right = np.concatenate([tree.right + o for tree, o in zip(trees, offsets)])
    value = np.concatenate([tree.value for tree in trees])
    owner = np.repeat(np.arange(len(trees)), sizes)

    node = offsets  # the roots
    feats = np.full((node.size, 1), -1, dtype=np.int64)  # -1 marks a free column
    lower = np.full((node.size, 1), -np.inf)
    upper = np.full((node.size, 1), np.inf)
    used = np.zeros(node.size, dtype=np.int64)  # distinct features so far
    leaves = []
    while node.size:
        split = feature[node] >= 0
        leaves.append((node[~split], feats[~split], lower[~split], upper[~split]))
        node, feats, lower, upper, used = (
            a[split] for a in (node, feats, lower, upper, used))
        f, thr = feature[node], threshold[node]
        seen = feats == f[:, None]
        new = ~seen.any(axis=1)
        col = np.where(new, used, seen.argmax(axis=1))
        if node.size and col.max() == feats.shape[1]:
            feats = np.pad(feats, ((0, 0), (0, 1)), constant_values=-1)
            lower = np.pad(lower, ((0, 0), (0, 1)), constant_values=-np.inf)
            upper = np.pad(upper, ((0, 0), (0, 1)), constant_values=np.inf)
        at = np.arange(node.size), col
        feats[at] = f
        upper_left = upper.copy()
        upper_left[at] = np.minimum(upper[at], thr)
        lower_right = lower.copy()
        lower_right[at] = np.maximum(lower[at], thr)
        node = np.concatenate([left[node], right[node]])
        feats = np.concatenate([feats, feats])
        lower = np.concatenate([lower, lower_right])
        upper = np.concatenate([upper_left, upper])
        used = np.tile(used + new, 2)

    width = max(a[1].shape[1] for a in leaves)

    def gather(i, fill):
        return np.concatenate([np.pad(a[i], ((0, 0), (0, width - a[i].shape[1])),
                                      constant_values=fill) for a in leaves])

    node = np.concatenate([a[0] for a in leaves])
    return owner[node], value[node], gather(1, -1), gather(2, -np.inf), gather(3, np.inf)


def entropy(class_counts) -> float:
    """Shannon entropy, in bits, of a two-class count pair."""
    neg, pos = class_counts
    if neg < 0 or pos < 0:
        raise ValueError("class counts must be non-negative")
    total = neg + pos
    if total == 0:
        raise ValueError("class counts must not both be zero")
    h = 0.0
    for count in (neg, pos):
        if 0 < count < total:
            p = count / total
            h -= p * math.log2(p)
    return h


def _entropy_from_positive(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Vectorized two-class entropy from positive counts; total > 0."""
    p = pos / total
    out = np.zeros(p.shape)
    for q in (p, 1.0 - p):
        # q * log2(q) where 0 < q < 1, and exactly 0.0 elsewhere.
        out -= q * np.log2(q, out=np.zeros(q.shape), where=(q > 0.0) & (q < 1.0))
    return out


def _best_split(X, y, rows, feats, min_leaf):
    """Highest-entropy-gain (feature, threshold) over the candidate features.

    All candidates are scored in one pass over the (rows, feats) block: each
    column is sorted once, and a split after sorted position i is valid where
    the value changes and both sides keep at least ``min_leaf`` rows. Ties
    resolve to the lowest feature index, then the lowest threshold.
    Returns None when no candidate split is valid or no split gains.
    """
    n = rows.size
    if n < 2 * min_leaf:
        return None
    ys = y[rows]
    pos_total = int(ys.sum())
    parent = _entropy_from_positive(np.array([pos_total]), np.array([n]))[0]
    block = X[rows[:, None], feats]
    order = np.argsort(block, axis=0, kind="stable")
    vs = np.take_along_axis(block, order, axis=0)
    # Candidate r splits after sorted position lo + r; the range [lo, hi)
    # leaves at least min_leaf rows on each side.
    lo, hi = min_leaf - 1, n - min_leaf
    pos_left = np.cumsum(ys[order], axis=0)[lo:hi]
    n_left = np.arange(lo + 1, hi + 1)[:, None]
    n_right = n - n_left
    k = hi - lo
    h = _entropy_from_positive(  # left children in rows [0, k), right in [k, 2k)
        np.concatenate([pos_left, pos_total - pos_left]), np.concatenate([n_left, n_right])
    )
    gains = parent - (n_left * h[:k] + n_right * h[k:]) / n
    gains[vs[lo:hi] == vs[lo + 1 : hi + 1]] = -np.inf
    at = np.argmax(gains, axis=0)  # first max -> lowest threshold on ties
    col_gain = gains[at, np.arange(gains.shape[1])]
    j = int(np.argmax(col_gain))  # first max -> lowest feature on ties
    if not col_gain[j] > 0.0:
        return None
    i = lo + at[j]
    below, above = vs[i, j], vs[i + 1, j]
    mid = (below + above) / 2.0
    # The midpoint of two adjacent floats can round up onto the upper one; the
    # lower one then splits the rows the same.
    return int(feats[j]), float(mid if mid < above else below)


def fit_tree(X, y, params: ForestParams, rng: np.random.Generator) -> DecisionTree:
    """Grow one greedy entropy tree over per-node random feature subsets."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a non-empty matrix")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X rows must match y length")
    d = X.shape[1]
    m = params.resolve_max_features(d)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node(pos, n):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        # Equal to y[rows].mean() bit for bit: an exact count over an exact
        # count, divided once.
        value.append(pos / n)
        return len(feature) - 1

    # Preorder construction keeps rng consumption order fixed. Each stack entry
    # carries its node's positive count; a split counts its left rows only.
    root_rows = np.arange(X.shape[0])
    root_pos = int(y.sum())
    stack = [(new_node(root_pos, root_rows.size), root_rows, root_pos, 0)]
    while stack:
        node, rows, pos, depth = stack.pop()
        if (
            depth >= params.max_depth
            or pos == 0
            or pos == rows.size
            or rows.size < 2 * params.min_samples_leaf
        ):
            continue
        feats = np.sort(rng.choice(d, size=m, replace=False))
        found = _best_split(X, y, rows, feats, params.min_samples_leaf)
        if found is None:
            continue
        f, thr = found
        go_left = X[rows, f] <= thr
        left_rows, right_rows = rows[go_left], rows[~go_left]
        pos_left = int(y[left_rows].sum())
        feature[node] = f
        threshold[node] = thr
        left_node = new_node(pos_left, left_rows.size)
        right_node = new_node(pos - pos_left, right_rows.size)
        left[node] = left_node
        right[node] = right_node
        # Right pushed first so the left subtree is built (and draws rng) first.
        stack.append((right_node, right_rows, pos - pos_left, depth + 1))
        stack.append((left_node, left_rows, pos_left, depth + 1))
    return DecisionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """The rng stream tree ``tree_index`` of a forest seeded ``seed`` fits with."""
    return np.random.default_rng([seed, tree_index])


def fit_forest(X, y, params: ForestParams) -> RandomForest:
    """Bag ``n_trees`` entropy trees, one bootstrap resample (size n) per tree."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a non-empty matrix")
    n = X.shape[0]
    trees = []
    for t in range(params.n_trees):
        rng = tree_rng(params.seed, t)
        if params.bootstrap:
            rows = rng.integers(0, n, size=n)
            trees.append(fit_tree(X[rows], y[rows], params, rng))
        else:
            trees.append(fit_tree(X, y, params, rng))
    return RandomForest(params=params, trees=trees, n_features=X.shape[1])


def forest_to_doc(forest: RandomForest) -> dict:
    return {
        "format": FOREST_FORMAT,
        "version": FOREST_VERSION,
        "params": {
            "n_trees": forest.params.n_trees,
            "max_depth": forest.params.max_depth,
            "min_samples_leaf": forest.params.min_samples_leaf,
            "max_features": forest.params.max_features,
            "seed": forest.params.seed,
            "bootstrap": forest.params.bootstrap,
        },
        "n_features": forest.n_features,
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
            }
            for tree in forest.trees
        ],
    }


def forest_from_doc(doc: dict) -> RandomForest:
    if doc.get("format") != FOREST_FORMAT:
        raise ValueError(f"not a forest document: {doc.get('format')!r}")
    if doc.get("version") != FOREST_VERSION:
        raise ValueError(f"unsupported forest version {doc.get('version')!r}")
    params = ForestParams(**doc["params"])
    trees = [
        DecisionTree(
            feature=np.array(t["feature"], dtype=np.int64),
            threshold=np.array(t["threshold"], dtype=np.float64),
            left=np.array(t["left"], dtype=np.int64),
            right=np.array(t["right"], dtype=np.int64),
            value=np.array(t["value"], dtype=np.float64),
        )
        for t in doc["trees"]
    ]
    return RandomForest(params=params, trees=trees, n_features=doc["n_features"])


def forest_to_json(forest: RandomForest) -> str:
    return _json.dumps(forest_to_doc(forest))


def forest_from_json(text: str) -> RandomForest:
    return forest_from_doc(_json.loads(text))
