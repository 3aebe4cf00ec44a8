"""Entropy decision trees bagged into seed-deterministic random forests.

The trees are binary probabilistic classifiers: each leaf stores the positive
fraction of its training rows, and a forest's prediction is the arithmetic
mean of the leaf probabilities reached in every tree. Each tree derives an
independent rng stream from (forest seed, tree index), so refits are
bit-identical regardless of evaluation order. :func:`fit_forests` grows all
the trees of several forests in lockstep, with one batched split search per
step, and each tree is the one it would be grown on its own.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _blocks, _json

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


_ARENA_FIELDS = ("feature", "threshold", "left", "right", "value")


def _flat_rows(X: np.ndarray):
    """The float64 matrix X as one 1-D buffer and each row's offset into it,
    so that ``X[i, j]`` is ``flat[offsets[i] + j]``.

    X is read in place when its columns are adjacent and its rows ascend in
    memory, as in a C-ordered matrix or a column prefix of one; any other
    layout is copied once.
    """
    n, d = X.shape
    size = X.itemsize
    if (d > 1 and X.strides[1] != size) or (n > 1 and (X.strides[0] < 0
                                                      or X.strides[0] % size)):
        X = np.ascontiguousarray(X)
    step = X.strides[0] // size if n > 1 else 0
    length = (n - 1) * step + d if n and d else 0
    flat = np.lib.stride_tricks.as_strided(X, shape=(length,), strides=(size,),
                                           writeable=False)
    return flat, np.arange(n) * step


class RandomForest:
    """A forest as the walk tables of its trees, laid end to end.

    ``trees`` holds each tree's five arena fields, as the grower writes them
    or a forest document holds them: ``feature[i] == -1`` marks a leaf,
    ``value[i]`` is the positive fraction of the training rows reaching node
    i, and a split's ``left`` and ``right`` are its children's indices in
    its tree, -1 at a leaf. The fields are joined once and pass
    ``_check_arenas`` before any table is built; no per-tree array is kept.

    ``self.trees`` is the arena index of each tree's root, so ``len(trees)``
    is the tree count (``perfbench/layers.py`` reads it). ``split`` marks
    the split nodes. A leaf loops to itself: both its children are the leaf,
    and it reads feature 0, which every row has. Node i sends a row to
    ``child[2 * i + 1]`` (its left child) when ``row[feature[i]] <=
    threshold[i]``, else to ``child[2 * i]`` (its right child). So tree t
    takes every row to its leaf in exactly ``depth[t]`` steps from
    ``trees[t]``, with no row left behind or dropped.
    """

    def __init__(self, params: ForestParams, n_features: int, trees):
        if len(trees) != params.n_trees:
            raise ValueError("tree count does not match params.n_trees")
        self.params, self.n_features = params, n_features
        trees = [{name: np.asarray(tree[name]) for name in _ARENA_FIELDS} for tree in trees]
        for t, tree in enumerate(trees):
            for name in _ARENA_FIELDS[1:]:
                if tree[name].shape != tree["feature"].shape:
                    raise ValueError(f"tree {t}: {name} has {tree[name].size} "
                                     f"entries, feature has {tree['feature'].size}")
            if tree["feature"].ndim != 1 or tree["feature"].size == 0:
                raise ValueError(f"tree {t}: feature must be a non-empty list")
        sizes = np.array([tree["feature"].size for tree in trees], dtype=np.intp)
        self.trees = np.cumsum(sizes) - sizes
        arena = {name: np.concatenate([tree[name] for tree in trees])
                 for name in _ARENA_FIELDS}
        owner = np.repeat(np.arange(len(trees)), sizes)  # each node's tree
        first = self.trees[owner]  # each node's root
        _check_arenas(arena, owner, first, sizes, n_features)
        self.split = arena["feature"] >= 0
        own = np.arange(self.split.size)
        left, right = (np.where(self.split, arena[name] + first, own)
                       for name in ("left", "right"))
        self.feature = np.where(self.split, arena["feature"], 0).astype(np.intp)
        self.threshold = arena["threshold"]
        self.child = np.stack([right, left], axis=1).ravel()
        self.value = arena["value"]
        # Depth of every tree, all trees one level per step; children follow
        # their node, so every root path ends.
        self.depth = np.zeros(len(trees), dtype=np.intp)
        node, level = self.trees, 0
        while (node := node[self.split[node]]).size:
            level += 1
            self.depth[owner[node]] = level
            node = np.concatenate([left[node], right[node]])

    @functools.cached_property
    def tree_features(self) -> list[np.ndarray]:
        """Per tree, the distinct features its splits read, ascending."""
        stops = np.append(self.trees[1:], self.n_nodes)
        return [np.unique(self.feature[start:stop][self.split[start:stop]])
                for start, stop in zip(self.trees, stops)]

    @property
    def n_nodes(self) -> int:
        """Nodes in all the trees (``perfbench/layers.py`` reads it of
        ``fit_tree``'s forest)."""
        return self.value.size

    def _leaf_values(self, t: int, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Value of the leaf of tree t that each row of ``_flat_rows`` reaches."""
        root = self.trees[t]
        if not self.depth[t]:
            return np.full(offsets.size, self.value[root])
        # Every row starts at the root, so the first step reads its entries once.
        x = flat.take(offsets + self.feature[root])
        node = self.child.take(2 * root + (x <= self.threshold[root]))
        for _ in range(self.depth[t] - 1):
            x = flat.take(offsets + self.feature.take(node))
            node = self.child.take(2 * node + (x <= self.threshold.take(node)))
        return self.value.take(node)

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
        # Every tree reads the rows through one buffer. A running total in
        # tree order sums as np.mean over the stacked per-tree predictions
        # does, without holding them all.
        rows = _flat_rows(X)
        total = self._leaf_values(0, *rows)
        for t in range(1, self.trees.size):
            total += self._leaf_values(t, *rows)
        out = total / self.trees.size
        return float(out[0]) if single else out


class CoalitionForest:
    """A forest's output on every row that completes a coalition of ``x``
    with a background row: row (mask, b) holds x on the mask's features,
    background row b on the others, and on each chain column M + c (a
    classifier chain link reads them) the earlier link c's 0/1 decision on
    that row.

    A tree reads k distinct features (``tree_features``), so on one
    background row the leaf it sends a row to depends only on the row's k
    bits: the coalition's bit on each original feature it reads, the
    decision on each chain column. Each tree holds the table of those 2^k
    leaf values per background row, 8·B·2^k bytes, filled by walking 2^k
    rows per background row with ``_leaf_values``, each holding x or the
    background row's value on an original feature and 0 or 1 on a chain
    column, as its bits say. The walk holds ``8·(2w + 3)`` bytes per row, w
    the tree's widest column + 1 (the rows, the copy of their original
    features, and the walk's offsets, values and nodes), in background
    blocks within half of ``_blocks._BLOCK_BYTES``. Leaf values are added
    in tree order and the total divided by the tree count, as
    ``RandomForest.predict_proba`` does, so each output is the same bits as
    there.
    """

    def __init__(self, forest: RandomForest, x, background):
        self.forest = forest
        M, B = x.shape[0], background.shape[0]
        self.tables = []  # per tree: (offsets, chain, table)
        weights = []  # per tree, each original feature's bit in its key, or 0
        for t, feats in enumerate(forest.tree_features):
            k = feats.size
            bit = 1 << np.arange(k)
            ours = feats < M  # sorted, so the original features take the low bits
            weight = np.zeros(M, dtype=np.int64)
            weight[feats[ours]] = bit[ours]
            weights.append(weight)
            chain = [(int(f) - M, i) for i, f in enumerate(feats) if f >= M]
            self.tables.append((np.arange(B) << k, chain,
                                self._table(t, feats, x, background)))
        self.weights = np.array(weights, dtype=np.int64).T
        self.nbytes = sum(table.nbytes for _, _, table in self.tables)

    def _table(self, t: int, feats, x, background) -> np.ndarray:
        """Tree t's (B · 2^k) leaf values: entry b · 2^k + key is its value on
        background row b, bit i of key choosing x's value (1) or b's (0) on
        original feature ``feats[i]``, or the decision on chain column
        ``feats[i]``."""
        M, k = x.shape[0], feats.size
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        ours = feats < M
        width = int(feats[-1]) + 1 if k else 1
        table = np.empty((background.shape[0], 1 << k))
        for rows in _blocks.row_slices(background.shape[0], 8 * (2 * width + 3) << k,
                                       _blocks._BLOCK_BYTES // 2):
            r = background[rows]
            walk = np.empty((r.shape[0], 1 << k, width))  # the tree reads no other column
            walk[:, :, feats[ours]] = np.where(bits[:, ours] == 1, x[feats[ours]],
                                               r[:, None, feats[ours]])
            walk[:, :, feats[~ours]] = bits[:, ~ours]
            table[rows] = self.forest._leaf_values(
                t, *_flat_rows(walk.reshape(-1, width))).reshape(-1, 1 << k)
        return table.ravel()

    def __call__(self, masks: np.ndarray, decisions: list) -> np.ndarray:
        """(n, B) outputs, on background row b completing mask i at [i, b],
        for the n ``masks``. ``decisions[c]`` is chain column M + c as an
        (n, B) intp matrix of 0 and 1. Beside its (n, B) arrays, a call holds
        8·(M + T) bytes per mask for T trees: the masks as integers and each
        tree's key on the original features."""
        keys = masks @ self.weights  # (n, trees): the original features' bits
        total = None
        for t, (offsets, chain, table) in enumerate(self.tables):
            key = keys[:, t, None] + offsets
            for column, bit in chain:
                key += decisions[column] << bit
            values = table.take(key)
            if total is None:
                total = values
            else:
                total += values
        return total / self.forest.trees.size


def leaf_paths(forests: list[RandomForest]):
    """Every leaf of the trees of ``forests`` with the conditions its root
    path puts on a row.

    Returns ``(forest, rank, value, feature, lower, upper)``: per leaf, the
    index of its forest in ``forests`` and of its tree in that forest, its
    value, and one column per distinct feature on its path, where a row
    reaches the leaf exactly when ``lower < row[feature] <= upper`` in every
    column (a split sends ``x <= threshold`` left, as the walk does). A leaf
    has at most its depth in columns; the rest, up to the widest leaf, are
    padding: feature -1, with bounds -inf and inf. The forests' walk tables
    are read end to end, so all their trees are walked together, in order,
    one level per step, and the leaves come out level by level.
    """
    n_nodes = [forest.n_nodes for forest in forests]
    n_trees = [forest.trees.size for forest in forests]
    shift = np.cumsum(n_nodes) - n_nodes
    split, feature, threshold, value = (
        np.concatenate([getattr(forest, name) for forest in forests])
        for name in ("split", "feature", "threshold", "value"))
    child = np.concatenate([forest.child + s for forest, s in zip(forests, shift)])
    roots = np.concatenate([forest.trees + s for forest, s in zip(forests, shift)])

    node = roots
    feats = np.full((node.size, 1), -1, dtype=np.int64)  # -1 marks a free column
    lower = np.full((node.size, 1), -np.inf)
    upper = np.full((node.size, 1), np.inf)
    used = np.zeros(node.size, dtype=np.int64)  # distinct features so far
    leaves = []
    while node.size:
        on = split[node]
        leaves.append((node[~on], feats[~on], lower[~on], upper[~on]))
        node, feats, lower, upper, used = (
            a[on] for a in (node, feats, lower, upper, used))
        f, thr = feature[node], threshold[node]
        seen = feats == f[:, None]
        new = ~seen.any(axis=1)
        col = np.where(new, used, seen.argmax(axis=1))
        # Both children copy their parent's columns, one more when a path
        # starts a column no row has yet.
        width = max(feats.shape[1], int(col.max(initial=-1)) + 1)
        feats, lower, upper = (_twice(a, width, fill) for a, fill in
                               ((feats, -1), (lower, -np.inf), (upper, np.inf)))
        n = node.size
        left_at, right_at = (np.arange(n), col), (np.arange(n, 2 * n), col)
        feats[left_at] = feats[right_at] = f
        upper[left_at] = np.minimum(upper[left_at], thr)
        lower[right_at] = np.maximum(lower[right_at], thr)
        node = np.concatenate([child[2 * node + 1], child[2 * node]])
        used = np.tile(used + new, 2)

    # Each level's leaves into the preallocated padded arrays, at their width.
    node = np.concatenate([a[0] for a in leaves])
    out = [np.full((node.size, feats.shape[1]), fill, dtype=dtype)
           for fill, dtype in ((-1, np.int64), (-np.inf, np.float64), (np.inf, np.float64))]
    start = 0
    for level in leaves:
        stop = start + level[0].size
        for whole, part in zip(out, level[1:]):
            whole[start:stop, :part.shape[1]] = part
        start = stop
    tree = np.searchsorted(roots, node, side="right") - 1
    forest = np.repeat(np.arange(len(forests)), n_trees)[tree]
    rank = tree - (np.cumsum(n_trees) - n_trees)[forest]
    return (forest, rank, value[node], *out)


def _twice(a, width, fill):
    """Two copies of the rows of ``a`` stacked, widened to ``width`` columns
    with ``fill``."""
    twice = np.empty((2 * a.shape[0], width), dtype=a.dtype)
    twice[:, a.shape[1]:] = fill
    twice[:a.shape[0], :a.shape[1]] = a
    twice[a.shape[0]:, :a.shape[1]] = a
    return twice


def _entropy_from_positive(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Vectorized two-class entropy, in bits, from positive counts; total > 0."""
    p = pos / total
    # 0 < p < 1 exactly where 0 < 1 - p < 1, as p is 0 or at least 1/total.
    inner = (p > 0.0) & (p < 1.0)
    out = np.zeros(p.shape)
    for q in (p, 1.0 - p):
        # q * log2(q) where 0 < q < 1, and exactly 0.0 elsewhere (log2(1) = 0).
        out -= q * np.log2(np.where(inner, q, 1.0))
    return out


# Cells (node rows x candidate features) in one block of the batched split
# search: 128 KiB per float64 array of the block, so its arrays stay in cache.
# Caps from 4 096 to 32 768 timed alike on the foodtruck- and yeast-shaped
# stand-ins, and 2 048 and 262 144 were slower; scored from the entropy table,
# neither 8 192 nor 32 768 beat it on both (measurements in CHANGES.md, in the
# entries of the lockstep grower and of the entropy table).
_SPLIT_CELLS = 16384

# Bytes a tree in flight holds per training row: the row ids of its pending
# nodes (disjoint parts of its n bootstrap rows, so at most n of them),
# while a node splits, its children's copies, and its batch of candidate
# draws (at most n feature ids, see ``_Growing``); 8 bytes each.
_TREE_ROW_BYTES = 24


def _table_totals(budget: int) -> int:
    """The largest total N whose :func:`_entropy_table`, 8·(N+1)(N+2)/2
    bytes, fits in an eighth of ``budget``; -1 when none does.

    An eighth of ``_blocks._BLOCK_BYTES`` covers totals up to 1 022 (4 MiB).
    A table in half of it, up to 2 046 (16.8 MB), took 52 ms to build, and
    yeast-shaped fits ran slower with it than when they scored their few
    larger nodes directly (measurements in CHANGES.md).
    """
    # (N+1)(N+2) <= K exactly when (2N+3)^2 = 4(N+1)(N+2) + 1 <= 4K + 1.
    return (math.isqrt(4 * (budget // 32) + 1) - 3) // 2


def _entropy_table(n_max: int) -> np.ndarray:
    """Entry ``t(t+1)/2 + p`` is ``_entropy_from_positive(p, t)`` for every
    ``0 <= p <= t <= n_max`` with ``t > 0``; entry 0, total 0, is 0.0.

    Each entry is the same function of the same two integers as in a direct
    call, so a lookup is the same bits. The entries are computed in slices of
    at most ``_SPLIT_CELLS``, so the build holds a split block's worth of
    temporaries at a time.
    """
    table = np.zeros((n_max + 1) * (n_max + 2) // 2)
    step = max(1, _SPLIT_CELLS // (n_max + 2))
    for first in range(1, n_max + 1, step):
        totals = np.arange(first, min(first + step, n_max + 1))
        total = np.repeat(totals, totals + 1)
        start = first * (first + 1) // 2
        entry = np.arange(start, start + total.size)
        table[start:start + total.size] = _entropy_from_positive(
            entry - total * (total + 1) // 2, total)
    return table


def _rank_columns(X: np.ndarray):
    """Each column of X ranked densely, and the table of the values the
    ranks name.

    Returns ``(ranks, values)``: ``ranks[f, i]`` is the number of distinct
    values below ``X[i, f]`` in column f, so equal values get equal ranks
    and ranks order as the values do, and ``values[f, r]`` is the value of
    rank r in column f (entries past a column's distinct values are 0).
    """
    n, d = X.shape
    distinct = [np.unique(column) for column in X.T]
    ranks = np.empty((d, n), dtype=np.intp)
    values = np.zeros((d, max((v.size for v in distinct), default=1)))
    for f, column in enumerate(X.T):
        v, distinct[f] = distinct[f], None  # each column's copy freed once read
        ranks[f] = np.searchsorted(v, column)
        values[f, :v.size] = v
    return ranks, values


def _split_keys(pairs) -> list:
    """Per ``(X, y)`` of ``pairs``, the ``(keys, values)`` its split search
    reads: ``keys[f, i]`` is ``2 * rank + y[i]``, rank that of ``X[i, f]``
    in its column, and ``values`` the table of :func:`_rank_columns`.

    ``keys`` is in the smallest unsigned type that holds every key.
    Matrices that are column prefixes of one another (the same first
    element, row count and strides, as a classifier chain's links read one
    augmented matrix) share one ranking of the widest, and each pair's keys
    are its first columns of it. The ranks are dropped once their keys are
    built.
    """
    groups = {}
    for i, (X, _) in enumerate(pairs):
        groups.setdefault((X.ctypes.data, X.shape[0], X.strides), []).append(i)
    out = [None] * len(pairs)
    for members in groups.values():
        ranks, values = _rank_columns(max((pairs[i][0] for i in members),
                                          key=lambda X: X.shape[1]))
        dtype = np.min_scalar_type(2 * values.shape[1] - 1)
        ranks *= 2
        for i in members:
            X, y = pairs[i]
            keys = np.empty((X.shape[1], X.shape[0]), dtype=dtype)
            np.add(ranks[:X.shape[1]], y, out=keys, casting="unsafe")
            out[i] = (keys, values)
        del ranks
    return out


def _best_splits(nodes, table=None):
    """Highest-entropy-gain split of each node of ``nodes``, scored in blocks.

    A node is ``(keys, values, rows, feats, min_leaf)``, ``keys`` and
    ``values`` as :func:`_split_keys` gives them for a training pair (X,
    y). Returns, per node, None when no candidate split is valid or none
    gains, else ``(feature, threshold, left_rows, right_rows,
    left_positives)``; ``left_rows`` are the rows with ``X[row, feature] <=
    threshold``, in the order of ``rows``.

    Nodes of similar size share a block, which holds one line of keys per
    (node, candidate feature), one per row of the node, padded with a key
    above every rank's keys that names label 0, so padding never ends a
    valid candidate or counts as a positive. Each line is sorted once,
    which orders its rows by value and, within a run of equal values, puts
    the negatives first. A split after sorted position i is valid where the
    rank changes and both sides keep at least ``min_leaf`` of the node's
    rows. A valid split ends a run of equal values, so the rows before it,
    and their positive count, do not depend on the order within runs, and
    are those a sort of the values themselves gives. Every cell is scored by the same arithmetic as a node
    on its own would be, so the result does not depend on how the nodes are
    grouped. Ties resolve to the lowest feature index, then the lowest
    threshold.

    ``table`` is an :func:`_entropy_table`; a block of nodes larger than it
    covers computes its entropies directly, to the same bits. By default one
    covering every node is built.
    """
    out = [None] * len(nodes)
    sizes = np.array([node[2].size for node in nodes], dtype=np.int64)
    if table is None:
        table = _entropy_table(int(sizes.max(initial=0)))
    min_leaf = np.array([node[4] for node in nodes], dtype=np.int64)
    widths = np.array([node[3].size for node in nodes], dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    order = order[sizes[order] >= 2 * min_leaf[order]]  # the rest cannot split
    start = 0
    while start < order.size:
        height, width, end = sizes[order[start]], widths[order[start]], start + 1
        # Within a factor two of the block's largest node, so padding stays
        # under half the rows, and within _SPLIT_CELLS cells (at least one node).
        while end < order.size and 2 * sizes[order[end]] > height:
            wider = max(width, widths[order[end]])
            if (end + 1 - start) * wider * height > _SPLIT_CELLS:
                break
            width, end = wider, end + 1
        block = order[start:end]
        for b, found in zip(block, _split_block([nodes[b] for b in block],
                                                int(height), int(width), table)):
            out[b] = found
        start = end
    return out


def _split_block(nodes, height, width, table):
    """:func:`_best_splits` over one block: ``width`` lines of ``height``
    keys per node, the lines past a node's own candidate features all
    padding."""
    k = len(nodes)
    # Keys as float64, exact below 2**53. Padding is 2**53: even (label 0),
    # its rank above every rank.
    lines = np.full((k * width, height), 2.0 ** 53)
    for b, (keys, _, rows, feats, _) in enumerate(nodes):
        # The candidate features' key rows, then the node's rows of them: on
        # a node of thousands of rows, a quarter of the time of one 2-D index.
        lines[b * width:b * width + feats.size, :rows.size] = keys[feats].take(rows, axis=1)
    # Per node, broadcast over its lines: its size and min_leaf.
    n = np.array([node[2].size for node in nodes], dtype=np.int64)[:, None, None]
    min_leaf = np.array([node[4] for node in nodes], dtype=np.int64)[:, None, None]
    # One sort per line; the rest runs on int64, as the counts and table
    # indices do. Sorting uint16 keys was about 8% faster per block, but its
    # sort and casts load numpy code that nothing else in a fit or an
    # explanation runs: 128 KiB more resident memory on the fit and
    # explain-forest benchmarks.
    counts = np.sort(lines, axis=1).astype(np.int64)
    rank = counts >> 1
    invalid = (rank[:, :-1] == rank[:, 1:]).reshape(k, width, height - 1)
    counts -= rank
    counts -= rank  # each sorted cell's label, 2 * rank + label - 2 * rank
    del rank
    np.cumsum(counts, axis=1, out=counts)
    pos = counts[::width, -1][:, None, None]  # each node's positives
    # Cell i of a line is the split after sorted position i: n_left rows and
    # pos_left positives go left, the rest right. Past the rows of a line's
    # node n_right is not positive, and on a padding line the counts of a cell
    # need not be those of a split; all those cells are masked below. 1 keeps
    # their entropy finite, and as no count exceeds n, every table index they
    # read stays below that of (0, n + 1).
    pos_left = counts[:, :-1].reshape(k, width, height - 1)
    n_left = np.arange(1, height)
    n_right = np.maximum(n - n_left, 1)
    if (height + 1) * (height + 2) // 2 <= table.size:  # covers every total <= height
        h_left = table.take(n_left * (n_left + 1) // 2 + pos_left)
        h_right = pos - pos_left
        h_right += n_right * (n_right + 1) // 2
        h_right = table.take(h_right)
        h_node = table.take(n * (n + 1) // 2 + pos)
    else:
        h_left = _entropy_from_positive(pos_left, n_left)
        h_right = _entropy_from_positive(pos - pos_left, n_right)
        h_node = _entropy_from_positive(pos, n)
    # h_node - (n_left * h_left + n_right * h_right) / n, in place.
    h_left *= n_left
    h_right *= n_right
    h_left += h_right
    h_left /= n
    gains = np.subtract(h_node, h_left, out=h_left)
    invalid |= n_left < min_leaf
    invalid |= n_left > n - min_leaf
    np.copyto(gains, -np.inf, where=invalid)
    gains = gains.reshape(k * width, height - 1)
    at = np.argmax(gains, axis=1)  # first max -> lowest threshold on ties
    col_gain = gains[np.arange(k * width), at].reshape(k, width)
    j = np.argmax(col_gain, axis=1)  # first max -> lowest feature on ties
    split = np.flatnonzero(col_gain[np.arange(k), j] > 0.0)
    cols = split * width + j[split]
    # The chosen lines sorted again: the block's sorted keys were dropped as
    # soon as they were cast, one block array fewer held at a time.
    chosen = lines[cols]
    ranks = np.sort(chosen, axis=1).astype(np.int64) >> 1
    below, above = (ranks[np.arange(cols.size), at[cols] + step] for step in (0, 1))
    go_left = chosen <= 2 * below[:, None] + 1  # rank <= below
    left_pos = pos_left.reshape(k * width, height - 1)[cols, at[cols]]
    found = [None] * k
    for b, goes, low, high, left in zip(split.tolist(), go_left, below.tolist(),
                                        above.tolist(), left_pos.tolist()):
        _, values, rows, feats, _ = nodes[b]
        f = int(feats[j[b]])
        low, high = values.item(f, low), values.item(f, high)
        mid = (low + high) / 2.0
        # The midpoint of two adjacent floats can round up onto the upper one;
        # the lower one then splits the rows the same.
        goes = goes[:rows.size]
        found[b] = (f, mid if mid < high else low, rows[goes], rows[~goes], left)
    return found


def _candidate_draws(rng, n: int, m: int, count: int) -> np.ndarray:
    """``count`` rows of m candidate features out of n: row i is what the
    i-th of ``count`` calls to ``np.sort(rng.choice(n, m, replace=False))``
    would return, and ``rng`` is left in the state those calls leave it in.

    Where ``n > 10000`` and ``m > n // 50``, ``choice`` shuffles a tail of
    ``arange(n)``, and each row here is one such call. Elsewhere ``choice``
    runs Floyd's algorithm: for j = n - m, ..., n - 1 it draws v in [0, j]
    and takes v, or j when v is taken already (j never is, as every earlier
    pick is below it); then it shuffles its m picks with draws in [0, i]
    for i = m - 1, ..., 1. Each draw is one bounded integer of the
    generator's stream, as is each entry of ``rng.integers`` over an array
    of bounds, so one ``integers`` call over ``count`` copies of the bounds
    draws the same stream. The shuffle only orders a row, which the sort
    undoes, so its draws are taken and dropped. The m Floyd steps run on all
    rows at once, over a (count, n) mask of the features taken, so a step
    costs the same for any m; the taken entries of a row, in column order,
    are the sorted row.
    """
    if n > 10000 and m > n // 50:
        return np.array([np.sort(rng.choice(n, m, replace=False))
                         for _ in range(count)]).reshape(count, m)
    bounds = np.concatenate([np.arange(n - m, n), np.arange(m - 1, 0, -1)])
    draws = rng.integers(0, np.tile(bounds, count), endpoint=True)
    draws = draws.reshape(count, bounds.size)
    taken = np.zeros(count * n, dtype=bool)
    row = np.arange(0, count * n, n)  # each row's first cell
    for step, j in enumerate(range(n - m, n)):
        cell = row + draws[:, step]
        taken[np.where(taken[cell], row + j, cell)] = True
    return np.nonzero(taken)[0].reshape(count, m) - row[:, None]


class _Growing:
    """One tree in flight: its training keys and labels (see
    :func:`_split_keys`), rng stream, node arena and the stack of nodes
    still to visit, each with its row ids into the training matrix.

    The tree draws its nodes' candidate features in batches of
    :func:`_candidate_draws`, the first of 8 rows and each next one twice
    as large, capped at the 2**max_depth - 1 nodes a tree of that depth can
    split and at n // m rows, so a batch holds at most one feature id per
    training row. The rows are the draws the nodes would make one by one,
    in the same order. A tree may draw past its last node; that leaves its
    rng in another state, which is harmless, as nothing reads a tree's rng
    after its last node.
    """

    def __init__(self, keys, values, y, params: ForestParams, rng, bootstrap: bool):
        self.n_features, n = keys.shape
        self.keys, self.values, self.rng = keys, values, rng
        self.m = params.resolve_max_features(self.n_features)
        self.max_batch = min(2**min(params.max_depth, 63) - 1, max(1, n // self.m))
        self.batch = 0
        self.draws = iter(())
        self.max_depth = params.max_depth
        self.min_leaf = params.min_samples_leaf
        # Typed arrays hold 8 bytes a field; a Python list holds an object.
        self.feature = array("q")
        self.threshold = array("d")
        self.left = array("q")
        self.right = array("q")
        self.value = array("d")
        # A bootstrap is drawn first, from the tree's own stream, as n row ids.
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        pos = int(y[rows].sum())
        self.stack = [(self.new_node(pos, n), rows, pos, 0)]

    def new_node(self, pos: int, n: int) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        # Equal to y[rows].mean() bit for bit: an exact count over an exact
        # count, divided once.
        self.value.append(pos / n)
        return len(self.feature) - 1

    def next_node(self):
        """Pop nodes in preorder up to the first that may split, and draw its
        candidate features; None once the stack is empty. Each tree draws in
        the same order as when grown on its own."""
        while self.stack:
            node, rows, pos, depth = self.stack.pop()
            if (depth < self.max_depth and 0 < pos < rows.size
                    and rows.size >= 2 * self.min_leaf):
                return node, pos, depth, (self.keys, self.values, rows,
                                          self.candidates(), self.min_leaf)
        return None

    def candidates(self) -> np.ndarray:
        """The next row of the tree's batch of candidate draws, drawing the
        next batch when this one is used up."""
        feats = next(self.draws, None)
        if feats is None:
            self.batch = min(max(8, 2 * self.batch), self.max_batch)
            self.draws = iter(_candidate_draws(self.rng, self.n_features, self.m,
                                               self.batch))
            feats = next(self.draws)
        return feats

    def split(self, node, pos, depth, found) -> None:
        f, thr, left_rows, right_rows, pos_left = found
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self.new_node(pos_left, left_rows.size)
        self.right[node] = self.new_node(pos - pos_left, right_rows.size)
        # Right pushed first so the left subtree is built (and draws rng) first.
        self.stack.append((self.right[node], right_rows, pos - pos_left, depth + 1))
        self.stack.append((self.left[node], left_rows, pos_left, depth + 1))


def _grow(problems) -> list[dict]:
    """One greedy entropy tree per rng of each ``(X, y, params, rngs,
    bootstrap)`` of ``problems``, as its arena fields, in order.

    The trees grow in lockstep: each step, every tree pops its next node that
    may split, and one :func:`_best_splits` call scores them all, from one
    :func:`_entropy_table` and the problems' :func:`_split_keys`, all built
    here. The table covers every node size of the problems, or as many as
    fit in an eighth of ``_blocks._BLOCK_BYTES``. The trees are cut into
    waves by :func:`_blocks.row_slices`, at ``_TREE_ROW_BYTES`` per training
    row of a tree, so the trees in flight hold in row ids at most what the
    table, the keys and the value tables leave of the budget.
    """
    n_rows = max((problem[0].shape[0] for problem in problems), default=1)
    table = _entropy_table(min(n_rows, _table_totals(_blocks._BLOCK_BYTES)))
    keys = _split_keys([problem[:2] for problem in problems])
    held = table.nbytes + sum({id(a): a.nbytes for pair in keys for a in pair}.values())
    jobs = [(*pair, y, params, rng, bootstrap)
            for pair, (_, y, params, rngs, bootstrap) in zip(keys, problems)
            for rng in rngs]
    trees = []
    for wave in _blocks.row_slices(len(jobs), _TREE_ROW_BYTES * n_rows,
                                   _blocks._BLOCK_BYTES - held):
        growing = [_Growing(*job) for job in jobs[wave]]
        live = growing
        while live:
            popped = [(tree, node) for tree in live
                      if (node := tree.next_node()) is not None]
            searched = _best_splits([node[-1] for _, node in popped], table)
            for (tree, node), found in zip(popped, searched):
                if found is not None:
                    tree.split(*node[:-1], found)
            live = [tree for tree in live if tree.stack]
        trees.extend({name: getattr(tree, name) for name in _ARENA_FIELDS}
                     for tree in growing)
    return trees


def _training_pair(X, y):
    """``X`` as a float64 matrix and ``y`` as int64 labels; a bad one raises
    ValueError naming it."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data X must be a non-empty matrix")
    if not np.isfinite(X).all():
        raise ValueError("training data X must be finite, not nan or inf")
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels y must be 1-D, got shape {y.shape}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"labels y has {y.shape[0]} entries for {X.shape[0]} rows of X")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels y must all be 0 or 1")
    return X, y.astype(np.int64)


def fit_tree(X, y, params: ForestParams, rng: np.random.Generator) -> RandomForest:
    """Grow one greedy entropy tree over per-node random feature subsets, on
    every row of X (no bootstrap), as a one-tree forest. Nothing in mlshap
    calls it; ``perfbench/layers.py`` hooks this name."""
    X, y = _training_pair(X, y)
    return RandomForest(replace(params, n_trees=1, bootstrap=False), X.shape[1],
                        _grow([(X, y, params, [rng], False)]))


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """The rng stream tree ``tree_index`` of a forest seeded ``seed`` fits with."""
    return np.random.default_rng([seed, tree_index])


def fit_forests(problems) -> list[RandomForest]:
    """One forest per ``(X, y, params)`` of ``problems``, all grown together.

    Tree t of a forest draws from ``tree_rng(params.seed, t)``: first its
    bootstrap resample (n row ids, if ``params.bootstrap``), then each node's
    candidate features in preorder. The trees are independent, so each is
    the tree it would be on its own, whatever else grows with it.
    """
    checked = [(*_training_pair(X, y), params) for X, y, params in problems]
    trees = iter(_grow([
        (X, y, params, [tree_rng(params.seed, t) for t in range(params.n_trees)],
         params.bootstrap) for X, y, params in checked]))
    return [RandomForest(params, X.shape[1], [next(trees) for _ in range(params.n_trees)])
            for X, _, params in checked]


def fit_forest(X, y, params: ForestParams) -> RandomForest:
    """Bag ``n_trees`` entropy trees, one bootstrap resample (size n) per tree."""
    return fit_forests([(X, y, params)])[0]


def forest_to_doc(forest: RandomForest) -> dict:
    """The forest's document, each tree's arena fields read back from the
    walk tables: -1 for the feature and children of a leaf, and a split's
    children as indices in its tree."""
    root = np.repeat(forest.trees, np.diff(forest.trees, append=forest.n_nodes))
    left, right = (np.where(forest.split, forest.child[side::2] - root, -1) for side in (1, 0))
    arena = (np.where(forest.split, forest.feature, -1), forest.threshold, left, right,
             forest.value)
    pieces = [np.split(field, forest.trees[1:]) for field in arena]
    return {"format": FOREST_FORMAT, "version": FOREST_VERSION,
            "params": asdict(forest.params), "n_features": forest.n_features,
            "trees": [{name: piece[t].tolist() for name, piece in zip(_ARENA_FIELDS, pieces)}
                      for t in range(forest.trees.size)]}


def _check_arenas(arena: dict, owner: np.ndarray, first: np.ndarray, sizes: np.ndarray,
                  n_features: int) -> None:
    """Raise ValueError naming the tree, field and node unless the joined
    ``arena``, whose node i is in tree ``owner[i]`` rooted at ``first[i]``,
    of trees of ``sizes`` nodes, holds arenas the grower writes: features in
    [-1, n_features), finite thresholds at splits, values in [0, 1], and
    children in preorder, so that a split node i has both children in
    (i, n_nodes), a leaf has -1 for both, and every node but the root is the
    child of exactly one split. Children after their parent rule out cycles,
    so every walk from the root ends at a leaf, and one parent per node makes
    the arena a tree.
    """
    node = np.arange(first.size) - first  # index within its tree
    n_nodes = sizes[owner]
    feature, value = arena["feature"], arena["value"]
    split = feature >= 0
    checks = [("feature", (feature >= -1) & (feature < n_features),
               f"in [-1, {n_features})"),
              ("threshold", ~split | np.isfinite(arena["threshold"]), "finite at a split"),
              ("value", (value >= 0.0) & (value <= 1.0), "in [0, 1]")]
    children = []
    for name in ("left", "right"):
        child = arena[name]
        children.append((child + first)[split])
        checks.append((name, np.where(split, (node < child) & (child < n_nodes),
                                      child == -1),
                       "after its node and inside the tree at a split, -1 at a leaf"))
    for name, ok, rule in checks:
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"tree {owner[i]}: {name}[{node[i]}] is "
                             f"{arena[name][i]}, must be {rule}")
    parents = np.bincount(np.concatenate(children), minlength=node.size)
    ok = parents == (node > 0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"tree {owner[i]}: node {node[i]} is a child of {parents[i]} "
                         "splits, must be of exactly 1")


FOREST_DOC = {"format": FOREST_FORMAT, "version": FOREST_VERSION,
              "params": {"n_trees": int, "max_depth": int, "min_samples_leaf": int,
                         "max_features": ("sqrt", int), "seed": int, "bootstrap": bool},
              "n_features": int,
              "trees": [{name: _json.Array(int if name in ("feature", "left", "right")
                                           else float) for name in _ARENA_FIELDS}]}


def _forest(doc: dict) -> RandomForest:
    """The forest of a document ``FOREST_DOC`` has read."""
    return RandomForest(ForestParams(**doc["params"]), doc["n_features"], doc["trees"])


def forest_from_doc(doc: dict) -> RandomForest:
    """The forest of a ``forest_to_doc`` document; one that breaks ``FOREST_DOC``,
    or whose arenas or params the grower could not write, raises ValueError."""
    return _forest(_json.parse(doc, FOREST_DOC, "forest"))
