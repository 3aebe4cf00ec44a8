import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from mlshap import (
    PRESETS,
    Dataset,
    ForestParams,
    RandomForest,
    fit_forest,
    fit_forests,
    fit_point,
    fit_tree,
    tree_rng,
)
from mlshap import _blocks, _json, forest, multilabel
from mlshap.forest import (
    _best_splits,
    _entropy_from_positive,
    forest_from_doc,
    forest_to_doc,
    leaf_paths,
)

from _synth import corpus_like, foodtruck_like


def forest_bytes(f):
    """The canonical JSON bytes of a forest, as a model file holds them."""
    return _json.dumps(forest_to_doc(f))


def leaf_tree(p):
    return dict(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[p])


def forest_of(trees, n_features):
    """The forest of the arenas ``trees``, one dict of five lists per tree, read
    as a model file is. One tree gives a forest whose ``predict_proba`` is the
    tree's leaf value, bit for bit, and ``depth[0]`` the tree's depth."""
    return forest_from_doc({"format": forest.FOREST_FORMAT, "version": forest.FOREST_VERSION,
                            "params": asdict(ForestParams(n_trees=len(trees))),
                            "n_features": n_features, "trees": trees})


def arenas(f):
    """Each tree of the forest ``f`` as its document's arena, a dict of five
    lists."""
    return forest_to_doc(f)["trees"]


def _fields(tree):
    """The five arena fields of ``tree`` as arrays."""
    return (np.asarray(tree[name]) for name in ("feature", "threshold", "left", "right",
                                                "value"))


def _entropy_pair(neg, pos):
    """Shannon entropy, in bits, of a two-class count pair (scalar reference)."""
    h = 0.0
    for count in (neg, pos):
        if 0 < count < neg + pos:
            p = count / (neg + pos)
            h -= p * math.log2(p)
    return h


def _entropy(neg, pos):
    return float(_entropy_from_positive(np.array([pos]), np.array([neg + pos]))[0])


class TestEntropy:
    def test_uniform(self):
        assert _entropy(1, 1) == 1.0

    def test_pure(self):
        assert _entropy(5, 0) == 0.0
        assert _entropy(0, 5) == 0.0

    def test_three_one(self):
        # -0.75*log2(0.75) - 0.25*log2(0.25)
        assert _entropy(3, 1) == pytest.approx(0.811278, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        # uniform, pure both ways, 3:1 and 1:3, then impure and pure mixed
        neg = np.array([1, 5, 0, 3, 1, 7, 0, 2, 4, 0])
        pos = np.array([1, 0, 5, 1, 3, 0, 9, 2, 1, 1])
        want = np.array([_entropy_pair(a, b) for a, b in zip(neg, pos)])
        got = _entropy_from_positive(pos, neg + pos)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert got[0] == 1.0 and got[1] == got[2] == 0.0
        np.testing.assert_array_equal(
            _entropy_from_positive(pos.reshape(2, 5), (neg + pos).reshape(2, 5)),
            got.reshape(2, 5))

    def test_vectorized_bit_equal_to_masked_reference(self):
        rng = np.random.default_rng(31)
        total = rng.integers(1, 400, size=(300, 3))
        pos = rng.integers(0, total + 1)
        pos[rng.random(pos.shape) < 0.2] = 0
        full = rng.random(pos.shape) < 0.2
        pos[full] = total[full]
        np.testing.assert_array_equal(_entropy_from_positive(pos, total),
                                      _entropy_masked(pos, total))


class TestForestParams:
    @pytest.mark.parametrize("kwargs", [
        {"n_trees": 0}, {"max_depth": 0}, {"min_samples_leaf": 0},
        {"max_features": 0}, {"max_features": "log2"}, {"seed": -1},
        {"max_depth": "a"}, {"n_trees": 1.5}, {"max_features": True},
        {"seed": 1.5}, {"bootstrap": "no"}, {"min_samples_leaf": None},
        {"n_trees": True}, {"max_features": 2.0}, {"seed": np.float64(3.0)},
        {"bootstrap": 1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ForestParams(**kwargs)

    def test_numpy_integers_become_int(self):
        params = ForestParams(n_trees=np.int64(2), max_depth=np.int32(3),
                              min_samples_leaf=np.uint8(1), max_features=np.int64(2),
                              seed=np.int16(4))
        for name in ("n_trees", "max_depth", "min_samples_leaf", "max_features", "seed"):
            assert type(getattr(params, name)) is int
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        forest_bytes(fit_forest(X, (X[:, 0] > 0).astype(int), params))

    @pytest.mark.parametrize("field, value", [
        ("bootstrap", "no"), ("max_depth", 2.5), ("n_trees", True),
        ("max_features", "all"),
    ])
    def test_model_document_rejects_bad_type(self, field, value):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        doc = forest_to_doc(fit_forest(X, (X[:, 1] > 0).astype(int),
                                       ForestParams(n_trees=1, seed=2)))
        doc["params"][field] = value
        with pytest.raises(ValueError, match=field):
            forest_from_doc(doc)

    def test_sqrt_resolution(self):
        assert ForestParams().resolve_max_features(103) == 10
        assert ForestParams(max_features=5).resolve_max_features(3) == 3


class TestFitTree:
    def test_pure_labels_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = fit_tree(X, y, ForestParams(n_trees=1), tree_rng(0, 0))
        assert tree.n_nodes == 1
        assert tree.value[0] == 1.0

    def test_separable_stump(self):
        # 4 points split cleanly by one threshold; depth budget 1.
        X = np.array([[0.0], [1.0], [5.0], [6.0]])
        y = np.array([0, 0, 1, 1])
        params = ForestParams(n_trees=1, max_depth=1, max_features=1)
        tree = fit_tree(X, y, params, tree_rng(0, 0))
        assert tree.n_nodes == 3
        assert 1.0 < tree.threshold[0] < 5.0
        preds = tree.predict_proba(X)
        np.testing.assert_array_equal((preds >= 0.5).astype(int), y)
        # chosen gain is the maximum over every candidate threshold
        chosen_gain = _gain(X, y, 0, tree.threshold[0])
        for thr in (0.5, 3.0, 5.5):
            assert chosen_gain >= _gain(X, y, 0, thr) - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        y = (X[:, 0] + X[:, 2] > 0).astype(int)
        params = ForestParams(n_trees=1, max_depth=5, max_features=2)
        a = fit_tree(X, y, params, tree_rng(9, 0))
        b = fit_tree(X, y, params, tree_rng(9, 0))
        assert forest_bytes(a) == forest_bytes(b)

    def test_depth_budget_respected(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200)
        params = ForestParams(n_trees=1, max_depth=3, max_features=3)
        tree = fit_tree(X, y, params, tree_rng(0, 0))
        assert tree.depth[0] <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        params = ForestParams(n_trees=1, max_depth=10, min_samples_leaf=5,
                              max_features=2)
        tree = fit_tree(X, y, params, tree_rng(0, 0))
        counts = _leaf_counts(arenas(tree)[0], X)
        assert min(counts) >= 5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((0, 2)), np.zeros(0), ForestParams(), tree_rng(0, 0))


def _gain(X, y, feature, threshold):
    left = y[X[:, feature] <= threshold]
    right = y[X[:, feature] > threshold]
    if left.size == 0 or right.size == 0:
        return 0.0
    def h(v):
        return _entropy_pair(int(np.sum(v == 0)), int(np.sum(v == 1)))
    return h(y) - (left.size * h(left) + right.size * h(right)) / y.size


def _leaves_compacting(tree, X):
    """Reference walk: the leaf each row of X reaches, stepping only the rows
    still at a split (compacted by ``nonzero`` each level) until none is."""
    feature, threshold, left, right, _ = _fields(tree)
    node = np.zeros(X.shape[0], dtype=np.intp)
    while True:
        feat = feature[node]
        live = feat >= 0
        if not live.any():
            return node
        rows = np.nonzero(live)[0]
        at = node[rows]
        go_left = X[rows, feat[rows]] <= threshold[at]
        node[rows] = np.where(go_left, left[at], right[at])


def _predict_compacting(tree, X):
    return np.asarray(tree["value"])[_leaves_compacting(tree, X)]


def _proba_compacting(forest, X):
    """Reference ``RandomForest.predict_proba`` on a matrix: the compacting
    walk per tree, summed in tree order and divided by the tree count."""
    X = np.asarray(X, dtype=np.float64)
    trees = arenas(forest)
    total = _predict_compacting(trees[0], X)
    for tree in trees[1:]:
        total = total + _predict_compacting(tree, X)
    return total / len(trees)


def _leaf_counts(tree, X):
    counts = np.bincount(_leaves_compacting(tree, X))
    return counts[counts > 0]


class TestMonotonePurity:
    def test_chosen_split_beats_every_candidate(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            X = rng.normal(size=(16, 3))
            y = rng.integers(0, 2, size=16)
            if len(np.unique(y)) < 2:
                continue
            params = ForestParams(n_trees=1, max_depth=1, max_features=3)
            tree = fit_tree(X, y, params, tree_rng(trial, 0))
            if tree.n_nodes == 1:
                continue
            chosen = _gain(X, y, tree.feature[0], tree.threshold[0])
            for f in range(3):
                vs = np.unique(X[:, f])
                for thr in (vs[:-1] + vs[1:]) / 2:
                    assert chosen >= _gain(X, y, f, thr) - 1e-12


class TestFitForest:
    def test_single_tree_no_bootstrap_equals_fit_tree(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 4))
        y = (X[:, 1] > 0).astype(int)
        params = ForestParams(n_trees=1, max_depth=4, bootstrap=False, seed=21)
        forest = fit_forest(X, y, params)
        tree = fit_tree(X, y, params, tree_rng(21, 0))
        assert forest_bytes(forest) == forest_bytes(tree)

    def test_all_negative_labels(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        y = np.zeros(30, dtype=int)
        forest = fit_forest(X, y, ForestParams(n_trees=4, seed=0))
        assert np.all(forest.predict_proba(X) == 0.0)

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] - X[:, 3] > 0).astype(int)
        params = ForestParams(n_trees=6, max_depth=6, seed=99)
        a = forest_bytes(fit_forest(X, y, params))
        b = forest_bytes(fit_forest(X, y, params))
        assert a == b

    def test_mean_contract(self):
        forest = forest_of([leaf_tree(0.2), leaf_tree(0.6)], 3)
        assert forest.predict_proba(np.zeros(3)) == 0.4

    @pytest.mark.parametrize("n_trees", [1, 2, 3, 5, 7, 100])
    def test_mean_is_exact_tree_average(self, n_trees):
        """Bit-equal to np.mean over the stacked per-tree predictions."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        forest = fit_forest(X, y, ForestParams(n_trees=n_trees, seed=3))
        Q = rng.normal(size=(20, 4))
        expected = np.mean([forest_of([t], 4).predict_proba(Q) for t in arenas(forest)],
                           axis=0)
        np.testing.assert_array_equal(forest.predict_proba(Q), expected)

    def test_probability_range(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            X = rng.normal(size=(40, 3))
            y = rng.integers(0, 2, size=40)
            forest = fit_forest(X, y, ForestParams(n_trees=3, seed=trial))
            p = forest.predict_proba(rng.normal(size=(25, 3)))
            assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_width_mismatch(self):
        forest = forest_of([leaf_tree(0.5)], 4)
        with pytest.raises(ValueError, match="width"):
            forest.predict_proba(np.zeros(3))


# The reader names a mistyped arena entry by its JSON path; the arena check
# names a tree and node the grower could not have written.
_TREE0 = r"forest: trees\[0\]\."


class TestForestJson:
    def test_roundtrip_identical(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 4))
        y = (X[:, 2] > 0.3).astype(int)
        forest = fit_forest(X, y, ForestParams(n_trees=3, seed=5))
        text = forest_bytes(forest)
        restored = forest_from_doc(json.loads(text))
        assert forest_bytes(restored) == text
        Q = rng.normal(size=(15, 4))
        np.testing.assert_array_equal(restored.predict_proba(Q),
                                      forest.predict_proba(Q))

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match='^forest: format is "other", must be '
                                             '"mlshap-forest"$'):
            forest_from_doc({"format": "other"})

    @pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
    def test_rejects_a_version_that_is_not_the_integer_1(self, version):
        doc = self._doc()
        doc["version"] = version
        with pytest.raises(ValueError, match=rf"^forest: version is "
                                             rf"{re.escape(json.dumps(version))}, "
                                             "must be 1$"):
            forest_from_doc(doc)

    @staticmethod
    def _doc(**tree):
        """A one-tree forest over 2 features: a root split on feature 1 with
        two leaves, with any array replaced by ``tree``."""
        arena = dict(feature=[1, -1, -1], threshold=[0.5, 0.0, 0.0],
                     left=[1, -1, -1], right=[2, -1, -1], value=[0.5, 0.0, 1.0])
        return dict(forest_to_doc(forest_of([leaf_tree(0.5)], 2)),
                    trees=[dict(arena, **tree)])

    def test_well_formed_arena_loads(self):
        forest = forest_from_doc(self._doc())
        np.testing.assert_array_equal(forest.predict_proba(np.array([[0.0, 0.0],
                                                                     [0.0, 1.0]])),
                                      [0.0, 1.0])

    @pytest.mark.parametrize("tree, message", [
        ({"left": [0, -1, -1], "right": [0, -1, -1]}, r"tree 0: left\[0\] is 0"),
        ({"right": [2, -1, 1]}, r"tree 0: right\[2\] is 1, .*-1 at a leaf"),
        ({"left": [3, -1, -1]}, r"tree 0: left\[0\] is 3, .*inside the tree"),
        ({"left": [-1, -1, -1]}, r"tree 0: left\[0\] is -1"),
        ({"feature": [2, -1, -1]}, r"tree 0: feature\[0\] is 2, must be in \[-1, 2\)"),
        ({"feature": [1, -2, -1]}, r"tree 0: feature\[1\] is -2"),
        ({"value": [0.5, 0.0]}, "tree 0: value has 2 entries, feature has 3"),
        ({"threshold": [0.5]}, "tree 0: threshold has 1 entries"),
        ({"feature": [], "threshold": [], "left": [], "right": [], "value": []},
         "tree 0: feature must be a non-empty list"),
        ({"threshold": [None, 0.0, 0.0]}, _TREE0 + r"threshold\[0\] is null, must be a finite"),
        ({"threshold": [float("nan"), 0.0, 0.0]},
         _TREE0 + r"threshold\[0\] is NaN, must be a finite number"),
        ({"threshold": [float("-inf"), 0.0, 0.0]}, _TREE0 + r"threshold\[0\] is -Infinity"),
        ({"threshold": [0.5, 0.0, None]}, _TREE0 + r"threshold\[2\] is null"),  # at a leaf
        ({"threshold": [0.5, "0.5", 0.0]}, _TREE0 + r"threshold\[1\] is \"0.5\""),
        ({"value": [0.5, 0.0, 7.5]}, r"tree 0: value\[2\] is 7.5, must be in \[0, 1\]"),
        ({"value": [0.5, -0.25, 1.0]}, r"tree 0: value\[1\] is -0.25"),
        ({"value": [0.5, None, 1.0]}, _TREE0 + r"value\[1\] is null"),
        ({"feature": [1, None, -1]}, _TREE0 + r"feature\[1\] is null, must be an integer"),
        ({"left": [1.5, -1, -1]}, _TREE0 + r"left\[0\] is 1.5, must be an integer"),
        ({"right": [[2], -1, -1]}, _TREE0 + r"right\[0\] is \[2\]"),
        ({"value": 0.5}, _TREE0 + "value is 0.5, must be a list"),
        # Node 2 is a child of the root and of node 1, and node 4 of none.
        ({"feature": [1, 0, -1, -1, -1], "threshold": [0.5, 0.5, 0.0, 0.0, 0.0],
          "left": [1, 2, -1, -1, -1], "right": [2, 3, -1, -1, -1],
          "value": [0.5] * 5}, "tree 0: node 2 is a child of 2 splits, must be of exactly 1"),
        # numpy reads a boolean among numbers as 0 or 1; each must be refused.
        ({"right": [True, -1, -1]}, _TREE0 + r"right\[0\] is true, must be an integer"),
        ({"left": [1, -1, False]}, _TREE0 + r"left\[2\] is false, must be an integer"),
        ({"feature": [1, True, -1]}, _TREE0 + r"feature\[1\] is true, must be an integer"),
        ({"threshold": [True, 0.0, 0.0]}, _TREE0 + r"threshold\[0\] is true, must be a finite"),
        ({"threshold": [0.5, 0, False]}, _TREE0 + r"threshold\[2\] is false, must be a finite"),
        ({"value": [0.5, False, 1.0]}, _TREE0 + r"value\[1\] is false, must be a finite"),
        ({"value": [True, True, True]}, _TREE0 + r"value\[0\] is true, must be a finite"),
    ])
    def test_malformed_arena_rejected(self, tree, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            forest_from_doc(self._doc(**tree))

    def test_unknown_params_key_is_named(self):
        doc = self._doc()
        doc["params"] = dict(doc["params"], bogus=1)
        with pytest.raises(ValueError, match=r"^forest: params\.bogus is not a known key"):
            forest_from_doc(doc)

    @pytest.mark.parametrize("trees", [True, 3, {}])
    def test_trees_must_be_a_list(self, trees):
        doc = self._doc()
        doc["trees"] = trees
        with pytest.raises(ValueError, match=r"^forest: trees is .*, must be a list$"):
            forest_from_doc(doc)

    def test_bad_tree_of_many_is_named(self):
        doc = self._doc()
        doc["trees"] = doc["trees"] * 3
        doc["trees"][2] = dict(doc["trees"][2], feature=[1, -1, 5])
        doc["params"] = dict(doc["params"], n_trees=3)
        with pytest.raises(ValueError, match=r"^tree 2: feature\[2\] is 5"):
            forest_from_doc(doc)
        doc["trees"][2] = dict(doc["trees"][0])
        doc["trees"][1] = dict(doc["trees"][1], value=[0.5, 0.0, True])
        with pytest.raises(ValueError,
                           match=r"^forest: trees\[1\]\.value\[2\] is true, must be"):
            forest_from_doc(doc)


def _synthesized_rows(X, n_coalitions, n_background, seed):
    """Rows shaped like kernel SHAP's: per random coalition and background
    row, instance 0's features inside the coalition and the background
    row's elsewhere."""
    rng = np.random.default_rng(seed)
    background = X[rng.choice(X.shape[0], size=n_background, replace=False)]
    inside = rng.random((n_coalitions, X.shape[1])) < rng.random((n_coalitions, 1))
    return np.where(inside[:, None, :], X[0], background).reshape(-1, X.shape[1])


def _on_thresholds(trees, X):
    """One row per split of ``trees``: a row of X with that split's feature
    set exactly to its threshold."""
    rows = []
    for tree in trees:
        feature, threshold, *_ = _fields(tree)
        for k in np.flatnonzero(feature >= 0):
            row = X[k % X.shape[0]].copy()
            row[feature[k]] = threshold[k]
            rows.append(row)
    return np.array(rows)


def _max_depth_preorder(tree):
    """Reference depth: one pass over a preorder arena, parents first."""
    feature, _, left, right, _ = _fields(tree)
    depth = np.zeros(feature.size, dtype=np.int64)
    for i in range(feature.size):
        if feature[i] >= 0:
            depth[left[i]] = depth[i] + 1
            depth[right[i]] = depth[i] + 1
    return int(depth.max())


def _assert_walks_match(forest_, Q):
    for tree in arenas(forest_):
        np.testing.assert_array_equal(forest_of([tree], forest_.n_features).predict_proba(Q),
                                      _predict_compacting(tree, Q))
    np.testing.assert_array_equal(forest_.predict_proba(Q), _proba_compacting(forest_, Q))


def _model_forests(preset, decimals, n_trees=5):
    ds = _dataset(decimals)
    params = dict(PRESETS[preset], n_trees=n_trees, seed=3)
    model = fit_point(params.pop("algo"), ds, params)
    return ds, model


class TestWalkOracle:
    """The fixed-depth walk reaches the leaf the compacting walk reaches, so
    ``predict_proba`` of a forest and of each of its trees alone equals it
    bit for bit."""

    @pytest.mark.parametrize("preset", ["paper-br", "paper-cc"])
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_fitted_forests(self, preset, decimals):
        ds, model = _model_forests(preset, decimals)
        forests = getattr(model, "per_label_models", None) or model.chained_models
        rng = np.random.default_rng(4)
        for j, fitted in enumerate(forests):
            # CC link j reads j chained 0/1 decisions after the features.
            decisions = rng.integers(0, 2, size=(ds.n_instances, fitted.n_features
                                                 - ds.features.shape[1]))
            X = np.column_stack([ds.features, decisions])
            Q = np.concatenate([X, _synthesized_rows(X, 60, 10, seed=j),
                                _on_thresholds(arenas(fitted), X)])
            _assert_walks_match(fitted, Q)
            np.testing.assert_array_equal(fitted.depth,
                                          [_max_depth_preorder(t) for t in arenas(fitted)])

    def test_rows_on_thresholds_go_left(self):
        ds, model = _model_forests("paper-br", None)
        tree = arenas(model.per_label_models[0])[0]
        feature, threshold, *_ = _fields(tree)
        Q = _on_thresholds([tree], ds.features)
        splits = np.flatnonzero(feature >= 0)
        alone = forest_of([tree], ds.n_features)
        _assert_walks_match(alone, Q)
        # Row i sits on split i: a hair above its threshold it goes right.
        assert np.all(Q[np.arange(splits.size), feature[splits]]
                      == threshold[splits])
        above = Q.copy()
        above[np.arange(splits.size), feature[splits]] = np.nextafter(
            threshold[splits], np.inf)
        assert not np.array_equal(alone.predict_proba(above), alone.predict_proba(Q))
        np.testing.assert_array_equal(alone.predict_proba(above),
                                      _predict_compacting(tree, above))

    def test_a_one_node_tree(self):
        tree = leaf_tree(0.25)
        Q = np.arange(12.0).reshape(4, 3)
        alone = forest_of([tree], 3)
        assert alone.depth[0] == 0
        np.testing.assert_array_equal(alone.predict_proba(Q), [0.25] * 4)
        assert alone.predict_proba(Q[:0]).shape == (0,)
        both = forest_of([tree, leaf_tree(0.5)], 3)
        _assert_walks_match(both, Q)
        assert both.predict_proba(Q[0]) == 0.375

    # Children out of index order and leaves at depths 2 and 3: node 0 sends
    # x0 <= 0 to node 5 and the rest to node 1; nodes 1 and 5 split on x1,
    # node 3 on x0 again.
    SCRAMBLED = dict(
        feature=[0, 1, -1, 0, -1, 1, -1, -1, -1],
        threshold=[0.0, 1.0, 0.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        left=[5, 3, -1, 8, -1, 7, -1, -1, -1],
        right=[1, 2, -1, 4, -1, 6, -1, -1, -1],
        value=[0.5, 0.5, 0.9, 0.5, 0.7, 0.5, 0.2, 0.1, 0.4],
    )

    def test_hand_written_arena_with_scrambled_children(self):
        tree = self.SCRAMBLED
        grid = [-np.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, np.inf, np.nan]
        Q = np.array([[a, b] for a in grid for b in grid])
        alone = forest_of([tree], 2)
        assert alone.depth[0] == 3
        want = _predict_compacting(tree, Q)
        assert set(want) == {0.9, 0.7, 0.2, 0.1, 0.4}  # every leaf is reached
        # nan compares false, so it goes right, as in the compacting walk.
        assert alone.predict_proba(np.array([np.nan, np.nan])) == 0.9
        forest_ = forest_of([tree, leaf_tree(0.3), tree], 2)
        _assert_walks_match(forest_, Q)
        # One column short: the flat buffer would run into the next row, so
        # the arena check refuses the forest before any walk.
        with pytest.raises(ValueError, match=r"^tree 0: feature\[1\] is 1, must be in \[-1, 1\)"):
            forest_of([tree], 1)

    def test_a_cyclic_arena_raises_instead_of_walking_forever(self):
        cyclic = dict(feature=[0, -1], threshold=[0.0, 0.0], left=[0, -1], right=[1, -1],
                      value=[0.5, 1.0])
        with pytest.raises(ValueError, match=r"^tree 0: left\[0\] is 0, must be after its node"):
            forest_of([cyclic], 1)

    def test_column_prefix_views_are_read_in_place(self):
        ds, model = _model_forests("paper-cc", None)
        M, links = ds.features.shape[1], model.chained_models
        aug = np.column_stack([_synthesized_rows(ds.features, 50, 8, seed=1),
                               np.ones((400, len(links) - 1))])
        aug[::3, M:] = 0.0
        for j, link in enumerate(links):
            view = aug[:, :M + j]
            flat, offsets = forest._flat_rows(view)
            assert np.shares_memory(flat, aug)
            assert np.array_equal(flat[offsets[:, None] + np.arange(M + j)], view)
            _assert_walks_match(link, view)
            np.testing.assert_array_equal(link.predict_proba(view),
                                          link.predict_proba(np.ascontiguousarray(view)))

    @pytest.mark.parametrize("layout", [
        lambda X: X[::-1],
        np.asfortranarray,
        lambda X: X[:0],
        lambda X: X[::3],
        lambda X: X[:1],
        lambda X: np.broadcast_to(X[2], (5, X.shape[1])),
        lambda X: np.repeat(X, 2, axis=1)[:, ::2],
        lambda X: X.T.copy().T[::-2],
    ], ids=["reversed", "fortran", "no-rows", "every-third-row", "one-row",
            "broadcast-row", "every-other-column", "fortran-reversed"])
    def test_strided_inputs_equal_a_contiguous_copy(self, layout):
        ds, model = _model_forests("paper-br", 1)
        Q = layout(np.concatenate([ds.features[:60], _synthesized_rows(ds.features, 6, 5, 2)]))
        for fitted in model.per_label_models[:3]:
            want = fitted.predict_proba(np.ascontiguousarray(Q))
            np.testing.assert_array_equal(fitted.predict_proba(Q), want)
            assert want.shape == (Q.shape[0],)
            _assert_walks_match(fitted, Q)

    @pytest.mark.parametrize("preset", ["paper-br", "paper-cc"])
    def test_whole_model_on_synthesized_rows(self, monkeypatch, preset):
        """41 800 rows: 2 090 coalitions by 20 background rows, as in a kernel
        explanation at the benchmark's budget."""
        ds, model = _model_forests(preset, None)
        Q = _synthesized_rows(ds.features, 2090, 20, seed=9)
        assert Q.shape == (41800, ds.features.shape[1])
        got = model.predict_proba(Q)
        monkeypatch.setattr(RandomForest, "predict_proba", _proba_compacting)
        np.testing.assert_array_equal(got, model.predict_proba(Q))


def _entropy_masked(pos, total):
    """Two-class entropy through boolean-masked copies (the reference)."""
    p = pos / total
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        inner = (q > 0.0) & (q < 1.0)
        out[inner] -= q[inner] * np.log2(q[inner])
    return out


def _best_split_per_feature(X, y, rows, feats, min_leaf):
    """Reference split search: one sort and one scan per candidate feature.

    A later feature replaces the best only with a strictly higher gain, and
    each feature keeps its first maximal threshold.
    """
    n = rows.size
    pos_total = int(y[rows].sum())
    parent = _entropy_masked(np.array([pos_total]), np.array([n]))[0]
    best_gain = 0.0
    best = None
    for f in feats:
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y[rows][order]
        boundary = np.nonzero(vs[1:] != vs[:-1])[0]  # split after sorted position i
        if boundary.size == 0:
            continue
        n_left = boundary + 1
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        boundary = boundary[valid]
        n_left = n_left[valid]
        n_right = n_right[valid]
        pos_left = np.cumsum(ys)[boundary]
        pos_right = pos_total - pos_left
        child = (
            n_left * _entropy_masked(pos_left, n_left)
            + n_right * _entropy_masked(pos_right, n_right)
        ) / n
        gains = parent - child
        at = int(np.argmax(gains))
        if gains[at] > best_gain:
            best_gain = float(gains[at])
            thr = (vs[boundary[at]] + vs[boundary[at] + 1]) / 2.0
            best = (int(f), float(thr))
    return best


def _best_split(X, y, rows, feats, min_leaf):
    """Reference split search for one node: its (rows, feats) block in one
    2-D pass, each column sorted stably. Ties resolve to the lowest feature
    index, then the lowest threshold. None when no candidate split is valid
    or none gains."""
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
    at = np.argmax(gains, axis=0)
    col_gain = gains[at, np.arange(gains.shape[1])]
    j = int(np.argmax(col_gain))
    if not col_gain[j] > 0.0:
        return None
    i = lo + at[j]
    below, above = vs[i, j], vs[i + 1, j]
    mid = (below + above) / 2.0
    return int(feats[j]), float(mid if mid < above else below)


def _fit_tree_per_node(X, y, params, rng):
    """Reference grower: one tree, one node and one :func:`_best_split` call
    at a time, in preorder, drawing each node's features from ``rng``."""
    d = X.shape[1]
    m = params.resolve_max_features(d)
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(pos, n):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(pos / n)
        return len(feature) - 1

    root_rows = np.arange(X.shape[0])
    root_pos = int(y.sum())
    stack = [(new_node(root_pos, root_rows.size), root_rows, root_pos, 0)]
    while stack:
        node, rows, pos, depth = stack.pop()
        if (depth >= params.max_depth or pos == 0 or pos == rows.size
                or rows.size < 2 * params.min_samples_leaf):
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
        left[node] = new_node(pos_left, left_rows.size)
        right[node] = new_node(pos - pos_left, right_rows.size)
        stack.append((right[node], right_rows, pos - pos_left, depth + 1))
        stack.append((left[node], left_rows, pos_left, depth + 1))
    return dict(feature=feature, threshold=threshold, left=left, right=right, value=value)


def _fit_forests_per_tree(problems):
    """Reference for ``fit_forests``: every tree grown on its own, one after
    another, on a copy of its bootstrap rows."""
    forests = []
    for X, y, params in problems:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = X.shape[0]
        trees = []
        for t in range(params.n_trees):
            rng = tree_rng(params.seed, t)
            rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
            trees.append(_fit_tree_per_node(X[rows], y[rows], params, rng))
        forests.append(RandomForest(params, X.shape[1], trees))
    return forests


def _random_nodes(rng, count):
    """``count`` random split-search nodes, (X, y, rows, feats, min_leaf), and
    how many of them have tied, constant-column and single-feature blocks."""
    seen = {"tied": 0, "constant": 0, "single": 0}
    nodes = []
    for _ in range(count):
        n_pool = int(rng.integers(2, 50))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n_pool, d))
        decimals = int(rng.integers(0, 4))
        if decimals < 3:  # coarse grid: many tied values per column
            X = np.round(X, decimals)
            seen["tied"] += 1
        if rng.random() < 0.25:
            X[:, rng.integers(d)] = 0.5
            seen["constant"] += 1
        y = (rng.random(n_pool) < rng.random()).astype(np.int64)
        rows = rng.choice(n_pool, size=int(rng.integers(1, 2 * n_pool)))
        m = int(rng.integers(1, d + 1))
        seen["single"] += m == 1
        feats = np.sort(rng.choice(d, size=m, replace=False))
        min_leaf = int(rng.integers(1, 5))
        nodes.append((X, y, rows, feats, min_leaf))
    return nodes, seen


def _keyed(node):
    """The node ``_best_splits`` takes for a raw ``(X, y, rows, feats,
    min_leaf)``: its training pair's keys and value table, as the grower
    builds them."""
    X, y, rows, feats, min_leaf = node
    (keys, values), = forest._split_keys([(X, y)])
    return keys, values, rows, feats, min_leaf


def _searched(nodes, table=None):
    """``_best_splits`` of the raw nodes ``nodes``."""
    return _best_splits([_keyed(node) for node in nodes], table)


def _assert_split_matches(node, found, want):
    """``found``, from ``_best_splits``, picks the split ``want`` names and
    partitions the node's rows by it."""
    X, y, rows, _, _ = node
    if want is None:
        assert found is None
        return
    f, thr, left_rows, right_rows, left_pos = found
    assert (f, thr) == want
    goes = X[rows, f] <= thr
    np.testing.assert_array_equal(left_rows, rows[goes])
    np.testing.assert_array_equal(right_rows, rows[~goes])
    assert left_pos == int(y[left_rows].sum())


class TestSplitSearchOracle:
    def test_random_nodes_match_per_feature_search(self):
        rng = np.random.default_rng(2024)
        nodes, seen = _random_nodes(rng, 800)
        wants = [_best_split_per_feature(*node) for node in nodes]
        seen["none"] = sum(want is None for want in wants)
        seen["split"] = len(wants) - seen["none"]
        assert min(seen.values()) >= 50, seen
        start = 0
        while start < len(nodes):  # mixed-size batches of 1 to 60 nodes
            stop = start + int(rng.integers(1, 61))
            batch = nodes[start:stop]
            for node, found, want in zip(batch, _searched(batch), wants[start:stop]):
                _assert_split_matches(node, found, want)
                assert _best_split(*node) == want
            start = stop

    @pytest.mark.parametrize("X, y, min_leaf", [
        (np.full((6, 2), 3.0), np.array([0, 1, 0, 1, 0, 1]), 1),  # all constant
        (np.arange(5.0)[:, None], np.array([0, 1, 0, 1, 1]), 3),  # 5 < 2 * 3
        (np.arange(4.0)[:, None], np.array([1, 1, 1, 1]), 1),  # pure: no gain
        (np.array([[0.0], [0.0], [0.0], [1.0]]), np.array([0, 0, 1, 1]), 2),
    ])
    def test_no_valid_split(self, X, y, min_leaf):
        rows = np.arange(X.shape[0])
        feats = np.arange(X.shape[1])
        assert _best_split_per_feature(X, y, rows, feats, min_leaf) is None
        assert _searched([(X, y, rows, feats, min_leaf)]) == [None]

    def test_ties_go_to_lowest_feature_then_lowest_threshold(self):
        # Columns 1 and 2 are identical perfect separators at two thresholds.
        X = np.array([[5.0, 0.0, 0.0], [4.0, 1.0, 1.0], [3.0, 2.0, 2.0],
                      [2.0, 3.0, 3.0]])
        y = np.array([0, 1, 1, 0])
        node = (X, y, np.arange(4), np.array([1, 2]), 1)
        want = _best_split_per_feature(*node)
        assert want == (1, 0.5)
        _assert_split_matches(node, _searched([node])[0], want)

    def test_empty_batch(self):
        assert _best_splits([]) == []

    def test_blocks_hold_at_most_16384_cells(self, monkeypatch):
        """Nodes of 64 rows and 16 candidate features, 1 024 cells each, share
        blocks of 16 nodes: 16 384 cells, ``_blocks._CACHE_BYTES`` at 16
        bytes a cell."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 16))
        y = (rng.random(64) < 0.5).astype(np.int64)
        node = (X, y, np.arange(64), np.arange(16), 1)
        want = _best_split_per_feature(*node)
        cells = []
        split_block = forest._split_block

        def recorded(nodes, height, width, table):
            cells.append(len(nodes) * height * width)
            return split_block(nodes, height, width, table)

        monkeypatch.setattr(forest, "_split_block", recorded)
        for found in _searched([node] * 40):
            _assert_split_matches(node, found, want)
        assert cells == [16384, 16384, 8192]


def _dataset(decimals=None):
    ds = foodtruck_like()
    if decimals is not None:
        ds = Dataset(ds.name, np.round(ds.features, decimals), ds.feature_names,
                     ds.labels, ds.label_names)
    return ds


class TestForestBytesMatchOracle:
    @pytest.mark.parametrize("preset", ["paper-br", "paper-cc"])
    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_model_json_identical(self, monkeypatch, preset, decimals):
        ds = _dataset(decimals)
        params = dict(PRESETS[preset], n_trees=3, seed=7)
        algo = params.pop("algo")
        got = _json.dumps(fit_point(algo, ds, params).to_doc())
        monkeypatch.setattr(multilabel, "fit_forests", _fit_forests_per_tree)
        want = _json.dumps(fit_point(algo, ds, params).to_doc())
        assert got == want

    def test_yeast_paper_br_identical(self, monkeypatch):
        """Depth-15 trees on 2 417 rows: roots above the entropy table's cap,
        keys of 103 features in uint16."""
        ds = corpus_like("yeast")
        params = dict(PRESETS["paper-br"], n_trees=2, seed=7)
        algo = params.pop("algo")
        got = _json.dumps(fit_point(algo, ds, params).to_doc())
        monkeypatch.setattr(multilabel, "fit_forests", _fit_forests_per_tree)
        assert got == _json.dumps(fit_point(algo, ds, params).to_doc())

    def test_signed_zeros_beside_a_constant_column(self):
        """-0.0 and 0.0 compare equal, so they share a rank, and no threshold
        depends on which of them the value table holds."""
        ds = _dataset()
        y = ds.labels[:, 0]
        rng = np.random.default_rng(5)
        X = ds.features.copy()
        zero = np.where(rng.random(y.size) < 0.5, -0.0, 0.0)
        X[:, 0] = np.where(rng.random(y.size) < 0.6, zero, 2.0 * y - 1.0)
        X[:, 1] = 0.25
        for signs in (X, np.where(X == 0.0, 0.0, X), np.where(X == 0.0, -0.0, X)):
            p = ForestParams(n_trees=3, max_features=4, max_depth=6, seed=2)
            got = fit_forest(signs, y, p)
            assert got.feature[got.split].tolist().count(0) > 0
            assert 1 not in got.feature[got.split]
            assert forest_bytes(got) == forest_bytes(_fit_forests_per_tree([(signs, y, p)])[0])

    @pytest.mark.parametrize("decimals", [None, 1])
    @pytest.mark.parametrize("params", [
        {"bootstrap": False},
        {"max_features": 1},
        {"max_features": 21, "max_depth": 6},
        {"min_samples_leaf": 2},
        {"min_samples_leaf": 3, "bootstrap": False},
        {"min_samples_leaf": 5},
    ], ids=["no-bootstrap", "one-feature", "all-features", "leaf-2",
            "leaf-3-no-bootstrap", "leaf-5"])
    def test_forest_params_identical(self, params, decimals):
        ds = _dataset(decimals)
        p = ForestParams(**dict({"n_trees": 3, "seed": 4}, **params))
        y = ds.labels[:, 2]
        got = forest_bytes(fit_forest(ds.features, y, p))
        assert got == forest_bytes(_fit_forests_per_tree([(ds.features, y, p)])[0])

    def test_mixed_problems_match_each_alone(self):
        """Forests of different widths, labels and parameters grown together
        are the forests each grows on its own."""
        ds = _dataset(1)
        X = ds.features
        problems = [
            (X, ds.labels[:, 0], ForestParams(n_trees=2, seed=1)),
            (X[:, :5], ds.labels[:, 1], ForestParams(n_trees=3, max_depth=3, seed=2)),
            (X, ds.labels[:, 2], ForestParams(n_trees=1, min_samples_leaf=4,
                                              max_features=7, bootstrap=False, seed=3)),
            (X[:40], ds.labels[:40, 3], ForestParams(n_trees=2, seed=4)),
        ]
        together = [forest_bytes(f) for f in fit_forests(problems)]
        alone = [forest_bytes(fit_forest(*problem)) for problem in problems]
        assert together == alone
        assert together == [forest_bytes(f) for f in _fit_forests_per_tree(problems)]

    # A budget of 1 byte holds no entropy table and one tree a wave. 64 KiB
    # holds the table up to 43 rows, 7 920 bytes, the three labels' uint8
    # keys, 3 × 21 × 407 = 25 641 bytes, and their one value table, 21
    # features × 53 values × 8 = 8 904 bytes. The trees in flight share the
    # 23 071 bytes left, 2 of 407 rows at 24 bytes a row.
    @pytest.mark.parametrize("budget, totals, waves", [(1, -1, [1] * 6),
                                                       (2**16, 43, [2, 2, 2])],
                             ids=["no-table", "small-table"])
    def test_one_cell_blocks_and_one_tree_waves(self, monkeypatch, budget, totals, waves):
        ds = _dataset(1)
        problems = [(ds.features, ds.labels[:, l], ForestParams(n_trees=2, seed=l))
                    for l in range(3)]
        want = [forest_bytes(f) for f in fit_forests(problems)]
        blocks, cut_waves, tables = [], [], []
        split_block, row_slices = forest._split_block, _blocks.row_slices
        entropy_table = forest._entropy_table

        def one_node_blocks(nodes, height, width, table):
            blocks.append((len(nodes), height))
            return split_block(nodes, height, width, table)

        def one_tree_waves(n_rows, row_bytes, budget=None):
            cut = row_slices(n_rows, row_bytes, budget)
            if row_bytes == forest._TREE_ROW_BYTES * ds.n_instances:  # not the table's
                cut_waves.extend(cut)
            return cut

        def recorded_table(n_max):
            tables.append(n_max)
            return entropy_table(n_max)

        monkeypatch.setattr(_blocks, "_CACHE_BYTES", 16)  # one cell a block
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(forest, "_split_block", one_node_blocks)
        monkeypatch.setattr(_blocks, "row_slices", one_tree_waves)
        monkeypatch.setattr(forest, "_entropy_table", recorded_table)
        assert [forest_bytes(f) for f in fit_forests(problems)] == want
        assert blocks and max(n for n, _ in blocks) == 1
        assert [s.stop - s.start for s in cut_waves] == waves
        assert tables == [totals]
        # Blocks taller than the table's totals score directly, the rest from it.
        from_table = {height <= totals for _, height in blocks}
        assert from_table == ({False, True} if totals > 0 else {False})


class TestCandidateDraws:
    """``_candidate_draws`` rows against one ``np.sort(rng.choice(n, m,
    replace=False))`` call per row, from the same stream."""

    # (10001, 200) runs Floyd's algorithm; (10001, 201) is past numpy's cutoff,
    # where ``choice`` shuffles a tail instead.
    @pytest.mark.parametrize("n, m", [(21, 4), (103, 10), (22, 4), (5, 5), (2, 1),
                                      (200, 14), (10001, 200), (10001, 201)])
    def test_rows_and_next_draw_equal_sequential_choice(self, n, m):
        for seed in range(40 if n < 10000 else 6):
            for count in (1, 3, 8):
                want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                # A bootstrap draws first; an odd count of 32-bit draws leaves
                # half a 64-bit word buffered in the generator.
                for rng in (want_rng, got_rng):
                    rng.integers(0, 407, size=seed % 3)
                want = [np.sort(want_rng.choice(n, m, replace=False))
                        for _ in range(count)]
                got = forest._candidate_draws(got_rng, n, m, count)
                assert got.shape == (count, m)
                np.testing.assert_array_equal(got, want)
                assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("max_depth", [1, 3, 15])
    def test_forest_equals_per_node_grower(self, max_depth):
        ds = _dataset(1)
        p = ForestParams(n_trees=3, max_depth=max_depth, seed=5)
        y = ds.labels[:, 0]
        got = forest_bytes(fit_forest(ds.features, y, p))
        assert got == forest_bytes(_fit_forests_per_tree([(ds.features, y, p)])[0])

    # Caps: 2**max_depth - 1 nodes, and n // m rows: 407 // 4 = 101, which
    # these trees of at most about 60 nodes never reach, and 60 // 10 = 6.
    @pytest.mark.parametrize("rows, params, cap", [
        (407, {"max_depth": 1}, 1), (407, {"max_depth": 3}, 7),
        (407, {"max_depth": 15}, 101), (60, {"max_features": 10}, 6),
    ], ids=["depth-1", "depth-3", "depth-15", "rows-cap"])
    def test_batches_double_from_8_up_to_the_caps(self, monkeypatch, rows, params, cap):
        ds = _dataset(1)
        p = ForestParams(n_trees=4, seed=2, **params)
        batches, used = {}, {}
        candidate_draws, candidates = forest._candidate_draws, forest._Growing.candidates

        def recorded_draws(rng, n, m, count):
            batches.setdefault(id(rng), []).append(count)
            return candidate_draws(rng, n, m, count)

        def counted(self):
            used[id(self.rng)] = used.get(id(self.rng), 0) + 1
            return candidates(self)

        monkeypatch.setattr(forest, "_candidate_draws", recorded_draws)
        monkeypatch.setattr(forest._Growing, "candidates", counted)
        fit_forest(ds.features[:rows], ds.labels[:rows, 0], p)
        assert len(batches) == 4
        for tree, sizes in batches.items():
            assert sizes[0] == min(8, cap)
            assert all(b == min(2 * a, cap) for a, b in zip(sizes, sizes[1:]))
            # A batch is drawn only when the last one is used up.
            assert sum(sizes[:-1]) < used[tree] <= sum(sizes)
        sizes = {size for sizes in batches.values() for size in sizes}
        assert (cap in sizes) == (cap < 101)


class TestRankKeys:
    def test_ranks_order_and_name_the_values(self):
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(300, 5)), 1)
        X[:, 2] = 7.0
        X[::3, 3] = -0.0
        ranks, values = forest._rank_columns(X)
        assert ranks.shape == (5, 300)
        for f in range(5):
            distinct = np.unique(X[:, f])
            np.testing.assert_array_equal(ranks[f], np.searchsorted(distinct, X[:, f]))
            np.testing.assert_array_equal(values[f, :distinct.size], distinct)
        y = (rng.random(300) < 0.5).astype(np.int64)
        (keys, table), = forest._split_keys([(X, y)])
        assert keys.dtype == np.uint8
        np.testing.assert_array_equal(keys, 2 * ranks + y)
        np.testing.assert_array_equal(table, values)

    @pytest.mark.parametrize("distinct, dtype", [(1, np.uint8), (128, np.uint8),
                                                 (129, np.uint16), (32768, np.uint16),
                                                 (32769, np.uint32)])
    def test_smallest_type_holding_every_key(self, distinct, dtype):
        X = np.arange(distinct, dtype=np.float64)[:, None]
        (keys, _), = forest._split_keys([(X, np.ones(distinct, dtype=np.int64))])
        assert keys.dtype == dtype
        assert int(keys.max()) == 2 * distinct - 1

    def test_column_prefixes_share_one_ranking(self, monkeypatch):
        """A classifier chain's links read column prefixes of one augmented
        matrix: one fit_cc ranks it once, and a BR fit its features once."""
        ds = _dataset(1)
        calls = []
        rank_columns = forest._rank_columns

        def recorded(X):
            calls.append(X.shape)
            return rank_columns(X)

        monkeypatch.setattr(forest, "_rank_columns", recorded)
        params = ForestParams(n_trees=2, max_depth=3, seed=1)
        multilabel.fit_cc(ds, params)
        M, L = ds.n_features, ds.n_labels
        assert calls == [(ds.n_instances, M + L - 1)]
        calls.clear()
        multilabel.fit_br(ds, params)
        assert calls == [(ds.n_instances, M)]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestEntropyTable:
    def test_every_entry_is_the_direct_entropy_up_to_the_cap(self):
        cap = forest._table_totals(_blocks._BLOCK_BYTES)
        assert cap == 1022
        table = forest._entropy_table(cap)
        assert table.size == (cap + 1) * (cap + 2) // 2
        assert table[0] == 0.0
        for t in range(1, cap + 1):
            start = t * (t + 1) // 2
            np.testing.assert_array_equal(
                _bits(table[start:start + t + 1]),
                _bits(_entropy_from_positive(np.arange(t + 1), t)))

    # Slices of 1, 7 and 64 cells of 16 bytes.
    @pytest.mark.parametrize("cache_bytes", [16, 112, 1024])
    def test_slices_build_the_same_table(self, monkeypatch, cache_bytes):
        want = forest._entropy_table(60)
        monkeypatch.setattr(_blocks, "_CACHE_BYTES", cache_bytes)
        np.testing.assert_array_equal(_bits(forest._entropy_table(60)), _bits(want))

    @pytest.mark.parametrize("budget", [0, 7, 63, 64, 191, 192, 384, 2**16,
                                        32 * 2**20 - 1, 32 * 2**20])
    def test_cap_is_the_largest_table_in_an_eighth_of_the_budget(self, budget):
        def table_bytes(n):
            return 8 * ((n + 1) * (n + 2) // 2)

        cap = forest._table_totals(budget)
        assert cap >= -1
        assert table_bytes(cap) <= budget // 8 < table_bytes(cap + 1)

    def test_foodtruck_table_bytes(self):
        assert forest._entropy_table(407).nbytes == 667_488

    def test_random_nodes_split_alike_with_any_table(self):
        rng = np.random.default_rng(17)
        nodes, _ = _random_nodes(rng, 300)
        wants = [_best_split_per_feature(*node) for node in nodes]
        for n_max in (-1, 0, 1, 20, 99):
            table = forest._entropy_table(n_max)
            for start in range(0, len(nodes), 30):
                batch = nodes[start:start + 30]
                for node, found, want in zip(batch, _searched(batch, table),
                                             wants[start:start + 30]):
                    _assert_split_matches(node, found, want)

    @pytest.mark.parametrize("decimals", [None, 1])
    def test_yeast_roots_above_the_cap_match_each_tree_alone(self, monkeypatch, decimals):
        ds = corpus_like("yeast")
        X = ds.features if decimals is None else np.round(ds.features, decimals)
        problems = [(X, ds.labels[:, l], ForestParams(n_trees=2, max_depth=3, seed=l))
                    for l in range(2)]
        heights = []
        split_block = forest._split_block

        def recorded(nodes, height, width, table):
            heights.append(height)
            return split_block(nodes, height, width, table)

        monkeypatch.setattr(forest, "_split_block", recorded)
        got = [forest_bytes(f) for f in fit_forests(problems)]
        cap = forest._table_totals(_blocks._BLOCK_BYTES)
        assert max(heights) > cap >= min(heights)
        assert got == [forest_bytes(f) for f in _fit_forests_per_tree(problems)]


class TestInputChecks:
    """Each entry of the grower names the argument it refuses."""

    ENTRIES = {
        "fit_forest": lambda X, y: fit_forest(X, y, ForestParams(n_trees=2)),
        "fit_forests": lambda X, y: fit_forests([(X, y, ForestParams(n_trees=2))]),
        "fit_tree": lambda X, y: fit_tree(X, y, ForestParams(), tree_rng(0, 0)),
    }

    @staticmethod
    def _data():
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        return X, (X[:, 0] > 0).astype(np.int64)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_X(self, entry, bad):
        X, y = self._data()
        X[4, 1] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            self.ENTRIES[entry](X, y)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_y_not_one_dimensional(self, entry):
        X, y = self._data()
        with pytest.raises(ValueError, match="y must be 1-D"):
            self.ENTRIES[entry](X, y[:, None])

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("length", [29, 31])
    def test_y_wrong_length(self, entry, length):
        X, y = self._data()
        with pytest.raises(ValueError, match=f"y has {length} entries for 30 rows"):
            self.ENTRIES[entry](X, np.resize(y, length))

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_y_not_zero_or_one(self, entry, bad):
        X, y = self._data()
        y = y.astype(np.float64)
        y[7] = bad
        with pytest.raises(ValueError, match="y must all be 0 or 1"):
            self.ENTRIES[entry](X, y)

    def test_float_and_bool_labels_fit_as_integers(self):
        X, y = self._data()
        params = ForestParams(n_trees=2, seed=5)
        want = forest_bytes(fit_forest(X, y, params))
        assert forest_bytes(fit_forest(X, y.astype(np.float64), params)) == want
        assert forest_bytes(fit_forest(X, y.astype(bool), params)) == want


def _node_rows(tree, X):
    """The rows of X that reach each node, by walking the arena in preorder."""
    feature, threshold, left, right, _ = _fields(tree)
    rows = {0: np.arange(X.shape[0])}
    for i in range(feature.size):
        if feature[i] >= 0:
            go_left = X[rows[i], feature[i]] <= threshold[i]
            rows[left[i]] = rows[i][go_left]
            rows[right[i]] = rows[i][~go_left]
    return rows


class TestNodeValues:
    @pytest.mark.parametrize("decimals", [None, 0])
    def test_every_node_value_is_its_rows_mean(self, decimals):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(150, 5))
        if decimals is not None:
            X = np.round(X, decimals)
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(np.int64)
        params = ForestParams(n_trees=1, max_depth=9, min_samples_leaf=2)
        tree = fit_tree(X, y, params, tree_rng(3, 0))
        for node, rows in _node_rows(arenas(tree)[0], X).items():
            assert tree.value[node] == y[rows].mean()

    def test_split_between_adjacent_floats(self):
        """(a + b) / 2 rounds up onto b; the split at a keeps b's rows on the
        right, so neither child is empty."""
        a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
        assert (a + b) / 2.0 == b
        X = np.array([[a]] * 3 + [[b]] * 3 + [[2.0]] * 4)
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        tree = fit_tree(X, y, ForestParams(n_trees=1, max_features=1), tree_rng(0, 0))
        assert tree.n_nodes == 3 and tree.threshold[0] == a
        for node, rows in _node_rows(arenas(tree)[0], X).items():
            assert tree.value[node] == y[rows].mean()


def _assert_routes(forest_, Q):
    """Each row of Q meets the intervals of exactly one leaf per tree, the one
    the walk reaches."""
    forest, rank, value, feature, lower, upper = leaf_paths([forest_])
    assert np.all(forest == 0)
    for t, fitted in enumerate(arenas(forest_)):
        mine = rank == t
        assert mine.sum() == np.count_nonzero(np.asarray(fitted["feature"]) < 0)
        f = np.where(feature[mine] >= 0, feature[mine], 0)
        inside = ((lower[mine] < Q[:, f]) & (Q[:, f] <= upper[mine])).all(axis=2)
        assert np.all(inside.sum(axis=1) == 1)
        np.testing.assert_array_equal(value[mine][inside.argmax(axis=1)],
                                      forest_of([fitted], forest_.n_features).predict_proba(Q))


class TestLeafPaths:
    @pytest.mark.parametrize("decimals", [None, 0])
    def test_each_row_reaches_the_leaf_predict_reaches(self, decimals):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 6))
        if decimals is not None:
            X = np.round(X, decimals)
        y = (X[:, 0] * X[:, 1] + X[:, 2] > 0).astype(int)
        fitted = fit_forest(X, y, ForestParams(n_trees=6, max_depth=7, seed=2))
        Q = np.concatenate([rng.normal(size=(300, 6)), np.round(X[:50]), X[:50]])
        _assert_routes(fitted, Q)

    def test_a_looser_repeated_split_keeps_the_tighter_bound(self):
        """Hand-written arena: below x0 <= 1 a split at 2 (never false), and
        above it one at 0.5 (never true); the unreachable leaves get empty
        intervals."""
        tree = dict(
            feature=[0, 0, -1, -1, 0, -1, -1],
            threshold=[1.0, 2.0, 0.0, 0.0, 0.5, 0.0, 0.0],
            left=[1, 2, -1, -1, 5, -1, -1],
            right=[4, 3, -1, -1, 6, -1, -1],
            value=[0.5, 0.5, 0.1, 0.2, 0.5, 0.3, 0.4],
        )
        Q = np.linspace(-1.0, 3.0, 81)[:, None]  # 0.5, 1 and 2 among them
        _assert_routes(forest_of([tree], 1), Q)

    def test_columns_are_distinct_path_features(self):
        rng = np.random.default_rng(14)
        X = np.round(rng.normal(size=(200, 3)), 1)  # few features: many repeats
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        fitted = fit_forest(X, y, ForestParams(n_trees=3, max_depth=10, seed=1))
        _, _, value, feature, lower, upper = leaf_paths([fitted])
        assert feature.shape[1] <= 3
        for row in feature:
            real = row[row >= 0]
            assert real.size == np.unique(real).size
            assert np.all(row[real.size:] == -1)  # padding after the real columns
        pad = feature < 0
        assert np.all(lower[pad] == -np.inf) and np.all(upper[pad] == np.inf)
        assert np.all(lower[~pad] < upper[~pad])

    def test_a_single_leaf_tree(self):
        forest, rank, value, feature, lower, upper = leaf_paths([forest_of([leaf_tree(0.25)], 1)])
        assert forest.tolist() == rank.tolist() == [0] and value.tolist() == [0.25]
        assert np.all(feature == -1) and np.all(np.isinf(lower) & np.isinf(upper))


def _leaf_paths_padded(trees):
    """Reference: ``leaf_paths`` as it was first written, widening every
    column array with ``np.pad`` as a level needs a new column and padding
    each level's leaves to the widest at the end."""
    sizes = [len(tree["feature"]) for tree in trees]
    offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)
    feature, threshold, left, right, value = (
        np.concatenate(field) for field in zip(*map(_fields, trees)))
    left, right = (child + np.repeat(offsets, sizes) for child in (left, right))
    owner = np.repeat(np.arange(len(trees)), sizes)
    node = offsets
    feats = np.full((node.size, 1), -1, dtype=np.int64)
    lower = np.full((node.size, 1), -np.inf)
    upper = np.full((node.size, 1), np.inf)
    used = np.zeros(node.size, dtype=np.int64)
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


def _assert_same_paths(forests):
    """``leaf_paths(forests)`` against the reference over their trees in
    order: each leaf's forest and rank name the reference's flat tree index."""
    (forest, rank, *got), (tree, *want) = leaf_paths(forests), _leaf_paths_padded(
        [t for f in forests for t in arenas(f)])
    n_trees = np.array([len(f.trees) for f in forests])
    np.testing.assert_array_equal((np.cumsum(n_trees) - n_trees)[forest] + rank, tree)
    assert np.all((0 <= rank) & (rank < n_trees[forest]))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


class TestLeafPathsReference:
    """``leaf_paths`` grows its columns in place and returns what the padded
    version returned."""

    @pytest.mark.parametrize("preset", ["paper-br", "paper-cc"])
    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_fitted_forests(self, preset, decimals):
        _, model = _model_forests(preset, decimals)
        forests = getattr(model, "per_label_models", None) or model.chained_models
        _assert_same_paths(forests)
        for f in forests[:3]:
            _assert_same_paths([f])

    def test_hand_written_arenas(self):
        looser = dict(
            feature=[0, 0, -1, -1, 0, -1, -1],
            threshold=[1.0, 2.0, 0.0, 0.0, 0.5, 0.0, 0.0],
            left=[1, 2, -1, -1, 5, -1, -1],
            right=[4, 3, -1, -1, 6, -1, -1],
            value=[0.5, 0.5, 0.1, 0.2, 0.5, 0.3, 0.4],
        )
        scrambled = TestWalkOracle.SCRAMBLED
        for trees in ([leaf_tree(0.25)], [leaf_tree(0.25), leaf_tree(0.5)], [looser],
                      [scrambled], [leaf_tree(0.1), scrambled, looser, leaf_tree(0.9)],
                      [looser, scrambled, scrambled]):
            _assert_same_paths([forest_of(trees, 2)])

    def test_forests_of_different_widths_and_depths_in_one_call(self):
        """BR forests, CC links of growing width and a one-leaf forest, joined
        in one call in an order that mixes widths, depths and tree counts."""
        _, br = _model_forests("paper-br", None, n_trees=3)
        _, cc = _model_forests("paper-cc", 1, n_trees=4)
        stump = forest_of([leaf_tree(0.5), leaf_tree(0.25)], 1)
        links = cc.chained_models
        assert links[0].n_features < links[1].n_features < links[-1].n_features
        forests = [links[3], br.per_label_models[0], stump, links[0],
                   br.per_label_models[5], links[-1], links[1]]
        _assert_same_paths(forests)
        _assert_same_paths(forests[::-1])
