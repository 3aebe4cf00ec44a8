import numpy as np
import pytest

from mlshap import (
    PRESETS,
    Dataset,
    DecisionTree,
    ForestParams,
    RandomForest,
    entropy,
    fit_forest,
    fit_point,
    fit_tree,
    forest_from_json,
    forest_to_json,
    model_to_json,
    tree_rng,
)
from mlshap import forest
from mlshap.forest import (
    _best_split,
    _entropy_from_positive,
    forest_from_doc,
    forest_to_doc,
    leaf_paths,
)

from _synth import foodtruck_like


def leaf_tree(p):
    return DecisionTree(
        feature=np.array([-1]), threshold=np.array([0.0]),
        left=np.array([-1]), right=np.array([-1]), value=np.array([p]),
    )


class TestEntropy:
    def test_uniform(self):
        assert entropy((1, 1)) == 1.0

    def test_pure(self):
        assert entropy((5, 0)) == 0.0
        assert entropy((0, 5)) == 0.0

    def test_three_one(self):
        # -0.75*log2(0.75) - 0.25*log2(0.25)
        assert entropy((3, 1)) == pytest.approx(0.811278, abs=1e-6)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            entropy((0, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy((-1, 2))

    def test_vectorized_matches_scalar(self):
        # uniform, pure both ways, 3:1 and 1:3, then impure and pure mixed
        neg = np.array([1, 5, 0, 3, 1, 7, 0, 2, 4, 0])
        pos = np.array([1, 0, 5, 1, 3, 0, 9, 2, 1, 1])
        want = np.array([entropy((a, b)) for a, b in zip(neg, pos)])
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
        forest_to_json(fit_forest(X, (X[:, 0] > 0).astype(int), params))

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
        preds = tree.predict(X)
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
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)
        np.testing.assert_array_equal(a.value, b.value)

    def test_depth_budget_respected(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200)
        params = ForestParams(n_trees=1, max_depth=3, max_features=3)
        tree = fit_tree(X, y, params, tree_rng(0, 0))
        assert tree.max_depth() <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        y = rng.integers(0, 2, size=40)
        params = ForestParams(n_trees=1, max_depth=10, min_samples_leaf=5,
                              max_features=2)
        tree = fit_tree(X, y, params, tree_rng(0, 0))
        counts = _leaf_counts(tree, X)
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
        return entropy((int(np.sum(v == 0)), int(np.sum(v == 1))))
    return h(y) - (left.size * h(left) + right.size * h(right)) / y.size


def _leaf_counts(tree, X):
    node = np.zeros(X.shape[0], dtype=int)
    while True:
        feat = tree.feature[node]
        live = feat >= 0
        if not live.any():
            break
        rows = np.nonzero(live)[0]
        at = node[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return np.bincount(node)[np.bincount(node) > 0]


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
        np.testing.assert_array_equal(forest.trees[0].feature, tree.feature)
        np.testing.assert_array_equal(forest.trees[0].threshold, tree.threshold)

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
        a = forest_to_json(fit_forest(X, y, params))
        b = forest_to_json(fit_forest(X, y, params))
        assert a == b

    def test_mean_contract(self):
        forest = RandomForest(
            params=ForestParams(n_trees=2), trees=[leaf_tree(0.2), leaf_tree(0.6)],
            n_features=3,
        )
        assert forest.predict_proba(np.zeros(3)) == 0.4

    @pytest.mark.parametrize("n_trees", [1, 2, 3, 5, 7, 100])
    def test_mean_is_exact_tree_average(self, n_trees):
        """Bit-equal to np.mean over the stacked per-tree predictions."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        forest = fit_forest(X, y, ForestParams(n_trees=n_trees, seed=3))
        Q = rng.normal(size=(20, 4))
        expected = np.mean([t.predict(Q) for t in forest.trees], axis=0)
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
        forest = RandomForest(ForestParams(n_trees=1), [leaf_tree(0.5)], n_features=4)
        with pytest.raises(ValueError, match="width"):
            forest.predict_proba(np.zeros(3))


class TestForestJson:
    def test_roundtrip_identical(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 4))
        y = (X[:, 2] > 0.3).astype(int)
        forest = fit_forest(X, y, ForestParams(n_trees=3, seed=5))
        text = forest_to_json(forest)
        restored = forest_from_json(text)
        assert forest_to_json(restored) == text
        Q = rng.normal(size=(15, 4))
        np.testing.assert_array_equal(restored.predict_proba(Q),
                                      forest.predict_proba(Q))

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a forest"):
            forest_from_json('{"format": "other"}\n')


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


class TestSplitSearchOracle:
    def test_random_nodes_match_per_feature_search(self):
        rng = np.random.default_rng(2024)
        seen = {"none": 0, "split": 0, "tied": 0, "constant": 0, "single": 0}
        for _ in range(800):
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
            want = _best_split_per_feature(X, y, rows, feats, min_leaf)
            assert _best_split(X, y, rows, feats, min_leaf) == want
            seen["none" if want is None else "split"] += 1
        assert min(seen.values()) >= 50, seen

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
        assert _best_split(X, y, rows, feats, min_leaf) is None

    def test_ties_go_to_lowest_feature_then_lowest_threshold(self):
        # Columns 1 and 2 are identical perfect separators at two thresholds.
        X = np.array([[5.0, 0.0, 0.0], [4.0, 1.0, 1.0], [3.0, 2.0, 2.0],
                      [2.0, 3.0, 3.0]])
        y = np.array([0, 1, 1, 0])
        rows, feats = np.arange(4), np.array([1, 2])
        want = _best_split_per_feature(X, y, rows, feats, 1)
        assert want == (1, 0.5)
        assert _best_split(X, y, rows, feats, 1) == want


class TestForestBytesMatchOracle:
    @pytest.mark.parametrize("preset", ["paper-br", "paper-cc"])
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_model_json_identical(self, monkeypatch, preset, decimals):
        ds = foodtruck_like()
        if decimals is not None:
            ds = Dataset(ds.name, np.round(ds.features, decimals), ds.feature_names,
                         ds.labels, ds.label_names)
        params = dict(PRESETS[preset], n_trees=3, seed=7)
        algo = params.pop("algo")
        got = model_to_json(fit_point(algo, ds, params))
        monkeypatch.setattr(forest, "_best_split", _best_split_per_feature)
        want = model_to_json(fit_point(algo, ds, params))
        assert got == want


def _node_rows(tree, X):
    """The rows of X that reach each node, by walking the arena in preorder."""
    rows = {0: np.arange(X.shape[0])}
    for i in range(tree.n_nodes):
        if tree.feature[i] >= 0:
            go_left = X[rows[i], tree.feature[i]] <= tree.threshold[i]
            rows[tree.left[i]] = rows[i][go_left]
            rows[tree.right[i]] = rows[i][~go_left]
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
        for node, rows in _node_rows(tree, X).items():
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
        for node, rows in _node_rows(tree, X).items():
            assert tree.value[node] == y[rows].mean()


def _assert_routes(trees, Q):
    """Each row of Q meets the intervals of exactly one leaf per tree, the one
    ``predict`` reaches."""
    tree, value, feature, lower, upper = leaf_paths(trees)
    for t, fitted in enumerate(trees):
        mine = tree == t
        assert mine.sum() == np.count_nonzero(fitted.feature < 0)
        f = np.where(feature[mine] >= 0, feature[mine], 0)
        inside = ((lower[mine] < Q[:, f]) & (Q[:, f] <= upper[mine])).all(axis=2)
        assert np.all(inside.sum(axis=1) == 1)
        np.testing.assert_array_equal(value[mine][inside.argmax(axis=1)],
                                      fitted.predict(Q))


class TestLeafPaths:
    @pytest.mark.parametrize("decimals", [None, 0])
    def test_each_row_reaches_the_leaf_predict_reaches(self, decimals):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 6))
        if decimals is not None:
            X = np.round(X, decimals)
        y = (X[:, 0] * X[:, 1] + X[:, 2] > 0).astype(int)
        trees = fit_forest(X, y, ForestParams(n_trees=6, max_depth=7, seed=2)).trees
        Q = np.concatenate([rng.normal(size=(300, 6)), np.round(X[:50]), X[:50]])
        _assert_routes(trees, Q)

    def test_a_looser_repeated_split_keeps_the_tighter_bound(self):
        """Hand-written arena: below x0 <= 1 a split at 2 (never false), and
        above it one at 0.5 (never true); the unreachable leaves get empty
        intervals."""
        tree = DecisionTree(
            feature=np.array([0, 0, -1, -1, 0, -1, -1]),
            threshold=np.array([1.0, 2.0, 0.0, 0.0, 0.5, 0.0, 0.0]),
            left=np.array([1, 2, -1, -1, 5, -1, -1]),
            right=np.array([4, 3, -1, -1, 6, -1, -1]),
            value=np.array([0.5, 0.5, 0.1, 0.2, 0.5, 0.3, 0.4]),
        )
        Q = np.linspace(-1.0, 3.0, 81)[:, None]  # 0.5, 1 and 2 among them
        _assert_routes([tree], Q)

    def test_columns_are_distinct_path_features(self):
        rng = np.random.default_rng(14)
        X = np.round(rng.normal(size=(200, 3)), 1)  # few features: many repeats
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        trees = fit_forest(X, y, ForestParams(n_trees=3, max_depth=10, seed=1)).trees
        tree, value, feature, lower, upper = leaf_paths(trees)
        assert feature.shape[1] <= 3
        for row in feature:
            real = row[row >= 0]
            assert real.size == np.unique(real).size
            assert np.all(row[real.size:] == -1)  # padding after the real columns
        pad = feature < 0
        assert np.all(lower[pad] == -np.inf) and np.all(upper[pad] == np.inf)
        assert np.all(lower[~pad] < upper[~pad])

    def test_a_single_leaf_tree(self):
        tree, value, feature, lower, upper = leaf_paths([leaf_tree(0.25)])
        assert tree.tolist() == [0] and value.tolist() == [0.25]
        assert np.all(feature == -1) and np.all(np.isinf(lower) & np.isinf(upper))
