import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from mlshap import (
    Dataset,
    ForestParams,
    fit_br,
    fit_cc,
    fit_forest,
    fit_mlknn,
    knn_indices,
    load_model,
    make_folds,
    model_from_json,
    model_to_json,
    predict_labels,
    save_model,
    split,
)
from mlshap import _blocks, multilabel
from mlshap.cli import main
from mlshap.multilabel import (
    MLKNNModel,
    _loo_order,
    _nearest,
    _neighbors,
    derive_seed,
    model_from_doc,
    predict_mlknn_grid,
)

from _synth import foodtruck_like, planted_dataset, write_arff


# rng-free forest configuration: no bootstrap, full feature scan, so outputs
# depend only on the training data (seeds become irrelevant).
DET_PARAMS = ForestParams(n_trees=1, max_depth=4, max_features=10**6,
                          bootstrap=False, seed=0)


def mlknn_oracle_scores(train_X, train_Y, query, k, s):
    """Full oracle: fit-time statistics and predict-time posterior, all in python."""
    n, L = train_Y.shape
    # fit statistics with self-exclusion
    c_pos = [[0] * (k + 1) for _ in range(L)]
    c_neg = [[0] * (k + 1) for _ in range(L)]
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (
            sum((float(a) - float(b)) ** 2 for a, b in zip(train_X[j], train_X[i])), j))
        nn = order[:k]
        for l in range(L):
            c = sum(int(train_Y[j, l]) for j in nn)
            if train_Y[i, l] == 1:
                c_pos[l][c] += 1
            else:
                c_neg[l][c] += 1
    # predict without self-exclusion
    order = sorted(range(n), key=lambda j: (
        sum((float(a) - float(b)) ** 2 for a, b in zip(train_X[j], query)), j))
    nn = order[:k]
    out = []
    for l in range(L):
        count = sum(int(train_Y[j, l]) for j in nn)
        m_pos = sum(int(v) for v in train_Y[:, l])
        prior = (s + m_pos) / (2 * s + n)
        cond_pos = (s + c_pos[l][count]) / (s * (k + 1) + sum(c_pos[l]))
        cond_neg = (s + c_neg[l][count]) / (s * (k + 1) + sum(c_neg[l]))
        p1 = prior * cond_pos
        p0 = (1.0 - prior) * cond_neg
        out.append(p1 / (p1 + p0))
    return np.array(out)


class TestBinaryRelevance:
    def test_single_label_equals_one_forest(self, small_dataset):
        ds = Dataset("one", small_dataset.features, small_dataset.feature_names,
                     small_dataset.labels[:, :1], small_dataset.label_names[:1])
        params = ForestParams(n_trees=3, max_depth=4, seed=17)
        model = fit_br(ds, params)
        from dataclasses import replace
        lone = fit_forest(ds.features, ds.labels[:, 0],
                          replace(params, seed=derive_seed(17, 0)))
        np.testing.assert_array_equal(model.predict_proba(ds.features)[:, 0],
                                      lone.predict_proba(ds.features))

    def test_duplicated_label_columns_identical_outputs(self, small_dataset):
        # identical derived seeds are irrelevant under rng-free params, so the
        # duplicate columns must agree exactly
        y = small_dataset.labels[:, :1]
        ds = Dataset("dup", small_dataset.features, small_dataset.feature_names,
                     np.column_stack([y, y]), ["a", "b"])
        model = fit_br(ds, DET_PARAMS)
        proba = model.predict_proba(small_dataset.features)
        np.testing.assert_array_equal(proba[:, 0], proba[:, 1])

    def test_permuting_label_columns_permutes_outputs(self, small_dataset):
        base = fit_br(small_dataset, DET_PARAMS)
        perm = [2, 0, 1]
        permuted_ds = Dataset(
            "perm", small_dataset.features, small_dataset.feature_names,
            small_dataset.labels[:, perm],
            [small_dataset.label_names[i] for i in perm],
        )
        permuted = fit_br(permuted_ds, DET_PARAMS)
        np.testing.assert_array_equal(
            permuted.predict_proba(small_dataset.features),
            base.predict_proba(small_dataset.features)[:, perm],
        )

    def test_independence_bit_exact_with_derived_seeds(self, small_dataset):
        """Permuting the *other* label columns never touches label 0's forest."""
        params = ForestParams(n_trees=4, max_depth=4, seed=31)
        base = fit_br(small_dataset, params)
        swapped = Dataset(
            "sw", small_dataset.features, small_dataset.feature_names,
            small_dataset.labels[:, [0, 2, 1]],
            [small_dataset.label_names[i] for i in [0, 2, 1]],
        )
        other = fit_br(swapped, params)
        np.testing.assert_array_equal(
            base.predict_proba(small_dataset.features)[:, 0],
            other.predict_proba(small_dataset.features)[:, 0],
        )


class TestClassifierChain:
    def test_single_label_equals_br(self, small_dataset):
        ds = Dataset("one", small_dataset.features, small_dataset.feature_names,
                     small_dataset.labels[:, :1], small_dataset.label_names[:1])
        params = ForestParams(n_trees=3, max_depth=4, seed=5)
        br = fit_br(ds, params)
        cc = fit_cc(ds, params, order=[0])
        np.testing.assert_array_equal(br.predict_proba(ds.features),
                                      cc.predict_proba(ds.features))

    def test_explicit_order_widths(self, small_dataset):
        ds = Dataset("two", small_dataset.features, small_dataset.feature_names,
                     small_dataset.labels[:, :2], small_dataset.label_names[:2])
        cc = fit_cc(ds, DET_PARAMS, order=[1, 0])
        assert cc.chained_models[0].n_features == ds.n_features
        assert cc.chained_models[1].n_features == ds.n_features + 1

    def test_random_order_deterministic(self, small_dataset):
        params = ForestParams(n_trees=3, max_depth=4, seed=8)
        a = fit_cc(small_dataset, params, order="random", seed=12)
        b = fit_cc(small_dataset, params, order="random", seed=12)
        assert a.chain_order == b.chain_order
        np.testing.assert_array_equal(a.predict_proba(small_dataset.features),
                                      b.predict_proba(small_dataset.features))
        assert model_to_json(a) == model_to_json(b)

    def test_invalid_permutation(self, small_dataset):
        with pytest.raises(ValueError, match="permutation"):
            fit_cc(small_dataset, DET_PARAMS, order=[0, 0, 1])

    def test_manual_chain_evaluation(self, small_dataset):
        """predict_proba equals hand-run chaining with hard thresholds,
        re-indexed to the original label order."""
        model = fit_cc(small_dataset, ForestParams(n_trees=3, max_depth=4, seed=7),
                       order="random", seed=2)
        X = small_dataset.features[:10]
        aug = X
        by_label = {}
        for j, l in enumerate(model.chain_order):
            p = model.chained_models[j].predict_proba(aug)
            by_label[l] = p
            aug = np.column_stack([aug, (p >= 0.5).astype(float)])
        expected = np.column_stack([by_label[l] for l in range(model.n_labels)])
        np.testing.assert_array_equal(model.predict_proba(X), expected)

    def test_request_runs_links_up_to_the_deepest_position(self, monkeypatch):
        ds = planted_dataset("chain", 80, 6, 5, seed=11)
        model = fit_cc(ds, ForestParams(n_trees=2, max_depth=3, seed=1), seed=3)
        L = model.n_labels
        calls = [0] * L
        for j, link in enumerate(model.chained_models):
            def counted(X, j=j, predict=link.predict_proba):
                calls[j] += 1
                return predict(X)
            monkeypatch.setattr(link, "predict_proba", counted)
        for p in range(L):
            calls[:] = [0] * L
            labels = [model.chain_order[p], model.chain_order[0]]
            model.label_proba_fn(labels)(ds.features[:4])
            assert calls == [1] * (p + 1) + [0] * (L - p - 1)

    def test_one_augmented_matrix_equals_column_stack_chain(self):
        """Every deepest chain position: the in-place augmented matrix gives the
        bits of the chain that column_stacks each decision onto a new copy."""
        ds = planted_dataset("chain", 80, 6, 5, seed=11)
        model = fit_cc(ds, ForestParams(n_trees=3, max_depth=4, seed=1), seed=3)
        X = ds.features[:30]

        def column_stack_chain(labels):
            positions = [model.chain_order.index(l) for l in labels]
            aug, probas = X, []
            for j in range(max(positions) + 1):
                p = model.chained_models[j].predict_proba(aug)
                probas.append(p)
                aug = np.column_stack([aug, (p >= 0.5).astype(np.float64)])
            return np.column_stack([probas[j] for j in positions])

        for p in range(model.n_labels):
            labels = [model.chain_order[p], model.chain_order[0]]
            got = model._proba_matrix(X, labels)
            np.testing.assert_array_equal(got, column_stack_chain(labels))
            assert got.flags.c_contiguous

    def test_constant_link_ignores_earlier_links(self, small_dataset):
        """A pure-leaf link's output cannot depend on what came before it."""
        flipped = Dataset(
            "flip", small_dataset.features, small_dataset.feature_names,
            np.column_stack([1 - small_dataset.labels[:, 0],
                             np.ones(small_dataset.n_instances, dtype=int)]),
            ["first", "always_on"],
        )
        model = fit_cc(flipped, DET_PARAMS, order=[0, 1])
        proba = model.predict_proba(small_dataset.features)
        assert np.all(proba[:, 1] == 1.0)


class TestMLKNN:
    def test_prior_hand_example(self):
        # 4 instances, label present in 2, s=1 -> (1+2)/(2+4) = 0.5
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        Y = np.array([[1], [1], [0], [0]])
        model = fit_mlknn(Dataset("p", X, ["a"], Y, ["y"]), k=2, s=1.0)
        assert model.priors[0] == pytest.approx(0.5)
        assert model.priors[0] == (1.0 + 2.0) / (2.0 + 4.0)

    def test_smoothing_limit_is_empirical_frequency(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        Y = np.array([[1], [0]] * 10)
        model = fit_mlknn(Dataset("s", X, ["a", "b"], Y, ["y"]), k=3, s=1e-12)
        assert model.priors[0] == pytest.approx(0.5, abs=1e-9)

    def test_count_identity(self, small_dataset):
        model = fit_mlknn(small_dataset, k=5)
        np.testing.assert_array_equal(model.cond_counts_pos.sum(axis=1),
                                      small_dataset.labels.sum(axis=0))
        np.testing.assert_array_equal(
            model.cond_counts_neg.sum(axis=1),
            small_dataset.n_instances - small_dataset.labels.sum(axis=0),
        )

    def test_always_positive_label_scores_near_one(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 2))
        Y = np.ones((15, 1), dtype=int)
        model = fit_mlknn(Dataset("deg", X, ["a", "b"], Y, ["y"]), k=3, s=1e-9)
        scores = model.predict_proba(rng.normal(size=(5, 2)))
        assert np.all(scores > 1.0 - 1e-6)

    def test_query_on_training_point_includes_self(self, small_dataset):
        model = fit_mlknn(small_dataset, k=1)
        nn = knn_indices(small_dataset.features, small_dataset.features[7], 1)
        assert nn.tolist() == [7]

    def test_outputs_strictly_inside_unit_interval(self, small_dataset):
        model = fit_mlknn(small_dataset, k=5, s=1.0)
        p = model.predict_proba(small_dataset.features[:20])
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(50, 4))
        Y = (rng.uniform(size=(50, 3)) < 0.4).astype(int)
        ds = Dataset("o", X, [f"f{i}" for i in range(4)], Y, ["a", "b", "c"])
        model = fit_mlknn(ds, k=5, s=1.0)
        for q in rng.uniform(size=(8, 4)):
            expected = mlknn_oracle_scores(X, Y, q, k=5, s=1.0)
            np.testing.assert_array_equal(model.predict_proba(q), expected)

    def test_training_order_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(30, 3))
        Y = (rng.uniform(size=(30, 2)) < 0.5).astype(int)
        ds = Dataset("inv", X, ["a", "b", "c"], Y, ["u", "v"])
        perm = rng.permutation(30)
        shuffled = Dataset("inv2", X[perm], ["a", "b", "c"], Y[perm], ["u", "v"])
        q = rng.uniform(size=(5, 3))
        np.testing.assert_allclose(fit_mlknn(ds, k=4).predict_proba(q),
                                   fit_mlknn(shuffled, k=4).predict_proba(q))

    def test_k_bounds(self, small_dataset):
        with pytest.raises(ValueError):
            fit_mlknn(small_dataset, k=small_dataset.n_instances)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
    def test_non_integer_k_rejected(self, small_dataset, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            fit_mlknn(small_dataset, k=k)

    def test_numpy_integer_k_accepted(self, small_dataset):
        assert fit_mlknn(small_dataset, k=np.int64(3)).k == 3

    @pytest.mark.parametrize("field, value, message", [
        ("k", 0, "k must be at least 1"), ("k", 2.5, "k must be an integer"),
        ("k", 30, "k=30 must be smaller"), ("k", 100, "k=100 must be smaller"),
        ("k", True, "k must be an integer"), ("s", -1, "smoothing s must be positive"),
        ("s", 0, "smoothing s must be positive"), ("s", "1", "smoothing s must be a number"),
    ])
    def test_model_document_rejects_bad_params(self, field, value, message):
        doc = fit_mlknn(planted_dataset("doc", 30, 4, 3, seed=1), k=5).to_doc()
        doc["payload"][field] = value
        with pytest.raises(ValueError, match=message):
            model_from_doc(doc)

    @pytest.mark.parametrize("field, edit", [
        ("train_features", lambda p: p["train_features"][3].__setitem__(1, math.nan)),
        ("train_features", lambda p: p["train_features"][3].__setitem__(1, math.inf)),
        ("train_features", lambda p: p.__setitem__("train_features", [1.0] * 30)),
        ("train_labels", lambda p: p["train_labels"][4].__setitem__(0, 2)),
        ("train_labels", lambda p: p["train_labels"][4].__setitem__(0, 0.5)),
        ("train_labels", lambda p: p["train_labels"].pop()),
        ("train_labels", lambda p: p.__setitem__("train_labels", [1] * 30)),
    ])
    def test_model_document_rejects_bad_training_rows(self, field, edit):
        doc = fit_mlknn(planted_dataset("doc", 30, 4, 3, seed=1), k=5).to_doc()
        edit(doc["payload"])
        with pytest.raises(ValueError, match=field):
            model_from_doc(doc)

    def test_explain_exits_1_on_a_bad_model_document(self, tmp_path, capsys):
        ds = planted_dataset("doc", 30, 4, 3, seed=1)
        data = tmp_path / "doc.arff"
        write_arff(ds, data)
        doc = fit_mlknn(ds, k=5).to_doc()
        doc["payload"]["train_features"][0][0] = math.nan
        (tmp_path / "model.json").write_text(json.dumps(doc))
        code = main([str(a) for a in ["explain", "--data", data, "--labels", "3",
                                      "--model", tmp_path / "model.json",
                                      "--instance", "0", "--seed", "1",
                                      "--out", tmp_path]])
        assert code == 1
        assert "error: train_features must be" in capsys.readouterr().err


def _fold(dataset, rounding=None):
    """Train split and test rows of the first fold of a 1 x 5 plan; ``rounding``
    coarsens the features so that many neighbor distances tie."""
    if rounding is not None:
        dataset = Dataset(dataset.name, np.round(dataset.features, rounding),
                          dataset.feature_names, dataset.labels, dataset.label_names)
    train_idx, test_idx = make_folds(dataset.n_instances, 1, 5, seed=2).assignments[0][0]
    return split(dataset, train_idx), dataset.features[test_idx]


class TestSharedNeighborOrder:
    """Every k takes the first k columns of one order computed at the widest k."""

    @pytest.mark.parametrize("rounding", [None, 0])
    def test_prefix_statistics_equal_refit_for_every_k(self, foodtruck_dataset, rounding):
        train, X_test = _fold(foodtruck_dataset, rounding)
        loo = _loo_order(train.features, 20)
        nn = _nearest(cdist(X_test, train.features, "sqeuclidean"), 20)
        for k in range(1, 21):
            fitted = fit_mlknn(train, k)
            shared = MLKNNModel(k, 1.0, train.features, train.labels, _loo=loo)
            np.testing.assert_array_equal(shared.cond_counts_pos, fitted.cond_counts_pos)
            np.testing.assert_array_equal(shared.cond_counts_neg, fitted.cond_counts_neg)
            np.testing.assert_array_equal(shared.priors, fitted.priors)
            assert np.array_equal(shared._posterior(nn[:, :k]),
                                  fitted.predict_proba(X_test))

    def test_grid_predictions_equal_per_point_fits(self, foodtruck_dataset):
        train, X_test = _fold(foodtruck_dataset, rounding=0)
        points = [{"k": k, "s": s} for k in (7, 2, 5, 5, 20) for s in (0.5, 1.0)]
        points.append({"k": 3})
        for point, predicted in zip(points, predict_mlknn_grid(train, X_test, points)):
            expected = fit_mlknn(train, point["k"], point.get("s", 1.0)).predict(X_test)
            np.testing.assert_array_equal(predicted, expected)


def stable_nearest(d2, k):
    """Reference selection: the first k columns of a stable full-row sort."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class TestNearest:
    """``_nearest`` (the k-th distance by partition, ties at it to the lower
    index) equals the stable full-row sort."""

    @pytest.mark.parametrize("seed", range(6))
    def test_heavy_integer_ties(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            d2 = rng.integers(0, int(rng.integers(1, 5)),
                              size=(int(rng.integers(1, 15)), n)).astype(np.float64)
            for k in range(1, n + 2):
                np.testing.assert_array_equal(_nearest(d2, k), stable_nearest(d2, k))

    @pytest.mark.parametrize("seed", range(3))
    def test_inf_and_nan_entries(self, seed):
        rng = np.random.default_rng(seed)
        d2 = rng.integers(0, 3, size=(40, 12)).astype(np.float64)
        d2[rng.uniform(size=d2.shape) < 0.4] = np.inf
        d2[0] = np.inf
        d2[1:4][rng.uniform(size=(3, 12)) < 0.5] = np.nan
        for k in range(1, 14):
            np.testing.assert_array_equal(_nearest(d2, k), stable_nearest(d2, k))

    def test_leave_one_out_diagonal(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(25, 3)).astype(np.float64)
        d2 = cdist(X, X, "sqeuclidean")
        np.fill_diagonal(d2, np.inf)
        for k in range(1, 26):
            np.testing.assert_array_equal(_nearest(d2, k), stable_nearest(d2, k))
            np.testing.assert_array_equal(_loo_order(X, k), stable_nearest(d2, k))

    def test_tie_straddling_position_k(self):
        d2 = np.array([[3.0, 1.0, 2.0, 2.0, 2.0, 0.0, 2.0],
                       [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
                       [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 1.0]])
        assert _nearest(d2, 3).tolist() == [[5, 1, 2], [0, 1, 2], [5, 4, 6]]
        assert _nearest(d2, 2).tolist() == [[5, 1], [0, 1], [5, 4]]

    @pytest.mark.parametrize("k", [1, 2, 8, 9], ids=["1", "2", "n-1", "n"])
    def test_k_extremes(self, k, rng):
        d2 = np.round(rng.uniform(size=(30, 9)), 1)
        np.testing.assert_array_equal(_nearest(d2, k), stable_nearest(d2, k))

    @pytest.fixture()
    def sorted_shapes(self, monkeypatch):
        """Records the shape of every array ``np.argsort`` sorts."""
        shapes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        return shapes

    @pytest.mark.parametrize("levels", [None, 2], ids=["untied", "tied"])
    def test_only_the_k_selected_are_sorted(self, sorted_shapes, levels, rng):
        d2 = (rng.uniform(size=(50, 40)) if levels is None
              else rng.integers(0, levels, size=(50, 40)).astype(np.float64))
        nn = _nearest(d2, 4)
        assert sorted_shapes == [(50, 4)]
        sorted_shapes.clear()
        np.testing.assert_array_equal(nn, stable_nearest(d2, 4))

    def test_nan_kth_rows_take_the_full_sort(self, sorted_shapes, rng):
        d2 = rng.integers(0, 3, size=(6, 10)).astype(np.float64)
        d2[[1, 4], 2:] = np.nan
        nn = _nearest(d2, 3)
        assert sorted_shapes == [(6, 3), (2, 10)]
        sorted_shapes.clear()
        np.testing.assert_array_equal(nn, stable_nearest(d2, 3))


class TestNeighborBlocks:
    """Queries split into row blocks within ``_blocks._BLOCK_BYTES`` equal the
    unblocked query bit for bit."""

    @pytest.fixture()
    def blocks(self, monkeypatch):
        """Records the (rows, n_train) shape of every distance block."""
        shapes = []

        def spy(XA, XB, metric):
            out = cdist(XA, XB, metric)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(multilabel, "cdist", spy)
        return shapes

    @pytest.mark.parametrize("rows_per_block", [1, 7, 64])
    def test_blocked_query_equals_unblocked(self, foodtruck_dataset, monkeypatch,
                                            blocks, rows_per_block):
        train, X_test = _fold(foodtruck_dataset, rounding=0)
        n_train = train.n_instances
        budget = 16 * n_train * (rows_per_block + 1) - 1
        model = fit_mlknn(train, 5)
        X = np.vstack([X_test, X_test[:3] + 0.5])  # 85 rows: a last block not full
        d2 = cdist(X, train.features, "sqeuclidean")
        loo_d2 = cdist(train.features, train.features, "sqeuclidean")
        np.fill_diagonal(loo_d2, np.inf)
        points = [{"k": k, "s": 0.5} for k in (1, 5, 20)]
        with monkeypatch.context() as oracle:
            oracle.setattr(multilabel, "_nearest", stable_nearest)
            expected_grid = predict_mlknn_grid(train, X, points)

        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
        blocks.clear()
        proba = model.predict_proba(X)
        assert [r for r, _ in blocks] == (
            [rows_per_block] * (len(X) // rows_per_block)
            + [len(X) % rows_per_block] * (len(X) % rows_per_block > 0))
        assert np.array_equal(proba, model._posterior(stable_nearest(d2, 5)))
        np.testing.assert_array_equal(_loo_order(train.features, 20),
                                      stable_nearest(loo_d2, 20))
        for got, want in zip(predict_mlknn_grid(train, X, points), expected_grid):
            np.testing.assert_array_equal(got, want)
        assert len(blocks) > 3
        assert all(rows * cols * 16 <= budget for rows, cols in blocks)

    def test_a_block_holds_at_least_one_row(self, monkeypatch, blocks, rng):
        train = rng.normal(size=(20, 3))
        X = rng.normal(size=(4, 3))
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", 16)
        nn = _neighbors(X, train, 3)
        assert blocks == [(1, 20)] * 4
        np.testing.assert_array_equal(
            nn, stable_nearest(cdist(X, train, "sqeuclidean"), 3))

    def test_default_budget_bounds_every_block(self, blocks, rng):
        train = rng.normal(size=(3000, 2))
        _neighbors(rng.normal(size=(3000, 2)), train, 5)
        assert len(blocks) == 5
        assert all(r * c * 16 <= _blocks._BLOCK_BYTES for r, c in blocks)

    def test_empty_query(self, rng):
        assert _neighbors(np.empty((0, 3)), rng.normal(size=(5, 3)), 2).shape == (0, 2)


@pytest.mark.parametrize("rounding", [None, 1])
def test_mlknn_outputs_byte_equal_to_stable_sort_selection(tmp_path, monkeypatch,
                                                           rounding):
    """Whole-model gate: explain JSON and cv_report.json of ML-kNN are the same
    bytes with the stable full sort as the selection."""
    ds = foodtruck_like()
    if rounding is not None:
        ds = Dataset(ds.name, np.round(ds.features, rounding), ds.feature_names,
                     ds.labels, ds.label_names)
    data = tmp_path / "data.arff"
    write_arff(ds, data)

    def outputs(out):
        common = ["--data", data, "--labels", "12", "--seed", "3"]
        assert main([str(a) for a in ["train", *common, "--preset", "paper-mlknn",
                                      "--out", out]]) == 0
        assert main([str(a) for a in ["explain", *common, "--model", out / "model.json",
                                      "--instance", "17", "--background", "20",
                                      "--budget", "600", "--out", out]]) == 0
        assert main([str(a) for a in ["tune", *common, "--algo", "mlknn",
                                      "--out", out]]) == 0
        files = sorted(out.glob("explanation_*.json")) + [out / "model.json",
                                                          out / "cv_report.json"]
        assert len(files) == 14
        return {f.name: f.read_bytes() for f in files}

    fast = outputs(tmp_path / "fast")
    monkeypatch.setattr(multilabel, "_nearest", stable_nearest)
    assert outputs(tmp_path / "oracle") == fast


class TestKnnIndices:
    def test_self_match(self, small_dataset):
        assert knn_indices(small_dataset.features, small_dataset.features[7],
                           1).tolist() == [7]

    def test_points_on_line(self):
        train = np.array([[1.0], [2.0], [3.0]])
        assert knn_indices(train, np.array([0.0]), 2).tolist() == [0, 1]

    def test_matches_exhaustive_sort(self, rng):
        train = rng.normal(size=(40, 5))
        for _ in range(5):
            q = rng.normal(size=5)
            d = np.array([math.dist(row, q) for row in train])
            expected = sorted(range(40), key=lambda i: (d[i], i))[:6]
            assert knn_indices(train, q, 6).tolist() == expected

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_indices(np.zeros((3, 1)), np.zeros(1), 4)

    @pytest.mark.parametrize("k, message", [
        (0, "at least 1"), (-1, "at least 1"), (2.5, "integer"), (2.0, "integer"),
        (True, "integer"), ("2", "integer"), (None, "integer"),
    ])
    def test_bad_k_rejected(self, k, message):
        with pytest.raises(ValueError, match=f"k must be .*{message}"):
            knn_indices(np.zeros((3, 1)), np.zeros(1), k)

    def test_k_equal_to_rows_is_the_full_order(self):
        train = np.array([[2.0], [0.0], [1.0], [0.0]])
        assert knn_indices(train, np.array([0.0]), 4).tolist() == [1, 3, 2, 0]


class TestPredictLabels:
    def test_high(self):
        np.testing.assert_array_equal(predict_labels(np.array([0.9, 0.9])), [1, 1])

    def test_low(self):
        np.testing.assert_array_equal(predict_labels(np.array([0.1, 0.1])), [0, 0])

    def test_boundary_rounds_up(self):
        np.testing.assert_array_equal(predict_labels(np.array([0.5])), [1])


MODEL_MAKERS = [
    lambda ds: fit_br(ds, ForestParams(n_trees=2, max_depth=3, seed=1)),
    lambda ds: fit_cc(ds, ForestParams(n_trees=2, max_depth=3, seed=1), seed=1),
    lambda ds: fit_mlknn(ds, k=4),
]


class TestModelContract:
    @pytest.mark.parametrize("maker", MODEL_MAKERS)
    def test_output_shape_and_range(self, small_dataset, maker, rng):
        model = maker(small_dataset)
        Q = rng.normal(size=(12, small_dataset.n_features))
        proba = model.predict_proba(Q)
        assert proba.shape == (12, small_dataset.n_labels)
        assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
        one = model.predict_proba(Q[0])
        assert one.shape == (small_dataset.n_labels,)
        np.testing.assert_array_equal(one, proba[0])

    @pytest.mark.parametrize("maker", MODEL_MAKERS)
    def test_json_roundtrip(self, small_dataset, maker, tmp_path, rng):
        model = maker(small_dataset)
        text = model_to_json(model)
        restored = model_from_json(text)
        assert model_to_json(restored) == text
        Q = rng.normal(size=(6, small_dataset.n_features))
        np.testing.assert_array_equal(restored.predict_proba(Q),
                                      model.predict_proba(Q))
        path = tmp_path / "model.json"
        save_model(model, path)
        np.testing.assert_array_equal(load_model(path).predict_proba(Q),
                                      model.predict_proba(Q))

    @pytest.mark.parametrize("maker", MODEL_MAKERS)
    def test_label_subset_is_the_same_columns_bit_for_bit(self, maker, rng):
        ds = planted_dataset("subset", 80, 6, 5, seed=11)
        model = maker(ds)
        Q = rng.normal(size=(12, ds.n_features))
        labels = [3, 0, 2, 3]
        full = model.predict_proba(Q)
        np.testing.assert_array_equal(model.predict_proba(Q, labels), full[:, labels])
        np.testing.assert_array_equal(model.predict_proba(Q[0], labels), full[0, labels])
        np.testing.assert_array_equal(model.label_proba_fn(labels)(Q), full[:, labels])
        for bad in ([5], [-1], []):
            with pytest.raises(ValueError, match="label"):
                model.label_proba_fn(bad)

    @pytest.mark.parametrize("maker", MODEL_MAKERS, ids=["br", "cc", "mlknn"])
    @pytest.mark.parametrize("field, names", [
        ("label_names", ["only"]), ("label_names", ["a", "b", "c", "d"]),
        ("feature_names", ["only"]), ("feature_names", [f"f{i}" for i in range(7)]),
    ])
    def test_model_document_rejects_name_count(self, small_dataset, maker, field, names):
        doc = maker(small_dataset).to_doc()
        doc[field] = names
        with pytest.raises(ValueError, match=f"{field} must have"):
            model_from_doc(doc)

    @pytest.mark.parametrize("field", ["label_names", "feature_names"])
    @pytest.mark.parametrize("maker", MODEL_MAKERS, ids=["br", "cc", "mlknn"])
    def test_explain_exits_1_on_a_wrong_name_count(self, tmp_path, capsys, maker, field):
        ds = planted_dataset("names", 30, 4, 3, seed=1)
        data = tmp_path / "names.arff"
        write_arff(ds, data)
        doc = maker(ds).to_doc()
        doc[field] = ["only"]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        code = main([str(a) for a in ["explain", "--data", data, "--labels", "3",
                                      "--model", tmp_path / "model.json",
                                      "--instance", "0", "--budget", "16",
                                      "--background", "5", "--seed", "1",
                                      "--out", tmp_path]])
        assert code == 1
        assert f"error: {field} must have" in capsys.readouterr().err
        assert not list(tmp_path.glob("explanation_*.json"))
