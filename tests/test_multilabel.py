import json
import math
import re

import numpy as np
import pytest
import scipy.spatial.distance
from scipy.spatial.distance import cdist

from mlshap import (
    Dataset,
    ForestParams,
    fit_br,
    fit_cc,
    fit_forest,
    fit_mlknn,
    load_model,
    make_folds,
    save_model,
    split,
)
from mlshap import _blocks, _json, multilabel
from mlshap.forest import forest_to_doc
from mlshap.cli import main
from mlshap.multilabel import (
    MLKNNModel,
    _block_order,
    _nearest,
    _neighbor_sets,
    _positive_counts,
    _ranking_rhs,
    check_mlknn_params,
    derive_seed,
    model_from_doc,
    predict_mlknn_grid,
)

from _synth import CORPUS_SHAPES, foodtruck_like, planted_dataset, write_arff


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
        assert _json.dumps(a.to_doc()) == _json.dumps(b.to_doc())

    def test_invalid_permutation(self, small_dataset):
        with pytest.raises(ValueError, match="permutation"):
            fit_cc(small_dataset, DET_PARAMS, order=[0, 0, 1])

    def test_links_train_on_earlier_ground_truth_labels(self, small_dataset):
        """Link j is the forest fitted on the features followed by the labels
        of links 0..j-1, byte for byte."""
        params = ForestParams(n_trees=2, max_depth=4, seed=9)
        chain = [2, 0, 1]
        model = fit_cc(small_dataset, params, order=chain)
        from dataclasses import replace
        X, Y = small_dataset.features, small_dataset.labels
        for j, l in enumerate(chain):
            aug = np.column_stack([X] + [Y[:, e].astype(np.float64) for e in chain[:j]])
            link = fit_forest(aug, Y[:, l], replace(params, seed=derive_seed(9, l)))
            assert _json.dumps(forest_to_doc(model.chained_models[j])) == \
                _json.dumps(forest_to_doc(link))

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
        nn = _neighbor_sets(small_dataset.features[7][None], model.train_features,
                            model._ranking, 1)[0]
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

    @pytest.mark.parametrize("k,s", [(1, 1.0), (5, 0.3), (12, 2.5)])
    def test_posterior_equals_the_gathered_formula(self, foodtruck_dataset, k, s):
        """Counts added one neighbor column at a time and the in-place
        posterior give the bits of the (n, k, L) gather and the plain formula."""
        model = fit_mlknn(foodtruck_dataset, k, s)
        nn = np.random.default_rng(k).integers(foodtruck_dataset.n_instances, size=(500, k))
        counts = model.train_labels[nn].sum(axis=1)
        np.testing.assert_array_equal(_positive_counts(model.train_labels, nn), counts)
        cols = np.arange(model.n_labels)[None, :]
        cond_pos = (s + model.cond_counts_pos[cols, counts]) / (
            s * (k + 1) + model.cond_counts_pos.sum(axis=1))
        cond_neg = (s + model.cond_counts_neg[cols, counts]) / (
            s * (k + 1) + model.cond_counts_neg.sum(axis=1))
        p1 = model.priors * cond_pos
        p0 = (1.0 - model.priors) * cond_neg
        assert model._posterior(nn).tobytes() == (p1 / (p1 + p0)).tobytes()

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
        ("k", 0, "k must be at least 1"),
        ("k", 2.5, r"^model: payload\.k is 2\.5, must be an integer$"),
        ("k", 30, "k=30 must be smaller"), ("k", 100, "k=100 must be smaller"),
        ("k", True, r"^model: payload\.k is true, must be an integer$"),
        ("s", -1, "smoothing s must be positive"), ("s", 0, "smoothing s must be positive"),
        ("s", "1", r'^model: payload\.s is "1", must be a finite number$'),
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
        ("train_features", lambda p: p.__setitem__("train_features", {})),
        ("train_features", lambda p: p["train_features"][3].__setitem__(1, "x")),
        ("train_features", lambda p: p["train_features"][3].pop()),
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
        assert ("error: model: payload.train_features[0][0] is NaN, must be a finite "
                "number") in capsys.readouterr().err


def _first_pair(dataset, rounding=None):
    """``dataset`` and the (train, test) rows of the first fold of a 1 x 5
    plan; ``rounding`` coarsens the features so that many neighbor distances
    tie."""
    if rounding is not None:
        dataset = Dataset(dataset.name, np.round(dataset.features, rounding),
                          dataset.feature_names, dataset.labels, dataset.label_names)
    return (dataset, *make_folds(dataset.n_instances, 1, 5, seed=2).assignments[0][0])


def _fold(dataset, rounding=None):
    """Train split and test rows of ``_first_pair``."""
    dataset, train_idx, test_idx = _first_pair(dataset, rounding)
    return split(dataset, train_idx), dataset.features[test_idx]


class TestSharedNeighborOrder:
    """Every k takes the first k columns of one order computed at the widest k."""

    @pytest.mark.parametrize("rounding", [None, 0])
    def test_prefix_statistics_equal_refit_for_every_k(self, foodtruck_dataset, rounding):
        train, X_test = _fold(foodtruck_dataset, rounding)
        loo = _block_order(train.features, slice(0, train.n_instances), 20)
        nn = _nearest(cdist(X_test, train.features, "sqeuclidean"), 20)
        labels = train.labels.astype(np.int64)
        for k in range(1, 21):
            fitted = fit_mlknn(train, k)
            c_pos, c_neg = count_statistics(
                labels, _positive_counts(labels, loo[:, :k]), k)
            np.testing.assert_array_equal(c_pos, fitted.cond_counts_pos)
            np.testing.assert_array_equal(c_neg, fitted.cond_counts_neg)
            assert np.array_equal(fitted._posterior(nn[:, :k]),
                                  fitted.predict_proba(X_test))

    def test_grid_predictions_equal_per_point_fits(self, foodtruck_dataset):
        dataset, train_idx, test_idx = _first_pair(foodtruck_dataset, rounding=0)
        train, X_test = split(dataset, train_idx), dataset.features[test_idx]
        points = [{"k": k, "s": s} for k in (7, 2, 5, 5, 20) for s in (0.5, 1.0)]
        points.append({"k": 3})
        (predictions,) = predict_mlknn_grid(dataset, [[(train_idx, test_idx)]], points)
        for point, predicted in zip(points, predictions):
            expected = fit_mlknn(train, point["k"], point.get("s", 1.0)).predict(X_test)
            np.testing.assert_array_equal(predicted, expected)


def stable_nearest(d2, k):
    """Reference selection: the first k columns of a stable full-row sort."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def loo_statistics(features, labels, k):
    """Reference fit statistics (c_pos, c_neg): each row's k nearest other
    rows by a stable sort of ``cdist`` with an inf diagonal, and per label
    the number of rows with and without it that saw j positive neighbours,
    j in 0..k."""
    d2 = cdist(features, features, "sqeuclidean")
    np.fill_diagonal(d2, np.inf)
    return count_statistics(labels, labels[stable_nearest(d2, k)].sum(axis=1), k)


def count_statistics(labels, counts, k):
    """Reference (c_pos, c_neg) of rows whose k nearest hold ``counts``
    positives of each label: per label, the rows with and without it that
    saw j positive neighbours, j in 0..k."""
    return tuple(np.array([np.bincount(counts[labels[:, l] == value, l], minlength=k + 1)
                           for l in range(labels.shape[1])])
                 for value in (1, 0))


def assert_loo_statistics(model, features, labels):
    c_pos, c_neg = loo_statistics(features, labels, model.k)
    np.testing.assert_array_equal(model.cond_counts_pos, c_pos)
    np.testing.assert_array_equal(model.cond_counts_neg, c_neg)


class TestFitStatistics:
    """The fit's statistics, from ``_plan_statistics`` on the one pair of all
    rows, equal the counts of a stable sort of ``cdist`` with an inf
    diagonal, where rounded features tie at the k-th distance too."""

    @pytest.mark.parametrize("rounding", [None, 1, 0], ids=["raw", "1-decimal", "0-decimal"])
    @pytest.mark.parametrize("k", [1, 5, -1], ids=["1", "5", "n-1"])
    def test_equal_the_stable_sort_oracle(self, foodtruck_dataset, rounding, k):
        features = foodtruck_dataset.features
        if rounding is not None:
            features = np.round(features, rounding)
        labels = foodtruck_dataset.labels
        model = MLKNNModel(k % len(features), 1.0, features, labels)
        assert_loo_statistics(model, features, labels)


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
            np.testing.assert_array_equal(_block_order(X, slice(0, 25), k),
                                          stable_nearest(d2, k))

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
    unblocked query bit for bit, on both paths: prediction's neighbour sets
    (one product and one ``argpartition`` per block, ``cdist`` on the rows it
    does not certify) and the ordered ``cdist`` blocks of the leave-one-out
    order of a fit and of a tune. Here the blocks run on one thread, in order;
    ``TestNeighborBlocksOnTwoThreads`` runs the same cases on two."""

    workers = 1

    @pytest.fixture(autouse=True)
    def _workers(self, monkeypatch):
        monkeypatch.setattr(_blocks, "_WORKERS", self.workers)

    @pytest.fixture()
    def blocks(self, monkeypatch):
        """Records the (rows, n_train) shape of every distance block:
        ``blocks["sets"]`` each product block that ``argpartition`` ranks,
        ``blocks["cdist"]`` each ``cdist`` call."""
        shapes = {"sets": [], "cdist": []}
        argpartition = np.argpartition

        def cdist_spy(XA, XB, metric):
            out = cdist(XA, XB, metric)
            shapes["cdist"].append(out.shape)
            return out

        def argpartition_spy(a, kth, axis):
            shapes["sets"].append(a.shape)
            return argpartition(a, kth, axis=axis)

        monkeypatch.setattr(scipy.spatial.distance, "cdist", cdist_spy)
        monkeypatch.setattr(np, "argpartition", argpartition_spy)
        return shapes

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Records every ``map_slices`` call as (bytes per row, the row slice
        of each block, from whichever thread runs it)."""
        calls = []
        map_slices = _blocks.map_slices

        def spy(fn, n_rows, row_bytes):
            slices = []
            calls.append((row_bytes, slices))

            def recorded(rows):
                slices.append(rows)
                return fn(rows)
            return map_slices(recorded, n_rows, row_bytes)

        monkeypatch.setattr(_blocks, "map_slices", spy)
        return calls

    def assert_shared(self, shapes, call, n_rows, budget):
        """Two threads: each block of one ``map_slices`` call is within half
        the budget (or one row), and its blocks, sorted by start, cover the
        rows."""
        row_bytes, slices = call
        assert all(rows == 1 or rows * row_bytes <= budget // 2 for rows, _ in shapes)
        starts = sorted((rows.start, rows.stop) for rows in slices)
        assert [a for a, _ in starts] == [0] + [b for _, b in starts[:-1]]
        assert starts[-1][1] == n_rows

    @staticmethod
    def set_row_bytes(n_train, n_features):
        """Bytes per query row of a neighbour-set block: 20 per training row
        (the fallback's ``cdist`` block and ``_nearest``'s copies) plus the
        row with its constant column."""
        return 20 * n_train + 8 * (n_features + 1)

    @pytest.mark.parametrize("rows_per_block", [1, 7, 64])
    def test_blocked_query_equals_unblocked(self, foodtruck_dataset, monkeypatch,
                                            blocks, calls, rows_per_block):
        dataset, train_idx, test_idx = _first_pair(foodtruck_dataset, rounding=0)
        train, X_test = split(dataset, train_idx), dataset.features[test_idx]
        n_train = train.n_instances
        row_bytes = self.set_row_bytes(n_train, train.n_features)
        budget = row_bytes * (rows_per_block + 1) - 1
        model = fit_mlknn(train, 5)
        X = np.vstack([X_test, X_test[:3] + 0.5])  # 85 rows: a last block not full
        d2 = cdist(X, train.features, "sqeuclidean")
        loo_d2 = cdist(train.features, train.features, "sqeuclidean")
        np.fill_diagonal(loo_d2, np.inf)
        points = [{"k": k, "s": 0.5} for k in (1, 5, 20)]
        plan = [[(train_idx, test_idx)]]
        with monkeypatch.context() as oracle:
            oracle.setattr(multilabel, "_nearest", stable_nearest)
            (expected_grid,) = predict_mlknn_grid(dataset, plan, points)

        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
        for shapes in blocks.values():
            shapes.clear()
        calls.clear()
        proba = model.predict_proba(X)
        assert [b for b, _ in calls] == [row_bytes]
        if self.workers == 1:
            assert [r for r, _ in blocks["sets"]] == (
                [rows_per_block] * (len(X) // rows_per_block)
                + [len(X) % rows_per_block] * (len(X) % rows_per_block > 0))
        else:
            self.assert_shared(blocks["sets"], calls[0], len(X), budget)
        # Rounded to whole numbers, many rows tie at the k-th distance: the
        # fallback runs, on at most the rows of each block.
        assert 0 < len(blocks["cdist"]) <= len(blocks["sets"])
        assert all(r * row_bytes <= budget for r, _ in blocks["cdist"] + blocks["sets"])
        assert np.array_equal(proba, model._posterior(stable_nearest(d2, 5)))

        blocks["cdist"].clear()
        orders = {}
        block_order = multilabel._block_order

        def recorded(features, rows, k):
            orders[rows.start] = block_order(features, rows, k)
            return orders[rows.start]

        with monkeypatch.context() as spy:
            spy.setattr(multilabel, "_block_order", recorded)
            fitted = fit_mlknn(train, 20)
        np.testing.assert_array_equal(np.vstack([orders[r] for r in sorted(orders)]),
                                      stable_nearest(loo_d2, 20))
        assert_loo_statistics(fitted, train.features, train.labels)
        (grid,) = predict_mlknn_grid(dataset, plan, points)
        for got, want in zip(grid, expected_grid):
            np.testing.assert_array_equal(got, want)
        assert len(blocks["cdist"]) > 3
        assert all(rows * cols * 20 <= budget for rows, cols in blocks["cdist"])
        # The tune orders all n rows, K = 20 + (n - n_train) deep; its
        # distance blocks also hold 24 bytes per order entry, and count twice.
        n = dataset.n_instances
        assert calls[-1][0] == 2 * (20 * n + 24 * (20 + n - n_train))

    def test_a_block_holds_at_least_one_row(self, monkeypatch, blocks, rng):
        train = rng.normal(size=(20, 3))
        labels = (rng.uniform(size=(20, 2)) < 0.5).astype(np.int64)
        X = rng.normal(size=(4, 3))
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", 16)
        model = MLKNNModel(3, 1.0, train, labels)
        assert blocks["cdist"] == [(1, 20)] * 20
        assert_loo_statistics(model, train, labels)
        expected = stable_nearest(cdist(X, train, "sqeuclidean"), 3)
        sets = _neighbor_sets(X, train, _ranking_rhs(train), 3)
        assert blocks["sets"] == [(1, 20)] * 4
        np.testing.assert_array_equal(np.sort(sets, axis=1), np.sort(expected, axis=1))

    def test_default_budget_bounds_every_block(self, blocks, calls, rng):
        train = rng.normal(size=(3000, 2))
        labels = (rng.uniform(size=(3000, 2)) < 0.5).astype(np.int64)
        X = rng.normal(size=(3000, 2))
        MLKNNModel(5, 1.0, train, labels)
        _neighbor_sets(X, train, _ranking_rhs(train), 5)
        order_bytes = 2 * (20 * 3000 + 24 * 5)
        row_bytes = self.set_row_bytes(3000, 2)
        if self.workers == 1:
            # 279 rows per block, each ordered in chunks of 10 rows.
            assert len(calls[0][1]) == 11
            assert len(blocks["cdist"]) == 10 * 28 + 21
            assert len(blocks["sets"]) == 6
        else:
            self.assert_shared(blocks["cdist"], calls[0], 3000, _blocks._BLOCK_BYTES)
            self.assert_shared(blocks["sets"], calls[1], 3000, _blocks._BLOCK_BYTES)
        assert [b for b, _ in calls] == [order_bytes, row_bytes]
        assert sum(r for r, _ in blocks["cdist"]) == 3000
        assert all(r * c <= multilabel._ORDER_CELLS for r, c in blocks["cdist"])
        assert all(r * row_bytes <= _blocks._BLOCK_BYTES for r, _ in blocks["sets"])

    def test_empty_query(self, rng):
        train = rng.normal(size=(5, 3))
        assert _block_order(train, slice(0, 0), 2).shape == (0, 2)
        assert _neighbor_sets(np.empty((0, 3)), train, _ranking_rhs(train), 2).shape == (0, 2)


class TestNeighborBlocksOnTwoThreads(TestNeighborBlocks):
    workers = 2


def _kernel_rows(dataset, seed, n_masks=200, background=20):
    """Synthesized rows as the kernel estimator builds them: instance 3 of
    ``dataset`` on random masks, completed by ``background`` of its rows."""
    rng = np.random.default_rng(seed)
    X = dataset.features
    rows = X[rng.choice(len(X), background, replace=False)]
    masks = rng.uniform(size=(n_masks, X.shape[1])) < 0.5
    return np.where(masks[:, None, :], X[3], rows[None]).reshape(-1, X.shape[1])


class TestNeighborSets:
    """Prediction's neighbour sets (``_neighbor_sets``: one product, one
    ``argpartition``, a certified gap, and ``cdist`` with ``_nearest`` on
    every other row) equal the first k columns of ``cdist`` and ``_nearest``
    as sets."""

    @pytest.fixture()
    def fallback(self, monkeypatch):
        """The number of query rows of each ``cdist`` call."""
        rows = []

        def spy(XA, XB, metric):
            rows.append(XA.shape[0])
            return cdist(XA, XB, metric)

        monkeypatch.setattr(scipy.spatial.distance, "cdist", spy)
        return rows

    @pytest.fixture(params=["numpy", "reversed"])
    def partition_order(self, request, monkeypatch):
        """``np.argpartition`` as numpy orders it, and with each side of the
        k-th position reversed, which its contract (no order within either
        side) allows: then column k - 1 holds the smallest of the first k, not
        the k-th smallest."""
        if request.param == "reversed":
            argpartition = np.argpartition

            def reversed_sides(a, kth, axis):
                part = argpartition(a, kth, axis=axis)
                part[:, :kth] = part[:, kth - 1::-1]
                part[:, kth + 1:] = part[:, :kth:-1]
                return part

            monkeypatch.setattr(np, "argpartition", reversed_sides)
        return request.param

    @staticmethod
    def fallback_rows(X, train, k, fallback):
        """Asserts the sets are ``cdist`` and ``_nearest``'s; returns how many
        rows fell back."""
        fallback.clear()
        got = _neighbor_sets(X, train, _ranking_rhs(train), k)
        rows = sum(fallback)
        want = _nearest(cdist(X, train, "sqeuclidean"), k)
        np.testing.assert_array_equal(np.sort(got, axis=1), np.sort(want, axis=1))
        return rows

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("rounding, low, high", [
        (None, 0, 0), (1, 1, 200), (0, 1000, 3000)], ids=["raw", "1-decimal", "0-decimal"])
    def test_stand_ins(self, seed, rounding, low, high, fallback):
        """4 000 kernel rows against the 407 rows of a foodtruck-like
        stand-in. Raw features never tie; rounded ones tie at the k-th
        distance, more the coarser the rounding, and those rows fall back:
        on seeds 1-3, 24-36 rows at one decimal and 1 823-1 944 at none."""
        ds = foodtruck_like(seed)
        if rounding is not None:
            ds = Dataset(ds.name, np.round(ds.features, rounding), ds.feature_names,
                         ds.labels, ds.label_names)
        X = _kernel_rows(ds, seed)
        assert low <= self.fallback_rows(X, ds.features, 5, fallback) <= high

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_duplicated_integer_rows_all_fall_back(self, k, fallback, partition_order,
                                                   rng):
        """Every training row twice: the distances come in equal pairs, so at
        odd k the k-th and (k+1)-th tie for every row, and only ``_nearest``
        knows which of the two ``cdist`` takes (the lower index)."""
        base = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
        train = np.vstack([base, base[rng.permutation(40)]])
        X = rng.integers(0, 3, size=(500, 4)).astype(np.float64)
        assert self.fallback_rows(X, train, k, fallback) == len(X)

    @pytest.mark.parametrize("levels", [None, 3], ids=["untied", "tied"])
    def test_k_is_one_below_the_training_rows(self, levels, fallback, partition_order,
                                              rng):
        train = (rng.normal(size=(12, 3)) if levels is None
                 else rng.integers(0, levels, size=(12, 3)).astype(np.float64))
        X = np.vstack([rng.normal(size=(30, 3)), train])
        self.fallback_rows(X, train, 11, fallback)

    def test_huge_norms(self, fallback, rng):
        """Scaled together by 1e100, rows still certify. Queries far from
        every training row sit at nearly equal distances from all of them,
        and the bound swamps every gap. From about 1e154 on, 2(|q| + T)²
        overflows and the bound is inf. Either way every row falls back, also
        where ``cdist`` itself overflows to inf."""
        train = rng.normal(size=(30, 3))
        X = rng.normal(size=(50, 3))
        assert self.fallback_rows(X * 1e100, train * 1e100, 4, fallback) == 0
        assert self.fallback_rows(X * 1e100, train, 4, fallback) == len(X)
        assert self.fallback_rows(X * 1e154, train * 1e154, 4, fallback) == len(X)
        for scale in (1e155, 1e200):
            assert self.fallback_rows(X * scale, train, 4, fallback) == len(X)
            assert self.fallback_rows(X, train * scale, 4, fallback) == len(X)

    def test_non_finite_rows_fall_back(self, fallback, rng):
        train = rng.normal(size=(10, 3))
        X = rng.normal(size=(6, 3))
        X[1, 0], X[4, 2], X[5, 1] = math.nan, math.inf, -math.inf
        assert self.fallback_rows(X, train, 3, fallback) == 3

    @pytest.mark.parametrize("corpus, products", [("foodtruck", 11), ("yeast", 1)])
    def test_product_chunks_at_the_corpus_shapes(self, corpus, products, fallback,
                                                 monkeypatch, rng):
        """29-row products at the foodtruck shape, which OpenBLAS keeps on the
        calling thread; one product per block at the yeast shape, where a
        chunk that small would hold one row."""
        n, d, _ = CORPUS_SHAPES[corpus]
        train = rng.normal(size=(n, d))
        X = rng.normal(size=(300, d))
        calls = []
        matmul = np.matmul

        def spy(a, b, out):
            calls.append(a.shape[0])
            return matmul(a, b, out=out)

        monkeypatch.setattr(_blocks, "_WORKERS", 1)
        monkeypatch.setattr(np, "matmul", spy)
        self.fallback_rows(X, train, 5, fallback)
        assert len(calls) == products and sum(calls) == len(X)

    @pytest.mark.parametrize("reach, falls_back", [(1536.0, True), (1024.0, False)])
    def test_bound_is_the_documented_one(self, reach, falls_back, fallback):
        """At q = 0 the product is exact (d_j = |t_j|²), so the gap between
        the nearest two rows is 2**-28. With M = 2 the bound is τ = 4·γ_6·T²:
        at T = 1536 the gap is 0.59 τ and falls back, at T = 1024 it is
        1.33 τ and is certified. A bound half as large, or twice, fails one
        of the two."""
        u = 2.0 ** -53
        tau = 4 * (6 * u / (1 - 6 * u)) * reach ** 2
        assert (2.0 ** -28 < tau) == falls_back
        train = np.array([[reach, 0.0], [1.0, 0.0], [1.0, 2.0 ** -14]])
        assert self.fallback_rows(np.zeros((1, 2)), train, 1, fallback) == falls_back


@pytest.mark.parametrize("rounding", [None, 1])
def test_mlknn_outputs_byte_equal_to_stable_sort_selection(tmp_path, monkeypatch,
                                                           rounding):
    """Whole-model gate: explain JSON and cv_report.json of ML-kNN are the same
    bytes with the stable full sort of ``cdist`` as the selection, in place of
    both prediction's neighbour sets and ``_nearest``."""
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
    monkeypatch.setattr(multilabel, "_neighbor_sets", lambda X, train, rhs, k:
                        stable_nearest(cdist(X, train, "sqeuclidean"), k))
    assert outputs(tmp_path / "oracle") == fast


def _nearest_rows(X, train, k):
    """``_nearest`` of the rows of ``X`` among ``train``, as prediction's
    fallback selects them."""
    return _nearest(cdist(X, train, "sqeuclidean"), k)


class TestKnnIndices:
    """Tie order of ``_nearest`` over ``cdist`` for one query row."""

    def test_self_match(self, small_dataset):
        x = small_dataset.features[7]
        assert _nearest_rows(x[None], small_dataset.features, 1)[0].tolist() == [7]

    def test_points_on_line(self):
        train = np.array([[1.0], [2.0], [3.0]])
        assert _nearest_rows(np.array([[0.0]]), train, 2)[0].tolist() == [0, 1]

    def test_matches_exhaustive_sort(self, rng):
        train = rng.normal(size=(40, 5))
        for _ in range(5):
            q = rng.normal(size=5)
            d = np.array([math.dist(row, q) for row in train])
            expected = sorted(range(40), key=lambda i: (d[i], i))[:6]
            assert _nearest_rows(q[None], train, 6)[0].tolist() == expected

    @pytest.mark.parametrize("k, message", [
        (0, "at least 1"), (-1, "at least 1"), (2.5, "integer"), (2.0, "integer"),
        (True, "integer"), ("2", "integer"), (None, "integer"),
    ])
    def test_bad_k_rejected(self, k, message):
        with pytest.raises(ValueError, match=f"k must be .*{message}"):
            check_mlknn_params(k, 1.0, 3)

    def test_k_equal_to_rows_is_the_full_order(self):
        train = np.array([[2.0], [0.0], [1.0], [0.0]])
        assert _nearest_rows(np.array([[0.0]]), train, 4)[0].tolist() == [1, 3, 2, 0]


class _FixedProba(multilabel.MultiLabelModel):
    """One feature, and the same probability per label for every row."""

    def __init__(self, probas):
        super().__init__(1, len(probas))
        self.probas = np.asarray(probas, dtype=np.float64)

    def _proba_matrix(self, X, labels):
        return np.tile(self.probas[labels], (X.shape[0], 1))


class TestPredictLabels:
    def test_high(self):
        np.testing.assert_array_equal(_FixedProba([0.9, 0.9]).predict(np.zeros(1)),
                                      [1, 1])

    def test_low(self):
        np.testing.assert_array_equal(_FixedProba([0.1, 0.1]).predict(np.zeros(1)),
                                      [0, 0])

    def test_boundary_rounds_up(self):
        np.testing.assert_array_equal(_FixedProba([0.5]).predict(np.zeros(1)), [1])
        np.testing.assert_array_equal(_FixedProba([0.5]).predict(np.zeros((2, 1))),
                                      [[1], [1]])


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

    @pytest.mark.parametrize("maker", MODEL_MAKERS, ids=["br", "cc", "mlknn"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_rejected(self, small_dataset, maker, value, rng):
        model = maker(small_dataset)
        Q = rng.normal(size=(4, small_dataset.n_features))
        Q[2, 1] = value
        for X in (Q, Q[2]):
            with pytest.raises(ValueError, match="must be finite"):
                model.predict_proba(X)
        with pytest.raises(ValueError, match="must be finite"):
            model.label_proba_fn([0])(Q)

    @pytest.mark.parametrize("maker", MODEL_MAKERS)
    def test_json_roundtrip(self, small_dataset, maker, tmp_path, rng):
        model = maker(small_dataset)
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(model, path)
        restored = load_model(path)
        save_model(restored, again)
        assert again.read_bytes() == path.read_bytes()
        Q = rng.normal(size=(6, small_dataset.n_features))
        np.testing.assert_array_equal(restored.predict_proba(Q),
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
    @pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
    def test_model_document_rejects_a_version_that_is_not_the_integer_1(
            self, small_dataset, maker, version):
        doc = maker(small_dataset).to_doc()
        doc["version"] = version
        with pytest.raises(ValueError, match=rf"^model: version is "
                                             rf"{re.escape(json.dumps(version))}, "
                                             "must be 1$"):
            model_from_doc(doc)

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


def _set(field, value, payload=False):
    def edit(doc):
        (doc["payload"] if payload else doc)[field] = value
    return edit


# A bad model document field -> the start of the message loading it raises.
# The small dataset has 6 features and 3 labels.
BAD_FIELDS = {
    "label_names-true": (_set("label_names", True),
                         "model: label_names is true, must be a list"),
    "feature_names-true": (_set("feature_names", True),
                           "model: feature_names is true, must be null or a list"),
    "label_names-number": (_set("label_names", ["a", 2, "c"]),
                           "model: label_names[1] is 2, must be a string"),
    "feature_names-text": (_set("feature_names", "abcdef"),
                           'model: feature_names is "abcdef", must be null or a list'),
    "n_features-text": (_set("n_features", "x"),
                        'model: n_features is "x", must be an integer'),
    "n_features-true": (_set("n_features", True),
                        "model: n_features is true, must be an integer"),
    "n_features-float": (_set("n_features", 6.0),
                         "model: n_features is 6.0, must be an integer"),
    "n_features-99": (_set("n_features", 99), "model: n_features is 99, the payload has 6"),
    "n_features-5": (_set("n_features", 5), "model: n_features is 5, the payload has 6"),
    "n_features-null": (_set("n_features", None), "model: n_features is null"),
    "n_labels-text": (_set("n_labels", "x"), 'model: n_labels is "x", must be an integer'),
    "n_labels-true": (_set("n_labels", True), "model: n_labels is true, must be an integer"),
    "n_labels-99": (_set("n_labels", 99), "model: n_labels is 99, the payload has 3"),
    "n_labels-2": (_set("n_labels", 2), "model: n_labels is 2, the payload has 3"),
}

# Per algorithm, an empty or mistyped payload list -> the start of its message.
BAD_PAYLOADS = {
    "br": (_set("forests", [], payload=True),
           "forests must hold one forest per label, got none"),
    "br-true": (_set("forests", True, payload=True),
                "model: payload.forests is true, must be a list"),
    "cc": (_set("chained_models", [], payload=True),
           "chained_models must hold one forest per label (3), got 0"),
    "cc-number": (_set("chained_models", 3, payload=True),
                  "model: payload.chained_models is 3, must be a list"),
    "cc-no-labels": (lambda doc: doc["payload"].update(chain_order=[], chained_models=[]),
                     "a model needs at least one label, got none"),
}


class TestModelDocumentChecks:
    """A model document whose names, counts or payload lists are malformed
    fails to load with ValueError, so explain exits 1 with an error line."""

    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    @pytest.mark.parametrize("maker", MODEL_MAKERS, ids=["br", "cc", "mlknn"])
    def test_bad_field_raises_value_error(self, small_dataset, maker, case):
        edit, message = BAD_FIELDS[case]
        doc = maker(small_dataset).to_doc()
        edit(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            model_from_doc(doc)

    @pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
    def test_bad_payload_list_raises_value_error(self, small_dataset, case):
        edit, message = BAD_PAYLOADS[case]
        maker = MODEL_MAKERS[0 if case.startswith("br") else 1]
        doc = maker(small_dataset).to_doc()
        edit(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            model_from_doc(doc)

    @pytest.mark.parametrize("entry", [1.5, "0", True])
    def test_chain_order_entries_must_be_integers(self, small_dataset, entry):
        doc = MODEL_MAKERS[1](small_dataset).to_doc()
        doc["payload"]["chain_order"][0] = entry
        with pytest.raises(ValueError, match=rf"^model: payload\.chain_order\[0\] is "
                                             rf"{re.escape(json.dumps(entry))}, "
                                             "must be an integer$"):
            model_from_doc(doc)

    def test_br_forests_of_different_widths(self, small_dataset):
        doc = MODEL_MAKERS[0](small_dataset).to_doc()
        narrow = planted_dataset("narrow", 80, 5, 1, seed=3)
        doc["payload"]["forests"][2] = forest_to_doc(fit_br(
            narrow, ForestParams(n_trees=2, max_depth=3, seed=1)).per_label_models[0])
        with pytest.raises(ValueError, match="^forest 2 has width 5, forest 0 has 6"):
            model_from_doc(doc)

    @pytest.mark.parametrize("case", ["label_names-true", "feature_names-true",
                                      "n_features-text", "n_features-99", "n_labels-99",
                                      "br", "cc"])
    def test_explain_exits_1_with_an_error_line(self, tmp_path, capsys, case):
        ds = planted_dataset("doc", 30, 6, 3, seed=1)
        data = tmp_path / "doc.arff"
        write_arff(ds, data)
        edit, message = BAD_FIELDS.get(case) or BAD_PAYLOADS[case]
        doc = MODEL_MAKERS[1 if case == "cc" else 0](ds).to_doc()
        edit(doc)
        (tmp_path / "model.json").write_text(json.dumps(doc))
        code = main([str(a) for a in ["explain", "--data", data, "--labels", "3",
                                      "--model", tmp_path / "model.json",
                                      "--instance", "0", "--seed", "1",
                                      "--out", tmp_path]])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(tmp_path.glob("explanation_*.json"))
