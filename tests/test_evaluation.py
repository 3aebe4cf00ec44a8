import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlshap import (
    METRICS,
    CVReport,
    Dataset,
    ParamGrid,
    fit_mlknn,
    fit_point,
    grid_search,
    hamming_loss,
    make_folds,
    micro_f1,
    split,
    subset_accuracy,
)
from mlshap import _blocks, multilabel
from mlshap.multilabel import predict_mlknn_grid

from _synth import foodtruck_like, planted_dataset

label_matrices = hnp.arrays(np.int64, st.tuples(st.integers(1, 8), st.integers(1, 6)),
                            elements=st.integers(0, 1))


class TestHammingLoss:
    def test_identical(self):
        Y = np.array([[1, 0], [0, 1]])
        assert hamming_loss(Y, Y) == 0.0

    def test_complement(self):
        Y = np.array([[1, 0], [0, 1]])
        assert hamming_loss(Y, 1 - Y) == 1.0

    def test_one_wrong_bit_of_three(self):
        assert hamming_loss(np.array([[1, 0, 1]]), np.array([[1, 0, 0]])) == pytest.approx(1 / 3)

    @settings(max_examples=40, derandomize=True)
    @given(label_matrices)
    def test_self_is_zero(self, Y):
        assert hamming_loss(Y, Y) == 0.0


class TestSubsetAccuracy:
    def test_identical(self):
        Y = np.array([[1, 0], [0, 1]])
        assert subset_accuracy(Y, Y) == 1.0

    def test_every_row_differs(self):
        Y = np.array([[1, 0], [0, 1]])
        P = np.array([[1, 1], [1, 1]])
        assert subset_accuracy(Y, P) == 0.0

    def test_half(self):
        Y = np.array([[1, 0], [0, 1]])
        P = np.array([[1, 0], [1, 1]])
        assert subset_accuracy(Y, P) == 0.5

    @settings(max_examples=40, derandomize=True)
    @given(label_matrices)
    def test_self_is_one(self, Y):
        assert subset_accuracy(Y, Y) == 1.0


class TestMicroF1:
    def test_identical_nonzero(self):
        Y = np.array([[1, 0], [1, 1]])
        assert micro_f1(Y, Y) == 1.0

    def test_no_predicted_positives(self):
        Y = np.array([[1, 0], [1, 1]])
        assert micro_f1(Y, np.zeros_like(Y)) == 0.0

    def test_confusion_count_arithmetic(self):
        # TP=2, FP=1, FN=1 -> 2*TP / (2*TP + FP + FN) = 4/6
        Y_true = np.array([[1, 1, 0], [1, 0, 0]])
        Y_pred = np.array([[1, 1, 1], [0, 0, 0]])
        assert micro_f1(Y_true, Y_pred) == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            micro_f1(np.zeros((2, 2)), np.zeros((2, 3)))


class TestParamGrid:
    def test_cross_product_order(self):
        grid = ParamGrid("mlknn", {"k": [1, 2], "s": [0.5, 1.0]})
        assert grid.points == [
            {"k": 1, "s": 0.5}, {"k": 1, "s": 1.0},
            {"k": 2, "s": 0.5}, {"k": 2, "s": 1.0},
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid("mlknn", {"k": []})

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid("mlknn", {})


def reference_grid_search(dataset, grid, foldplan, scoring="hamming_loss"):
    """One fit and one prediction per (point, rep, fold), points outermost."""
    metric, higher = METRICS[scoring]
    points = grid.points
    all_scores = []
    for params in points:
        point_scores = []
        for rep_pairs in foldplan.assignments:
            for train_idx, test_idx in rep_pairs:
                model = fit_point(grid.algorithm, split(dataset, train_idx), params)
                predicted = model.predict(dataset.features[test_idx])
                point_scores.append(metric(dataset.labels[test_idx], predicted))
        all_scores.append(point_scores)
    means = [np.mean(s) for s in all_scores]
    best = int(np.argmax(means)) if higher else int(np.argmin(means))
    return CVReport(grid.algorithm, scoring, higher, points, all_scores,
                    foldplan.repetitions, foldplan.folds_per_rep, best)


class TestGridSearch:
    def test_single_point_is_best(self, small_dataset):
        plan = make_folds(small_dataset.n_instances, 1, 3, seed=0)
        grid = ParamGrid("mlknn", {"k": [3]})
        report = grid_search(small_dataset, grid, plan)
        assert report.best_index == 0
        assert report.best_params == {"k": 3}

    def test_mlknn_grid_evaluation_counts(self):
        ds = planted_dataset("tune", 60, 4, 2, seed=5)
        plan = make_folds(60, 2, 5, seed=3)
        grid = ParamGrid("mlknn", {"k": list(range(1, 21))})
        report = grid_search(ds, grid, plan)
        assert len(report.points) == 20
        assert all(len(s) == 10 for s in report.scores)
        assert report.total_evaluations == 200

    def test_dominant_point_wins(self):
        # Labels need feature interactions; a depth-1 stump cannot separate
        # them while depth 15 can, so the deep point must win.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 4))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        ds = planted_dataset("dom", 120, 4, 1, seed=0)
        ds = type(ds)("dom", X, ds.feature_names, y[:, None], ds.label_names[:1])
        plan = make_folds(120, 1, 3, seed=1)
        grid = ParamGrid("br", {"max_depth": [1, 15], "n_trees": [10], "seed": [3]})
        report = grid_search(ds, grid, plan)
        assert report.best_params["max_depth"] == 15

    def test_deterministic(self, small_dataset):
        plan = make_folds(small_dataset.n_instances, 1, 4, seed=2)
        grid = ParamGrid("mlknn", {"k": [2, 4]})
        a = grid_search(small_dataset, grid, plan)
        b = grid_search(small_dataset, grid, plan)
        assert a.to_json() == b.to_json()

    def test_unknown_metric(self, small_dataset):
        plan = make_folds(small_dataset.n_instances, 1, 3, seed=0)
        with pytest.raises(ValueError, match="unknown metric"):
            grid_search(small_dataset, ParamGrid("mlknn", {"k": [3]}), plan,
                        scoring="accuracy")

    def test_foldplan_size_mismatch(self, small_dataset):
        plan = make_folds(small_dataset.n_instances - 1, 1, 3, seed=0)
        with pytest.raises(ValueError, match="fold plan"):
            grid_search(small_dataset, ParamGrid("mlknn", {"k": [3]}), plan)

    def test_loss_metric_minimized_ties_first(self):
        ds = planted_dataset("tie", 40, 3, 2, seed=8)
        plan = make_folds(40, 1, 4, seed=0)
        # identical points -> identical scores -> first wins
        grid = ParamGrid("mlknn", {"k": [5, 5]})
        report = grid_search(ds, grid, plan)
        assert report.best_index == 0

    @pytest.mark.parametrize("algorithm, axes, scoring", [
        ("mlknn", {"k": [7, 2, 5]}, "hamming_loss"),
        ("mlknn", {"k": [5, 5]}, "hamming_loss"),
        ("mlknn", {"k": [1, 4, 9], "s": [0.25, 1.0, 2]}, "micro_f1"),
        ("mlknn", {"s": [0.5], "k": list(range(1, 21))}, "subset_accuracy"),
        ("br", {"max_depth": [2, 6], "n_trees": [3], "seed": [4]}, "hamming_loss"),
        ("cc", {"max_depth": [3], "n_trees": [2], "seed": [1, 2]}, "micro_f1"),
    ])
    def test_equals_per_point_reference(self, algorithm, axes, scoring):
        ds = planted_dataset("ref", 90, 5, 3, seed=12)
        ds = type(ds)("ref", np.round(ds.features, 1), ds.feature_names, ds.labels,
                      ds.label_names)  # coarse features, so neighbor distances tie
        plan = make_folds(ds.n_instances, 2, 5, seed=6)
        grid = ParamGrid(algorithm, axes)
        assert grid_search(ds, grid, plan, scoring).to_json() == \
            reference_grid_search(ds, grid, plan, scoring).to_json()

    def test_every_repetition_must_cover_the_dataset(self, small_dataset):
        n = small_dataset.n_instances
        plan = make_folds(n, 2, 4, seed=0)
        train, test = plan.assignments[1][0]
        plan.assignments[1][0] = (train, test[1:])  # row test[0] is never tested
        with pytest.raises(ValueError, match="fold plan"):
            grid_search(small_dataset, ParamGrid("mlknn", {"k": [3]}), plan)


class TestMlknnTune:
    """The ML-kNN tune orders every row's neighbours once, for the whole plan,
    and restricts that order to each pair's train rows."""

    @pytest.mark.parametrize("decimals", [None, 1, 0], ids=["raw", "1dp", "whole"])
    @pytest.mark.parametrize("rows, reps, folds", [(407, 2, 5), (43, 1, 2)],
                             ids=["2x5", "1x2"])
    def test_equals_one_fit_per_point_and_pair(self, monkeypatch, decimals, rows, reps,
                                               folds):
        """Whole-number and 1-decimal features tie at the k-th distance. On
        43 rows the 1 x 2 plan has train rows of 21 and 22, so the order is
        K = 20 + 22 = n - 1 wide."""
        ds = foodtruck_like(seed=4)
        features = ds.features[:rows]
        if decimals is not None:
            features = np.round(features, decimals)
        ds = Dataset(ds.name, features, ds.feature_names, ds.labels[:rows],
                     ds.label_names)
        plan = make_folds(rows, reps, folds, seed=5)
        pairs = [pair for rep_pairs in plan.assignments for pair in rep_pairs]
        grid = ParamGrid("mlknn", {"k": list(range(1, 21)), "s": [0.75]})
        widths = []
        block_order = multilabel._block_order

        def recorded(X, train_features, block, k, exclude_self):
            widths.append(k)
            return block_order(X, train_features, block, k, exclude_self)

        with monkeypatch.context() as spy:
            spy.setattr(multilabel, "_block_order", recorded)
            per_pair = list(predict_mlknn_grid(ds, plan.assignments, grid.points))
        K = 20 + max(rows - train.size for train, _ in pairs)
        assert set(widths) == {K}
        assert (K == rows - 1) == (reps == 1)
        assert len(per_pair) == len(pairs)
        scores = [[] for _ in grid.points]
        for (train, test), predictions in zip(pairs, per_pair):
            for point, predicted, point_scores in zip(grid.points, predictions, scores):
                want = fit_mlknn(split(ds, train), point["k"], point["s"]).predict(
                    ds.features[test])
                assert predicted.dtype == want.dtype
                np.testing.assert_array_equal(predicted, want)
                point_scores.append(micro_f1(ds.labels[test], want))
        best = int(np.argmax([np.mean(s) for s in scores]))
        want_report = CVReport("mlknn", "micro_f1", True, grid.points, scores, reps, folds,
                               best)
        assert grid_search(ds, grid, plan, "micro_f1").to_json() == want_report.to_json()

    # 64 KiB holds one block of all 43 rows (K = 28), its order computed in
    # slices of 10 rows on two threads; 1 byte holds one-row blocks.
    @pytest.mark.parametrize("budget", [2**16, 1], ids=["threads", "one-row-blocks"])
    def test_blocks_and_chunks_change_no_prediction(self, monkeypatch, budget):
        """Blocks and one-row distance chunks predict what the default
        blocks do."""
        ds = planted_dataset("chunks", 43, 5, 3, seed=2)
        plan = make_folds(43, 2, 3, seed=1)
        points = [{"k": k, "s": 1.0} for k in (1, 4, 13)]
        want = list(predict_mlknn_grid(ds, plan.assignments, points))
        chunks = []
        block_order = multilabel._block_order

        def recorded(X, train_features, block, k, exclude_self):
            chunks.append(block.stop - block.start)
            return block_order(X, train_features, block, k, exclude_self)

        monkeypatch.setattr(multilabel, "_block_order", recorded)
        monkeypatch.setattr(multilabel, "_ORDER_CELLS", 1)
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(_blocks, "_WORKERS", 2)
        slices = []
        map_slices = _blocks.map_slices

        def recorded_slices(fn, n_rows, row_bytes):
            slices.append(n_rows)
            return map_slices(fn, n_rows, row_bytes)

        monkeypatch.setattr(_blocks, "map_slices", recorded_slices)
        got = list(predict_mlknn_grid(ds, plan.assignments, points))
        assert chunks == [1] * 43
        assert slices == ([43] if budget > 1 else [1] * 43)
        for got_pair, want_pair in zip(got, want, strict=True):
            for g, w in zip(got_pair, want_pair, strict=True):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("change, message", [
        (lambda train, test: (train[::-1], test), "train rows must be strictly increasing"),
        (lambda train, test: (np.sort(np.append(train, train[3])), test),
         "train rows must be strictly increasing"),
        (lambda train, test: (np.sort(np.append(train, test[0])), test),
         "train and test rows must be disjoint"),
        (lambda train, test: (train, test), None),
    ], ids=["decreasing", "repeated", "overlapping", "as-planned"])
    def test_plans_one_order_cannot_serve_raise(self, small_dataset, change, message):
        plan = make_folds(small_dataset.n_instances, 2, 4, seed=0)
        plan.assignments[1][2] = change(*plan.assignments[1][2])
        grid = ParamGrid("mlknn", {"k": [3]})
        if message is None:
            grid_search(small_dataset, grid, plan)
            return
        with pytest.raises(ValueError, match=re.escape(
                f"fold plan pair (repetition 1, fold 2): {message}")):
            grid_search(small_dataset, grid, plan)


class TestGridValidation:
    @pytest.mark.parametrize("algorithm, axes, match", [
        ("mlknn", {"k": [3], "bogus": [1]}, "'bogus'"),
        ("mlknn", {"k": [3], "max_depth": [2]}, "'max_depth'"),
        ("mlknn", {"kk": [3]}, "'kk'"),
        ("mlknn", {"s": [1.0]}, "'k' is required"),
        ("br", {"k": [3]}, "'k'"),
        ("cc", {"max_depth": 3}, "non-empty list"),
        ("br", {"order": ["random"]}, "'order'"),
    ])
    def test_bad_axes_rejected(self, algorithm, axes, match):
        with pytest.raises(ValueError, match=match):
            ParamGrid(algorithm, axes)

    def test_forest_axes_accepted(self):
        axes = {name: [None] for name in ("n_trees", "max_depth", "min_samples_leaf",
                                          "max_features", "seed", "bootstrap", "order")}
        assert len(ParamGrid("cc", axes).points) == 1

    @pytest.mark.parametrize("algorithm, axes, match", [
        ("mlknn", {"k": [3, 2.5]}, "k must be an integer"),
        ("mlknn", {"k": [3, True]}, "k must be an integer"),
        ("mlknn", {"k": [3, 60]}, "k=60 must be smaller than n_instances=60"),
        ("mlknn", {"k": [3], "s": [1.0, 0.0]}, "smoothing s must be positive"),
        ("br", {"max_depth": [3, 0]}, "max_depth must be at least 1"),
    ])
    def test_every_point_checked_before_the_first_fit(self, monkeypatch, algorithm,
                                                      axes, match):
        ds = planted_dataset("v", 80, 4, 2, seed=1)
        plan = make_folds(80, 1, 4, seed=0)  # 60 train rows per fold

        def no_split(*_):
            raise AssertionError("a fold was fitted before the grid was checked")
        monkeypatch.setattr("mlshap.evaluation.split", no_split)
        with pytest.raises(ValueError, match=match):
            grid_search(ds, ParamGrid(algorithm, axes), plan)
