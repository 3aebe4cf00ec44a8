import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from mlshap import (
    EstimationError,
    ExplainTarget,
    exact_shapley,
    explain_instance,
    explanation_from_doc,
    explanation_to_doc,
    fit_br,
    fit_cc,
    fit_forest,
    fit_mlknn,
    ForestParams,
    RandomForest,
    kernel_shap,
    kernel_weight,
    load_explanation,
    sample_background,
    save_explanation,
    solve_weighted_ls,
)
from mlshap import _blocks, multilabel
from mlshap.data import Dataset
from mlshap.evaluation import PRESETS
from mlshap.forest import forest_to_doc
from mlshap.shapley import (
    ESTIMATORS,
    Explanation,
    _at_instance,
    _coalition_budget,
    _coalition_values,
    _sample_coalitions,
    _synthesized,
    _tree_pass,
    resolve_estimator,
    tree_shap,
)

from _synth import planted_dataset


def linear_target(w):
    w = np.asarray(w, dtype=np.float64)
    return ExplainTarget(f=lambda X: X @ w, n_features=w.shape[0])


def forest_target(M, seed, n_trees=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(120, M))
    y = (X[:, 0] * X[:, 1 % M] + X[:, 2 % M] > 0).astype(int)
    forest = fit_forest(X, y, ForestParams(n_trees=n_trees, max_depth=5, seed=seed))
    return ExplainTarget(f=forest.predict_proba, n_features=M)


class TestEvalCoalition:
    """The coalition values: ``_coalition_values`` per mask, and the empty and
    full coalitions as ``exact_shapley``'s base value and f(x)."""

    def test_full_mask_is_fx_exactly(self, rng):
        target = forest_target(4, seed=1)
        x = rng.normal(size=4)
        bg = rng.normal(size=(7, 4))
        assert exact_shapley(target, x, bg).fx == float(target.f(x[None])[0])

    def test_empty_mask_is_background_mean(self, rng):
        target = forest_target(4, seed=2)
        x = rng.normal(size=4)
        bg = rng.normal(size=(9, 4))
        expected = float(np.mean(target.f(bg)))
        assert exact_shapley(target, x, bg).base_value == \
            pytest.approx(expected, abs=1e-12)
        assert _coalition_values(target, x, np.zeros((1, 4), dtype=bool), bg,
                                 1)[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_linear_single_background_closed_form(self, rng):
        w = rng.normal(size=5)
        target = linear_target(w)
        x = rng.normal(size=5)
        b = rng.normal(size=(1, 5))
        mask = np.array([True, False, True, False, False])
        blended = np.where(mask, x, b[0])
        assert _coalition_values(target, x, mask[None], b, 1)[0, 0] == \
            pytest.approx(float(w @ blended))

    def test_width_mismatch(self, rng):
        target = linear_target(rng.normal(size=3))
        with pytest.raises(ValueError):
            exact_shapley(target, np.zeros(2), np.zeros((1, 3)))


class TestExactShapley:
    def test_linear_closed_form(self, rng):
        w = rng.normal(size=6)
        target = linear_target(w)
        x = rng.normal(size=6)
        b = rng.normal(size=(1, 6))
        expl = exact_shapley(target, x, b)
        np.testing.assert_allclose(expl.phi, w * (x - b[0]), atol=1e-9)
        assert expl.local_accuracy_gap() <= 1e-9

    def test_dummy_axiom(self, rng):
        w = np.array([1.5, 0.0, -2.0])  # feature 1 is ignored
        expl = exact_shapley(linear_target(w), rng.normal(size=3),
                             rng.normal(size=(4, 3)))
        assert abs(expl.phi[1]) <= 1e-12

    def test_symmetry_axiom(self):
        target = ExplainTarget(f=lambda X: X[:, 0] * X[:, 1] + X[:, 2],
                               n_features=3)
        x = np.array([2.0, 2.0, 5.0])
        bg = np.array([[0.5, 0.5, 1.0]])
        expl = exact_shapley(target, x, bg)
        assert expl.phi[0] == pytest.approx(expl.phi[1], abs=1e-12)

    def test_cap_enforced(self, rng):
        target = linear_target(rng.normal(size=17))
        with pytest.raises(ValueError, match="capped"):
            exact_shapley(target, np.zeros(17), np.zeros((1, 17)))


class TestKernelWeight:
    def test_m4_z1(self):
        assert kernel_weight(4, 1) == pytest.approx(0.25)

    def test_m2_z1(self):
        assert kernel_weight(2, 1) == pytest.approx(0.5)

    def test_symmetry(self):
        for M in (3, 5, 8, 12):
            for z in range(1, M):
                assert kernel_weight(M, z) == pytest.approx(kernel_weight(M, M - z))

    @pytest.mark.parametrize("z", [0, 5])
    def test_constraint_sizes_rejected(self, z):
        with pytest.raises(ValueError):
            kernel_weight(5, z)


def _documented_rows(M, budget):
    """E + 2 * ((budget - E) // 2), E the rows of the size pairs that fit."""
    enumerated = 0
    for z in range(1, M // 2 + 1):
        pair = math.comb(M, z) * (1 if 2 * z == M else 2)
        if enumerated + pair > budget:
            break
        enumerated += pair
    return enumerated + 2 * ((budget - enumerated) // 2)


def _codes(masks):
    return (masks.astype(np.int64) << np.arange(masks.shape[1])).sum(axis=1)


class TestSampleCoalitions:
    @pytest.mark.parametrize("M", range(2, 15))
    def test_paired_rows_over_a_budget_sweep(self, M):
        full = (1 << M) - 1
        total = full - 1
        budgets = {2, 3, total - 1, total} | {
            int(b) + d for b in np.linspace(2, total - 1, 10) for d in (0, 1)}
        for budget in sorted(b for b in budgets if 2 <= b <= total):
            masks, weights = _sample_coalitions(M, budget, np.random.default_rng(budget))
            assert masks.shape == (_documented_rows(M, budget), M) == (len(weights), M)
            sizes = masks.sum(axis=1)
            assert ((sizes > 0) & (sizes < M)).all()
            # Closed under complement, each row paired with its complement at
            # the same weight: the (mask, weight) multiset is its own complement.
            rows = sorted(zip(_codes(masks).tolist(), weights.tolist()))
            flipped = sorted(zip((full ^ _codes(masks)).tolist(), weights.tolist()))
            assert rows == flipped

    @pytest.mark.parametrize("M", range(2, 15))
    def test_full_budget_is_every_proper_coalition(self, M):
        masks, weights = _sample_coalitions(M, _coalition_budget("full", M),
                                            np.random.default_rng(0))
        assert len(set(_codes(masks).tolist())) == len(masks) == (1 << M) - 2
        assert weights.tolist() == [kernel_weight(M, int(z)) for z in masks.sum(axis=1)]

    def test_wide_target_large_budget(self):
        masks, weights = _sample_coalitions(40, 300_000, np.random.default_rng(0))
        assert masks.shape == (_documented_rows(40, 300_000), 40) == (300_000, 40)
        assert len(weights) == 300_000


class TestDualGame:
    """Shapley values of the dual game are the negated values of the game:
    explaining x against background r is the dual of explaining r against x,
    so with complement-paired coalitions the two estimates cancel."""

    M = 12

    @pytest.fixture(scope="class")
    def game(self):
        X = np.random.default_rng(0).normal(size=(300, self.M))
        y = (X[:, 0] * X[:, 1] + X[:, 2] * X[:, 3] - X[:, 4] > 0).astype(int)
        forest = fit_forest(X, y, ForestParams(n_trees=10, max_depth=6, seed=5))
        x, r = np.random.default_rng(1).normal(size=(2, self.M))
        return ExplainTarget(f=forest.predict_proba, n_features=self.M), x, r

    @pytest.mark.parametrize("budget", [200, 201, 1000, 1001])
    def test_game_and_dual_cancel(self, game, budget):
        target, x, r = game
        for seed in range(20):
            phi = kernel_shap(target, x, r[None], budget=budget, seed=seed).phi
            dual = kernel_shap(target, r, x[None], budget=budget, seed=seed).phi
            assert np.abs(phi + dual).max() <= 1e-12

    def test_error_falls_with_the_budget(self, game):
        target, x, r = game
        exact = exact_shapley(target, x, r[None]).phi
        medians = [np.median([
            np.abs(kernel_shap(target, x, r[None], budget=budget, seed=seed).phi
                   - exact).max() for seed in range(20)])
            for budget in (200, 1000, 3000)]
        assert medians[0] > medians[1] > medians[2]


class TestKernelShap:
    def test_full_budget_matches_exact(self, rng):
        target = forest_target(8, seed=3)
        bg = rng.normal(size=(6, 8))
        for _ in range(5):
            x = rng.normal(size=8)
            ex = exact_shapley(target, x, bg)
            ks = kernel_shap(target, x, bg, budget="full", seed=0)
            np.testing.assert_allclose(ks.phi, ex.phi, atol=1e-6)

    def test_linear_closed_form(self, rng):
        w = rng.normal(size=7)
        target = linear_target(w)
        x = rng.normal(size=7)
        b = rng.normal(size=(1, 7))
        expl = kernel_shap(target, x, b, budget="full", seed=1)
        np.testing.assert_allclose(expl.phi, w * (x - b[0]), atol=1e-6)

    def test_local_accuracy_at_tiny_budget(self, rng):
        target = forest_target(9, seed=4)
        bg = rng.normal(size=(5, 9))
        for budget in (18, 40, 100):
            expl = kernel_shap(target, rng.normal(size=9), bg, budget=budget, seed=2)
            assert expl.local_accuracy_gap() <= 1e-9

    def test_seed_determinism(self, rng):
        target = forest_target(10, seed=5)
        bg = rng.normal(size=(4, 10))
        x = rng.normal(size=10)
        a = kernel_shap(target, x, bg, budget=60, seed=7)
        b = kernel_shap(target, x, bg, budget=60, seed=7)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_single_feature(self, rng):
        target = linear_target(np.array([2.0]))
        x = np.array([3.0])
        b = np.array([[1.0]])
        expl = kernel_shap(target, x, b, budget=10, seed=0)
        np.testing.assert_allclose(expl.phi, [4.0])

    def test_budget_too_small_raises(self, rng):
        target = forest_target(6, seed=6)
        with pytest.raises(EstimationError):
            kernel_shap(target, rng.normal(size=6), rng.normal(size=(3, 6)),
                        budget=2, seed=0)

    def test_full_budget_cap(self, rng):
        target = linear_target(rng.normal(size=17))
        with pytest.raises(ValueError, match="capped"):
            kernel_shap(target, np.zeros(17), np.zeros((1, 17)), budget="full")

    def test_budget_below_two_rejected(self, rng):
        target = linear_target(rng.normal(size=4))
        with pytest.raises(ValueError, match="at least 2"):
            kernel_shap(target, np.zeros(4), np.zeros((1, 4)), budget=1)

    @pytest.mark.parametrize("budget", [2.5, True, "7", np.float64(40.0)])
    def test_budget_must_be_an_integer_or_full(self, rng, budget):
        target = linear_target(rng.normal(size=4))
        with pytest.raises(ValueError, match='budget must be an integer or "full"'):
            kernel_shap(target, np.zeros(4), np.zeros((1, 4)), budget=budget)

    def test_numpy_integer_budget_equals_int(self, rng):
        target = forest_target(6, seed=6)
        x, bg = rng.normal(size=6), rng.normal(size=(3, 6))
        np.testing.assert_array_equal(
            kernel_shap(target, x, bg, budget=np.int64(20), seed=1).phi,
            kernel_shap(target, x, bg, budget=20, seed=1).phi)

    def test_wide_target_default_budget(self, rng):
        # sampling path: M far beyond the enumeration cap
        w = rng.normal(size=24)
        target = linear_target(w)
        x = rng.normal(size=24)
        b = rng.normal(size=(1, 24))
        expl = kernel_shap(target, x, b, budget=500, seed=3)
        assert expl.local_accuracy_gap() <= 1e-9
        np.testing.assert_allclose(expl.phi, w * (x - b[0]), atol=1e-6)


class TestSolveWeightedLs:
    def test_identity_design(self):
        A = np.eye(4)
        y = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(solve_weighted_ls(A, np.ones(4), y), y)

    def test_doubled_weight_equals_duplicated_row(self, rng):
        A = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        w = np.ones(6)
        w2 = w.copy()
        w2[4] = 2.0
        A_dup = np.vstack([A, A[4]])
        y_dup = np.append(y, y[4])
        np.testing.assert_allclose(
            solve_weighted_ls(A, w2, y),
            solve_weighted_ls(A_dup, np.ones(7), y_dup), atol=1e-10,
        )

    def test_matrix_rhs_equals_column_by_column_solves(self, rng):
        A = rng.normal(size=(40, 6)) + np.eye(40, 6)
        w = rng.uniform(0.5, 2.0, size=40)
        Y = rng.normal(size=(40, 3))
        ours = solve_weighted_ls(A, w, Y)
        assert ours.shape == (6, 3)
        for j in range(3):
            np.testing.assert_allclose(ours[:, j], solve_weighted_ls(A, w, Y[:, j]),
                                       rtol=0, atol=1e-12)

    def test_matches_iterative_solver(self, rng):
        A = rng.normal(size=(40, 6)) + np.eye(40, 6)
        w = rng.uniform(0.5, 2.0, size=40)
        y = rng.normal(size=40)
        ours = solve_weighted_ls(A, w, y)
        sw = np.sqrt(w)
        reference = scipy.sparse.linalg.lsqr(A * sw[:, None], y * sw, atol=1e-14,
                                             btol=1e-14)[0]
        np.testing.assert_allclose(ours, reference, atol=1e-8)

    def test_rank_deficiency(self):
        A = np.zeros((5, 2))
        with pytest.raises(EstimationError, match="rank-deficient"):
            solve_weighted_ls(A, np.ones(5), np.zeros(5))

    def test_underdetermined(self):
        with pytest.raises(EstimationError):
            solve_weighted_ls(np.ones((2, 3)), np.ones(2), np.ones(2))

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            solve_weighted_ls(np.eye(2), np.array([1.0, 0.0]), np.ones(2))


class TestExplainInstance:
    def test_constant_model_zero_phi(self, small_dataset, rng):
        ds = small_dataset

        class Constant:
            n_features = ds.n_features
            n_labels = ds.n_labels
            feature_names = ds.feature_names

            def label_proba_fn(self, labels):
                return lambda X: np.full((np.asarray(X).shape[0], len(labels)), 0.37)

        expls = explain_instance(Constant(), ds.features[0], ds.features[:10],
                                 labels=[0, 1], estimator="exact")
        for expl in expls:
            np.testing.assert_allclose(expl.phi, 0.0, atol=1e-12)
            assert expl.base_value == pytest.approx(expl.fx)

    def test_four_labels_give_four_explanations(self, rng):
        ds = planted_dataset("many", 60, 5, 14, seed=3)
        model = fit_br(ds, ForestParams(n_trees=2, max_depth=3, seed=0))
        bg = sample_background(ds.features, size=8, seed=0)
        expls = explain_instance(model, ds.features[5], bg, labels=[1, 2, 12, 13],
                                 estimator="kernel", budget=32, seed=1, instance=5)
        assert [e.label for e in expls] == [1, 2, 12, 13]
        assert all(e.instance == 5 for e in expls)

    def test_exact_vs_kernel_full_per_label(self, small_dataset):
        model = fit_br(small_dataset, ForestParams(n_trees=3, max_depth=3, seed=2))
        bg = sample_background(small_dataset.features, size=6, seed=1)
        x = small_dataset.features[3]
        exact = explain_instance(model, x, bg, labels=[0, 1, 2], estimator="exact")
        kern = explain_instance(model, x, bg, labels=[0, 1, 2], estimator="kernel",
                                budget="full")
        for a, b in zip(exact, kern):
            np.testing.assert_allclose(a.phi, b.phi, atol=1e-6)

    @pytest.mark.parametrize("estimator", ["exact", "kernel"])
    @pytest.mark.parametrize("fit", [
        lambda ds: fit_br(ds, ForestParams(n_trees=3, max_depth=4, seed=1)),
        lambda ds: fit_cc(ds, ForestParams(n_trees=3, max_depth=3, seed=1), seed=2),
        lambda ds: fit_mlknn(ds, k=5),
    ], ids=["br", "cc", "mlknn"])
    def test_label_subset_matches_per_label_reference(self, fit, estimator):
        """One coalition pass for all labels gives each label's one-label answer."""
        ds = planted_dataset("subset", 80, 6, 5, seed=11)
        model = fit(ds)
        bg = sample_background(ds.features, size=8, seed=0)
        x = ds.features[9]
        labels = [3, 0, 2]
        expls = explain_instance(model, x, bg, labels, estimator=estimator,
                                 budget=40, seed=2, instance=9)
        assert [e.label for e in expls] == labels
        for expl, l in zip(expls, labels):
            target = ExplainTarget(f=lambda X: model.predict_proba(X)[:, l],
                                   n_features=ds.n_features)
            ref = (exact_shapley(target, x, bg) if estimator == "exact"
                   else kernel_shap(target, x, bg, budget=40, seed=2))
            np.testing.assert_allclose(expl.phi, ref.phi, rtol=0, atol=1e-12)
            assert expl.base_value == ref.base_value
            assert expl.fx == ref.fx == model.predict_proba(x)[l]

    @pytest.mark.parametrize("estimator", [*ESTIMATORS, "tree_shap"])
    @pytest.mark.parametrize("where", ["instance", "background"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_non_finite_input_rejected(self, small_dataset, estimator, where, bad):
        """Leaf-path padding (bounds -inf, inf) is met by finite values only,
        and a NaN meets no threshold, so no estimator takes either, nor a
        direct ``tree_shap`` call."""
        model = fit_br(small_dataset, ForestParams(n_trees=2, max_depth=3, seed=0))
        x = small_dataset.features[0].copy()
        bg = small_dataset.features[1:6].copy()
        (x if where == "instance" else bg[2])[1] = bad
        with pytest.raises(ValueError, match=f"^{where} must be finite"):
            if estimator == "tree_shap":
                tree_shap(model.per_label_models[:2], x, bg)
            else:
                explain_instance(model, x, bg, labels=[0, 1], estimator=estimator)

    @pytest.mark.parametrize("fit", [
        lambda ds: fit_br(ds, ForestParams(n_trees=2, max_depth=3, seed=0)),
        lambda ds: fit_mlknn(ds, k=3),
    ], ids=["br", "mlknn"])
    def test_label_ids_must_be_integers(self, small_dataset, fit):
        """Truncated, 2.7 would explain label 2."""
        model = fit(small_dataset)
        x, bg = small_dataset.features[0], small_dataset.features[1:6]
        with pytest.raises(ValueError, match="^label id must be an integer, got 2.7"):
            explain_instance(model, x, bg, labels=[2.7])

    @pytest.mark.parametrize("x, bg, message", [
        (lambda x: x, lambda bg: bg[:0], "background must be a non-empty matrix"),
        (lambda x: x, lambda bg: np.column_stack([bg, bg[:, :1]]),
         "background must be a non-empty matrix of target width"),
        (lambda x: x[:-1], lambda bg: bg, r"instance width \(5,\) does not match"),
        (lambda x: x[None], lambda bg: bg, r"instance width \(1, 6\) does not match"),
    ], ids=["empty-background", "wide-background", "short-x", "matrix-x"])
    def test_tree_shap_checks_shapes_as_exact_shapley(self, small_dataset, x, bg, message):
        model = fit_br(small_dataset, ForestParams(n_trees=2, max_depth=3, seed=0))
        forests = model.per_label_models
        target = ExplainTarget(f=model.label_proba_fn([0, 1, 2]), n_features=6)
        x, bg = x(small_dataset.features[0]), bg(small_dataset.features[1:6])
        for call in (lambda: tree_shap(forests, x, bg),
                     lambda: exact_shapley(target, x, bg)):
            with pytest.raises(ValueError, match=f"^{message}"):
                call()

    def test_tree_shap_forests_share_the_instance_width(self, small_dataset):
        model = fit_br(small_dataset, ForestParams(n_trees=2, max_depth=3, seed=0))
        narrow = fit_forest(small_dataset.features[:, :5], small_dataset.labels[:, 0],
                            ForestParams(n_trees=2, max_depth=3, seed=0))
        forests = [*model.per_label_models[:2], narrow]
        x, bg = small_dataset.features[0], small_dataset.features[1:6]
        with pytest.raises(ValueError, match="^forest 2 has width 5, the instance has width 6"):
            tree_shap(forests, x, bg)

    def test_tree_shap_without_forests(self):
        with pytest.raises(ValueError, match="^forests must hold at least one forest, got none"):
            tree_shap([], np.zeros(3), np.zeros((2, 3)))

    def test_unknown_estimator(self, small_dataset):
        model = fit_br(small_dataset, ForestParams(n_trees=1, max_depth=2, seed=0))
        with pytest.raises(ValueError, match="estimator"):
            explain_instance(model, small_dataset.features[0],
                             small_dataset.features[:5], labels=[0],
                             estimator="bogus")


def _multi_forest_target(M, L, seed):
    """An (n, L) target: L forests on the same features."""
    forests = [forest_target(M, seed + l, n_trees=3).f for l in range(L)]
    return ExplainTarget(f=lambda X: np.column_stack([f(X) for f in forests]),
                         n_features=M)


def _mask_bytes(B, M, L):
    """Bytes one mask costs a coalition block: its B synthesized rows and the
    target's (B, L) output with its transposed copy."""
    return 8 * B * (M + 2 * L)


class TestCoalitionBlocks:
    """Masks run in blocks within ``_blocks._BLOCK_BYTES``; however they are
    cut, phi, base_value and fx are the same bits as in one block."""

    @pytest.mark.parametrize("L", [None, 3])
    @pytest.mark.parametrize("per_block", [7.5, 1, 0.5])
    def test_coalition_values_and_estimators(self, monkeypatch, rng, L, per_block):
        M, B = 6, 5
        target = (forest_target(M, seed=8) if L is None
                  else _multi_forest_target(M, L, seed=8))
        x, bg = rng.normal(size=M), rng.normal(size=(B, M))
        masks = rng.random((40, M)) < 0.5
        n_out = 1 if L is None else L

        def run():
            return (_coalition_values(target, x, masks, bg, n_out),
                    exact_shapley(target, x, bg),
                    kernel_shap(target, x, bg, budget=30, seed=4))

        values, *whole = run()
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", int(per_block * _mask_bytes(B, M, n_out)))
        blocked_values, *blocked = run()
        np.testing.assert_array_equal(blocked_values, values)
        for got, want in zip(blocked, whole):
            got, want = (got, want) if L else ([got], [want])
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.phi, w.phi)
                assert (g.base_value, g.fx) == (w.base_value, w.fx)

    @pytest.mark.parametrize("estimator", [None, "kernel"])
    @pytest.mark.parametrize("fit", [
        lambda ds: fit_br(ds, ForestParams(n_trees=3, max_depth=4, seed=1)),
        lambda ds: fit_cc(ds, ForestParams(n_trees=3, max_depth=3, seed=1), seed=2),
        lambda ds: fit_mlknn(ds, k=5),
    ], ids=["br", "cc", "mlknn"])
    @pytest.mark.parametrize("budget", [1, "one mask"])
    def test_explain_instance(self, monkeypatch, fit, estimator, budget):
        ds = planted_dataset("blocks", 80, 6, 4, seed=11)
        model = fit(ds)
        bg = sample_background(ds.features, size=8, seed=0)
        labels = [3, 0, 2]

        def run(labels):
            return explain_instance(model, ds.features[9], bg, labels,
                                    estimator=estimator, budget=40, seed=2)

        whole, whole_one = run(labels), run([1])
        if budget == "one mask":
            budget = _mask_bytes(8, 6, len(labels))
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
        for got, want in zip(run(labels) + run([1]), whole + whole_one):
            np.testing.assert_array_equal(got.phi, want.phi)
            assert (got.base_value, got.fx, got.label) == \
                (want.base_value, want.fx, want.label)

    @pytest.mark.parametrize("fit", [
        lambda ds: fit_br(ds, ForestParams(n_trees=3, max_depth=2, seed=1)),
        lambda ds: fit_cc(ds, ForestParams(n_trees=3, max_depth=2, seed=1), seed=2),
    ], ids=["br", "cc"])
    @pytest.mark.parametrize("room", ["tables", "rows"])
    def test_tables_within_the_budget_or_rows(self, monkeypatch, fit, room):
        """A budget of twice the tables' bytes holds them, and leaves a few
        masks per block; two bytes less, and every row is synthesized, in as
        many blocks. Either way every bit of the explanations stays."""
        ds = planted_dataset("shares", 120, 6, 4, seed=5)
        model = fit(ds)
        bg = sample_background(ds.features, size=8, seed=0)
        x, labels = ds.features[9], [3, 0, 2]

        def run():
            return explain_instance(model, x, bg, labels, estimator="kernel", budget=40,
                                    seed=2)

        whole = run()
        nbytes = 8 * 8 * sum(_sizes(model, labels))
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", 2 * nbytes - 2 * (room == "rows"))
        tables = model.coalition_fn(labels)(x, bg, 41)  # 40 masks and the empty one
        assert (tables is None) == (room == "rows")
        blocks = []
        map_slices = _blocks.map_slices

        def spy(fn, n_rows, row_bytes, budget=None):
            return map_slices(lambda rows: blocks.append(n_rows) or fn(rows), n_rows,
                              row_bytes, budget)

        monkeypatch.setattr(_blocks, "map_slices", spy)
        for got, want in zip(run(), whole):
            np.testing.assert_array_equal(got.phi, want.phi)
            assert (got.base_value, got.fx) == (want.base_value, want.fx)
        assert blocks.count(41) > 4

    @pytest.mark.parametrize("algo", ["br", "cc"])
    def test_a_block_holds_no_more_than_it_counts(self, algo):
        """Many shallow trees on one background row: a block of masks holds
        little per tree and background row, and mostly each tree's key. The
        allocations one block's outputs make stay within its masks times
        the bytes per mask the tables count, and the tables within half
        the budget."""
        ds = planted_dataset("many-trees", 80, 6, 4, seed=3)
        params = ForestParams(n_trees=60, max_depth=2, seed=1)
        model = fit_br(ds, params) if algo == "br" else fit_cc(ds, params, seed=2)
        labels = [0, 1, 2, 3]
        n = 2000
        masks = _masks(np.random.default_rng(0), n, 6)
        outputs, row_bytes, budget = model.coalition_fn(labels)(ds.features[7],
                                                                ds.features[:1], n)
        assert row_bytes >= 8 * 60  # the key of every tree of a forest, per mask
        assert budget >= _blocks._BLOCK_BYTES // 2
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            outputs(masks)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= n * row_bytes

    @pytest.mark.parametrize("budget", [None, 7 * _mask_bytes(50, 20, 12) + 1])
    def test_every_block_fits_the_budget(self, monkeypatch, rng, budget):
        """A target spy sees each block's masks x bytes per mask within the
        budget; the default budget cuts a 2 088-mask, 50-row background into
        blocks too."""
        M, B, L = 20, 50, 12
        if budget is not None:
            monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
        W = rng.normal(size=(M, L))
        calls = []

        def f(X):
            calls.append(X.shape[0])
            return X @ W

        kernel_shap(ExplainTarget(f=f, n_features=M), rng.normal(size=M),
                    rng.normal(size=(B, M)), seed=0)
        assert calls[0] == 1  # f(x); the empty coalition is the blocks' last mask
        blocks = [rows // B for rows in calls[1:]]
        assert all(rows % B == 0 for rows in calls[1:])
        assert sum(blocks) == 2 * M + 2048 + 1 and len(blocks) > 1
        assert all(n * _mask_bytes(B, M, L) <= _blocks._BLOCK_BYTES
                   for n in blocks if n > 1)


def _links(model, labels):
    """The forests a BR or CC model evaluates for ``labels``."""
    if isinstance(model, multilabel.CCModel):
        return model.chained_models[:max(model.chain_order.index(l) for l in labels) + 1]
    return [model.per_label_models[l] for l in labels]


def _sizes(model, labels):
    """Per tree of ``_links``, 2^k for the k distinct features it splits on."""
    return [1 << feats.size for forest in _links(model, labels)
            for feats in forest.tree_features]


def _targets(model, labels):
    """The model's target with its coalition tables, and without them."""
    f = model.label_proba_fn(labels)
    return (ExplainTarget(f=f, n_features=model.n_features,
                          coalitions=model.coalition_fn(labels)),
            ExplainTarget(f=f, n_features=model.n_features))


def _assert_tables_match_rows(model, labels, x, bg, masks):
    """The tables are built, and per (mask, background row), and as
    ``_coalition_values`` means, give exactly what the synthesized rows
    give."""
    tables, rows = _targets(model, labels)
    planned = tables.coalitions(x, bg, masks.shape[0])
    assert planned is not None
    outputs, _, budget = planned
    got = outputs(masks)
    want = _synthesized(rows.f, len(labels), x, bg, masks.shape[0])[0](masks)
    assert got.shape == (masks.shape[0], len(labels), bg.shape[0]) and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert _blocks._BLOCK_BYTES // 2 <= budget < _blocks._BLOCK_BYTES
    assert np.array_equal(_coalition_values(tables, x, masks, bg, len(labels)),
                          _coalition_values(rows, x, masks, bg, len(labels)))


def _masks(rng, n, M):
    """n random masks, the empty and the full one among them."""
    masks = rng.random((n, M)) < 0.5
    masks[0], masks[-1] = False, True
    return masks


_CC_PARAMS = ForestParams(n_trees=3, max_depth=3, seed=1)
# Depth-3 trees split at most 7 times, so 2^7 masks cover every table.
_N_MASKS = 128


class TestCoalitionTables:
    """BR and CC forests evaluate coalitions from one table of leaf values per
    (tree, background row) when every tree's table is worth filling and all
    fit half the budget, and from synthesized rows otherwise; every output
    is the bits the synthesized rows give."""

    @pytest.fixture(scope="class")
    def cc(self):
        ds = planted_dataset("tables", 150, 6, 4, seed=7)
        return ds, fit_cc(ds, _CC_PARAMS, seed=3)

    def test_cc_links_read_chain_columns(self, cc, rng):
        ds, model = cc
        labels = [0, 1, 2, 3]
        assert any((feats >= 6).any() for forest in _links(model, labels)
                   for feats in forest.tree_features)
        _assert_tables_match_rows(model, labels, ds.features[20], ds.features[:9],
                                  _masks(rng, _N_MASKS, 6))

    def test_deepest_position_below_the_last_link(self, cc, rng):
        ds, model = cc
        labels = [model.chain_order[1], model.chain_order[0]]
        assert len(_links(model, labels)) == 2 < model.n_labels
        _assert_tables_match_rows(model, labels, ds.features[31], ds.features[40:47],
                                  _masks(rng, _N_MASKS, 6))

    @pytest.mark.parametrize("fit", [
        lambda ds: fit_br(ds, _CC_PARAMS),
        lambda ds: fit_cc(ds, _CC_PARAMS, seed=3),
    ], ids=["br", "cc"])
    def test_single_leaf_trees(self, fit, rng):
        """A label no row holds grows one-leaf forests; in the others, tree 1
        is made a single leaf, beside trees that split. A single leaf reads
        no feature: its table is one value per background row."""
        ds = planted_dataset("leaves", 120, 6, 3, seed=2)
        labels = ds.labels.copy()
        labels[:, 1] = 0
        ds = Dataset(ds.name, ds.features, ds.feature_names, labels, ds.label_names)
        doc = fit(ds).to_doc()
        payload = doc["payload"]
        for forest in payload.get("forests") or payload["chained_models"]:
            forest["trees"][1] = {"feature": [-1], "threshold": [0.0], "left": [-1],
                                  "right": [-1], "value": [0.25]}
        model = multilabel.model_from_doc(doc)
        links = _links(model, [0, 1, 2])
        leaves = [list(forest.depth == 0) for forest in links]
        assert any(all(leaf) for leaf in leaves) and any(not all(leaf) for leaf in leaves)
        assert [[feats.size == 0 for feats in forest.tree_features] for forest in links] == \
            leaves
        _assert_tables_match_rows(model, [0, 1, 2], ds.features[3], ds.features[10:16],
                                  _masks(rng, _N_MASKS, 6))

    def test_values_on_a_split_threshold(self, cc, rng):
        """x and a background row sit exactly on split thresholds, which send
        them left (``<=``) both in the table walk and in the row walk."""
        ds, model = cc
        x, bg = ds.features[11].copy(), ds.features[50:56].copy()
        link = model.chained_models[0]
        roots = link.trees
        x[link.feature[roots[0]]] = link.threshold[roots[0]]
        bg[2, link.feature[roots[1]]] = link.threshold[roots[1]]
        second = model.chained_models[1]
        split = np.flatnonzero(second.split & (second.feature < 6))[-1]
        x[second.feature[split]] = second.threshold[split]
        _assert_tables_match_rows(model, [0, 1, 2, 3], x, bg, _masks(rng, _N_MASKS, 6))

    def test_link_output_of_one_half_decides_one(self, cc, rng):
        """Every leaf of link 0 set to 0.5: its output is exactly 0.5, a 1 in
        the later links' keys as in ``CCModel._proba_matrix``."""
        ds, model = cc
        doc = model.to_doc()
        for tree in doc["payload"]["chained_models"][0]["trees"]:
            tree["value"] = [0.5] * len(tree["value"])
        model = multilabel.model_from_doc(doc)
        assert any((feats == 6).any() for forest in model.chained_models[1:]
                   for feats in forest.tree_features)
        _assert_tables_match_rows(model, [0, 1, 2, 3], ds.features[5], ds.features[70:76],
                                  _masks(rng, _N_MASKS, 6))

    def test_a_tree_past_the_masks_synthesizes_every_row(self, rng):
        """One tree whose 2^k exceeds the masks, and every row of the call is
        synthesized, the trees with small tables' too; with as many masks as
        its 2^k, all the trees hold tables."""
        ds = planted_dataset("deep", 200, 10, 2, seed=9)
        model = fit_br(ds, ForestParams(n_trees=6, max_depth=4, seed=4))
        x, bg = ds.features[0], ds.features[100:108]
        sizes = _sizes(model, [0, 1])
        assert min(sizes) < max(sizes)
        tables, rows = _targets(model, [0, 1])
        assert tables.coalitions(x, bg, max(sizes) - 1) is None
        masks = _masks(rng, max(sizes) - 1, 10)
        assert np.array_equal(_coalition_values(tables, x, masks, bg, 2),
                              _coalition_values(rows, x, masks, bg, 2))
        _assert_tables_match_rows(model, [0, 1], x, bg, _masks(rng, max(sizes), 10))

    @pytest.mark.parametrize("algo", ["br", "cc"])
    def test_kernel_base_value_from_the_tables(self, cc, algo):
        """With one mask only one-leaf trees could use a table: a one-mask
        call synthesizes its rows, as ``predict_proba`` reads them. The
        kernel estimator reads its base value from the tables instead, as
        the last mask of its one coalition call, to the same bits."""
        ds, model = cc
        if algo == "br":
            model = fit_br(ds, _CC_PARAMS)
        x, bg = ds.features[4], ds.features[60:70]
        with_tables, rows = _targets(model, [3, 1])
        assert with_tables.coalitions(x, bg, 1) is None
        assert with_tables.coalitions(x, bg, 41) is not None
        base, fx = _one_mask_base_and_fx(rows, x, bg)
        for got, want in zip(_one_mask_base_and_fx(with_tables, x, bg), (base, fx)):
            assert got.tobytes() == want.tobytes()
        for target in (with_tables, rows):
            explanations = kernel_shap(target, x, bg, budget=40, seed=2)
            assert [e.base_value for e in explanations] == base.tolist()
            assert [e.fx for e in explanations] == fx.tolist()

    def test_exact_shapley_on_cc(self, cc):
        """Depth-2 links split at most 3 times, so exact's 2^6 masks use the
        tables."""
        ds, _ = cc
        model = fit_cc(ds, ForestParams(n_trees=3, max_depth=2, seed=1), seed=3)
        tables, rows = _targets(model, [2, 0, 3])
        x, bg = ds.features[17], ds.features[80:87]
        assert tables.coalitions(x, bg, 1 << 6) is not None
        for got, want in zip(exact_shapley(tables, x, bg), exact_shapley(rows, x, bg)):
            assert np.array_equal(got.phi, want.phi)
            assert (got.base_value, got.fx) == (want.base_value, want.fx)

    def test_masks_and_budget_choose_tables_or_rows(self, cc, monkeypatch):
        """Tables are built when the largest 2^k is at most the masks and the
        B·2^k float64 values of all of them fit half the budget; the blocks
        then run within what they leave of it."""
        ds, model = cc
        labels = [0, 1, 2, 3]
        x, bg = ds.features[1], ds.features[90:95]
        sizes = _sizes(model, labels)
        nbytes = 8 * 5 * sum(sizes)
        coalitions = model.coalition_fn(labels)
        for n_masks, budget, built in ((max(sizes), 2 * nbytes, True),
                                       (max(sizes) - 1, 2 * nbytes, False),
                                       (1 << 20, 2 * nbytes - 2, False)):
            monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
            planned = coalitions(x, bg, n_masks)
            assert (planned is not None) == built
            if built:
                assert planned[2] == budget - nbytes

    @pytest.mark.parametrize("algo", ["br", "cc"])
    def test_repeated_and_unordered_labels(self, cc, algo, rng):
        """A label asked for twice, after a lower one: each column holds its
        label's output, one forest's in two columns."""
        ds, model = cc
        if algo == "br":
            model = fit_br(ds, _CC_PARAMS)
        _assert_tables_match_rows(model, [2, 0, 2], ds.features[8], ds.features[100:106],
                                  _masks(rng, _N_MASKS, 6))


def _br_case(name, params, n=90, d=8, L=3, seed=0, decimals=None):
    """A BR model on a planted dataset, its background and one instance.

    A ``positives`` entry in ``params`` keeps only that many positive rows of
    label 0, so a bootstrap sample may hold none and grow a single leaf."""
    params = dict(params)
    positives = params.pop("positives", None)
    ds = planted_dataset(name, n, d, L, seed=seed)
    features, labels = ds.features, ds.labels.copy()
    if decimals is not None:  # coarse values: repeated features and thresholds
        features = np.round(features, decimals)
    if positives is not None:
        labels[np.flatnonzero(labels[:, 0])[positives:], 0] = 0
    ds = Dataset(ds.name, features, ds.feature_names, labels, ds.label_names)
    model = fit_br(ds, ForestParams(**params))
    return model, sample_background(ds.features, size=7, seed=seed), ds.features[3]


def _forest_params(preset, **overrides):
    """The ForestParams fields of a training preset, with overrides."""
    params = dict(PRESETS[preset], **overrides)
    return {k: v for k, v in params.items() if k in ForestParams.__dataclass_fields__}


BR_CASES = {
    "paper-br": _forest_params("paper-br", n_trees=4, seed=1),
    "paper-cc-forests": _forest_params("paper-cc", n_trees=5, seed=3),
    "defaults": dict(n_trees=4, seed=2),
    "min-leaf-5": dict(n_trees=3, max_depth=8, min_samples_leaf=5, seed=4),
    "no-bootstrap": dict(n_trees=3, max_depth=6, bootstrap=False, seed=5),
    "stumps": dict(n_trees=6, max_depth=1, seed=6),
    "all-features": dict(n_trees=3, max_depth=10, max_features=8, seed=7),
    "deep": dict(n_trees=3, max_depth=25, min_samples_leaf=1, seed=9),
    "rare-label": dict(n_trees=8, max_depth=25, min_samples_leaf=1, seed=0,
                       positives=2),
}


class TestTreeShap:
    """``estimator="tree"`` against the oracles, on BR forests."""

    @pytest.mark.parametrize("decimals", [None, 0], ids=["continuous", "integer"])
    @pytest.mark.parametrize("case", sorted(BR_CASES))
    def test_matches_exact_and_full_kernel(self, case, decimals):
        model, bg, x = _br_case(case, BR_CASES[case], decimals=decimals)
        labels = [2, 0, 1]
        tree = explain_instance(model, x, bg, labels, estimator="tree", instance=3)
        exact = explain_instance(model, x, bg, labels, estimator="exact")
        kern = explain_instance(model, x, bg, labels, estimator="kernel", budget="full")
        assert [e.label for e in tree] == labels
        for t, e, k in zip(tree, exact, kern):
            np.testing.assert_allclose(t.phi, e.phi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t.phi, k.phi, rtol=0, atol=1e-10)
            assert t.local_accuracy_gap() <= 1e-12
            assert t.base_value == k.base_value and t.fx == k.fx
            assert t.instance == 3 and t.feature_names == model.feature_names
        _assert_base_and_fx_bit_equal(model.per_label_models, x, bg)

    @pytest.mark.parametrize("decimals", [None, 0], ids=["continuous", "integer"])
    def test_rare_label_mixes_single_leaves_and_deep_trees(self, decimals):
        """The "rare-label" case tests what it is named for."""
        model, _, _ = _br_case("rare", BR_CASES["rare-label"], decimals=decimals)
        depths = []
        for tree in forest_to_doc(model.per_label_models[0])["trees"]:
            depth = np.zeros(len(tree["feature"]), dtype=np.int64)
            for i in np.flatnonzero(np.array(tree["feature"]) >= 0):  # children follow parents
                depth[[tree["left"][i], tree["right"][i]]] = depth[i] + 1
            depths.append(depth.max())
        assert min(depths) == 0 and max(depths) >= 6

    def test_instance_and_background_on_the_thresholds(self):
        """x <= threshold goes left: values equal to a threshold, as predict sends them."""
        model, bg, x = _br_case("ties", BR_CASES["defaults"], decimals=0)
        trees = [t for f in model.per_label_models for t in forest_to_doc(f)["trees"]]
        split = np.concatenate([t["feature"] for t in trees]) >= 0
        feats = np.concatenate([t["feature"] for t in trees])[split]
        thresholds = np.concatenate([t["threshold"] for t in trees])[split]
        rng = np.random.default_rng(0)
        x, bg = x.copy(), bg.copy()
        for row in (x, *bg):
            for j in rng.choice(feats.size, size=6, replace=False):
                row[feats[j]] = thresholds[j]
        tree = explain_instance(model, x, bg, [0, 1, 2], estimator="tree")
        exact = explain_instance(model, x, bg, [0, 1, 2], estimator="exact")
        for t, e in zip(tree, exact):
            np.testing.assert_allclose(t.phi, e.phi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bg_shape", ["vector", "one-row"])
    def test_single_background_row(self, bg_shape):
        model, bg, x = _br_case("one", BR_CASES["paper-br"])
        b = bg[0] if bg_shape == "vector" else bg[:1]
        tree = explain_instance(model, x, b, [0, 1, 2], estimator="tree")
        exact = explain_instance(model, x, b, [0, 1, 2], estimator="exact")
        for t, e in zip(tree, exact):
            np.testing.assert_allclose(t.phi, e.phi, rtol=0, atol=1e-12)
            assert t.base_value == e.base_value
        np.testing.assert_array_equal(tree_shap(model.per_label_models[:3], x, b),
                                      [t.phi for t in tree])
        _assert_base_and_fx_bit_equal(model.per_label_models, x, b)

    def test_constant_forest_gets_zero_phi(self):
        ds = planted_dataset("const", 40, 5, 2, seed=3)
        labels = ds.labels.copy()
        labels[:, 1] = 1  # every tree of label 1 is one leaf
        ds = Dataset(ds.name, ds.features, ds.feature_names, labels, ds.label_names)
        model = fit_br(ds, ForestParams(n_trees=3, max_depth=4, seed=0))
        bg = ds.features[:6]
        tree = explain_instance(model, ds.features[7], bg, [1, 0], estimator="tree")
        assert np.all(tree[0].phi == 0.0) and tree[0].fx == 1.0
        exact = explain_instance(model, ds.features[7], bg, [0], estimator="exact")
        np.testing.assert_allclose(tree[1].phi, exact[0].phi, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(tree_shap(model.per_label_models[1:], ds.features[7], bg),
                                      np.zeros((1, 5)))
        for forests in (model.per_label_models[1:], model.per_label_models[::-1]):
            _assert_base_and_fx_bit_equal(forests, ds.features[7], bg)

    @pytest.mark.parametrize("budget", [1, 1 << 14])
    def test_blocks_match_one_block(self, monkeypatch, budget):
        """One background row per block (budget 1) or a few, against one block."""
        model, bg, x = _br_case("blocks", BR_CASES["defaults"], d=10)
        forests = model.per_label_models
        whole = tree_shap(forests, x, bg)
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES", budget)
        np.testing.assert_allclose(tree_shap(forests, x, bg), whole, rtol=0, atol=1e-14)
        _assert_base_and_fx_bit_equal(forests, x, bg)

    def test_default_on_br_is_tree(self):
        model, bg, x = _br_case("default", BR_CASES["paper-br"])
        default = explain_instance(model, x, bg, [0, 2], seed=5, instance=3)
        tree = explain_instance(model, x, bg, [0, 2], estimator="tree", instance=3)
        for d, t in zip(default, tree):
            np.testing.assert_array_equal(d.phi, t.phi)
            assert (d.base_value, d.fx, d.label) == (t.base_value, t.fx, t.label)

    def test_wide_model(self):
        """Beyond the enumeration cap: local accuracy, and the dummy axiom for
        every feature no tree of the label splits on."""
        model, bg, x = _br_case("wide", dict(n_trees=3, max_depth=12, seed=8), d=40)
        for expl in explain_instance(model, x, bg, [0, 1, 2]):
            assert expl.local_accuracy_gap() <= 1e-12
            used = {f for t in forest_to_doc(model.per_label_models[expl.label])["trees"]
                    for f in t["feature"] if f >= 0}
            unused = sorted(set(range(40)) - used)
            assert np.all(expl.phi[unused] == 0.0)

    @pytest.mark.parametrize("fit", [
        lambda ds: fit_cc(ds, ForestParams(n_trees=2, max_depth=3, seed=1), seed=2),
        lambda ds: fit_mlknn(ds, k=5),
    ], ids=["cc", "mlknn"])
    def test_refused_beyond_br(self, small_dataset, fit):
        model = fit(small_dataset)
        reason = {"cc": "not a sum of leaf values", "mlknn": "neighbor label counts"}
        with pytest.raises(ValueError, match=reason[model.algorithm]):
            explain_instance(model, small_dataset.features[0],
                             small_dataset.features[:5], labels=[0], estimator="tree")
        assert resolve_estimator(model) == "kernel"


def _one_mask_base_and_fx(target, x, background):
    """The base value (the empty coalition's value, from a one-mask
    ``_coalition_values`` call) and f(x) (``_at_instance``) of ``target``."""
    fx, _ = _at_instance(target, x)
    empty = np.zeros((1, x.shape[0]), dtype=bool)
    return _coalition_values(target, x, empty, background, len(fx))[0], fx


def _assert_base_and_fx_bit_equal(forests, x, background):
    """The tree pass's base value and f(x) against a one-mask coalition call
    and ``_at_instance`` on the forests' ``predict_proba``, byte for byte;
    and its phi is ``tree_shap``'s."""
    target = ExplainTarget(
        f=lambda X: np.column_stack([f.predict_proba(X) for f in forests]),
        n_features=x.shape[0])
    x, background = np.asarray(x, dtype=np.float64), np.atleast_2d(background)
    base, fx = _one_mask_base_and_fx(target, x, background)
    phi, tree_base, tree_fx = _tree_pass(forests, x, background)
    assert tree_base.tobytes() == base.tobytes()
    assert tree_fx.tobytes() == fx.tobytes()
    np.testing.assert_array_equal(phi, tree_shap(forests, x, background))


class TestTreePassOutputs:
    """The tree estimator reads each label's base value and f(x) from the leaf
    paths, bit-equal to the target calls the other estimators make (also
    checked on every ``BR_CASES`` forest, on one background row, on one-leaf
    forests and on one-row blocks in ``TestTreeShap``)."""

    def test_forests_of_different_tree_counts(self):
        """Zeros past a shorter forest's last tree; 300 background rows, so
        the mean sums pairwise."""
        ds = planted_dataset("counts", 300, 6, 2, seed=4)
        forests = [fit_br(ds, ForestParams(n_trees=n, max_depth=9, seed=n)).per_label_models[j]
                   for n, j in ((7, 0), (1, 1), (3, 0), (7, 1), (2, 1))]
        _assert_base_and_fx_bit_equal(forests, ds.features[5], ds.features)

    def test_explain_evaluates_no_forest(self, monkeypatch):
        model, bg, x = _br_case("no-forest", BR_CASES["paper-br"])
        labels = [2, 0, 1]
        kernel = explain_instance(model, x, bg, labels, estimator="kernel", budget=20)

        def refuse(self, X):
            raise AssertionError("a forest was evaluated")

        monkeypatch.setattr(RandomForest, "predict_proba", refuse)
        tree = explain_instance(model, x, bg, labels)
        for t, k in zip(tree, kernel):
            assert (t.label, t.base_value, t.fx) == (k.label, k.base_value, k.fx)
            assert t.local_accuracy_gap() <= 1e-12
        with pytest.raises(AssertionError, match="a forest was evaluated"):
            explain_instance(model, x, bg, labels, estimator="kernel", budget=20)


class TestShapleyProperties:
    def test_efficiency_both_estimators(self, rng):
        for trial in range(10):
            target = forest_target(6, seed=20 + trial, n_trees=3)
            x = rng.normal(size=6)
            bg = rng.normal(size=(5, 6))
            for expl in (exact_shapley(target, x, bg),
                         kernel_shap(target, x, bg, budget=30, seed=trial)):
                assert expl.local_accuracy_gap() <= 1e-9

    def test_dummy_full_budget_kernel(self, rng):
        w = np.array([1.0, 0.0, 2.0, -1.0])
        expl = kernel_shap(linear_target(w), rng.normal(size=4),
                           rng.normal(size=(3, 4)), budget="full", seed=0)
        assert abs(expl.phi[1]) <= 1e-9

    def test_symmetry_under_coordinate_swap(self, rng):
        def f(X):
            return X[:, 0] * X[:, 2] + np.sin(X[:, 1])

        target = ExplainTarget(f=f, n_features=3)
        x = rng.normal(size=3)
        bg = rng.normal(size=(4, 3))
        expl = exact_shapley(target, x, bg)
        swap = [2, 1, 0]  # f treats coordinates 0 and 2 symmetrically

        def f_swapped(X):
            return f(X[:, swap])

        expl_swapped = exact_shapley(ExplainTarget(f=f_swapped, n_features=3),
                                     x[swap], bg[:, swap])
        np.testing.assert_allclose(expl_swapped.phi, expl.phi[swap], atol=1e-12)

    def test_linearity(self, rng):
        w1 = rng.normal(size=5)
        f2 = forest_target(5, seed=31, n_trees=2).f
        a = 2.5
        x = rng.normal(size=5)
        bg = rng.normal(size=(4, 5))
        combined = ExplainTarget(f=lambda X: a * (X @ w1) + f2(X), n_features=5)
        phi_combined = exact_shapley(combined, x, bg).phi
        phi_1 = exact_shapley(linear_target(w1), x, bg).phi
        phi_2 = exact_shapley(ExplainTarget(f=f2, n_features=5), x, bg).phi
        np.testing.assert_allclose(phi_combined, a * phi_1 + phi_2, atol=1e-9)

    def test_estimator_consistency_in_budget(self, rng):
        """Mean kernel error vs exact is non-increasing at budgets 2M, 8M, full."""
        M = 8
        target = forest_target(M, seed=40)
        bg = rng.normal(size=(5, M))
        errors = {2 * M: [], 8 * M: [], "full": []}
        for trial in range(8):
            x = rng.normal(size=M)
            reference = exact_shapley(target, x, bg).phi
            for budget in errors:
                for seed in range(4):
                    est = kernel_shap(target, x, bg, budget=budget, seed=seed).phi
                    errors[budget].append(float(np.max(np.abs(est - reference))))
        mean_small = np.mean(errors[2 * M])
        mean_medium = np.mean(errors[8 * M])
        mean_full = np.mean(errors["full"])
        assert mean_small >= mean_medium - 1e-12
        assert mean_medium >= mean_full - 1e-12
        assert mean_full <= 1e-9


class TestExplanationJson:
    def test_roundtrip(self, tmp_path, rng):
        expl = Explanation(base_value=0.25, phi=rng.normal(size=3), fx=0.7,
                           feature_values=rng.normal(size=3), instance=4, label=1,
                           feature_names=["a", "b", "c"])
        doc = explanation_to_doc(expl)
        assert set(doc) == {"instance", "label", "base_value", "fx", "phi"}
        back = explanation_from_doc(doc)
        np.testing.assert_array_equal(back.phi, expl.phi)
        np.testing.assert_array_equal(back.feature_values, expl.feature_values)
        assert back.feature_names == ["a", "b", "c"]
        path = tmp_path / "e.json"
        save_explanation(expl, path)
        loaded = load_explanation(path)
        assert loaded.instance == 4 and loaded.label == 1
        np.testing.assert_array_equal(loaded.phi, expl.phi)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="^explanation: instance is missing$"):
            explanation_from_doc({"phi": []})

    def test_zero_features_rejected(self):
        with pytest.raises(ValueError, match="^phi must be a non-empty vector"):
            Explanation(base_value=0.5, phi=[], fx=0.5, feature_values=[])
        doc = {"instance": 0, "label": 0, "base_value": 0.5, "fx": 0.5, "phi": []}
        with pytest.raises(ValueError, match="^phi must be a non-empty vector"):
            explanation_from_doc(doc)

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], []])
    def test_feature_names_of_another_length_rejected(self, names):
        with pytest.raises(ValueError, match="feature_names must have 2 entries"):
            Explanation(base_value=0.0, phi=[1.0, 2.0], fx=3.0,
                        feature_values=[0.0, 0.0], feature_names=names)

    def test_non_finite_value_is_refused_not_written(self, tmp_path):
        expl = Explanation(base_value=0.25, phi=[np.nan, 1.0], fx=np.inf,
                           feature_values=[0.0, 1.0])
        with pytest.raises(ValueError, match="JSON compliant"):
            save_explanation(expl, tmp_path / "e.json")
        assert not (tmp_path / "e.json").exists()


class TestSampleBackground:
    def test_small_pool_returned_whole(self, rng):
        X = rng.normal(size=(7, 3))
        np.testing.assert_array_equal(sample_background(X, size=10, seed=0), X)

    def test_deterministic_subsample(self, rng):
        X = rng.normal(size=(300, 3))
        a = sample_background(X, size=100, seed=5)
        b = sample_background(X, size=100, seed=5)
        assert a.shape == (100, 3)
        np.testing.assert_array_equal(a, b)
