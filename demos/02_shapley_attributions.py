"""Exact, kernel and tree Shapley attributions side by side.

Builds a small nonlinear target (a fitted forest), explains one prediction
with the exact and kernel estimators, and demonstrates the properties the
attributions are tested against: local accuracy, the dummy/symmetry axioms,
the closed form for linear models, convergence of the kernel estimate
toward the exact values as the coalition budget grows, and the kernel
estimate of the dual game, which must cancel the game's (it raises if not). Last, it explains a
small binary relevance model with the tree estimator, its default, and
compares that with exact enumeration.

Run: python demos/02_shapley_attributions.py
"""

import numpy as np

from mlshap import (
    Dataset,
    ExplainTarget,
    ForestParams,
    exact_shapley,
    explain_instance,
    fit_br,
    fit_forest,
    kernel_shap,
    kernel_weight,
)

rng = np.random.default_rng(21)

# ----------------------------------------------------------------------------
# The target: probability output of a forest over 8 features.
# ----------------------------------------------------------------------------
M = 8
X = rng.normal(size=(200, M))
y = (X[:, 0] * X[:, 1] + X[:, 2] > 0).astype(int)
forest = fit_forest(X, y, ForestParams(n_trees=10, max_depth=6, seed=5))
target = ExplainTarget(f=forest.predict_proba, n_features=M)

x = rng.normal(size=M)
background = rng.normal(size=(10, M))

exact = exact_shapley(target, x, background)
print(f"f(x) = {exact.fx:.4f}, base value (mean over background) = "
      f"{exact.base_value:.4f}")
print(f"local accuracy gap: {exact.local_accuracy_gap():.2e}")
print("\nper-feature attributions (exact enumeration of all 2^8 coalitions):")
for i, phi in enumerate(exact.phi):
    bar = "#" * int(abs(phi) * 80)
    print(f"  f{i}: {phi:+.4f} {bar}")

# ----------------------------------------------------------------------------
# Kernel weights are largest at the extremes, which is why the sampler
# enumerates sizes 1 and M-1 first.
# ----------------------------------------------------------------------------
print("\nkernel weights by coalition size (M=8):")
print("  " + ", ".join(f"z={z}: {kernel_weight(M, z):.4f}" for z in range(1, M)))

# ----------------------------------------------------------------------------
# The kernel estimate converges to the exact values as the budget grows; with
# the full budget the weighted regression recovers them to round-off. With
# one background row r, explaining r against x is the dual game of explaining
# x against r, whose Shapley values are the negated ones. The sampler pairs
# every coalition with its complement, so the two estimates cancel and their
# errors are equal at every budget.
# ----------------------------------------------------------------------------
r = background[:1]
exact_r = exact_shapley(target, x, r).phi
print("\nbudget -> max |kernel - exact|; one background row: game, dual game:")
for budget in (2 * M, 8 * M, 120, "full"):
    kernel = kernel_shap(target, x, background, budget=budget, seed=0)
    gap = np.max(np.abs(kernel.phi - exact.phi))
    game = kernel_shap(target, x, r, budget=budget, seed=0).phi
    dual = kernel_shap(target, r[0], x[None], budget=budget, seed=0).phi
    print(f"  {str(budget):>5}: {gap:.2e} "
          f"(local accuracy {kernel.local_accuracy_gap():.1e}); "
          f"game {np.max(np.abs(game - exact_r)):.2e}, "
          f"dual {np.max(np.abs(-dual - exact_r)):.2e}")
    if np.max(np.abs(game + dual)) > 1e-12:
        raise AssertionError(f"budget {budget}: game and dual game estimates "
                             f"differ by {np.max(np.abs(game + dual)):.1e}")

# ----------------------------------------------------------------------------
# Axioms on constructed targets.
# ----------------------------------------------------------------------------
w = rng.normal(size=4)
w[2] = 0.0  # feature 2 is dead
linear = ExplainTarget(f=lambda Z: Z @ w, n_features=4)
xx = rng.normal(size=4)
b = rng.normal(size=(1, 4))
expl = exact_shapley(linear, xx, b)
print(f"\ndummy axiom: ignored feature gets phi = {expl.phi[2]:+.1e}")
print(f"closed form for linear f: max |phi - w*(x-b)| = "
      f"{np.max(np.abs(expl.phi - w * (xx - b[0]))):.2e}")

sym = ExplainTarget(f=lambda Z: Z[:, 0] * Z[:, 1], n_features=2)
e = exact_shapley(sym, np.array([1.5, 1.5]), np.array([[0.2, 0.2]]))
print(f"symmetry axiom: phi = ({e.phi[0]:.4f}, {e.phi[1]:.4f}) for symmetric "
      "f, x, background")

# ----------------------------------------------------------------------------
# Binary relevance: one forest per label, so the tree estimator (the default
# for BR) computes the exact interventional values from the leaf paths, with
# no coalition sampled and no synthesized row evaluated.
# ----------------------------------------------------------------------------
Y = np.column_stack([y, (X[:, 3] - X[:, 4] > 0).astype(int)])
dataset = Dataset("demo", X, [f"f{i}" for i in range(M)], Y, ["y0", "y1"])
br = fit_br(dataset, ForestParams(n_trees=10, max_depth=6, seed=5))
tree = explain_instance(br, x, background, labels=[0, 1])
exact_br = explain_instance(br, x, background, labels=[0, 1], estimator="exact")
print("\nbinary relevance, tree vs exact phi:")
for t, e in zip(tree, exact_br):
    print(f"  label {t.label}: max |tree - exact| = {np.max(np.abs(t.phi - e.phi)):.1e}, "
          f"local accuracy {t.local_accuracy_gap():.1e}")
    print("    tree:  " + " ".join(f"{v:+.4f}" for v in t.phi))
    print("    exact: " + " ".join(f"{v:+.4f}" for v in e.phi))
