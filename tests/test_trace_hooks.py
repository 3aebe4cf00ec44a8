"""The benchmark's traced run (``perfbench/layers.py``) finds the mlshap names
it hooks, counts forest work through them, and puts them back."""

import sys
from pathlib import Path

import numpy as np

from mlshap import ForestParams, RandomForest, fit_forest, forest, tree_rng

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_forest_hooks_count_and_are_removed():
    original = RandomForest.predict_proba
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 4))
    y = (X[:, 0] > 0).astype(int)
    tracer = Tracer()
    layers.install(tracer)
    try:
        fit_forest(X, y, ForestParams(n_trees=3, seed=1)).predict_proba(X[:7])
        # The hook replaces the module attribute, which callers look up.
        tree = forest.fit_tree(X, y, ForestParams(n_trees=1), tree_rng(0, 0))
    finally:
        tracer.remove()
    counts = {span.name: span.counts for span in tracer.spans}
    assert counts["forest.predict"] == {"rows": 7, "tree_rows": 21}
    assert counts["forest.fit_tree"] == {"nodes": tree.n_nodes}
    assert RandomForest.predict_proba is original
