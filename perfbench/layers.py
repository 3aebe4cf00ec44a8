"""Where the traced run hooks into mlshap, and the per-layer metrics it derives.

Each hook sits at the name the caller looks up, so the program's own code is
unchanged: ``explain_instance`` finds ``mlshap.shapley.kernel_shap`` in its
module, the CLI finds ``load_arff``/``load_model``/``render_svg`` in
``mlshap.cli``, the grid search finds ``fit_point``/``split`` and the
``METRICS`` entries in ``mlshap.evaluation``, and models find
``predict_proba``/``label_proba_fn`` on their class.
"""

from __future__ import annotations

import os

from spans import Span, Tracer, self_times

TARGET_SPANS = ("multilabel.target.br", "multilabel.target.cc",
                "multilabel.target.mlknn")


def _rows(X) -> int:
    return X.shape[0] if getattr(X, "ndim", 1) == 2 else 1


def install(tracer: Tracer) -> None:
    """Patch every layer boundary; :meth:`Tracer.remove` undoes it."""
    from mlshap import _json, cli, evaluation, forest, multilabel, shapley

    def target_factory(method):
        def label_proba_fn(self, label):
            return tracer.wrap(f"multilabel.target.{self.algorithm}",
                               method(self, label),
                               lambda args, _: {"rows": _rows(args[0])})
        return label_proba_fn

    for cls in (multilabel.MultiLabelModel, multilabel.BRModel, multilabel.CCModel):
        tracer.replace(cls, "label_proba_fn", target_factory)
    tracer.patch(forest.RandomForest, "predict_proba", "forest.predict",
                 lambda a, _: {"rows": _rows(a[1]),
                               "tree_rows": _rows(a[1]) * len(a[0].trees)})
    tracer.patch(forest, "fit_tree", "forest.fit_tree",
                 lambda _, tree: {"nodes": tree.n_nodes})
    tracer.patch(multilabel.MLKNNModel, "predict_proba", "multilabel.knn_predict",
                 lambda a, _: {"rows": _rows(a[1]),
                               "distances": _rows(a[1]) * a[0].train_features.shape[0]})
    tracer.patch(evaluation, "fit_mlknn", "multilabel.knn_fit")
    tracer.patch(cli, "load_model", "multilabel.model_load",
                 lambda a, _: {"bytes": os.path.getsize(a[0])})
    tracer.patch(cli, "save_model", "multilabel.model_save",
                 lambda a, _: {"bytes": os.path.getsize(a[1])})
    tracer.patch(shapley, "kernel_shap", "shapley.kernel_shap")
    tracer.patch(shapley, "solve_weighted_ls", "shapley.wls",
                 lambda a, _: {"rows": a[0].shape[0]})
    tracer.patch(cli, "grid_search", "evaluation.grid_search")
    tracer.patch(evaluation, "fit_point", "evaluation.fit")
    for name in list(evaluation.METRICS):
        tracer.replace(evaluation.METRICS, name, lambda pair: (
            tracer.wrap("evaluation.score", pair[0]), pair[1]))
    tracer.patch(cli, "load_arff", "data.load_arff",
                 lambda _, dataset: {"rows": dataset.n_instances})
    tracer.patch(evaluation, "split", "data.split")
    for name in ("feature_importance", "summary_points", "force_data"):
        tracer.patch(cli, name, "viz.payload")
    tracer.patch(cli, "render_svg", "viz.render_svg",
                 lambda _, svg: {"bytes": len(svg.encode("utf-8"))})
    tracer.patch(_json, "write", "json.write")
    tracer.patch(_json, "dumps", "json.dumps", lambda _, text: {"bytes": len(text)})


# name -> unit, in the order BENCHMARK.json lists them (plus the overhead ratio
# the run adds).
UNITS = {
    "forest.predict_s": "s", "forest.predict_tree_rows": "count",
    "forest.predict_ns_per_tree_row": "ns", "forest.fit_s": "s",
    "forest.fit_trees": "count", "forest.fit_nodes": "count",
    "forest.fit_us_per_node": "us",
    "multilabel.cc_link_rows": "count", "multilabel.cc_chain_self_s": "s",
    "multilabel.knn_predict_s": "s", "multilabel.knn_rows": "count",
    "multilabel.knn_distances": "count", "multilabel.knn_us_per_row": "us",
    "multilabel.knn_fit_s": "s", "multilabel.knn_fits": "count",
    "multilabel.model_load_s": "s", "multilabel.model_save_s": "s",
    "multilabel.model_bytes": "bytes",
    "shapley.explain_s": "s", "shapley.self_s": "s",
    "shapley.self_us_per_synth_row": "us", "shapley.synth_rows": "count",
    "shapley.synth_rows_per_pair": "count", "shapley.target_calls": "count",
    "shapley.coalitions": "count", "shapley.wls_s": "s", "shapley.wls_calls": "count",
    "evaluation.grid_search_s": "s", "evaluation.fits": "count",
    "evaluation.score_s": "s",
    "data.load_arff_s": "s", "data.rows_parsed": "count", "data.split_s": "s",
    "viz.payload_s": "s", "viz.render_svg_s": "s", "viz.svg_bytes": "bytes",
    "json.emit_s": "s", "json.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den, scale=1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over all recorded spans (all but the overhead ratio)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def parent_name(i):
        parent = spans[i].parent
        return spans[parent].name if parent is not None else None

    def pick(*names, parent=None):
        return [i for n in names for i in by_name.get(n, ())
                if parent is None or parent_name(i) == parent]

    def seconds(indices):
        return sum(spans[i].duration for i in indices)

    def count(indices, key):
        return sum(spans[i].counts.get(key, 0) for i in indices)

    predict = pick("forest.predict")
    fits = pick("forest.fit_tree")
    knn = pick("multilabel.knn_predict")
    shap = pick("shapley.kernel_shap")
    synth = pick(*TARGET_SPANS, parent="shapley.kernel_shap")
    wls = pick("shapley.wls")
    loads, saves = pick("multilabel.model_load"), pick("multilabel.model_save")
    # json.dumps under json.write is already inside the write span.
    emits = pick("json.write") + [i for i in pick("json.dumps")
                                  if parent_name(i) != "json.write"]
    tree_rows = count(predict, "tree_rows")
    nodes = count(fits, "nodes")
    knn_rows = count(knn, "rows")
    synth_rows = count(synth, "rows")
    shap_self = sum(own[i] for i in shap)
    return {
        "forest.predict_s": seconds(predict),
        "forest.predict_tree_rows": tree_rows,
        "forest.predict_ns_per_tree_row": _ratio(seconds(predict), tree_rows, 1e9),
        "forest.fit_s": seconds(fits),
        "forest.fit_trees": len(fits),
        "forest.fit_nodes": nodes,
        "forest.fit_us_per_node": _ratio(seconds(fits), nodes, 1e6),
        "multilabel.cc_link_rows": count(
            pick("forest.predict", parent="multilabel.target.cc"), "rows"),
        "multilabel.cc_chain_self_s": sum(own[i] for i in pick("multilabel.target.cc")),
        "multilabel.knn_predict_s": seconds(knn),
        "multilabel.knn_rows": knn_rows,
        "multilabel.knn_distances": count(knn, "distances"),
        "multilabel.knn_us_per_row": _ratio(seconds(knn), knn_rows, 1e6),
        "multilabel.knn_fit_s": seconds(pick("multilabel.knn_fit")),
        "multilabel.knn_fits": len(pick("multilabel.knn_fit")),
        "multilabel.model_load_s": seconds(loads),
        "multilabel.model_save_s": seconds(saves),
        "multilabel.model_bytes": count(loads + saves, "bytes"),
        "shapley.explain_s": seconds(shap),
        "shapley.self_s": shap_self,
        "shapley.self_us_per_synth_row": _ratio(shap_self, synth_rows, 1e6),
        "shapley.synth_rows": synth_rows,
        "shapley.synth_rows_per_pair": _ratio(synth_rows, len(shap)),
        "shapley.target_calls": len(synth),
        "shapley.coalitions": count(wls, "rows"),
        "shapley.wls_s": seconds(wls),
        "shapley.wls_calls": len(wls),
        "evaluation.grid_search_s": seconds(pick("evaluation.grid_search")),
        "evaluation.fits": len(pick("evaluation.fit")),
        "evaluation.score_s": seconds(pick("evaluation.score")),
        "data.load_arff_s": seconds(pick("data.load_arff")),
        "data.rows_parsed": count(pick("data.load_arff"), "rows"),
        "data.split_s": seconds(pick("data.split")),
        "viz.payload_s": seconds(pick("viz.payload")),
        "viz.render_svg_s": seconds(pick("viz.render_svg")),
        "viz.svg_bytes": count(pick("viz.render_svg"), "bytes"),
        "json.emit_s": seconds(emits),
        "json.bytes": count(pick("json.dumps"), "bytes"),
    }
