"""Self-test of the span recorder and the per-layer aggregation."""

import json
import types
from pathlib import Path

import pytest

import layers
from spans import Span, Tracer, self_times


def explain_request():
    """cli.explain > kernel_shap > (target.br > forest.predict, wls), timed by hand."""
    return [
        Span("cli.explain", 0.0, 10.0, None, 1),
        Span("shapley.kernel_shap", 1.0, 9.0, 0, 1),
        Span("multilabel.target.br", 2.0, 5.0, 1, 1, {"rows": 40}),
        Span("forest.predict", 3.0, 4.5, 2, 1, {"rows": 40, "tree_rows": 400}),
        Span("shapley.wls", 6.0, 7.0, 1, 1, {"rows": 30}),
    ]


def test_self_time_is_duration_minus_child_coverage_across_layers():
    own = self_times(explain_request())
    assert own == pytest.approx([2.0, 4.0, 1.5, 1.5, 1.0])


def test_overlapping_and_overhanging_children_are_covered_once():
    spans = [Span("parent", 0.0, 10.0, None, None),
             Span("a", 1.0, 4.0, 0, None),
             Span("b", 3.0, 6.0, 0, None),
             Span("c", 8.0, 12.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_split_kernel_shap_from_its_target_and_solver():
    metrics = layers.layer_metrics(explain_request())
    assert metrics["shapley.explain_s"] == pytest.approx(8.0)
    assert metrics["shapley.self_s"] == pytest.approx(4.0)
    assert metrics["shapley.synth_rows"] == 40
    assert metrics["shapley.target_calls"] == 1
    assert metrics["shapley.self_us_per_synth_row"] == pytest.approx(4.0 / 40 * 1e6)
    assert metrics["shapley.wls_s"] == pytest.approx(1.0)
    assert metrics["shapley.coalitions"] == 30
    assert metrics["forest.predict_s"] == pytest.approx(1.5)
    assert metrics["forest.predict_ns_per_tree_row"] == pytest.approx(1.5 / 400 * 1e9)
    assert metrics["multilabel.cc_link_rows"] == 0
    assert metrics["multilabel.knn_predict_s"] == 0


def test_cc_links_are_the_forest_rows_under_a_chain_target():
    spans = [Span("multilabel.target.cc", 0.0, 5.0, None, 1, {"rows": 7}),
             Span("forest.predict", 1.0, 2.0, 0, 1, {"rows": 7, "tree_rows": 70}),
             Span("forest.predict", 2.0, 4.0, 0, 1, {"rows": 7, "tree_rows": 70})]
    metrics = layers.layer_metrics(spans)
    assert metrics["multilabel.cc_link_rows"] == 14
    assert metrics["multilabel.cc_chain_self_s"] == pytest.approx(2.0)


def test_tracer_records_nested_calls_and_restores_every_name():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Base:
        def predict(self, n):
            return n

    class Child(Base):
        pass

    module = types.SimpleNamespace(solve=lambda n: n * 2)
    table = {"score": (lambda n: n, True)}

    def kernel(n):
        return module.solve(Child().predict(n)) + table["score"][0](n)

    module.kernel = kernel
    original_solve = module.solve
    tracer.patch(module, "kernel", "kernel")
    tracer.patch(module, "solve", "solve", lambda args, out: {"rows": args[0]})
    tracer.patch(Child, "predict", "predict")
    tracer.replace(table, "score", lambda pair: (tracer.wrap("score", pair[0]), pair[1]))
    with tracer.request("cli.explain"):
        assert module.kernel(3) == 9
    with tracer.pause():
        module.kernel(1)

    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("cli.explain", None, 1), ("kernel", 0, 1), ("predict", 1, 1),
                     ("solve", 1, 1), ("score", 1, 1)]
    assert tracer.spans[3].counts == {"rows": 3}
    tracer.remove()
    assert module.solve is original_solve and module.kernel is kernel
    assert "predict" not in vars(Child) and Child().predict(2) == 2
    assert not hasattr(table["score"][0], "__wrapped__")


def test_units_match_the_benchmark_contract():
    contract = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert declared == layers.UNITS
    assert set(layers.layer_metrics([])) | {"trace.overhead_ratio"} == set(declared)
