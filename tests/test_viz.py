import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mlshap import (
    feature_importance,
    force_data,
    plot_spec,
    render_svg,
    spec_from_json,
    summary_points,
    write_json,
)
from mlshap.shapley import Explanation
from mlshap.viz import PlotSpec


def make_expl(phi, values=None, instance=0, label=0, names=None):
    phi = np.asarray(phi, dtype=float)
    values = np.asarray(values if values is not None else np.zeros_like(phi),
                        dtype=float)
    return Explanation(base_value=0.1, phi=phi, fx=0.1 + float(phi.sum()),
                       feature_values=values, instance=instance, label=label,
                       feature_names=names)


class TestFeatureImportance:
    def test_single_explanation(self):
        expl = make_expl([0.5, -1.0, 0.25])
        table = feature_importance([expl])
        np.testing.assert_allclose(table.values[:, 0], [0.5, 1.0, 0.25])
        np.testing.assert_allclose(table.totals, [0.5, 1.0, 0.25])
        assert table.order.tolist() == [1, 0, 2]

    def test_all_zero_keeps_original_order(self):
        table = feature_importance([make_expl([0.0, 0.0, 0.0])])
        assert table.order.tolist() == [0, 1, 2]

    def test_mean_over_instances_per_label(self):
        expls = [
            make_expl([1.0, 0.0], instance=0, label=0),
            make_expl([3.0, 0.0], instance=1, label=0),
            make_expl([0.0, -4.0], instance=0, label=1),
        ]
        table = feature_importance(expls)
        assert table.label_ids == [0, 1]
        np.testing.assert_allclose(table.values[:, 0], [2.0, 0.0])
        np.testing.assert_allclose(table.values[:, 1], [0.0, 4.0])
        np.testing.assert_allclose(table.totals, [2.0, 4.0])

    def test_order_permutation_invariant(self, rng):
        expls = [make_expl(rng.normal(size=4), instance=i, label=i % 2)
                 for i in range(8)]
        a = feature_importance(expls)
        b = feature_importance(list(reversed(expls)))
        np.testing.assert_allclose(a.totals, b.totals)
        np.testing.assert_array_equal(a.order, b.order)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            feature_importance([])


class TestSummaryPoints:
    def test_single_instance_zero_jitter(self):
        expl = make_expl([0.5, -0.5], values=[1.0, 2.0])
        points = summary_points([expl])
        assert points.point_shap.shape == (2,)
        np.testing.assert_array_equal(points.point_jitter, [0.0, 0.0])

    def test_constant_feature_colors_half(self, rng):
        expls = [make_expl(rng.normal(size=2), values=[7.0, float(i)], instance=i)
                 for i in range(5)]
        points = summary_points(expls)
        first_feature = points.point_feature == 0
        np.testing.assert_array_equal(points.point_color[first_feature], 0.5)

    def test_color_is_minmax_normalized(self):
        expls = [make_expl([0.0], values=[v], instance=i)
                 for i, v in enumerate([2.0, 4.0, 6.0])]
        points = summary_points(expls)
        np.testing.assert_allclose(np.sort(points.point_color), [0.0, 0.5, 1.0])

    def test_point_count(self, rng):
        expls = [make_expl(rng.normal(size=6), values=rng.normal(size=6), instance=i)
                 for i in range(9)]
        points = summary_points(expls)
        assert points.point_shap.shape == (9 * 6,)

    def test_rows_ordered_by_mean_abs(self):
        expls = [make_expl([0.1, 5.0, 1.0], values=[0.0, 0.0, 0.0], instance=i)
                 for i in range(3)]
        points = summary_points(expls)
        assert points.feature_order.tolist() == [1, 2, 0]

    def test_jitter_bounded(self, rng):
        expls = [make_expl(rng.normal(size=3) * 0.01, values=rng.normal(size=3),
                           instance=i) for i in range(40)]
        points = summary_points(expls)
        assert np.abs(points.point_jitter).max() <= 0.4 + 1e-12

    def test_mixed_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            summary_points([make_expl([0.0], label=0), make_expl([0.0], label=1)])


@pytest.mark.parametrize("view", [feature_importance, summary_points],
                         ids=["importance", "summary"])
class TestFeaturesAgree:
    """Both views refuse explanations that disagree on the features, naming
    the first that differs."""

    def test_widths(self, view):
        expls = [make_expl([0.1, 0.2], instance=0), make_expl([0.1, 0.2], instance=1),
                 make_expl([0.1, 0.2, 0.3], instance=2)]
        with pytest.raises(ValueError, match=r"^explanation 2 \(instance 2, label 0\) has "
                                             r"features \['f0', 'f1', 'f2'\], explanation 0 "
                                             r"has \['f0', 'f1'\]$"):
            view(expls)

    def test_names(self, view):
        expls = [make_expl([0.1, 0.2], instance=i, names=["a", "b"]) for i in range(3)]
        expls[1] = make_expl([0.1, 0.2], instance=7, names=["a", "c"])
        with pytest.raises(ValueError, match=r"^explanation 1 \(instance 7, label 0\) has "
                                             r"features \['a', 'c'\], explanation 0 "
                                             r"has \['a', 'b'\]$"):
            view(expls)
        # Unnamed features are f0, f1, ...: they agree with those names only.
        with pytest.raises(ValueError, match=r"^explanation 1 \(instance 3, label 0\)"):
            view([expls[0], make_expl([0.1, 0.2], instance=3)])
        assert view([make_expl([0.1, 0.2]), make_expl([0.3, 0.4], instance=1,
                                                      names=["f0", "f1"])])

    def test_agreeing_names_label_the_view(self, view):
        expls = [make_expl([0.1, 0.2], instance=i, names=["a", "b"]) for i in range(3)]
        assert view(expls).feature_names == ["a", "b"]


class TestForceData:
    def test_zero_phi_empty_lists(self):
        expl = make_expl([0.0, 0.0])
        force = force_data(expl)
        assert force.up == [] and force.down == []
        assert force.base_value == force.fx

    def test_reference_decomposition(self):
        # base 0.7533 plus the forces must land exactly on 0.79
        phi = np.array([0.05, -0.02, 0.03, -0.0233])
        expl = Explanation(base_value=0.7533, phi=phi, fx=0.79,
                           feature_values=np.zeros(4),
                           feature_names=["a", "b", "c", "d"])
        force = force_data(expl)
        sum_up = sum(p for _, _, p in force.up)
        sum_down = sum(p for _, _, p in force.down)
        assert sum_up + sum_down == pytest.approx(0.79 - 0.7533, abs=1e-12)
        assert force.base_value + sum_up + sum_down == pytest.approx(force.fx,
                                                                     abs=1e-6)

    def test_up_strictly_descending(self, rng):
        expl = make_expl([0.4, -0.1, 0.2, 0.9, -0.5])
        force = force_data(expl)
        ups = [p for _, _, p in force.up]
        assert ups == sorted(ups, reverse=True) == [0.9, 0.4, 0.2]
        downs = [p for _, _, p in force.down]
        assert downs == sorted(downs) == [-0.5, -0.1]

    def test_reconstruction_invariant(self, rng):
        for _ in range(10):
            expl = make_expl(rng.normal(size=6), values=rng.normal(size=6))
            force = force_data(expl)
            total = sum(p for _, _, p in force.up) + sum(p for _, _, p in force.down)
            assert abs(force.base_value + total - force.fx) <= 1e-6


class TestPlotSpecJson:
    def test_roundtrip_all_kinds(self, rng):
        expls = [make_expl(rng.normal(size=3), values=rng.normal(size=3), instance=i,
                           names=["a", "b", "c"]) for i in range(4)]
        for payload in (feature_importance(expls), summary_points(expls),
                        force_data(expls[0])):
            spec = plot_spec(payload, title="t")
            text = write_json(spec)
            back = spec_from_json(text)
            assert write_json(back) == text
            assert back.kind == spec.kind

    def test_stable_bytes(self, rng):
        expl = make_expl(rng.normal(size=4), values=rng.normal(size=4))
        spec = plot_spec(force_data(expl), title="x")
        assert write_json(spec) == write_json(spec)

    def test_full_precision_numbers(self):
        expl = make_expl([0.1 + 0.2], values=[1 / 3])
        spec = plot_spec(force_data(expl))
        back = spec_from_json(write_json(spec))
        assert back.payload.up[0][2] == 0.1 + 0.2
        assert back.payload.up[0][1] == 1 / 3

    def test_kind_payload_mismatch_rejected(self, rng):
        expl = make_expl(rng.normal(size=2), values=rng.normal(size=2))
        with pytest.raises(ValueError, match="does not match kind"):
            PlotSpec(kind="summary", payload=force_data(expl), title="", width=10,
                     height=10)


class TestRenderSvg:
    def test_single_feature_bar(self):
        table = feature_importance([make_expl([0.7], names=["only"])])
        svg = render_svg(plot_spec(table, title="bars"))
        assert svg.count("<rect") >= 2  # background + one bar segment
        assert "only" in svg
        ET.fromstring(svg)  # well-formed XML

    def test_byte_determinism(self, rng):
        expls = [make_expl(rng.normal(size=3), values=rng.normal(size=3), instance=i)
                 for i in range(5)]
        for payload in (feature_importance(expls), summary_points(expls),
                        force_data(expls[0])):
            spec = plot_spec(payload, title="same")
            assert render_svg(spec) == render_svg(spec)

    def test_force_tick_labels(self):
        phi = np.array([0.05, -0.0133])
        expl = Explanation(base_value=0.7533, phi=phi, fx=0.79,
                           feature_values=np.array([1.0, 2.0]),
                           feature_names=["up1", "down1"])
        svg = render_svg(plot_spec(force_data(expl)))
        assert ">0.7533<" in svg
        assert ">0.79<" in svg
        ET.fromstring(svg)

    def test_summary_svg_well_formed(self, rng):
        expls = [make_expl(rng.normal(size=4), values=rng.normal(size=4), instance=i)
                 for i in range(6)]
        svg = render_svg(plot_spec(summary_points(expls)))
        ET.fromstring(svg)
        assert svg.count("<circle") == 24

    def test_unknown_kind_rejected(self, rng):
        expl = make_expl(rng.normal(size=2), values=rng.normal(size=2))
        spec = plot_spec(force_data(expl))
        object.__setattr__(spec, "kind", "pie")
        with pytest.raises(ValueError, match="unknown plot kind"):
            render_svg(spec)
