"""Aggregate explanations into importance, summary, and force views.

Each view is first reduced to a plain data description (:class:`PlotSpec`)
and only then rendered, so the JSON and SVG emitters are pure functions of
the spec: identical specs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _json
from .shapley import Explanation

PLOTSPEC_FORMAT = "mlshap-plotspec"
PLOTSPEC_VERSION = 1

# Cycling 12-color palette for per-label bar segments.
PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
]
COLOR_LOW = (0, 139, 251)  # summary-point color at normalized value 0
COLOR_HIGH = (255, 0, 81)  # and at 1
POSITIVE_COLOR = "#ff0051"
NEGATIVE_COLOR = "#008bfb"
SUMMARY_JITTER_BINS = 25


@dataclass
class ImportanceTable:
    """Mean |phi| per (feature, label), features sorted by the cross-label total."""

    feature_names: list[str]
    label_ids: list[int]
    values: np.ndarray  # (n_features, n_labels) mean |phi|
    totals: np.ndarray  # (n_features,)
    order: np.ndarray  # feature indices, decreasing total, ties to lower index


@dataclass
class SummaryPoints:
    """One point per (instance, feature) for a single label's explanations."""

    label: int
    feature_names: list[str]
    feature_order: np.ndarray  # rows by decreasing mean |phi|
    point_feature: np.ndarray  # (n_points,) feature index
    point_shap: np.ndarray  # (n_points,)
    point_color: np.ndarray  # (n_points,) normalized feature value in [0, 1]
    point_jitter: np.ndarray  # (n_points,) row offset in [-0.4, 0.4]


@dataclass
class ForceData:
    """A single prediction split into pushing-up and pushing-down attributions."""

    base_value: float
    fx: float
    up: list[tuple[str, float, float]]  # (feature, raw value, phi > 0), phi descending
    down: list[tuple[str, float, float]]  # (feature, raw value, phi < 0), phi ascending


@dataclass
class PlotSpec:
    kind: str  # "importance" | "summary" | "force"
    payload: ImportanceTable | SummaryPoints | ForceData
    title: str
    width: int
    height: int

    _KIND_FOR = {ImportanceTable: "importance", SummaryPoints: "summary",
                 ForceData: "force"}

    def __post_init__(self):
        expected = self._KIND_FOR.get(type(self.payload))
        if expected != self.kind:
            raise ValueError(f"payload type {type(self.payload).__name__} does not "
                             f"match kind {self.kind!r}")


def _shared_names(explanations) -> list[str]:
    """The feature names all ``explanations`` share; ValueError naming the
    first explanation whose width or names differ from the first one's."""
    if not explanations:
        raise ValueError("at least one explanation is required")
    names = explanations[0].names()
    for i, expl in enumerate(explanations):
        if expl.n_features != explanations[0].n_features or expl.names() != names:
            raise ValueError(f"explanation {i} (instance {expl.instance}, label "
                             f"{expl.label}) has features {expl.names()}, "
                             f"explanation 0 has {names}")
    return names


def feature_importance(explanations) -> ImportanceTable:
    """Mean |phi| per feature and label, summed across labels for the sort key."""
    explanations = list(explanations)
    names = _shared_names(explanations)
    M = explanations[0].n_features
    by_label: dict[int, list[np.ndarray]] = {}
    for expl in explanations:
        by_label.setdefault(expl.label if expl.label is not None else 0, []).append(
            np.abs(expl.phi)
        )
    label_ids = sorted(by_label)
    values = np.column_stack([
        np.mean(by_label[l], axis=0) for l in label_ids
    ])
    totals = values.sum(axis=1)
    order = np.lexsort((np.arange(M), -totals))
    return ImportanceTable(feature_names=names, label_ids=label_ids, values=values,
                           totals=totals, order=order)


def _stack_offsets(count: int) -> list[int]:
    """0, +1, -1, +2, -2, ... for `count` points sharing a bin."""
    out = []
    for rank in range(count):
        half = (rank + 1) // 2
        out.append(half if rank % 2 == 1 else -half if rank else 0)
    return out


def summary_points(explanations) -> SummaryPoints:
    """Beeswarm data for one label: shap, color from the feature value, jitter."""
    explanations = list(explanations)
    names = _shared_names(explanations)
    labels = {expl.label for expl in explanations}
    if len(labels) != 1:
        raise ValueError(f"explanations span several labels: {sorted(labels)}")
    label = labels.pop()
    shap = np.array([expl.phi for expl in explanations])  # (n, M)
    raw = np.array([expl.feature_values for expl in explanations])
    n, M = shap.shape

    lo = raw.min(axis=0)
    span = raw.max(axis=0) - lo
    color = np.full_like(raw, 0.5)
    varies = span > 0
    color[:, varies] = (raw[:, varies] - lo[varies]) / span[varies]

    order = np.lexsort((np.arange(M), -np.abs(shap).mean(axis=0)))

    jitter = np.zeros_like(shap)
    for f in range(M):
        col = shap[:, f]
        span_f = col.max() - col.min()
        if span_f > 0:
            bins = np.minimum(((col - col.min()) / span_f * SUMMARY_JITTER_BINS)
                              .astype(int), SUMMARY_JITTER_BINS - 1)
        else:
            bins = np.zeros(n, dtype=int)
        stacks = np.zeros(n)
        for b in np.unique(bins):
            members = np.nonzero(bins == b)[0]
            stacks[members] = _stack_offsets(members.size)
        peak = np.abs(stacks).max()
        if peak > 0:
            jitter[:, f] = stacks * (0.4 / peak)

    # Feature-major flattening: all points of one feature row stay adjacent.
    point_feature = np.repeat(np.arange(M), n)
    point_shap = shap.T.reshape(-1)
    point_color = color.T.reshape(-1)
    point_jitter = jitter.T.reshape(-1)
    return SummaryPoints(
        label=label if label is not None else 0,
        feature_names=names,
        feature_order=order,
        point_feature=point_feature,
        point_shap=point_shap,
        point_color=point_color,
        point_jitter=point_jitter,
    )


def force_data(explanation: Explanation) -> ForceData:
    """Split one explanation into positive and negative forces; zeros drop out."""
    names = explanation.names()
    triples = [
        (names[i], float(explanation.feature_values[i]), float(explanation.phi[i]))
        for i in range(explanation.n_features)
    ]
    up = sorted((t for t in triples if t[2] > 0), key=lambda t: -t[2])
    down = sorted((t for t in triples if t[2] < 0), key=lambda t: t[2])
    return ForceData(base_value=explanation.base_value, fx=explanation.fx,
                     up=up, down=down)


# --- PlotSpec construction and JSON round-trip -------------------------------

def plot_spec(payload, title: str = "") -> PlotSpec:
    """Wrap a view payload, inferring its kind and a height that fits its rows."""
    kind = PlotSpec._KIND_FOR.get(type(payload))
    if kind is None:
        raise ValueError(f"unsupported payload type {type(payload).__name__}")
    if kind == "importance":
        height = 60 + 24 * len(payload.feature_names) + 18 * len(payload.label_ids)
    elif kind == "summary":
        height = 60 + 28 * len(payload.feature_names)
    else:
        height = 170
    return PlotSpec(kind=kind, payload=payload, title=title, width=720, height=height)


def _payload_doc(payload):
    if isinstance(payload, ImportanceTable):
        return {
            "feature_names": payload.feature_names,
            "label_ids": payload.label_ids,
            "values": payload.values.tolist(),
            "totals": payload.totals.tolist(),
            "order": payload.order.tolist(),
        }
    if isinstance(payload, SummaryPoints):
        return {
            "label": payload.label,
            "feature_names": payload.feature_names,
            "feature_order": payload.feature_order.tolist(),
            "points": [
                {"feature": int(f), "shap": float(s), "color": float(c),
                 "jitter": float(j)}
                for f, s, c, j in zip(payload.point_feature, payload.point_shap,
                                      payload.point_color, payload.point_jitter)
            ],
        }
    return {
        "base_value": payload.base_value,
        "fx": payload.fx,
        "up": [{"feature": n, "value": v, "phi": p} for n, v, p in payload.up],
        "down": [{"feature": n, "value": v, "phi": p} for n, v, p in payload.down],
    }


_FORCE_ITEMS = [{"feature": str, "value": float, "phi": float}]
_PAYLOADS = {
    "importance": {"feature_names": [str], "label_ids": [int],
                   "values": _json.Array(float, ndim=2), "totals": _json.Array(float),
                   "order": _json.Array(int)},
    "summary": {"label": int, "feature_names": [str], "feature_order": _json.Array(int),
                "points": [{"feature": int, "shap": float, "color": float,
                            "jitter": float}]},
    "force": {"base_value": float, "fx": float, "up": _FORCE_ITEMS, "down": _FORCE_ITEMS},
}
PLOTSPEC_DOC = {"format": PLOTSPEC_FORMAT, "version": PLOTSPEC_VERSION,
                "kind": tuple(_PAYLOADS), "title": str, "width": int, "height": int,
                "payload": lambda doc: _PAYLOADS[doc["kind"]]}


def write_json(spec: PlotSpec) -> str:
    """Serialize a spec with stable key order and full-precision numbers."""
    return _json.dumps({
        "format": PLOTSPEC_FORMAT,
        "version": PLOTSPEC_VERSION,
        "kind": spec.kind,
        "title": spec.title,
        "width": spec.width,
        "height": spec.height,
        "payload": _payload_doc(spec.payload),
    })


def spec_from_json(text: str) -> PlotSpec:
    """The spec of a ``write_json`` text; one that breaks ``PLOTSPEC_DOC``
    raises ValueError naming the node."""
    doc = _json.parse(json.loads(text), PLOTSPEC_DOC, "plot spec")
    kind, payload = doc["kind"], doc["payload"]
    if kind == "importance":
        payload = ImportanceTable(**payload)
    elif kind == "summary":
        points = payload.pop("points")
        payload = SummaryPoints(**payload, **{
            f"point_{key}": np.array([p[key] for p in points],
                                     dtype=np.int64 if key == "feature" else np.float64)
            for key in ("feature", "shap", "color", "jitter")})
    else:
        up, down = ([(p["feature"], p["value"], p["phi"]) for p in payload[key]]
                    for key in ("up", "down"))
        payload = ForceData(payload["base_value"], payload["fx"], up, down)
    return PlotSpec(kind, payload, doc["title"], doc["width"], doc["height"])


# --- SVG rendering ------------------------------------------------------------

def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _num(v: float) -> str:
    return f"{v:.2f}"


def _tick(v: float) -> str:
    return f"{v:g}"


def _heat_color(t: float) -> str:
    r = round(COLOR_LOW[0] + (COLOR_HIGH[0] - COLOR_LOW[0]) * t)
    g = round(COLOR_LOW[1] + (COLOR_HIGH[1] - COLOR_LOW[1]) * t)
    b = round(COLOR_LOW[2] + (COLOR_HIGH[2] - COLOR_LOW[2]) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_open(spec: PlotSpec) -> list[str]:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">\n',
        f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>\n',
    ]
    if spec.title:
        parts.append(f'<text x="{_num(spec.width / 2)}" y="20" font-family="sans-serif" '
                     f'font-size="14" text-anchor="middle">{_esc(spec.title)}</text>\n')
    return parts


def _render_importance(spec: PlotSpec) -> str:
    table = spec.payload
    left, right, top = 160, 20, 40
    rows = len(table.order)
    row_h = 24
    plot_w = spec.width - left - right
    max_total = float(table.totals.max()) if rows else 0.0
    scale = plot_w / max_total if max_total > 0 else 0.0
    parts = _svg_open(spec)
    y = top
    for f in table.order:
        name = table.feature_names[f]
        parts.append(f'<text x="{left - 6}" y="{_num(y + 14)}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{_esc(name)}</text>\n')
        x = float(left)
        for j, _ in enumerate(table.label_ids):
            seg = float(table.values[f, j]) * scale
            if seg > 0:
                color = PALETTE[j % len(PALETTE)]
                parts.append(f'<rect x="{_num(x)}" y="{_num(y + 3)}" '
                             f'width="{_num(seg)}" height="{row_h - 8}" '
                             f'fill="{color}"/>\n')
                x += seg
        y += row_h
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{_num(y)}" '
                 f'stroke="#444" stroke-width="1"/>\n')
    legend_y = y + 14
    for j, label_id in enumerate(table.label_ids):
        lx = left + (j % 6) * 90
        ly = legend_y + (j // 6) * 18
        color = PALETTE[j % len(PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly}" width="10" height="10" '
                     f'fill="{color}"/>\n')
        parts.append(f'<text x="{lx + 14}" y="{ly + 9}" font-family="sans-serif" '
                     f'font-size="10">label {label_id}</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _render_summary(spec: PlotSpec) -> str:
    points = spec.payload
    left, right, top = 160, 20, 40
    row_h = 28
    plot_w = spec.width - left - right
    lo = float(points.point_shap.min())
    hi = float(points.point_shap.max())
    bound = max(abs(lo), abs(hi), 1e-12)
    scale = plot_w / (2 * bound)
    zero_x = left + plot_w / 2
    parts = _svg_open(spec)
    row_of = {int(f): r for r, f in enumerate(points.feature_order)}
    bottom = top + row_h * len(points.feature_order)
    parts.append(f'<line x1="{_num(zero_x)}" y1="{top}" x2="{_num(zero_x)}" '
                 f'y2="{bottom}" stroke="#999" stroke-width="1" '
                 f'stroke-dasharray="3,3"/>\n')
    for r, f in enumerate(points.feature_order):
        name = points.feature_names[int(f)]
        cy = top + r * row_h + row_h / 2
        parts.append(f'<text x="{left - 6}" y="{_num(cy + 4)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{_esc(name)}</text>\n')
    for f, s, c, j in zip(points.point_feature, points.point_shap,
                          points.point_color, points.point_jitter):
        r = row_of[int(f)]
        cx = zero_x + float(s) * scale
        cy = top + r * row_h + row_h / 2 + float(j) * row_h
        parts.append(f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="2.5" '
                     f'fill="{_heat_color(float(c))}" fill-opacity="0.8"/>\n')
    parts.append(f'<text x="{_num(zero_x)}" y="{bottom + 16}" '
                 f'font-family="sans-serif" font-size="10" '
                 f'text-anchor="middle">0</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _render_force(spec: PlotSpec) -> str:
    force = spec.payload
    left, right = 40, 40
    axis_y = 70.0
    plot_w = spec.width - left - right
    sum_up = sum(p for _, _, p in force.up)
    peak = force.base_value + sum_up  # rightmost point of the walk
    lo = min(force.base_value, force.fx, peak)
    hi = max(force.base_value, force.fx, peak)
    span = max(hi - lo, 1e-12)
    pad = span * 0.08

    def to_x(v: float) -> float:
        return left + (v - (lo - pad)) / (span + 2 * pad) * plot_w

    parts = _svg_open(spec)
    parts.append(f'<line x1="{left}" y1="{_num(axis_y)}" x2="{spec.width - right}" '
                 f'y2="{_num(axis_y)}" stroke="#444" stroke-width="1"/>\n')
    # Walk right through the positive forces, then left through the negative
    # ones; the walk ends exactly at fx.
    position = force.base_value
    caption_y = axis_y + 34.0
    for name, value, phi in force.up + force.down:
        nxt = position + phi
        x0, x1 = to_x(position), to_x(nxt)
        color = POSITIVE_COLOR if phi > 0 else NEGATIVE_COLOR
        parts.append(f'<rect x="{_num(min(x0, x1))}" y="{_num(axis_y - 12)}" '
                     f'width="{_num(abs(x1 - x0))}" height="24" fill="{color}" '
                     f'fill-opacity="0.75"/>\n')
        mid = (x0 + x1) / 2
        parts.append(f'<text x="{_num(mid)}" y="{_num(caption_y)}" '
                     f'font-family="sans-serif" font-size="9" text-anchor="middle" '
                     f'transform="rotate(40 {_num(mid)} {_num(caption_y)})">'
                     f'{_esc(name)} = {_tick(value)}</text>\n')
        caption_y = axis_y + 34.0 if caption_y > axis_y + 44.0 else caption_y + 12.0
        position = nxt
    for v, tag in ((force.base_value, "base"), (force.fx, "f(x)")):
        x = to_x(v)
        parts.append(f'<line x1="{_num(x)}" y1="{_num(axis_y - 18)}" x2="{_num(x)}" '
                     f'y2="{_num(axis_y + 18)}" stroke="#222" stroke-width="1"/>\n')
        parts.append(f'<text x="{_num(x)}" y="{_num(axis_y - 24)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{_tick(v)}</text>\n')
        parts.append(f'<text x="{_num(x)}" y="{_num(axis_y - 38)}" '
                     f'font-family="sans-serif" font-size="9" fill="#666" '
                     f'text-anchor="middle">{tag}</text>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def render_svg(spec: PlotSpec) -> str:
    """Standalone SVG 1.1 text; byte-identical for identical specs."""
    if spec.kind == "importance":
        return _render_importance(spec)
    if spec.kind == "summary":
        return _render_summary(spec)
    if spec.kind == "force":
        return _render_force(spec)
    raise ValueError(f"unknown plot kind {spec.kind!r}")
