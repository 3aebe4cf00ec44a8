"""Command-line front end: train, tune, explain, plot.

Every command is reproducible: the input files, the merged configuration, and
the seed fully determine all output bytes. Exit codes: 0 success, 1 runtime or
estimation error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import _json
from .data import ParseError, load_arff, load_csv
from .evaluation import METRICS, PRESETS, ParamGrid, fit_point, grid_search
from .data import make_folds
from .multilabel import load_model, save_model
from .shapley import (
    ENUMERATION_CAP,
    ESTIMATORS,
    EstimationError,
    explain_instance,
    explanation_to_doc,
    load_explanation,
    resolve_estimator,
    sample_background,
)
from .viz import feature_importance, force_data, plot_spec, render_svg, summary_points, write_json

TRAIN_REPORT_FORMAT = "mlshap-train-report"

CONFIG_KEYS = {
    "data", "format", "labels", "algo", "preset", "seed", "out",
    "n_trees", "max_depth", "min_samples_leaf", "max_features", "bootstrap",
    "order", "k", "s",
    "grid", "reps", "folds", "scoring",
    "model", "instance", "label_ids", "estimator", "budget", "background",
}


class UsageError(Exception):
    pass


def _parse_labels_flag(text):
    """'14' -> trailing count, 'a,b,c' -> explicit names."""
    try:
        return int(text)
    except ValueError:
        return [part.strip() for part in text.split(",") if part.strip()]


def _parse_budget_flag(text):
    if text == "full":
        return "full"
    try:
        return int(text)
    except ValueError:
        raise UsageError(f'--budget must be an integer or "full", got {text!r}')


def _parse_max_features_flag(text):
    if text == "sqrt":
        return "sqrt"
    try:
        return int(text)
    except ValueError:
        raise UsageError(f'--max-features must be an integer or "sqrt", got {text!r}')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlshap",
                                     description="Multi-label classifiers with "
                                                 "Shapley-value explanations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--data", help="dataset file path")
        p.add_argument("--format", choices=["arff", "csv"],
                       help="dataset format (default: by file extension)")
        p.add_argument("--labels", help="trailing label count or comma-separated names")
        p.add_argument("--seed", type=int, help="rng seed (required)")
        p.add_argument("--out", help="output directory (default: .)")

    train = sub.add_parser("train", help="fit a model and write model + report")
    add_data_flags(train)
    train.add_argument("--algo", choices=["br", "cc", "mlknn"])
    train.add_argument("--preset", choices=sorted(PRESETS))
    train.add_argument("--n-trees", type=int, dest="n_trees")
    train.add_argument("--max-depth", type=int, dest="max_depth")
    train.add_argument("--min-samples-leaf", type=int, dest="min_samples_leaf")
    train.add_argument("--max-features", type=_parse_max_features_flag,
                       dest="max_features")
    train.add_argument("--order", help="cc chain order: 'random' or i,j,k,...")
    train.add_argument("--k", type=int, help="mlknn neighbor count")
    train.add_argument("--s", type=float, help="mlknn smoothing")

    tune = sub.add_parser("tune", help="cross-validated grid search")
    add_data_flags(tune)
    tune.add_argument("--algo", choices=["br", "cc", "mlknn"])
    tune.add_argument("--grid", help="JSON object of axis -> value list")
    tune.add_argument("--reps", type=int, help="repetitions (default 2)")
    tune.add_argument("--folds", type=int, help="folds per repetition (default 5)")
    tune.add_argument("--scoring", choices=sorted(METRICS))

    explain = sub.add_parser("explain", help="write per-label explanation JSON files")
    add_data_flags(explain)
    explain.add_argument("--model", help="model JSON file from `train`")
    explain.add_argument("--instance", type=int, help="row index to explain")
    explain.add_argument("--label-ids", dest="label_ids",
                         help="comma-separated label indices (default: all)")
    explain.add_argument("--estimator", choices=ESTIMATORS,
                         help="default: tree for br models, kernel otherwise")
    explain.add_argument("--budget", type=_parse_budget_flag,
                         help='kernel coalition budget or "full" (kernel only)')
    explain.add_argument("--background", type=int,
                         help="background sample size (default 100)")

    plot = sub.add_parser("plot", help="render explanation files to SVG + JSON")
    plot.add_argument("--kind", choices=["importance", "summary", "force"],
                      required=True)
    plot.add_argument("--in", dest="inputs", nargs="+", required=True,
                      help="explanation JSON files")
    plot.add_argument("--out", help="output directory (default: .)")
    plot.add_argument("--title", default="")
    plot.add_argument("--label", type=int,
                      help="label filter for summary plots")
    return parser


# Integer settings and the least value each takes. Only a missing (None)
# value means "use the default"; 0 is a value like any other.
_INT_MINIMUMS = {"seed": 0, "instance": 0, "background": 1, "reps": 1, "folds": 2}
_STR_KEYS = ("data", "format", "out", "model", "algo", "preset", "scoring", "estimator")


def _flag(key) -> str:
    return f"--{key.replace('_', '-')}"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_values(cfg) -> None:
    """Raise UsageError naming the flag of any set value of the wrong type or
    range; config-file values skip argparse's types, so this checks both."""
    for key, least in _INT_MINIMUMS.items():
        value = cfg.get(key)
        if value is not None and not (_is_int(value) and value >= least):
            raise UsageError(f"{_flag(key)} must be an integer >= {least}, "
                             f"got {value!r}")
    for key in _STR_KEYS:
        if cfg.get(key) is not None and not isinstance(cfg[key], str):
            raise UsageError(f"{_flag(key)} must be a string, got {cfg[key]!r}")
    if cfg.get("preset") is not None and cfg["preset"] not in PRESETS:
        raise UsageError(f"--preset must be one of {', '.join(sorted(PRESETS))}, "
                         f"got {cfg['preset']!r}")
    if cfg.get("order") is not None and not isinstance(cfg["order"], (str, list)):
        raise UsageError(f'--order must be "random" or a list of label indices, '
                         f"got {cfg['order']!r}")
    labels = cfg.get("labels")
    if labels is not None and not (
            _is_int(labels) or (isinstance(labels, list)
                                and all(isinstance(l, str) for l in labels))):
        raise UsageError(f"--labels must be a label count or a list of label names, "
                         f"got {labels!r}")
    label_ids = cfg.get("label_ids")
    if label_ids is not None and not (
            isinstance(label_ids, list) and label_ids
            and all(_is_int(l) for l in label_ids)):
        raise UsageError(f"--label-ids must be a non-empty list of label indices, "
                         f"got {label_ids!r}")
    budget = cfg.get("budget")
    if budget is not None and not (_is_int(budget) or budget == "full"):
        raise UsageError(f'--budget must be an integer or "full", got {budget!r}')


def _merge_config(ns) -> dict:
    """Config file values overridden by any flag given on the command line."""
    merged = {}
    if getattr(ns, "config", None):
        path = Path(ns.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise UsageError(f"config file {path} is not valid JSON: {err}")
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in CONFIG_KEYS:
        value = getattr(ns, key, None)
        if value is not None:
            merged[key] = value
    if isinstance(merged.get("labels"), str):
        merged["labels"] = _parse_labels_flag(merged["labels"])
    if isinstance(merged.get("label_ids"), str):
        try:
            merged["label_ids"] = [int(v) for v in merged["label_ids"].split(",") if v]
        except ValueError:
            raise UsageError(f"--label-ids must be comma-separated integers, "
                             f"got {merged['label_ids']!r}")
    _check_values(merged)
    return merged


def _get(cfg, key, default):
    """``cfg[key]``, or ``default`` when it is unset (None)."""
    value = cfg.get(key)
    return default if value is None else value


def _require(cfg, key):
    if cfg.get(key) is None:
        raise UsageError(f"{_flag(key)} is required")
    return cfg[key]


def _load_dataset(cfg):
    path = Path(_require(cfg, "data"))
    if not path.exists():
        raise UsageError(f"data file not found: {path}")
    fmt = _get(cfg, "format", path.suffix.lstrip(".").lower())
    labels = _require(cfg, "labels")
    if fmt == "arff":
        return load_arff(path, labels)
    if fmt == "csv":
        if isinstance(labels, int):
            raise UsageError("csv loading needs explicit label names, not a count")
        return load_csv(path, labels)
    raise UsageError(f"unknown dataset format {fmt!r}")


def _out_dir(cfg) -> Path:
    out = Path(_get(cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _hyperparams(cfg, seed):
    """Flat hyperparameter dict: preset values first, explicit flags on top."""
    params = {}
    algo = cfg.get("algo")
    if cfg.get("preset"):
        preset = dict(PRESETS[cfg["preset"]])
        algo = preset.pop("algo")
        params.update(preset)
    if algo is None:
        raise UsageError("--algo or --preset is required")
    for key in ("n_trees", "max_depth", "min_samples_leaf", "max_features",
                "bootstrap", "order", "k", "s"):
        if cfg.get(key) is not None:
            params[key] = cfg[key]
    if isinstance(params.get("order"), str) and params["order"] != "random":
        params["order"] = [int(v) for v in params["order"].split(",")]
    params["seed"] = seed
    return algo, params


def cmd_train(cfg) -> int:
    seed = _require(cfg, "seed")
    dataset = _load_dataset(cfg)
    algo, params = _hyperparams(cfg, seed)
    model = fit_point(algo, dataset, params)
    out = _out_dir(cfg)
    model_path = out / "model.json"
    save_model(model, model_path)
    train_predictions = model.predict(dataset.features)
    report = {
        "format": TRAIN_REPORT_FORMAT,
        "version": 1,
        "algorithm": algo,
        "params": {k: params[k] for k in sorted(params)},
        "dataset": {"name": dataset.name, "instances": dataset.n_instances,
                    "features": dataset.n_features, "labels": dataset.n_labels},
        "seed": seed,
        "train_metrics": {
            name: METRICS[name][0](dataset.labels, train_predictions)
            for name in sorted(METRICS)
        },
    }
    report_path = out / "train_report.json"
    _json.write(report_path, report)
    print(f"wrote {model_path}")
    print(f"wrote {report_path}")
    return 0


DEFAULT_MLKNN_GRID = {"k": list(range(1, 21))}


def cmd_tune(cfg) -> int:
    seed = _require(cfg, "seed")
    dataset = _load_dataset(cfg)
    algo = cfg.get("algo")
    if algo is None:
        raise UsageError("--algo is required")
    axes = cfg.get("grid")
    if isinstance(axes, str):
        try:
            axes = json.loads(axes)
        except json.JSONDecodeError as err:
            raise UsageError(f"--grid is not valid JSON: {err}")
    if axes is None:
        if algo != "mlknn":
            raise UsageError(f"--grid is required for algo {algo!r}")
        axes = DEFAULT_MLKNN_GRID
    if not isinstance(axes, dict):
        raise UsageError(f"--grid must be a JSON object of axis -> value list, "
                         f"got {axes!r}")
    points_need_seed = algo in ("br", "cc")
    if points_need_seed and "seed" not in axes:
        axes = dict(axes, seed=[seed])
    try:
        grid = ParamGrid(algorithm=algo, axes=axes)
    except ValueError as err:
        raise UsageError(f"--grid: {err}")
    foldplan = make_folds(dataset.n_instances, _get(cfg, "reps", 2),
                          _get(cfg, "folds", 5), seed)
    report = grid_search(dataset, grid, foldplan,
                         scoring=_get(cfg, "scoring", "hamming_loss"))
    out = _out_dir(cfg)
    report_path = out / "cv_report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    ranked = sorted(range(len(report.points)),
                    key=lambda i: (-report.means[i] if report.higher_is_better
                                   else report.means[i]))
    print(f"{report.scoring} ({'higher' if report.higher_is_better else 'lower'}"
          f" is better), {report.total_evaluations} evaluations")
    for i in ranked:
        marker = " *" if i == report.best_index else ""
        print(f"  {report.means[i]:.6f} +/- {report.stds[i]:.6f}  "
              f"{report.points[i]}{marker}")
    print(f"wrote {report_path}")
    return 0


def cmd_explain(cfg) -> int:
    seed = _require(cfg, "seed")
    dataset = _load_dataset(cfg)
    model_path = Path(_require(cfg, "model"))
    if not model_path.exists():
        raise UsageError(f"model file not found: {model_path}")
    model = load_model(model_path)
    if model.n_features != dataset.n_features:
        raise UsageError(f"model width {model.n_features} does not match dataset "
                         f"width {dataset.n_features}")
    instance = _require(cfg, "instance")
    if not 0 <= instance < dataset.n_instances:
        raise UsageError(f"instance {instance} out of range "
                         f"[0, {dataset.n_instances})")
    label_ids = _get(cfg, "label_ids", list(range(model.n_labels)))
    bad = [l for l in label_ids if not 0 <= l < model.n_labels]
    if bad:
        raise UsageError(f"label ids out of range: {bad}")
    try:
        estimator = resolve_estimator(model, cfg.get("estimator"))
    except ValueError as err:
        raise UsageError(str(err))
    if estimator == "exact" and model.n_features > ENUMERATION_CAP:
        raise UsageError(
            f"exact estimator is capped at {ENUMERATION_CAP} features; this model "
            f"has {model.n_features}. Use --estimator kernel."
        )
    background = sample_background(dataset.features,
                                   size=_get(cfg, "background", 100), seed=seed)
    explanations = explain_instance(
        model, dataset.features[instance], background, label_ids,
        estimator=estimator, budget=cfg.get("budget"), seed=seed, instance=instance,
    )
    out = _out_dir(cfg)
    for expl in explanations:
        path = out / f"explanation_i{instance}_l{expl.label}.json"
        _json.write(path, explanation_to_doc(expl))
        print(f"wrote {path}")
    return 0


def cmd_plot(ns) -> int:
    paths = [Path(p) for p in ns.inputs]
    for path in paths:
        if not path.exists():
            raise UsageError(f"explanation file not found: {path}")
    explanations = [load_explanation(p) for p in paths]
    out = Path(ns.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    if ns.kind == "importance":
        payload = feature_importance(explanations)
        title = ns.title or "Mean |SHAP value| per feature"
    elif ns.kind == "summary":
        if ns.label is not None:
            explanations = [e for e in explanations if e.label == ns.label]
            if not explanations:
                raise UsageError(f"no explanations for label {ns.label}")
        labels = {e.label for e in explanations}
        if len(labels) > 1:
            raise UsageError(f"summary plot needs one label; found {sorted(labels)}. "
                             "Pass --label to pick one.")
        payload = summary_points(explanations)
        title = ns.title or f"SHAP summary, label {payload.label}"
    else:
        if len(explanations) != 1:
            raise UsageError("force plot takes exactly one explanation file")
        payload = force_data(explanations[0])
        title = ns.title or "Prediction forces"
    spec = plot_spec(payload, title=title)
    svg_path = out / f"{ns.kind}.svg"
    json_path = out / f"{ns.kind}.json"
    svg_path.write_text(render_svg(spec), encoding="utf-8")
    json_path.write_text(write_json(spec), encoding="utf-8")
    print(f"wrote {svg_path}")
    print(f"wrote {json_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "plot":
            return cmd_plot(ns)
        cfg = _merge_config(ns)
        if ns.command == "train":
            return cmd_train(cfg)
        if ns.command == "tune":
            return cmd_tune(cfg)
        return cmd_explain(cfg)
    except (UsageError, ParseError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (EstimationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
