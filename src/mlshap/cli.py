"""Command-line front end: train, tune, explain, plot.

Every command is reproducible: the input files, the merged configuration, and
the seed fully determine all output bytes. Exit codes: 0 success, 1 runtime or
estimation error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import _json
from .data import ParseError, load_arff, load_csv, make_folds
from .evaluation import _GRID_AXES, METRICS, PRESETS, ParamGrid, fit_point, grid_search
from .multilabel import load_model, save_model
from .shapley import (
    ENUMERATION_CAP,
    ESTIMATORS,
    EstimationError,
    _coalition_budget,
    explain_instance,
    load_explanation,
    resolve_estimator,
    sample_background,
    save_explanation,
)
from .viz import feature_importance, force_data, plot_spec, render_svg, summary_points, write_json

TRAIN_REPORT_FORMAT = "mlshap-train-report"

CONFIG_KEYS = {
    "data", "format", "labels", "algo", "preset", "seed", "out",
    "grid", "reps", "folds", "scoring",
    "model", "instance", "label_ids", "estimator", "budget", "background",
}.union(*(keys for keys, _ in _GRID_AXES.values()))  # and every hyperparameter


class UsageError(Exception):
    pass


def _parse_labels_flag(text):
    """'14' -> trailing count, 'a,b,c' -> explicit names."""
    try:
        return int(text)
    except ValueError:
        return [part.strip() for part in text.split(",") if part.strip()]


# argparse turns only ValueError, TypeError and ArgumentTypeError from a
# type= function into a usage message (exit 2); anything else escapes it.
def _int_or(word: str):
    """An argparse type that reads ``word`` as itself and anything else as an
    integer."""
    def parse(text):
        if text == word:
            return word
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f'must be an integer or "{word}", got {text!r}')
    return parse


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
    train.add_argument("--max-features", type=_int_or("sqrt"),
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
    explain.add_argument("--budget", type=_int_or("full"),
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
    if label_ids is not None and len(set(label_ids)) != len(label_ids):
        raise UsageError(f"--label-ids must be distinct label indices, got {label_ids!r}")
    budget = cfg.get("budget")
    if budget is not None and not (_is_int(budget) or budget == "full"):
        raise UsageError(f'--budget must be an integer or "full", got {budget!r}')


def _input_file(path, kind: str) -> Path:
    """``path`` as a Path, or UsageError unless it names a regular file."""
    if not Path(path).is_file():
        raise UsageError(f"{kind} file not found or not a regular file: {path}")
    return Path(path)


def _merge_config(ns) -> dict:
    """Config file values overridden by any flag given on the command line."""
    merged = {}
    if getattr(ns, "config", None):
        path = _input_file(ns.config, "config")
        try:
            loaded = _json.read(path, "config")
        except ValueError as err:
            raise UsageError(str(err))
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
    path = _input_file(_require(cfg, "data"), "data")
    fmt = _get(cfg, "format", path.suffix.lstrip(".").lower())
    labels = _require(cfg, "labels")
    if fmt == "arff":
        return load_arff(path, labels)
    if fmt == "csv":
        if isinstance(labels, int):
            raise UsageError("csv loading needs explicit label names, not a count")
        return load_csv(path, labels)
    raise UsageError(f"unknown dataset format {fmt!r}")


def _out_dir(out) -> Path:
    """The output directory ``out`` (default: .), or UsageError naming --out
    when it exists and is not a directory, or its nearest existing ancestor
    is not one. Each command calls this before its work and ``_made`` after
    it, so a failed run makes no directory."""
    out = Path(out or ".")
    found = next(p for p in (out, *out.absolute().parents) if p.exists())
    if not found.is_dir():
        code = errno.EEXIST if found is out else errno.ENOTDIR
        raise UsageError(f"--out {out} cannot be made a directory: {os.strerror(code)}")
    return out


def _made(out: Path) -> Path:
    """``out``, made if missing, or UsageError naming --out if it cannot be."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"--out {out} cannot be made a directory: {err.strerror}")
    return out


def _hyperparams(cfg):
    """Flat dict of the hyperparameters the algorithm's fit reads, the seed
    among them for forests: preset values first, explicit flags on top."""
    params = {}
    algo = cfg.get("algo")
    if cfg.get("preset"):
        preset = dict(PRESETS[cfg["preset"]])
        algo = preset.pop("algo")
        params.update(preset)
    if algo is None:
        raise UsageError("--algo or --preset is required")
    if algo not in _GRID_AXES:
        raise ValueError(f"unknown algorithm {algo!r}")
    params.update({key: cfg[key] for key in _GRID_AXES[algo][0]
                   if cfg.get(key) is not None})
    if isinstance(params.get("order"), str) and params["order"] != "random":
        try:
            params["order"] = [int(v) for v in params["order"].split(",")]
        except ValueError:
            raise UsageError(f'--order must be "random" or comma-separated label '
                             f"indices, got {params['order']!r}")
    return algo, params


def cmd_train(cfg) -> int:
    seed = _require(cfg, "seed")
    out = _out_dir(cfg.get("out"))
    dataset = _load_dataset(cfg)
    algo, params = _hyperparams(cfg)
    model = fit_point(algo, dataset, params)
    model_path = _made(out) / "model.json"
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
    out = _out_dir(cfg.get("out"))
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
    if algo in ("br", "cc") and "seed" not in axes:
        axes = dict(axes, seed=[seed])
    try:
        grid = ParamGrid(algorithm=algo, axes=axes)
    except ValueError as err:
        raise UsageError(f"--grid: {err}")
    foldplan = make_folds(dataset.n_instances, _get(cfg, "reps", 2),
                          _get(cfg, "folds", 5), seed)
    report = grid_search(dataset, grid, foldplan,
                         scoring=_get(cfg, "scoring", "hamming_loss"))
    report_path = _made(out) / "cv_report.json"
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
    out = _out_dir(cfg.get("out"))
    dataset = _load_dataset(cfg)
    model = load_model(_input_file(_require(cfg, "model"), "model"))
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
    if estimator == "kernel":
        try:
            _coalition_budget(cfg.get("budget"), model.n_features)
        except ValueError as err:
            raise UsageError(f"--budget: {err}")
    background = sample_background(dataset.features,
                                   size=_get(cfg, "background", 100), seed=seed)
    explanations = explain_instance(
        model, dataset.features[instance], background, label_ids,
        estimator=estimator, budget=cfg.get("budget"), seed=seed, instance=instance,
    )
    _made(out)
    for expl in explanations:
        path = out / f"explanation_i{instance}_l{expl.label}.json"
        save_explanation(expl, path)
        print(f"wrote {path}")
    return 0


def cmd_plot(ns) -> int:
    out = _out_dir(ns.out)
    explanations = [load_explanation(_input_file(p, "explanation")) for p in ns.inputs]
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
    svg_path = _made(out) / f"{ns.kind}.svg"
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


if __name__ == "__main__":
    entrypoint()
