"""Command-line front end: train, tune, explain, plot.

Every command is reproducible: the input files, the merged configuration, and
the seed fully determine all output bytes. Exit codes: 0 success, 1 runtime or
estimation error, 2 usage or parse error.

A flag overrides the config-file key of its name. Every set value is read
and checked against ``_SETTINGS``, whichever command or algorithm reads it,
and a bad one exits 2 naming its flag; the library checks hyperparameters.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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


class UsageError(Exception):
    pass


class _Setting(NamedTuple):
    takes: str  # in words, for --help and for the error naming the flag
    test: Callable[[object], bool]
    read: Callable[[str], object] | None = None  # its text; ValueError if unreadable


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at_least(least: int) -> _Setting:
    return _Setting(f"an integer >= {least}", lambda v: _is_int(v) and v >= least)


def _one_of(names) -> _Setting:
    return _Setting(f"one of {', '.join(names)}", lambda v: v in names)


def _text(what: str) -> _Setting:
    return _Setting(what, lambda v: isinstance(v, str))


def _fields(text: str, read) -> list:
    """Comma-separated ``text``, each field stripped and read by ``read``; an
    empty field raises ValueError, it is not skipped."""
    fields = [field.strip() for field in text.split(",")]
    if "" in fields:
        raise ValueError("a field is empty")
    return [read(field) for field in fields]


# What each setting takes, and the reader of those given as text. The library
# checks the hyperparameters, but the text of CC's order is read here. Only a
# missing (None) value means "use the default"; 0 is a value like any other.
_SETTINGS = {
    "data": _text("a dataset file path"),
    "format": _one_of(("arff", "csv")),
    "labels": _Setting("a trailing label count or label names, such as 14 or y0,y1",
                       lambda v: _is_int(v) or (isinstance(v, list)
                                                and all(isinstance(n, str) for n in v)),
                       lambda text: (int(text) if text.strip().isdecimal()
                                     else _fields(text, str))),
    "seed": _int_at_least(0),
    "out": _text("a directory path"),
    "algo": _one_of(sorted(_GRID_AXES)),
    "preset": _one_of(sorted(PRESETS)),
    "order": _Setting('"random" or a chain of label indices, such as 2,0,1',
                      lambda v: v == "random" or isinstance(v, list),
                      lambda text: text if text == "random" else _fields(text, int)),
    "grid": _Setting("a JSON object of axis -> value list",
                     lambda v: isinstance(v, dict), json.loads),
    "reps": _int_at_least(1),
    "folds": _int_at_least(2),
    "scoring": _one_of(sorted(METRICS)),
    "model": _text("a model JSON file path"),
    "instance": _int_at_least(0),
    "label_ids": _Setting("distinct label indices, such as 0,2",
                          lambda v: isinstance(v, list) and v != []
                          and all(_is_int(i) for i in v) and len(set(v)) == len(v),
                          lambda text: _fields(text, int)),
    "estimator": _one_of(ESTIMATORS),
    "budget": _Setting('an integer or "full"', lambda v: _is_int(v) or v == "full"),
    "background": _int_at_least(1),
}

CONFIG_KEYS = set(_SETTINGS).union(*(keys for keys, _ in _GRID_AXES.values()))


def _flag(key) -> str:
    return f"--{key.replace('_', '-')}"


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

    def add(p, key, what, **kwargs):
        """The flag of setting ``key``; its help ends with what it takes."""
        p.add_argument(_flag(key), dest=key, help=f"{what}: {_SETTINGS[key].takes}",
                       **kwargs)

    def add_data_flags(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        add(p, "data", "required")
        add(p, "format", "dataset format (default: by file extension)")
        add(p, "labels", "label columns")
        add(p, "seed", "rng seed (required)", type=int)
        add(p, "out", "output directory (default: .)")

    train = sub.add_parser("train", help="fit a model and write model + report")
    add_data_flags(train)
    add(train, "algo", "algorithm (or --preset)")
    add(train, "preset", "published hyperparameters, flags on top")
    train.add_argument("--n-trees", type=int, dest="n_trees")
    train.add_argument("--max-depth", type=int, dest="max_depth")
    train.add_argument("--min-samples-leaf", type=int, dest="min_samples_leaf")
    train.add_argument("--max-features", type=_int_or("sqrt"),
                       dest="max_features")
    add(train, "order", "cc chain order")
    train.add_argument("--k", type=int,
                       help="mlknn neighbor count (required unless --preset gives it)")
    train.add_argument("--s", type=float, help="mlknn smoothing")

    tune = sub.add_parser("tune", help="cross-validated grid search")
    add_data_flags(tune)
    add(tune, "algo", "algorithm")
    add(tune, "grid", "grid (default for mlknn: k = 1..20)")
    add(tune, "reps", "repetitions (default 2)", type=int)
    add(tune, "folds", "folds per repetition (default 5)", type=int)
    add(tune, "scoring", "metric (default hamming_loss)")

    explain = sub.add_parser("explain", help="write per-label explanation JSON files")
    add_data_flags(explain)
    add(explain, "model", "from `train` (required)")
    add(explain, "instance", "row index to explain", type=int)
    add(explain, "label_ids", "labels to explain (default: all)")
    add(explain, "estimator", "default: tree for br models, kernel otherwise")
    add(explain, "budget", "kernel coalition budget (kernel only)", type=_int_or("full"))
    add(explain, "background", "background sample size (default 100)", type=int)

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


def _check_values(cfg) -> None:
    """Read each set value given as text, in place, and check each set value
    against its setting, raising UsageError naming the flag. Config-file
    values skip argparse, so this is where both are checked."""
    for key, (takes, test, read) in _SETTINGS.items():
        value = cfg.get(key)
        if value is None:
            continue
        if read is not None and isinstance(value, str):
            try:
                value = cfg[key] = read(value)
            except ValueError as err:
                raise UsageError(f"{_flag(key)} must be {takes}, got {value!r}: {err}")
        if not test(value):
            raise UsageError(f"{_flag(key)} must be {takes}, got {value!r}")


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
    is not one. ``main`` calls this before a command's work, and the command
    calls ``_made`` after it, so a failed run makes no directory."""
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
    among them for forests: preset values first, explicit flags on top. One
    the algorithm requires (``_GRID_AXES``) and neither gives is a UsageError."""
    params = {}
    algo = cfg.get("algo")
    if cfg.get("preset"):
        preset = dict(PRESETS[cfg["preset"]])
        algo = preset.pop("algo")
        params.update(preset)
    if algo is None:
        raise UsageError("--algo or --preset is required")
    keys, required = _GRID_AXES[algo]
    params.update({key: cfg[key] for key in keys if cfg.get(key) is not None})
    for key in required:
        _require(params, key)
    return algo, params


def cmd_train(cfg, seed, out, dataset) -> int:
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


def cmd_tune(cfg, seed, out, dataset) -> int:
    algo = _require(cfg, "algo")
    axes = cfg.get("grid")
    if axes is None:
        if algo != "mlknn":
            raise UsageError(f"--grid is required for algo {algo!r}")
        axes = DEFAULT_MLKNN_GRID
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


def cmd_explain(cfg, seed, out, dataset) -> int:
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
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "plot":
            return cmd_plot(ns)
        cfg = _merge_config(ns)
        seed = _require(cfg, "seed")
        out = _out_dir(cfg.get("out"))
        dataset = _load_dataset(cfg)
        command = {"train": cmd_train, "tune": cmd_tune, "explain": cmd_explain}
        return command[ns.command](cfg, seed, out, dataset)
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
