"""The benchmark's workloads: set-up, timed CLI cycles, plot views and checks.

One client sends CLI requests one after another (a closed loop) through
``mlshap.cli.main`` in this process, so every request pays the ARFF parse,
the model JSON load, the work and the JSON/SVG emission a user pays. A cycle
is one pass over a workload's request mix; cycles repeat the same requests,
so every cycle must write the same bytes as the first.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

import layers
import synth
from mlshap import cli
from mlshap.data import load_arff
from mlshap.multilabel import load_model
from mlshap.shapley import load_explanation
from mlshap.viz import spec_from_json, write_json
from spans import Tracer

N_TREES = 5  # forest presets default to 100 trees; 5 fits several cycles in a run
BACKGROUND = 20  # the README's 100 costs 5x more per request (linear in size)
BUDGET = 2 * synth.N_FEATURES + 2048  # the README default budget, 2M + 2048
TUNE_GRID = range(1, 21)  # `tune --algo mlknn` default grid
TUNE_EVALUATIONS = len(TUNE_GRID) * 2 * 5  # 2 x 5 fold plan
LOCAL_ACCURACY = 1e-6
PLOT_SHARE = 0.15  # share of the run spent rendering plot views
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 15, 1.0
# The first request of a process still runs slower than later ones; with at
# least two cycles every measured run holds the same mix (an explain-knn cycle
# can outlast the budget on its own).
MIN_CYCLES = 2

PRESETS = {"br": "paper-br", "cc": "paper-cc", "mlknn": "paper-mlknn"}

# workload -> (models trained in set-up and explained in every cycle, speed
# probe kernel); `fit` trains and tunes inside its cycles instead.
WORKLOADS = {
    "explain-forest": (("br", "cc"), "array"),
    "explain-knn": (("mlknn",), "distance"),
    "fit": ((), "array"),
}


def tree_digest(directory: Path) -> str:
    """sha256 over every file below ``directory``: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class SpeedProbe:
    """Times a fixed piece of numpy and interpreter work that is not mlshap code.

    On a shared host the machine's speed swings (on 2 cores, by up to 1.7x for
    minutes at a time) and every request slows with it. A time divided by the
    probe time taken beside it, times the kernel's reference time, is in
    seconds at one reference speed, so a run made in a slow spell compares
    with one made in a fast spell. Each workload uses the kernel whose
    bottleneck is most like its own: small-array indexing, sorting and
    interpreter work ("array"), or a distance block and its row sort
    ("distance", which tracks ML-kNN queries; "array" did not).
    """

    # Kernel -> SpeedProbe.sample() on a fast 2-core host; it only sets the scale.
    REFERENCE_S = {"array": 0.020, "distance": 0.045}

    def __init__(self, kernel: str):
        rng = np.random.default_rng(0)
        self.kernel = kernel
        self.X = rng.normal(size=(40_000, 21))
        self.rows = np.arange(40_000)
        self.cols = rng.integers(0, 21, size=40_000)
        self.D = rng.normal(size=(300, 400))
        self.doc = [{"i": i, "v": float(v)} for i, v in enumerate(rng.normal(size=3000))]
        self.queries = rng.normal(size=(2000, 21))
        self.train = rng.normal(size=(407, 21))

    def _once(self) -> float:
        start = time.perf_counter()
        if self.kernel == "distance":
            d2 = cdist(self.queries, self.train, "sqeuclidean")
            np.argsort(d2, axis=1, kind="stable")
        else:
            for _ in range(10):
                v = self.X[self.rows, self.cols]
                np.where(v <= 0.0, self.cols, -self.cols)
            np.argsort(self.D, axis=1, kind="stable")
            json.dumps(self.doc)
            sum(i * i for i in range(30_000))
        return time.perf_counter() - start

    def sample(self) -> float:
        return statistics.median(self._once() for _ in range(5))

    def at_reference_speed(self, seconds: float, probe_s: float) -> float:
        return seconds * self.REFERENCE_S[self.kernel] / probe_s


def _between(probes: list[float]) -> list[float]:
    """Mean of the probes on either side of each timed step."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


class Session:
    """One benchmark run: its work directory, counters and optional tracer."""

    def __init__(self, workload: str, seed: int, work: Path, tracer: Tracer | None):
        self.models, kernel = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.tracing = tracer is not None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fitted = []  # models `train` saved, for the reload check
        self._expected_fx = {}
        self.instance = int(np.random.default_rng(seed).integers(synth.N_INSTANCES))
        self.arff = work / "setup0" / "data.arff"
        self.probe = SpeedProbe(kernel)
        original_save = cli.save_model

        def save_and_keep(model, path):
            self.fitted.append(model)
            original_save(model, path)

        cli.save_model = save_and_keep
        self._restore_save = lambda: setattr(cli, "save_model", original_save)

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.remove()
        self._restore_save()

    # -- bookkeeping ---------------------------------------------------------

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @contextmanager
    def checking(self, what: str):
        """Run a check untraced; a check that raises has failed."""
        with self.tracer.pause() if self.tracing else nullcontext():
            try:
                yield
            except Exception as err:
                self.record(False, f"{what}: {err!r}")

    def cli(self, *argv) -> float:
        """Run one CLI request in-process; a non-zero exit or a crash fails it."""
        argv = [str(a) for a in argv]
        sink = io.StringIO()
        span = self.tracer.request(f"cli.{argv[0]}") if self.tracing else nullcontext()
        start = time.perf_counter()
        try:
            with span, redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        except Exception:  # a crash is a failed request, not a dead benchmark
            code = -1
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.record(code == 0, f"{argv[0]} exited {code}: "
                               f"{sink.getvalue()[-300:]}")
        return elapsed

    # -- requests ------------------------------------------------------------

    def train(self, model: str, out: Path, data: Path) -> float:
        extra = () if model == "mlknn" else ("--n-trees", N_TREES)
        seconds = self.cli("train", "--data", data, "--labels", synth.N_LABELS,
                           "--preset", PRESETS[model], "--seed", self.seed,
                           "--out", out, *extra)
        self.check_train(out, data)
        return seconds

    def tune(self, out: Path) -> float:
        seconds = self.cli("tune", "--data", self.arff, "--labels", synth.N_LABELS,
                           "--algo", "mlknn", "--seed", self.seed, "--out", out)
        with self.checking("cv_report"):
            doc = json.loads((out / "cv_report.json").read_text())
            self.record(doc.get("total_evaluations") == TUNE_EVALUATIONS
                        and doc.get("best_params", {}).get("k") in TUNE_GRID,
                        f"cv_report: {doc.get('total_evaluations')} evaluations, "
                        f"best {doc.get('best_params')}")
        return seconds

    def explain(self, model: str, out: Path) -> float:
        model_path = self.work / "setup0" / model / "model.json"
        seconds = self.cli("explain", "--data", self.arff, "--labels", synth.N_LABELS,
                           "--model", model_path, "--instance", self.instance,
                           "--budget", BUDGET, "--background", BACKGROUND,
                           "--seed", self.seed, "--out", out)
        self.check_explanations(model_path, out)
        return seconds

    # -- output checks -------------------------------------------------------

    def check_train(self, out: Path, data: Path) -> None:
        """The reloaded model.json predicts exactly what the fitted model did."""
        path = out / "model.json"
        with self.checking(f"reload {path}"):
            fitted = self.fitted.pop()
            X = load_arff(data, synth.N_LABELS).features
            self.record(np.array_equal(load_model(path).predict_proba(X),
                                       fitted.predict_proba(X)),
                        f"reloaded {path} predicts differently from the fit")

    def check_explanations(self, model_path: Path, out: Path) -> None:
        """Local accuracy, finite phi, and fx equal to the reloaded model's output."""
        with self.checking(f"explanations in {out}"):
            if model_path not in self._expected_fx:
                x = load_arff(self.arff, synth.N_LABELS).features[self.instance]
                self._expected_fx[model_path] = load_model(model_path).predict_proba(x)
            expected = self._expected_fx[model_path]
            files = sorted(out.glob("explanation_*.json"))
            self.record(len(files) == synth.N_LABELS,
                        f"{out}: {len(files)} explanation files")
            for path in files:
                e = load_explanation(path)
                ok = (e.local_accuracy_gap() <= LOCAL_ACCURACY
                      and np.isfinite(e.phi).all() and np.isfinite(e.base_value)
                      and e.fx == expected[e.label])
                self.record(ok, f"{path.name}: gap {e.local_accuracy_gap():.3g}, "
                                f"fx {e.fx!r} vs {expected[e.label]!r}")

    def check_plot_specs(self, out: Path) -> None:
        for path in sorted(out.rglob("*.json")):
            with self.checking(f"plot spec {path}"):
                text = path.read_text(encoding="utf-8")
                self.record(write_json(spec_from_json(text)) == text,
                            f"{path} does not round-trip through spec_from_json")

    def check_same_bytes(self, directory: Path, reference: Path) -> None:
        with self.checking(f"bytes of {directory.name}"):
            self.record(tree_digest(directory) == tree_digest(reference),
                        f"{directory.name} differs from {reference.name}")

    # -- phases --------------------------------------------------------------

    def setup_once(self, rep: int) -> float:
        """Write the stand-in ARFF and train the models the workload explains."""
        directory = self.work / f"setup{rep}"
        directory.mkdir()
        start = time.perf_counter()
        synth.write_arff(directory / "data.arff", self.seed)
        seconds = time.perf_counter() - start
        for model in self.models:
            seconds += self.train(model, directory / model, directory / "data.arff")
        if rep > 0:
            self.check_same_bytes(directory, self.work / "setup0")
        return seconds

    def setup(self, repeat: bool) -> tuple[list[float], list[float]]:
        """Set-up times, one when ``repeat`` is false, else at least three and
        more until a second has passed; plus the probe time beside each."""
        times, probes = [], [self.probe.sample()]
        while True:
            times.append(self.setup_once(len(times)))
            probes.append(self.probe.sample())
            if not repeat or len(times) >= SETUP_MAX_REPS or (
                    len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_S):
                return times, _between(probes)

    def cycle(self, directory: Path) -> dict[str, float]:
        """One pass over the request mix; request name -> seconds."""
        if not self.models:
            return {"train_br": self.train("br", directory / "br", self.arff),
                    "train_cc": self.train("cc", directory / "cc", self.arff),
                    "tune_mlknn": self.tune(directory / "tune")}
        return {f"explain_{m}": self.explain(m, directory / m) for m in self.models}

    def cycles(self, tag: str, budget_s: float, count: int | None = None,
               minimum: int = 1):
        """``count`` cycles, or at least ``minimum`` and until the next would
        overrun ``budget_s``.

        Returns the cycles and, for each, the mean probe time before and after it.
        """
        out = []
        probes = [self.probe.sample()]
        start = time.perf_counter()
        while True:
            directory = self.work / f"{tag}{len(out)}"
            out.append(self.cycle(directory))
            probes.append(self.probe.sample())
            if directory.name != "cycle0":
                self.check_same_bytes(directory, self.work / "cycle0")
            elapsed = time.perf_counter() - start
            if (len(out) >= count if count is not None
                    else len(out) >= minimum
                    and elapsed + 0.5 * elapsed / len(out) > budget_s):
                return out, _between(probes)

    def plot_views(self):
        """Every view over the first cycle's files: argv lists per view."""
        views = []
        for model in self.models:
            files = sorted((self.work / "cycle0" / model).glob("explanation_*.json"))
            out = self.work / "plots" / model
            views.append(["plot", "--kind", "importance", "--in", *files,
                          "--out", out / "importance"])
            for path in files:
                label = load_explanation(path).label
                views.append(["plot", "--kind", "summary", "--label", label,
                              "--in", *files, "--out", out / f"summary-l{label}"])
                views.append(["plot", "--kind", "force", "--in", path,
                              "--out", out / f"force-l{label}"])
        return views

    def plots(self, views, budget_s: float, reps: int | None = None):
        """Render every view, ``reps`` times or until ``budget_s`` has passed.

        Returns (views rendered, seconds spent in requests, repetitions).
        """
        rendered, seconds, rep = 0, 0.0, 0
        start = time.perf_counter()
        while True:
            for argv in views:
                seconds += self.cli(*argv)
            rendered += len(views)
            if rep == 0:
                self.check_plot_specs(self.work / "plots")
            rep += 1
            if reps is not None:
                if rep >= reps:
                    return rendered, seconds, rep
            elif time.perf_counter() - start >= budget_s:
                return rendered, seconds, rep


def warm_allocator() -> None:
    """Start every run with glibc's mmap threshold at its 32 MB maximum.

    glibc raises the threshold when it frees its first large block. Until then
    every mid-sized array is a fresh mmap that page-faults, so the first
    request of a process ran about 10% slower than identical later ones. The
    block is never touched, so it adds nothing to the resident set.
    """
    np.empty(32_000_000, dtype=np.uint8)  # allocated and freed at once


def _pass_seconds(cycles, plot_seconds) -> float:
    return sum(sum(c.values()) for c in cycles) + plot_seconds


def run(workload: str, seed: int, seconds: float, tracer: Tracer | None,
        work: Path) -> dict:
    """Run one workload, traced when given a tracer; returns metrics and counters."""
    trace = tracer is not None
    warm_allocator()
    session = Session(workload, seed, work, tracer)
    try:
        if tracer is not None:
            layers.install(tracer)
        setup_times, setup_probes = session.setup(repeat=not trace)
        budget = seconds * (1 - PLOT_SHARE) if session.models else seconds
        plot_budget = seconds * PLOT_SHARE
        if trace:  # untraced half first, then the same requests traced
            tracer.remove()
            session.tracing = False
            budget, plot_budget = budget / 2, plot_budget / 2
        cycles, probes = session.cycles("cycle", budget,
                                        minimum=1 if trace else MIN_CYCLES)
        views = session.plot_views()
        plotted = session.plots(views, plot_budget) if views else (0, 0.0, 0)
        if trace:
            layers.install(tracer)
            session.tracing = True
            traced_cycles, _ = session.cycles("traced", 0, count=len(cycles))
            traced_plot = session.plots(views, 0, reps=plotted[2]) if views \
                else (0, 0.0, 0)
            ratio = (_pass_seconds(traced_cycles, traced_plot[1])
                     / _pass_seconds(cycles, plotted[1]))
    finally:
        session.close()

    digest = hashlib.sha256()
    for part in ("setup0", "cycle0", "plots"):
        if (work / part).exists():
            digest.update(f"{part}:{tree_digest(work / part)}\n".encode())
    result = {
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures,
        "digest": digest.hexdigest(),
        "cycles": cycles,
        "cycle_probes": probes,
        "input_sha256": hashlib.sha256(session.arff.read_bytes()).hexdigest(),
        "params": {
            "seed": seed, "instance": session.instance, "n_trees": N_TREES,
            "background": BACKGROUND, "budget": BUDGET, "labels": synth.N_LABELS,
            "setup_reps": len(setup_times), "cycles": len(cycles),
            "requests_per_cycle": len(cycles[0]), "plot_views": plotted[0],
        },
    }
    if trace:
        metrics = layers.layer_metrics(tracer.spans)
        metrics["trace.overhead_ratio"] = ratio
        result["metrics"] = {k: (metrics[k], layers.UNITS[k]) for k in layers.UNITS}
        return result

    medians = {name: statistics.median(c[name] for c in cycles) for name in cycles[0]}
    totals = {name: sum(c[name] for c in cycles) for name in cycles[0]}
    cycle_totals = [sum(c.values()) for c in cycles]
    scale = session.probe.at_reference_speed
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_share = session.failed / session.attempted
    result["metrics"] = {
        "setup_s": (statistics.median(map(scale, setup_times, setup_probes)), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_op_share": (1.0 - failed_share, "share"),
        "cycle_s": (statistics.median(map(scale, cycle_totals, probes)), "s"),
    }
    # Raw wall times from here on: what this host took, at its speed of the moment.
    detail = {"setup_wall_s": (statistics.median(setup_times), "s"),
              "cycle_wall_s": (statistics.median(cycle_totals), "s"),
              "probe_ms": (1e3 * statistics.median(probes + setup_probes), "ms"),
              "failed_op_share": (failed_share, "share")}
    if session.models:
        for name, total in totals.items():
            pairs = synth.N_LABELS * len(cycles)
            detail[f"{name}_pairs_per_s"] = (pairs / total, "pairs/s")
        detail["plot_views_per_s"] = (plotted[0] / plotted[1], "views/s")
    else:
        detail.update({f"{name}_s": (value, "s") for name, value in medians.items()})
    result["detail"] = detail
    return result
