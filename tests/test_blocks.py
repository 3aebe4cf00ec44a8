"""``_blocks.map_slices``: the slices, the threads that run them, and the
explanation bytes, which must not depend on the thread count; the row slices
of ``gemm_slices``; and cache-sized chunks, which change no output byte."""

import contextvars
import sys
import threading
import time

import numpy as np
import pytest

from mlshap import (
    ForestParams,
    ParamGrid,
    explain_instance,
    fit_br,
    fit_cc,
    fit_mlknn,
    grid_search,
    make_folds,
    sample_background,
)
from mlshap import _blocks, _json
from mlshap.multilabel import _label_words
from mlshap.shapley import explanation_to_doc

from _synth import planted_dataset

BUDGET = 1 << 20


@pytest.fixture()
def workers(monkeypatch):
    """Sets ``_blocks._WORKERS`` and a 1 MiB budget; returns the setter."""
    monkeypatch.setattr(_blocks, "_BLOCK_BYTES", BUDGET)

    def use(n):
        monkeypatch.setattr(_blocks, "_WORKERS", n)
    return use


def run(n_rows, row_bytes, pool=False):
    """map_slices over an identity ``fn``, and the thread that ran each slice;
    each slice sleeps a little, so the pool threads get slices too. With
    ``pool``, the calling thread also holds its slices until a pool thread
    has taken one (10 s at most), so a loaded machine that starts the pool
    threads late cannot leave every slice to the calling thread."""
    threads = {}
    caller, helped = threading.get_ident(), threading.Event()

    def fn(rows):
        threads[(rows.start, rows.stop)] = threading.get_ident()
        if threading.get_ident() != caller:
            helped.set()
        elif pool:
            helped.wait(10)
        time.sleep(0.002)
        return rows
    return _blocks.map_slices(fn, n_rows, row_bytes), threads


@pytest.mark.parametrize("n_rows,row_bytes", [(1000, 4096), (9, BUDGET), (5, 7), (0, 64)])
def test_one_worker_runs_row_slices(workers, n_rows, row_bytes):
    workers(1)
    slices, threads = run(n_rows, row_bytes)
    assert slices == _blocks.row_slices(n_rows, row_bytes)
    assert set(threads.values()) <= {threading.get_ident()}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("n_rows,row_bytes", [(1000, 4096), (9, BUDGET), (64, BUDGET // 8)])
def test_slices_split_the_budget(workers, n, n_rows, row_bytes):
    """In order, covering the rows, within one share of the budget each, at
    least n of them, and run on more than the calling thread."""
    workers(n)
    slices, threads = run(n_rows, row_bytes, pool=True)
    assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
    assert slices[-1].stop == n_rows
    assert len(slices) >= n
    assert all(s.stop - s.start == 1 or (s.stop - s.start) * row_bytes <= BUDGET // n
               for s in slices)
    assert len(set(threads.values())) > 1


@pytest.mark.parametrize("n", [1, 2])
def test_a_caller_budget_cuts_the_slices(workers, n):
    """A caller's ``budget`` takes the place of ``_BLOCK_BYTES``: each slice
    holds at most its share of it, and work below an eighth of it stays on
    the calling thread."""
    workers(n)
    slices = _blocks.map_slices(lambda rows: rows, 1000, 4096, BUDGET // 4)
    assert slices[-1].stop == 1000 and len(slices) >= 4 * n
    assert all((s.stop - s.start) * 4096 <= BUDGET // 4 // n for s in slices)
    below = _blocks.map_slices(lambda rows: threading.get_ident(), 7, 4096, BUDGET // 4)
    assert below == [threading.get_ident()]


def test_work_below_the_floor_stays_on_the_calling_thread(workers):
    workers(4)
    slices, threads = run(100, BUDGET // 8 // 100 - 1)
    assert slices == [slice(0, 100)]
    assert set(threads.values()) == {threading.get_ident()}


def test_a_call_inside_a_slice_runs_serially_on_its_thread(workers):
    """The inner blocks run on the outer slice's thread, in order, each
    within that thread's share; no more slices run at once than threads."""
    workers(3)
    lock = threading.Lock()
    running, most = [0], [0]
    inner = []

    def inner_fn(rows):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        inner.append((threading.get_ident(), rows))
        with lock:
            running[0] -= 1
        return rows

    def outer(rows):
        got = _blocks.map_slices(inner_fn, 50, BUDGET // 20)
        assert got == [slice(i, min(i + 6, 50)) for i in range(0, 50, 6)]
        time.sleep(0.002)
        return threading.get_ident()

    outer_threads = _blocks.map_slices(outer, 12, BUDGET // 3)
    assert len(outer_threads) == 12 and len(set(outer_threads)) > 1
    assert len(inner) == 12 * 9 and most[0] <= 3
    for ident in set(outer_threads):
        mine = [rows for t, rows in inner if t == ident]
        assert len(mine) == 9 * outer_threads.count(ident)


class Boom(Exception):
    pass


def test_an_exception_reaches_the_caller_and_the_helper_still_works(workers):
    workers(2)

    def fn(rows):
        if rows.start == 256:
            raise Boom(rows.start)
        return rows.start

    with pytest.raises(Boom) as err:
        _blocks.map_slices(fn, 1000, 4096)
    assert err.value.args == (256,)
    assert _blocks.map_slices(lambda rows: rows.start, 1000, 4096) == list(range(0, 1000, 128))


def test_of_several_exceptions_the_lowest_slice_wins(workers):
    workers(3)
    started = threading.Barrier(3, timeout=10)
    per_slice = BUDGET // 3 // 4096

    def fn(rows):
        if rows.start < 3 * per_slice:
            started.wait()  # the first three slices fail together
            raise Boom(rows.start)
        return rows

    with pytest.raises(Boom) as err:
        _blocks.map_slices(fn, 1000, 4096)
    assert err.value.args == (0,)


def test_slices_see_the_callers_context(workers):
    workers(2)
    var = contextvars.ContextVar("probe", default="unset")
    var.set("caller")

    def fn(rows):
        time.sleep(0.002)
        return var.get(), threading.get_ident()

    seen = _blocks.map_slices(fn, 1000, 4096)
    assert [value for value, _ in seen] == ["caller"] * len(seen)
    assert len({ident for _, ident in seen}) > 1


def test_many_short_slices_on_more_threads_than_cores(workers):
    """A lost update or a slice run twice breaks the order or the count."""
    workers(5)
    counts = [0] * 4000
    out = []

    def fn(rows):
        for i in range(rows.start, rows.stop):
            counts[i] += 1
        return rows.start

    def body():
        out.append(_blocks.map_slices(fn, 4000, BUDGET // 5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert out == [list(range(4000))] and counts == [1] * 4000


def _models():
    """CC, ML-kNN and BR models, with 8 features and 3 labels."""
    ds = planted_dataset("threads", 200, 8, 3, seed=5)
    params = ForestParams(n_trees=3, max_depth=5, seed=1)
    return ds, {"cc": fit_cc(ds, params, seed=2), "mlknn": fit_mlknn(ds, k=5),
                "br": fit_br(ds, params)}


@pytest.mark.parametrize("budget", ["default", "1 MiB", "one mask"])
def test_explanation_bytes_do_not_depend_on_the_thread_count(monkeypatch, budget):
    """Each explanation document is the same bytes with 1, 2 or 3 threads, at
    a budget that splits the coalitions (and the ML-kNN queries) into a few
    blocks, into many, and into one mask each. 160 background rows put the
    default budget's 254 or 256 masks above the floor of ``map_slices``; 8
    keep one mask per block quick."""
    ds, models = _models()
    bg = sample_background(ds.features, size=8 if budget == "one mask" else 160, seed=0)
    cases = [(a, e) for a in ("cc", "mlknn") for e in ("kernel", "exact")]
    cases.append(("br", "kernel"))
    if budget != "default":
        # One mask is its B rows of 8 features and the (B, 3) output twice.
        monkeypatch.setattr(_blocks, "_BLOCK_BYTES",
                            BUDGET if budget == "1 MiB" else 8 * len(bg) * (8 + 2 * 3))
    shared = []
    run_shared = _blocks._run_shared
    monkeypatch.setattr(_blocks, "_run_shared",
                        lambda *args: shared.append(1) or run_shared(*args))
    docs = {}
    for n in (1, 2, 3):
        monkeypatch.setattr(_blocks, "_WORKERS", n)
        shared.clear()
        docs[n] = [_json.dumps(explanation_to_doc(e))
                   for algo, estimator in cases
                   for e in explain_instance(models[algo], ds.features[7], bg, [2, 0, 1],
                                             estimator=estimator, seed=3, instance=7)]
        assert bool(shared) == (n > 1)
    assert docs[2] == docs[1] and docs[3] == docs[1]


# ML-kNN's ranking product is (rows, M + 1) @ (M + 1, n_train) and its mask
# product (rows, n_train) @ (n_train, W), W the packed label words.
@pytest.mark.parametrize("n_train, M, L, k, ranking, mask", [
    (407, 21, 12, 5, 29, 322),  # foodtruck-like: 2 words
    (2417, 103, 14, 10, None, 36),  # yeast-like: 3 words; one ranking product
], ids=["foodtruck", "yeast"])
def test_gemm_slices_at_the_stand_in_shapes(n_train, M, L, k, ranking, mask):
    words, _ = _label_words(np.zeros((n_train, L), dtype=np.int64), k)
    for (inner, cols), rows in (((M + 1, n_train), ranking),
                                ((n_train, words.shape[1]), mask)):
        lengths = [s.stop - s.start for s in _blocks.gemm_slices(1000, inner, cols)]
        assert lengths == ([1000] if rows is None
                           else [rows] * (1000 // rows) + [1000 % rows])
        assert rows is None or rows * inner * cols <= _blocks._ONE_THREAD_GEMM


@pytest.mark.parametrize("n_rows, inner, cols, want", [
    (5, 2**17, 1, [(0, 2), (2, 4), (4, 5)]),  # two rows a slice
    (5, 2**17 + 1, 1, [(0, 5)]),  # one row a slice: all rows at once
    (5, 2**19, 1, [(0, 5)]),  # no row: all rows at once
    (0, 2, 3, []),
    (0, 2**19, 1, []),
])
def test_gemm_slices_hold_two_rows_or_all(n_rows, inner, cols, want):
    assert [(s.start, s.stop) for s in _blocks.gemm_slices(n_rows, inner, cols)] == want


def test_one_byte_cache_chunks_change_no_byte(monkeypatch):
    """With ``_CACHE_BYTES`` at 1, every cache-sized chunk is one row (one
    total of the entropy table, one node of a split block, one row of the
    tile sorts and of the leave-one-out order), and the forests' model
    documents, the ML-kNN fit statistics, the tune's report and an ML-kNN
    kernel explanation are the bytes of the default chunks."""
    ds = planted_dataset("cache", 120, 8, 3, seed=5)
    params = ForestParams(n_trees=3, max_depth=5, seed=1)
    background = sample_background(ds.features, size=20, seed=0)
    plan = make_folds(ds.n_instances, 2, 3, seed=1)

    def outputs():
        knn = fit_mlknn(ds, k=5)
        return [
            _json.dumps(fit_br(ds, params).to_doc()),
            _json.dumps(fit_cc(ds, params, seed=2).to_doc()),
            [a.tobytes() for a in (knn.cond_counts_pos, knn.cond_counts_neg,
                                   knn._posteriors)],
            grid_search(ds, ParamGrid("mlknn", {"k": [1, 4, 9]}), plan).to_json(),
            [_json.dumps(explanation_to_doc(e))
             for e in explain_instance(knn, ds.features[7], background, [2, 0, 1],
                                       estimator="kernel", seed=3, instance=7)],
        ]

    want = outputs()
    monkeypatch.setattr(_blocks, "_CACHE_BYTES", 1)
    assert outputs() == want
