"""The one byte budget that bounds every large block of work, and the threads
that share the blocks.

Explaining a prediction builds blocks whose size grows with the request:
synthesized (coalition x background) rows, (query x training row) distances,
(background x path feature x leaf) cells; fitting forests holds (tree in
flight x training row) row ids. Each caller states how many bytes one row of
its block holds, and :func:`row_slices` cuts the rows so a block holds at
most ``_BLOCK_BYTES``, but never fewer than one row. Arrays that
scale with the model rather than the request, such as a forest's leaf paths,
are outside the budget: they are fixed by the loaded forests, and every
background block of ``tree_shap`` tests every leaf, so cutting the leaves
into groups would repeat each block's background gather per group and change
the order, and so the last bits, of each feature's sum.

:func:`map_slices` runs the slices of a block on the calling thread and one
pool thread per extra CPU of the process's affinity mask (``_WORKERS`` in
all), each slice within its thread's share of the budget, so the blocks in
flight together stay within it. Only callers whose rows are computed
independently of each other use it, so its results do not depend on how many
threads there are. Cache-sized chunks are cut by :func:`row_slices` at
``_CACHE_BYTES``, and products that must stay on their block's thread by
:func:`gemm_slices`.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_BLOCK_BYTES = 32 * 2**20

# Bytes the working arrays of a cache-sized chunk hold, so it stays in cache.
# Split blocks (16 B a cell): 4 096 to 32 768 cells timed alike on the
# foodtruck- and yeast-shaped stand-ins, 2 048 and 262 144 slower, and from the
# entropy table neither 8 192 nor 32 768 beat 16 384 on both (CHANGES.md,
# lockstep grower and entropy table). Leave-one-out order (8 B a distance),
# foodtruck-like, K = 102: 80-row chunks took 5.6 ms, one 407-row block 6.4 ms
# (minimum of 40), and the fit benchmark's peak RSS fell about 1 MB.
_CACHE_BYTES = 2**18

# OpenBLAS runs an (m, k) @ (k, n) product on the calling thread when
# m·n·k <= 2**18 (its SMP_THRESHOLD_MIN times GEMM_MULTITHREAD_THRESHOLD),
# in float32 as in float64.
_ONE_THREAD_GEMM = 2**18


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_WORKERS = _cpu_count()

# True while this thread runs a slice of a shared block; pool threads inherit
# it through the context each slice runs in.
_in_slice = contextvars.ContextVar("mlshap_in_slice", default=False)


def _rows(budget: int, row_bytes: int) -> int:
    return max(1, budget // max(1, row_bytes))


def _cut(n_rows: int, rows: int) -> list[slice]:
    return [slice(start, min(start + rows, n_rows)) for start in range(0, n_rows, rows)]


def row_slices(n_rows: int, row_bytes: int, budget: int | None = None) -> list[slice]:
    """Consecutive slices covering ``range(n_rows)``, each at most
    ``budget // row_bytes`` rows long and at least one row long. ``budget``
    is ``_BLOCK_BYTES`` by default, or what a caller's fixed share leaves of
    it."""
    return _cut(n_rows, _rows(_BLOCK_BYTES if budget is None else budget, row_bytes))


def gemm_slices(n_rows: int, inner: int, cols: int) -> list[slice]:
    """Row slices of an (n_rows, inner) @ (inner, cols) product that OpenBLAS
    runs on the calling thread; all rows in one slice where such a slice would
    hold one row or none (it would read all of the right-hand side per row)."""
    rows = _ONE_THREAD_GEMM // (inner * cols)
    return _cut(n_rows, rows if rows > 1 else max(1, n_rows))


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="mlshap-blocks")


def map_slices(fn, n_rows: int, row_bytes: int, budget: int | None = None) -> list:
    """``[fn(s) for s in slices]``, the slices covering ``range(n_rows)`` in
    order, run on up to ``_WORKERS`` threads.

    ``fn`` must compute the rows of its slice independently of the other
    slices, and write nothing the other slices read. The calling thread and
    ``_WORKERS - 1`` pool threads take slices in turn. ``budget`` is
    ``_BLOCK_BYTES`` by default, or what a caller's fixed share leaves of
    it. Each slice holds at most ``budget // (_WORKERS * row_bytes)`` rows
    and at least one, and there are at least ``_WORKERS`` slices (or one
    per row). Work below an eighth of the budget, or with one CPU, runs on
    the calling thread as :func:`row_slices` cuts it. A call made from
    inside a slice runs on that slice's thread, within the thread's share
    of the budget, so pools never nest (a pool thread waiting on its own
    pool could wait forever). An exception in a slice stops the threads
    taking more slices and is re-raised here; of several, the one from the
    lowest slice, which is the one a serial loop would raise.
    """
    budget = _BLOCK_BYTES if budget is None else budget
    workers = _WORKERS
    share = _rows(budget // workers, row_bytes)
    if _in_slice.get():
        return [fn(s) for s in _cut(n_rows, share)]
    if workers > 1 and n_rows > 1 and n_rows * row_bytes >= budget // 8:
        return _run_shared(fn, _cut(n_rows, min(share, -(-n_rows // workers))), workers)
    return [fn(s) for s in row_slices(n_rows, row_bytes, budget)]


def _run_shared(fn, slices: list[slice], workers: int) -> list:
    """Caller-runs: this thread and up to ``workers - 1`` threads of one
    persistent pool take the next slice from one counter until none is left
    or one has failed."""
    results = [None] * len(slices)
    failed: dict[int, BaseException] = {}
    lock = threading.Lock()
    order = iter(range(len(slices)))

    def take():
        while not failed:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(slices[i])
            except BaseException as err:  # re-raised by the caller below
                failed[i] = err

    token = _in_slice.set(True)
    try:
        helpers = [_pool(workers - 1).submit(contextvars.copy_context().run, take)
                   for _ in range(min(workers, len(slices)) - 1)]
        take()
        for helper in helpers:
            helper.result()
    finally:
        _in_slice.reset(token)
    if failed:
        raise failed[min(failed)]
    return results
