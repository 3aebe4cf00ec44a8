"""The one byte budget that bounds every large block of work.

Explaining a prediction builds blocks whose size grows with the request:
synthesized (coalition x background) rows, (query x training row) distances,
(background x path feature x leaf) cells. Each caller states how many bytes
one row of its block holds, and :func:`row_slices` cuts the rows so a block
holds at most ``_BLOCK_BYTES``, but never fewer than one row. Arrays that
scale with the model rather than the request, such as a forest's leaf paths,
are outside the budget.
"""

from __future__ import annotations

_BLOCK_BYTES = 32 * 2**20


def row_slices(n_rows: int, row_bytes: int):
    """Consecutive slices covering ``range(n_rows)``, each at most
    ``_BLOCK_BYTES // row_bytes`` rows long and at least one row long."""
    rows = max(1, _BLOCK_BYTES // max(1, row_bytes))
    for start in range(0, n_rows, rows):
        yield slice(start, min(start + rows, n_rows))
