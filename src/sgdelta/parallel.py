"""Deterministic fan-out over a process pool.

Results come back in submission order regardless of completion order, so
sweeps merge identically at any worker count.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def parallel(workers: int = 1):
    """Yields `map_in_order(fn, items)`, the list of `fn` over `items` in
    submission order. One worker maps in this process; more share one
    process pool that lives as long as the block, so a caller that maps
    batch after batch starts its workers once."""
    if workers <= 1:
        yield lambda fn, items: [fn(it) for it in items]
        return
    # imported here, so a serial run never loads the process pool machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:

        def map_in_order(fn, items):
            items = list(items)
            return list(pool.map(fn, items, chunksize=max(1, len(items) // (workers * 8))))

        yield map_in_order
