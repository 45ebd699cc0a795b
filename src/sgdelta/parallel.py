"""Deterministic fan-out over a process pool.

Results come back in submission order regardless of completion order, so
sweeps merge identically at any worker count.
"""

from __future__ import annotations


def pmap(fn, items, workers: int = 1):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here, so a serial run never loads the process pool machinery
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
