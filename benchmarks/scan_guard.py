#!/usr/bin/env python3
"""Where a scan stops beating a fresh group index: the basis of ``SCAN_LIMIT``.

    PYTHONPATH=src python benchmarks/scan_guard.py            # the full grid
    PYTHONPATH=src python benchmarks/scan_guard.py --quick    # a few cells

A relation that lives for one document (a witness relation, a delta-reduced
copy) is probed once or a few times and then dropped, so an index over it
is built for those probes alone.  For each (probe rows, store rows) cell
this times both ways of answering one probe on one, two, four and eight
key columns (the widths the Stage-2 plans probe per-document relations
on): ``ColumnStore.scan`` (broadcast equality, one pass per key column)
and a fresh ``GroupIndex`` build plus ``ColumnStore.probe``.  It prints
the median microseconds of each and their ratio, then per width the
largest cell count at which the scan still won; ``SCAN_LIMIT`` in
``repro.relational.columnar`` is set at or under those on every width.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.relational.columnar import SCAN_LIMIT, ColumnStore, ValueDictionary


def _store(rows: int, keys: int, rng) -> ColumnStore:
    cols = [rng.integers(0, max(2, rows // 2), rows, dtype=np.int64) for _ in range(keys)]
    return ColumnStore.from_columns(cols, ValueDictionary(), None)


def _median_us(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def measure(probes: int, rows: int, keys: int, repeat: int, rng) -> tuple[float, float]:
    """Median µs of one scan and of one index build plus probe."""
    store = _store(rows, keys, rng)
    key_cols = tuple(range(keys))
    probe_cols = [rng.integers(0, max(2, rows // 2), probes, dtype=np.int64) for _ in key_cols]
    assert all(
        np.array_equal(a, b)
        for a, b in zip(store.scan(key_cols, probe_cols), store.probe(key_cols, probe_cols))
    )

    def indexed():
        store._groups.clear()
        store.probe(key_cols, probe_cols)

    return (
        _median_us(lambda: store.scan(key_cols, probe_cols), repeat),
        _median_us(indexed, repeat),
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="a few cells, fewer repeats")
    args = parser.parse_args(argv)
    probe_sizes = (16, 256, 4096) if args.quick else (1, 4, 16, 64, 256, 1024, 4096)
    row_sizes = (8, 64) if args.quick else (4, 16, 32, 64, 128, 256)
    repeat = 30 if args.quick else 200
    rng = np.random.default_rng(7)
    print(f"SCAN_LIMIT = {SCAN_LIMIT} cells (probe rows x store rows)")
    print(f"{'keys':>4} {'probes':>6} {'rows':>6} {'cells':>8} {'scan_us':>8} {'index_us':>9} {'ratio':>6}")
    wins: dict[int, list[tuple[int, float]]] = {}
    for keys in (1, 2, 4, 8):
        for probes in probe_sizes:
            for rows in row_sizes:
                cells = probes * rows
                # Fewer repeats for the large cells: each costs milliseconds.
                scan_us, index_us = measure(
                    probes, rows, keys, max(10, repeat * 1024 // max(cells, 1024)), rng
                )
                wins.setdefault(keys, []).append((cells, scan_us / index_us))
                print(
                    f"{keys:>4} {probes:>6} {rows:>6} {cells:>8} "
                    f"{scan_us:>8.1f} {index_us:>9.1f} {scan_us / index_us:>6.2f}"
                )
    print("keys  scan won every cell up to  first loss at  ratio there")
    for keys, cells in wins.items():
        cells.sort()
        loss = next(((c, r) for c, r in cells if r >= 1.0), None)
        won = max((c for c, r in cells if loss is None or c < loss[0]), default=0)
        where = f"{loss[0]:>13} {loss[1]:>12.2f}" if loss else f"{'-':>13} {'-':>12}"
        print(f"{keys:>4} {won:>27} {where}")


if __name__ == "__main__":
    main()
