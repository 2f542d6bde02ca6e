"""The bytes that loading one index allocates, as tracemalloc counts them:
the load-side twin of ``view_bytes.py``.

Times ``read_index`` untraced over 15 loads of INDEX and reports the
median in ms. Then loads it once more under tracemalloc and reports the
bytes the loaded index keeps (traced memory after the load, with the
graph, colours and metadata still held), the traced peak during the
load, and their ratio. The timed loads come first, so that what numpy and
Python allocate once per process is not counted as kept. Prints one JSON
line.

Usage: python tests/load_bytes.py INDEX
"""

import gc
import json
import statistics
import sys
import time
import tracemalloc

LOADS = 15


def load_bytes(path: str) -> dict:
    """Kept bytes, traced peak and their ratio for one load of ``path``."""
    from cdbg.container import read_index

    gc.collect()
    tracemalloc.start()
    try:
        index = read_index(path)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del index
    return {"kept_bytes": kept, "peak_bytes": peak, "peak_per_kept": round(peak / kept, 3)}


def load_ms(path: str, loads: int = LOADS) -> float:
    """Median wall time of ``read_index`` over ``loads`` loads, in ms."""
    from cdbg.container import read_index

    times = []
    for _ in range(loads):
        t0 = time.perf_counter()
        read_index(path)
        times.append(time.perf_counter() - t0)
    return round(1000 * statistics.median(times), 3)


def main(path: str) -> int:
    ms = load_ms(path)
    record = {"index": path, **load_bytes(path), "load_ms": ms}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
