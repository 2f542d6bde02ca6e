"""The bytes that the query view of one index holds, by part, as
tracemalloc counts them.

Loads INDEX twice. After ``reconstruct_all`` on the first load, and after
``assemble_all`` (x = 0.5) on the second, it drops the view's parts one
at a time and counts the traced bytes that each drop frees:

* ``assembly``: assembly's caches, runs and branch records, which share
  some of the masks' ints, and the starting predecessors, a byte per
  node id;
* ``rank``: the node-to-row map, with its memoryview;
* ``words``: the rows' bitmask words;
* ``masks``: the rows as Python ints, built only by the walks that read them;
* ``decoded_rows``: ``offsets`` and ``row_colors``;
* ``hops``: the lockstep's hop table without its masks: each node's
  landing node and edge count, and the crossed nodes;
* ``hop_masks``: the hop table's masks, per node the colors of the
  ending rows its hop crosses;
* ``other``: the rest of the view;

and ``total``, their sum. Tracing starts after the load, so only what the
query derives is counted. The script's own ints and tuples move each
count by up to about 100 bytes, so an empty part may read a little below
0. Prints one JSON line, with ``masks_built``
telling whether the query built ``masks``.

Usage: python tests/view_bytes.py INDEX
"""

import gc
import json
import sys
import tracemalloc

PARTS = {
    "assembly": ("runs", "branches", "starting_preds"),
    "rank": ("rank", "_rank"),
    "words": ("words",),
    "masks": ("masks",),
    "decoded_rows": ("offsets", "row_colors"),
    "hops": ("hop_nodes",),
    "hop_masks": ("hops",),
}


def held_after(path: str, query) -> dict:
    """The view's bytes by part after ``query(boss, colors)`` on a fresh
    load of the index at ``path``, and whether ``masks`` was built."""
    from cdbg.container import read_index

    boss, colors, _ = read_index(path)
    tracemalloc.start()
    try:
        query(boss, colors)
        gc.collect()
        view, sizes = colors._query, dict.fromkeys([*PARTS, "other"], 0)
        built = view.masks is not None
        # the hop table is one attribute, (node arrays, masks): its node
        # arrays move to an attribute of their own, so each part drops apart
        view.hop_nodes, view.hops = view.hops or (None, None)
        for part, names in PARTS.items():
            before = tracemalloc.get_traced_memory()[0]
            for name in names:
                setattr(view, name, None)
            sizes[part] = before - tracemalloc.get_traced_memory()[0]
        before = tracemalloc.get_traced_memory()[0]
        del view
        colors._query = None
        sizes["other"] = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    sizes["total"] = sum(sizes.values())
    return {"bytes": sizes, "masks_built": built}


def main(path: str) -> int:
    from cdbg.traversal import assemble_all, reconstruct_all

    record = {
        "index": path,
        "reconstruct_all": held_after(path, reconstruct_all),
        "assemble_all": held_after(path, lambda boss, colors: assemble_all(boss, colors, 0.5)),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
