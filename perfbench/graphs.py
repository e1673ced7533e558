"""Seeded inputs for the hard_graphs workload.

The pool holds fixed connected subcubic graphs: half are trees, half are
trees with a few extra edges.  The graphs come from a fixed pool seed, so
every run faces the same search work; the run's own seed only orders the
pool.  The run's seed does not relabel the graphs: the subset search scans
in label order, so relabeling moves the cost of single graphs by up to 3x
and the cost of the whole pool by about 8% from seed to seed, more than the
changes the benchmark has to resolve.

Run alone to write one run's inputs:

    python3 perfbench/graphs.py --seed 7 --out some/dir
"""

from __future__ import annotations

import argparse
import os
import random

POOL_SIZE = 16
ORDERS = (18, 26)
EXTRA_EDGES = (2, 5)


def random_subcubic_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a random labeled tree with maximum degree 3, decoded from a
    Prufer sequence in which no label appears more than twice."""
    counts = [0] * n
    seq = []
    for _ in range(n - 2):
        v = rng.choice([u for u in range(n) if counts[u] < 2])
        counts[v] += 1
        seq.append(v)
    degree = [c + 1 for c in counts]
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return edges


def add_extra_edges(rng: random.Random, n: int, edges, extra: int):
    """Add ``extra`` new edges between distinct vertices of degree below 3."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    out = list(edges)
    while extra:
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if e in present or degree[u] >= 3 or degree[v] >= 3:
            continue
        present.add(e)
        out.append(e)
        degree[u] += 1
        degree[v] += 1
        extra -= 1
    return out


def encode_graph6(n: int, edges) -> str:
    """graph6 for orders up to 62, written here so that the inputs do not
    depend on the codec under test."""
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [
        1 if (row, col) in adjacent else 0
        for col in range(1, n)
        for row in range(col)
    ]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> s) & 1 for s in range(5, -1, -1))
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    return n, edges


def pool_structures() -> list[dict]:
    """The fixed pool: orders spread evenly over ORDERS, even slots trees,
    odd slots with 2 to 5 extra edges."""
    rng = random.Random(20160516)
    lo, hi = ORDERS
    pool = []
    for i in range(POOL_SIZE):
        n = lo + (i * (hi - lo + 1)) // POOL_SIZE
        edges = random_subcubic_tree(rng, n)
        extra = 0 if i % 2 == 0 else rng.randint(*EXTRA_EDGES)
        edges = add_extra_edges(rng, n, edges, extra)
        pool.append({"graph6": encode_graph6(n, edges), "n": n, "extra_edges": extra})
    return pool


def run_order(count: int, seed: int) -> list[int]:
    """Pool indices in the order one run feeds them to the program."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def write_inputs(pool_graph6: list[str], seed: int, out_dir: str) -> list[dict]:
    """Write one graph6 file per input; returns [{index, graph6, path}]."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for slot, index in enumerate(run_order(len(pool_graph6), seed)):
        text = pool_graph6[index]
        path = os.path.join(out_dir, f"g{slot:02d}.g6")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text + "\n")
        written.append({"index": index, "graph6": text, "path": path})
    return written


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pool = [p["graph6"] for p in pool_structures()]
    for item in write_inputs(pool, args.seed, args.out):
        print(item["path"], item["graph6"])


if __name__ == "__main__":
    main()
