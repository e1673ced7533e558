"""A fixed pure-Python task that measures how fast this machine runs now.

Other tenants of the host slow this machine by up to 2x for tens of seconds
at a time.  The benchmark runs this task in a fresh interpreter between
operations, on the same CPU, and divides each operation's time by the
task's adjacent times.  The task mixes the kinds of work expodom does:
``Fraction`` row operations, BFS over adjacency lists, and sorting and
joining byte strings.  It never imports expodom and must not change, or
normalized figures from before and after the change stop being comparable.

    python3 perfbench/reference_task.py     # prints the task's seconds
"""

import time
from collections import deque
from fractions import Fraction

ROUNDS = 15


def eliminate(n: int, shift: int) -> Fraction:
    rows = [
        [Fraction(1, 2 ** (abs(i - j) + (i * j + shift) % 3)) for j in range(n)] + [Fraction(1)]
        for i in range(n)
    ]
    for c in range(n):
        pivot_row = [v / rows[c][c] for v in rows[c]]
        rows[c] = pivot_row
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], pivot_row)]
    return sum(row[-1] for row in rows)


def bfs_sweep(m: int) -> int:
    adj = [[] for _ in range(m)]
    for v in range(1, m):
        adj[(v - 1) // 3].append(v)
        adj[v].append((v - 1) // 3)
    total = 0
    for s in range(0, m, 16):
        dist = [None] * m
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist)
    return total


def codes(count: int, shift: int) -> int:
    parts = sorted(b"(" + bytes(((i * 7919 + shift) % 251, i % 13)) + b")" for i in range(count))
    seen = {}
    for i in range(0, len(parts) - 3, 3):
        seen.setdefault(b"".join(parts[i : i + 3]), i)
    return len(seen)


def run() -> float:
    start = time.perf_counter()
    for shift in range(ROUNDS):
        eliminate(13, shift)
        bfs_sweep(500)
        codes(3000, shift)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(run())
