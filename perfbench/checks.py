"""Output checks that do not rely on the code under test.

Each command's stdout is hashed and compared with the reference recorded at
the seed commit; verify reports first drop their ``ms`` field, which is a
timing.  On top of that, ``compute`` witnesses are judged by the predicates
below, written here from the definitions rather than imported.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from fractions import Fraction


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(stdout: bytes) -> tuple[str, dict]:
    """Digest of a verify report without its timing field, and the report."""
    report = json.loads(stdout)
    kept = {k: v for k, v in report.items() if k != "ms"}
    return sha256(json.dumps(kept, sort_keys=True).encode()), report


def _distances(adj, source, blocked=frozenset()):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist and v not in blocked:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _influence_ok(n, adj, dominators, blocked: bool) -> bool:
    total = [Fraction(0)] * n
    for v in dominators:
        others = frozenset(dominators) - {v} if blocked else frozenset()
        for u, d in _distances(adj, v, others).items():
            total[u] += Fraction(2) ** (1 - d)
    return all(w >= 1 for w in total)


def compute_problems(n: int, edges, result: dict) -> list[str]:
    """Everything wrong with one ``compute`` result for the given graph."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    problems = []
    if result.get("n") != n:
        problems.append(f"order {result.get('n')} != {n}")
    predicates = {
        "gamma": lambda d: all(u in d or adj[u] & d for u in range(n)),
        "gamma_e": lambda d: _influence_ok(n, adj, d, blocked=True),
        "gamma_e_star": lambda d: _influence_ok(n, adj, d, blocked=False),
    }
    for key, holds in predicates.items():
        witness = result.get(f"{key}_witness") or []
        if len(witness) != result.get(key) or len(set(witness)) != len(witness):
            problems.append(f"{key} witness size {len(witness)} != {result.get(key)}")
        elif not all(0 <= v < n for v in witness) or not holds(set(witness)):
            problems.append(f"{key} witness {witness} fails its predicate")
    try:
        frac = result["gamma_ef_star"]
        lp = Fraction(int(frac["num"]), int(frac["den"]))
        chain = lp <= result["gamma_e_star"] <= result["gamma_e"] <= result["gamma"]
    except (KeyError, TypeError, ValueError):
        chain = False
    if not chain:
        problems.append("chain gamma_ef_star <= gamma_e_star <= gamma_e <= gamma fails")
    return problems
