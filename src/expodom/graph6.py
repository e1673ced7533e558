"""graph6 codec for simple undirected graphs (orders up to MAX_ORDER)."""

from __future__ import annotations

from .graph import MAX_ORDER, Graph, ParseError

_HEADER = ">>graph6<<"


def emit_graph6(g: Graph) -> str:
    """Encode a graph in graph6: order prefix, then upper-triangle bits."""
    n = g.n
    if n > MAX_ORDER:
        raise ValueError(f"graph6 output capped at {MAX_ORDER} vertices, got {n}")
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + "".join(
            chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    bits = []
    adj = g.adj
    for col in range(1, n):
        row_set = set(adj[col])
        for row in range(col):
            bits.append(1 if row in row_set else 0)
    chars = []
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        chunk += [0] * (6 - len(chunk))
        value = 0
        for b in chunk:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return prefix + "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string; tolerates the standard header and whitespace."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER) :]
    if not s:
        raise ParseError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"invalid graph6 character {ch!r}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise ParseError(f"graph6 orders above {MAX_ORDER} are not supported")
        if len(s) < 4:
            raise ParseError("truncated graph6 order field")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(body) != nchars:
        raise ParseError(
            f"graph6 bit field for n={n} needs {nchars} characters, got {len(body)}"
        )
    bits = []
    for ch in body:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 string")
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    return Graph(n, edges)
