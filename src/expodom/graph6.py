"""graph6 codec for simple undirected graphs (orders up to MAX_ORDER).

After the order prefix, bit ``col*(col-1)//2 + row`` stands for the pair
(row, col) with row < col: the upper triangle read column by column.  The
bits are packed six to a character, first bit highest, plus 63.  Both
directions touch only the set bits, one per edge, never the whole triangle.
One packer writes them from (row, col) pairs: ``emit_graph6`` reads the
pairs off a ``Graph``'s adjacency, and ``graph6_from_code`` off the BFS edge
list of a canonical tree code, each parent id below its child's, so
enumeration prints a tree's line without building the tree.
"""

from __future__ import annotations

from math import isqrt

from .canon import _code_edges
from .graph import MAX_ORDER, Graph, ParseError

_HEADER = ">>graph6<<"
# six-bit values 0..63 to the characters "?".."~"
_TO_TEXT = bytes(range(63, 127)).ljust(256, b"\0")


def _pack(n: int, pairs) -> str:
    """graph6 of the order-n graph whose edges are ``pairs``, each (row, col)
    with row < col; the order is checked before a pair is read."""
    if n > MAX_ORDER:
        raise ValueError(f"graph6 output capped at {MAX_ORDER} vertices, got {n}")
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + "".join(
            chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for row, col in pairs:
        i = col * (col - 1) // 2 + row
        body[i // 6] |= 32 >> (i % 6)
    return prefix + body.translate(_TO_TEXT).decode("ascii")


def _upper_pairs(g: Graph):
    for col, row_list in enumerate(g.adj):
        for row in row_list:  # sorted, so the rows below col come first
            if row >= col:
                break
            yield row, col


def emit_graph6(g: Graph) -> str:
    """Encode a graph in graph6: order prefix, then upper-triangle bits."""
    return _pack(g.n, _upper_pairs(g))


def graph6_from_code(code: bytes) -> str:
    """``emit_graph6(tree_from_code(code))``, written straight from the
    code's BFS edge list with no ``Graph`` built; the same ValueError for a
    malformed code."""
    edges = _code_edges(code)
    return _pack(len(edges) + 1, edges)


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
    edges = []
    for j, ch in enumerate(body):
        value = ord(ch) - 63
        while value:
            high = value.bit_length() - 1
            value ^= 1 << high
            i = 6 * j + 5 - high
            if i >= nbits:
                raise ParseError("nonzero padding bits in graph6 string")
            col = (isqrt(8 * i + 1) + 1) // 2  # the largest col with col*(col-1)/2 <= i
            edges.append((i - col * (col - 1) // 2, col))
    return Graph(n, edges)
