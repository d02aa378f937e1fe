"""Rauzy graphs: vertices are the length-n factors, edges the length-(n+1) ones.

An edge's endpoints are determined by its label (the length-n prefix and
suffix), so there are never parallel edges; self-loops occur exactly on the
powers of a single letter.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .words import factors


class RauzyEdge(NamedTuple):
    label: str
    src: str
    dst: str


class RauzyGraph(NamedTuple):
    order: int
    vertices: frozenset[str]
    edges: tuple[RauzyEdge, ...]

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(e.label for e in self.edges)


class VectorCycle(NamedTuple):
    """Per-edge visit counts of a cycle, keyed by edge label."""

    entries: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)


def build_rauzy(w: str, n: int) -> RauzyGraph:
    """Gamma_n(w) for 1 <= n <= |w|.

    >>> g = build_rauzy("aababa", 2)
    >>> sorted(g.vertices)
    ['aa', 'ab', 'ba']
    >>> [(e.label, e.src, e.dst) for e in g.edges]
    [('aab', 'aa', 'ab'), ('aba', 'ab', 'ba'), ('bab', 'ba', 'ab')]
    """
    if not 1 <= n <= len(w):
        raise ValueError(f"graph order {n} out of range 1..{len(w)}")
    vertices = frozenset(factors(w, n))
    edges = tuple(sorted(RauzyEdge(e, e[:-1], e[1:]) for e in factors(w, n + 1)))
    return RauzyGraph(n, vertices, edges)


def is_weakly_connected(g: RauzyGraph) -> bool:
    """Connectivity of the underlying undirected graph; empty graph counts."""
    if not g.vertices:
        return True
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append(e.dst)
        adj[e.dst].append(e.src)
    start = next(iter(g.vertices))
    seen = {start}
    queue = deque([start])
    while queue:
        for nb in adj[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(g.vertices)


def cyclomatic_number(g: RauzyGraph) -> int:
    """edges - vertices + 1 for a nonempty weakly connected graph."""
    if not g.vertices:
        raise ValueError("cyclomatic number of an empty graph")
    if not is_weakly_connected(g):
        raise ValueError("cyclomatic number needs a weakly connected graph")
    return len(g.edges) - len(g.vertices) + 1
