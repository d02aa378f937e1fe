"""Small circuits of Rauzy graphs.

An elementary circuit of Gamma_r(w) is small when its size is at most r. Each
small circuit is determined up to conjugacy by a primitive word q with
|q| <= r: its vertices are the powers p^{r/|p|} and its edges the powers
p^{(r+1)/|p|} over the rotations p of q. Enumeration therefore goes through
edge periodicity instead of graph search; the graph search survives only as
the cross-check oracle in tests/oracles.py.

One engine, circuit_order_ranges, names every class with the range of orders
it lives in; small_circuits, all_small_circuits, circuit_counts_by_order and
circuit_blocks all read it. The circuits of one graph have distinct maximal
edges (the lemma in maximal_edge), so they are linearly independent and
independence_rank is their count. direct_order_ranges reads the same ranges
off factor tests alone, as the battery's cross-check, and extend_order_ranges
extends a word's ranges by one letter, for the sweep: every circuit the
letter adds has order m, the length of the longest suffix of wa that occurs
in w, and the edge wa[-(m+1):].
"""
from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .rauzy import RauzyGraph, VectorCycle
from .squares import period_runs
from .words import (
    NATURAL,
    SymbolOrder,
    extremal_rotation,
    is_primitive,
    least_rotation,
    power_to_length,
)


class SmallCircuit(namedtuple("SmallCircuit", "root order")):
    """C(root, order): the circuit of [root] in Gamma_order.

    The root is normalized to the least rotation of its conjugacy class under
    the natural order, so equal circuits compare equal no matter which
    conjugate they were built from.
    """

    __slots__ = ()

    def __new__(cls, root: str, order: int) -> SmallCircuit:
        if not root:
            raise ValueError("empty circuit root")
        if not is_primitive(root):
            raise ValueError(f"circuit root must be primitive: {root!r}")
        if order < len(root):
            raise ValueError("a small circuit needs |root| <= order")
        return tuple.__new__(cls, (least_rotation(root), order))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too builds through it

    def __str__(self) -> str:
        return f"C({self.root},{self.order})"


class CircuitRealization(NamedTuple):
    vertices: frozenset[str]
    edges: frozenset[str]


def _canonical_circuit(root: str, order: int) -> SmallCircuit:
    # SmallCircuit(root, order) for a root known to be the least rotation of
    # a primitive word no longer than order, without checks or least_rotation
    return tuple.__new__(SmallCircuit, (root, order))


def small_circuits(w: str, r: int) -> frozenset[SmallCircuit]:
    """The small circuits of Gamma_r(w): the order-r slice of
    circuit_order_ranges(w). For every order at once, use all_small_circuits."""
    if not 1 <= r <= len(w):
        raise ValueError(f"graph order {r} out of range 1..{len(w)}")
    return frozenset(_canonical_circuit(q, r)
                     for q, (lo, hi) in circuit_order_ranges(w).items() if lo <= r <= hi)


def circuit_order_ranges(w: str, runs=None) -> dict[str, tuple[int, int]]:
    """For each circuit class root, the contiguous range of orders it lives in.

    C(q, r) exists iff r >= |q| and every rotation of q stretches to a
    periodic factor of length r+1, so the orders form [|q|, m-1], m the
    least over the rotations of their longest period-|q| extension. runs is
    period_runs(w) if the caller has it; the result is the same either way.

    Lemma: at lag h, the windows u = w[t:t+h] at the positions t of the runs
    (s, L) are the ends of direct_order_ranges, so [q] with |q| = h has a
    circuit iff u -> rot(u) closes on its rotations after exactly h steps
    (fewer: u is a power); its least vertex is the root. Proof sketch for m:
    u at t extends to length s+L+h-t, and the window at t+h is u again with a
    shorter extension, so the first min(L, h) positions of a run give every
    window its longest one. Lemma (early stop): a run's loop stops at its
    first window u at t that gains nothing, as every later window gains
    nothing either. Proof sketch: the position t' that gave u an extension
    at least as long starts a stretch of period h that agrees with the one
    at t, so the window at t+j recurs at t'+j, inside its run, with an
    extension at least as long. In particular a power u0 = w[s:s+h] of
    period d | h recurs at s+d with a shorter extension, so its run stops
    there, and no primitivity test is needed: a power's orbit closes in
    fewer than h steps.

    Lags stop at min(LRF(w), |w|/2) (see squares.period_runs). LRF(w) is
    the length of the longest repeated factor, and every small circuit
    C(q, r) has |q| <= r <= LRF(w). Proof sketch: if every vertex of a
    p-cycle in Gamma_r occurred once in w, each edge u -> v would force
    pos(v) = pos(u) + 1, so going round the cycle would advance the position
    by p and return to the start, which is impossible. Hence some length-r
    factor repeats.
    """
    if runs is None:
        runs = period_runs(w)
    ranges = {}
    for h, lag_runs in enumerate(runs, 1):
        ext: dict[str, int] = {}  # window -> its longest period-h extension
        for s, run_len in lag_runs:
            end = s + run_len + h
            for t in range(s, s + min(run_len, h)):
                u = w[t:t + h]
                if end - t <= ext.get(u, 0):
                    break  # see the early-stop lemma
                ext[u] = end - t
        while len(ext) >= h:  # fewer windows cannot close an orbit of h
            u, m = ext.popitem()
            orbit, v = [u], u[1:] + u[0]
            while v in ext:
                orbit.append(v)
                m = min(m, ext.pop(v))
                v = v[1:] + v[0]
            if v == u and len(orbit) == h:  # every extension is at least h + 1 long
                ranges[min(orbit)] = (h, m - 1)
    return ranges


def extend_order_ranges(ranges: dict[str, tuple[int, int]], wa: str,
                        m: int) -> dict[str, tuple[int, int]]:
    """circuit_order_ranges(wa) from ranges = circuit_order_ranges(wa[:-1]),
    for m the length of the longest suffix of wa that occurs in w = wa[:-1];
    ranges itself when wa adds no circuit.

    Lemma (order m): every circuit C(q, r) of Gamma_r(wa) that Gamma_r(w)
    lacks has r = m and the edge s = wa[-(m+1):]. Proof sketch: Gamma_r(w) is
    a subgraph of Gamma_r(wa), whose one edge not in it is wa[-(r+1):] when
    r+1 > m (see words.cycle_counts), so r >= m. The circuit passes through
    that edge's end wa[-r:] and must leave it by an edge that starts with
    wa[-r:]; for r > m, wa[-r:] is not a factor of w, so it occurs in wa
    only as its suffix and has no such edge. So r = m, and C(q, m) is new
    iff s has a period p = |q| <= m, s[:p] is primitive (a rotation of q)
    and the p windows of length m+1 of s[:p]^oo all occur in wa. Every order
    of [q] below m is old, and by monotonicity (see direct_order_ranges) its
    orders stay contiguous from p, so its range becomes (p, m): either the
    old range was (p, m-1), or [q] is a new class with p = m. Every other
    range is the parent's.

    >>> extend_order_ranges({"a": (1, 1), "ab": (2, 2)}, "aababa", 3)
    {'a': (1, 1), 'ab': (2, 3)}
    """
    s, grown = wa[-m - 1:], None
    for p in range(1, m + 1):
        u = s[:p]
        if s[p:] == s[:-p] and is_primitive(u):
            x = power_to_length(u, m + p)
            if all(x[i:i + m + 1] in wa for i in range(p)):
                grown = dict(ranges) if grown is None else grown
                grown[least_rotation(u)] = (p, m)
    return ranges if grown is None else grown


def direct_order_ranges(w: str, cycles: dict[int, int]) -> dict[str, tuple[int, int]]:
    """circuit_order_ranges(w) read off factor tests alone; cycles is
    words.cycle_counts(w).

    Lemma (circuit edges): Gamma_r(w) has the edges L_w(r+1), so C(q, r) exists
    iff r >= |q| and the |q| windows of length r+1 of q^oo occur in w. At
    r = p = |q| they are the edges u.u[0] from u to rot(u) = u[1:] + u[0], u a
    rotation; so [q] has a circuit at order p iff u -> rot(u) stays in
    ends = {w[t:t+p] : w[t] == w[t+p]} and closes after exactly p steps (fewer:
    u is a power). p ends need p starts t < n - p. Lemma (complexity): the p
    rotations of a primitive q are distinct factors of length p, so no root of
    length p exists when C_w(p) < p, and p is skipped; C_w(p) is summed from
    C_w(0) = 1 by C_w(k+1) = C_w(k) + cycles[k] - 1, and LRF(w) is the largest
    key of cycles (see words.cycle_counts). Lemma (roots <= LRF):
    every small circuit has |q| <= r <= LRF(w) (see circuit_order_ranges).
    Lemma (min extension, so monotonicity): let x = q^oo and e_i the length
    of the longest prefix of x[i:] that occurs in w; the orders of [q] form
    [p, M-1], M = min(e_0, ..., e_{p-1}, LRF(w)+1). Proof sketch: factors
    are prefix closed, so x[i:i+L] occurs iff L <= e_i, and all p windows of
    length L occur iff L <= every e_i; M-1 <= LRF(w) by the LRF lemma. So
    e_0 is found by galloping, then bisecting, one window per test, and for
    i = 1..p-1 the minimum m drops while x[i:i+m] does not occur: each i
    costs at most one test that passes, plus one per unit m drops, and m
    never drops below p+1, as the closed orbit's edges occur.
    """
    n, lrf, ranges, c = len(w), max(cycles, default=0), {}, 1
    for p in range(1, min(lrf, n // 2) + 1):
        c += cycles.get(p - 1, 0) - 1  # C_w(p)
        if c < p:
            continue
        ends = {w[t:t + p] for t in range(n - p) if w[t] == w[t + p]}
        while len(ends) >= p:  # fewer cannot close an orbit of p
            u = ends.pop()
            root, v, steps = u, u[1:] + u[0], 1
            while v in ends:
                ends.remove(v)
                root, v, steps = v if v < root else root, v[1:] + v[0], steps + 1
            if v == u and steps == p:
                x, m, bad, step = root * (lrf // p + 2), p + 1, lrf + 2, 1
                while bad - m > 1:  # e_0 in [m, bad): gallop until a test fails, then bisect
                    probe = m + step if step else (m + bad) // 2
                    if probe >= bad:
                        probe = bad - 1
                    if x[:probe] in w:
                        m, step = probe, 2 * step
                    else:
                        bad, step = probe, 0
                for i in range(1, p):
                    while m > p + 1 and x[i:i + m] not in w:
                        m -= 1
                ranges[root] = (p, m - 1)
    return ranges


def all_small_circuits(w: str) -> frozenset[SmallCircuit]:
    """Union of small_circuits(w, r) over r = 1..|w|."""
    return frozenset(_canonical_circuit(root, r)
                     for root, r in circuit_pairs(circuit_order_ranges(w)))


def circuit_pairs(ranges: dict[str, tuple[int, int]]) -> frozenset[tuple[str, int]]:
    """The circuits named by circuit_order_ranges, as (root, order) pairs."""
    return frozenset((root, r) for root, (lo, hi) in ranges.items()
                     for r in range(lo, hi + 1))


def circuit_counts_by_order(w: str) -> dict[int, int]:
    """sc_r for every order r with at least one small circuit."""
    return order_counts(circuit_order_ranges(w))


def order_counts(ranges: dict[str, tuple[int, int]]) -> dict[int, int]:
    """sc_r per order, read off circuit_order_ranges."""
    counts: dict[int, int] = {}
    for lo, hi in ranges.values():
        for r in range(lo, hi + 1):
            counts[r] = counts.get(r, 0) + 1
    return counts


def _powers(root: str, length: int) -> frozenset[str]:
    # the rotation of root at i, powered to length, is root^oo's window at i
    x = power_to_length(root, length + len(root) - 1)
    return frozenset(x[i:i + length] for i in range(len(root)))


def circuit_blocks(ranges: dict[str, tuple[int, int]], order: SymbolOrder, block):
    """(root, order, vertices, edges, maximal_edge) of every circuit named by
    circuit_order_ranges, sorted by (order, root); every circuit listing reads it.

    vertices and edges are block(windows) over C(q, r)'s |q| windows of q^oo of
    length r and r+1, sorted and passed lazily, so a block that ignores them
    slices none. block runs once per (q, length): C(q, r)'s edges are C(q, r+1)'s
    vertices. Lemma (window blocks): for L >= |q| the windows of length L sort as
    the rotations they start with, so one sort of q's rotations orders every
    block. Proof sketch: the window at i starts with the rotation at i, and two
    rotations of a primitive q differ within their |q| letters. The maximal edge
    is the window at q's greatest rotation under order (see maximal_edge).
    """
    roots = {}
    for r, q in sorted((r, q) for q, (lo, hi) in ranges.items() for r in range(lo, hi + 1)):
        if q not in roots:  # r is q's least order; x holds q^oo's windows at 0..|q|-1
            x = power_to_length(q, ranges[q][1] + len(q))
            starts = sorted(range(len(q)), key=lambda i: x[i:i + len(q)])
            top = x.find(extremal_rotation(q, order, "greatest"))
            roots[q] = [x, starts, top, block(x[i:i + r] for i in starts)]
        x, starts, top, vertices = roots[q]
        edges = roots[q][3] = block(x[i:i + r + 1] for i in starts)
        yield q, r, vertices, edges, x[top:top + r + 1]


def realize(c: SmallCircuit) -> CircuitRealization:
    """Vertex and edge words of the circuit; both sets have |root| elements."""
    return CircuitRealization(_powers(c.root, c.order), _powers(c.root, c.order + 1))


def maximal_edge(c: SmallCircuit, order: SymbolOrder = NATURAL) -> str:
    """The lexicographically greatest edge of the circuit under the order.

    Two edges first differ inside their length-|root| prefixes, so this is
    the greatest rotation of the root extended to length order+1.

    Lemma (maximal edges): distinct circuits of one graph have distinct
    maximal edges, under any order: for primitive, non-conjugate q, q' with
    |q|, |q'| <= r and greatest rotations Q, Q', the prefixes of length r+1
    of x = Q^oo and y = Q'^oo differ. Proof sketch: let p = |q| <= p' = |q'|
    and suppose x, y agree on r+1 >= p'+1 letters. p = p' gives Q = Q', and
    p | p' gives Q' = Q^(p'/p), not primitive. Else their least periods
    differ, so x != y; let L > p' be their first difference. Q^oo exceeds
    its shift by any non-multiple of |Q|, the power of a lesser rotation. y
    shifted by p agrees with y before L-p, and at L-p holds y[L] against
    y[L-p] = x[L-p] = x[L], so y[L] < x[L]; x shifted by p' gives x[L] <
    y[L] likewise. Every engine's roots meet the hypotheses: each is
    primitive (an orbit of exactly |q| rotations, or is_primitive) and a
    least rotation, so no two are conjugate, and its range starts at |q|.
    """
    top = extremal_rotation(c.root, order, "greatest")
    return power_to_length(top, c.order + 1)


def cao_less(c1: SmallCircuit, c2: SmallCircuit,
             order: SymbolOrder = NATURAL) -> bool:
    """Circuit arrangement: compare circuits of one graph by maximal edge, a
    strict total order on them by the maximal-edge lemma (see maximal_edge)."""
    if c1.order != c2.order:
        raise ValueError("circuit arrangement compares circuits of one graph")
    return order.less(maximal_edge(c1, order), maximal_edge(c2, order))


def vector_cycle(c: SmallCircuit, g: RauzyGraph) -> VectorCycle:
    """Indicator vector of the circuit's edges over all edges of g."""
    if g.order != c.order:
        raise ValueError("graph and circuit have different orders")
    mine = _powers(c.root, c.order + 1)
    labels = g.labels
    if not mine <= labels:
        raise ValueError("circuit does not live in this graph")
    return VectorCycle(tuple((lab, 1 if lab in mine else 0)
                             for lab in sorted(labels)))


def independence_rank(w: str, r: int) -> int:
    """Rank of the circuits' edge-indicator vectors in Gamma_r(w): sc_r.

    Their maximal edges are distinct (the lemma in maximal_edge), and sorted
    by them the matrix is unit triangular on their columns (the triangle
    lemma: no edge of a circuit exceeds its own maximal edge): full rank.
    """
    return len(small_circuits(w, r))

