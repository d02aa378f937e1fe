"""Test oracles and word families shared by the test modules.

The oracles are independent, deliberately naive engines that the package's
production engines are cross-checked against; they live here so that the
package itself has no runtime dependency. Import them with
`from oracles import ...`: pytest puts tests/ on sys.path.
"""
import sys

import networkx as nx

from sqcirc.circuits import _powers, order_counts
from sqcirc.squares import match_runs
from sqcirc.words import is_primitive, least_rotation


def elementary_cycles_oracle(g, max_size: int,
                             max_cycles: int = 1_000_000) -> frozenset[frozenset[str]]:
    """All elementary circuits of the Rauzy graph g with at most max_size
    vertices.

    Exhaustive simple-cycle search, used only to cross-check the periodicity
    enumeration. Cycles come back as edge-label sets; the label of an edge
    u -> v is u plus the last symbol of v.
    """
    dg = nx.DiGraph()
    dg.add_nodes_from(g.vertices)
    for e in g.edges:
        dg.add_edge(e.src, e.dst)
    out = set()
    count = 0
    for cyc in nx.simple_cycles(dg, length_bound=max_size):
        count += 1
        if count > max_cycles:
            raise RuntimeError(f"cycle enumeration exceeded {max_cycles} cycles")
        out.add(frozenset(cyc[k] + cyc[(k + 1) % len(cyc)][-1]
                          for k in range(len(cyc))))
    return frozenset(out)


def ranges_all_lags(w):
    """circuit_order_ranges without the LRF cut or the cap lemma: every lag
    1..|w|-1, each root read off the coverage of its rotations."""
    coverage = {}
    for lag in range(1, len(w)):
        for s, run_len in match_runs(w, lag):
            base = w[s:s + lag]
            if not is_primitive(base):
                continue
            canon = least_rotation(base)
            off = (canon + canon).find(base)
            arr = coverage.setdefault(canon, [0] * lag)
            for phi in range(min(lag, run_len)):
                g = (off + phi) % lag
                arr[g] = max(arr[g], run_len + lag - phi)
    return {canon: (len(canon), min(arr) - 1)
            for canon, arr in coverage.items() if min(arr) - 1 >= len(canon)}


def squares_scan(w: str) -> set[str]:
    """The distinct nonempty squares of w: try every start and half length."""
    n = len(w)
    return {w[i:i + 2 * h] for h in range(1, n // 2 + 1) for i in range(n - 2 * h + 1)
            if w[i:i + h] == w[i + h:i + 2 * h]}


def coordinates_oracle(v: str, word: str) -> tuple[int, int]:
    """The coordinates (i, j) of the square word in the class of root v.

    Tries every i in 1..|v| and every j >= 1 short enough to fit, keeps the
    pairs with word == rotation(v, i)^(2j), and asserts that exactly one
    does.
    """
    found = [(i, j) for i in range(1, len(v) + 1)
             for j in range(1, len(word) // (2 * len(v)) + 1)
             if (v[i - 1:] + v[:i - 1]) * (2 * j) == word]
    assert len(found) == 1, (v, word, found)
    return found[0]


def fibonacci(n: int) -> str:
    """The prefix of length n of the Fibonacci word abaababa..."""
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse(n: int) -> str:
    """The prefix of length n of the Thue-Morse word abbabaab..."""
    return "".join("ab"[bin(i).count("1") % 2] for i in range(n))


def tribonacci(n: int) -> str:
    """The prefix of length n of the Tribonacci word abacaba..., the fixed
    point of a -> ab, b -> ac, c -> a."""
    w = "a"
    while len(w) < n:
        w = w.translate(str.maketrans({"a": "ab", "b": "ac", "c": "a"}))
    return w[:n]


def random_word(rng, letters: str, lo: int, hi: int) -> str:
    """A word over letters whose length is drawn from lo..hi."""
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def word_with_periods(n: int, k: int, l: int, rng) -> str:
    """Random binary word of length n having periods k and l by construction."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in (k, l):
        for i in range(n - p):
            parent[find(i)] = find(i + p)
    letters = {}
    out = []
    for i in range(n):
        root = find(i)
        if root not in letters:
            letters[root] = rng.choice("ab")
        out.append(letters[root])
    return "".join(out)


def replace_everywhere(monkeypatch, original, replacement) -> None:
    """Bind replacement wherever a sqcirc module binds original."""
    modules = [m for name, m in sys.modules.items()
               if name == "sqcirc" or name.startswith("sqcirc.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _int_rank(rows: list[list[int]]) -> int:
    # fraction-free elimination; entries stay integers, arithmetic is exact
    if not rows:
        return 0
    rows = [list(r) for r in rows]
    m = len(rows[0])
    rank = 0
    for col in range(m):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        a = lead[col]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if b:
                rows[i] = [a * x - b * y for x, y in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _edge_rank(supports: list[frozenset[str]]) -> int:
    # exact rank of the indicator vectors of the circuits' edge sets
    cols = {lab: i for i, lab in enumerate(sorted(set().union(*supports)))}
    rows = [[0] * len(cols) for _ in supports]
    for row, sup in zip(rows, supports):
        for lab in sup:
            row[cols[lab]] = 1
    return _int_rank(rows)


def maximal_edge_pass(w: str, ranges) -> list[str]:
    """A brute check of the maximal-edge lemma (see circuits.maximal_edge) on
    ranges: at every order with two or more circuits, a message when two
    maximal edges collide, and another when the circuits are then linearly
    dependent."""
    found = order_counts(ranges)
    bad = []
    crowded: dict[int, list[str]] = {}
    for q, (lo, hi) in ranges.items():
        for r in range(lo, hi + 1):
            if found[r] > 1:
                crowded.setdefault(r, []).append(q)
    top = {q: max(_powers(q, ranges[q][1] + 1)) for q in set().union(*crowded.values())}
    for r, roots in sorted(crowded.items()):
        if len({top[q][:r + 1] for q in roots}) != len(roots):
            bad.append(f"{w}: order {r} maximal edges collide")
            edges = [_powers(q, r + 1) for q in roots]
            if _edge_rank(edges) != len(edges):
                bad.append(f"{w}: order {r} circuits are linearly dependent")
    return bad
