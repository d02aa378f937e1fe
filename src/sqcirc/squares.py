"""Distinct square factors and their conjugacy classes.

A square is a factor uu. Squares are grouped by the conjugacy class of the
primitive root of the half u. One pass, class_rows, gives each class its
index, its root v and every member's coordinates (i, j), from which
rebuild_from_coordinates rebuilds the member; square_classes is the
SquareClass view of those rows. For the sweep, suffix_squares lists the
squares that one more letter adds, and class_rows folds them into the rows.
"""
from __future__ import annotations

import re
from collections import namedtuple
from typing import NamedTuple

from .words import is_primitive, least_rotation, longest_repeated_factor, primitive_root

_MISMATCH = re.compile(rb"[^\x00]+")


class Square(namedtuple("Square", "half word")):
    __slots__ = ()

    def __new__(cls, half: str, word: str) -> Square:
        if not half or word != half * 2:
            raise ValueError("a square is half + half with a nonempty half")
        return tuple.__new__(cls, (half, word))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too builds through it


class SquareClass(NamedTuple):
    root: str
    index: int
    members: frozenset[Square]


def _encode(w: str) -> bytes | None:
    # one byte per symbol so xor tricks see aligned positions
    syms = set(w)
    if len(syms) > 256:
        return None
    table = {c: i for i, c in enumerate(sorted(syms))}
    return bytes(table[c] for c in w)


def match_runs(w: str, lag: int, _wb: bytes | None = None) -> list[tuple[int, int]]:
    """Maximal runs (start, length) of positions t with w[t] == w[t+lag].

    A run (s, L) certifies that w[s : s+L+lag] is periodic with period lag.
    """
    n = len(w)
    if not 1 <= lag:
        raise ValueError("lag must be positive")
    if lag >= n:
        return []
    wb = _encode(w) if _wb is None else _wb
    if wb is None:  # over 256 symbols: compare symbol by symbol
        z = bytes(a != b for a, b in zip(w, w[lag:]))
    else:
        x = int.from_bytes(wb[:n - lag], "big") ^ int.from_bytes(wb[lag:], "big")
        z = x.to_bytes(n - lag, "big")
    runs = []
    prev = 0
    for m in _MISMATCH.finditer(z):
        if m.start() > prev:
            runs.append((prev, m.start() - prev))
        prev = m.end()
    if n - lag > prev:
        runs.append((prev, n - lag - prev))
    return runs


def period_runs(w: str, lrf: int | None = None) -> list[list[tuple[int, int]]]:
    """[match_runs(w, lag) for lag in 1..min(LRF(w), |w|/2)], from one
    encoding of w.

    Squares and small circuits are both read off these runs, and neither
    needs a lag h above LRF(w) or |w|/2. Proof sketch: a square uu with
    |u| = h needs 2h <= |w|, and u occurs at two positions, so h <= LRF(w);
    a circuit root of length h has h distinct rotations, windows w[t:t+h]
    with w[t] == w[t+h], so starts t <= |w| - h - 1, and h <= |w| - h; and
    h <= LRF(w) by the lemma in circuits.circuit_order_ranges. lrf is LRF(w)
    if the caller has it; the result is the same either way.
    """
    if lrf is None:
        lrf = longest_repeated_factor(w)
    wb = _encode(w)
    return [match_runs(w, lag, wb) for lag in range(1, min(lrf, len(w) // 2) + 1)]


def distinct_squares(w: str, runs=None) -> frozenset[Square]:
    """All nonempty factors of w of the form uu, as words (not occurrences).

    runs is period_runs(w) if the caller has it; the result is the same. A
    square of half length h starts at p iff p..p+h-1 lie in one run (s, L)
    at lag h, so the run gives the squares at s..s+L-h.

    Lemma: only the first min(rho, L-h+1) of them can be distinct, rho the
    length of the primitive root x of w[s:s+h]. Proof sketch: the span
    w[s:s+L+h] has period h and starts with x^(h/rho), so it is a factor of
    x^infinity and has period rho; the squares at p and p+rho are equal.

    Only lags h <= min(|w|/2, LRF(w)) give squares (see period_runs).

    >>> sorted(sq.word for sq in distinct_squares("aababa"))
    ['aa', 'abab', 'baba']
    """
    if runs is None:
        runs = period_runs(w)
    found: set[str] = set()
    for half, lag_runs in enumerate(runs, 1):
        for s, run_len in lag_runs:
            starts = run_len - half + 1
            if starts <= 0:
                continue
            rho = len(primitive_root(w[s:s + half])[0])
            for p in range(s, s + min(rho, starts)):
                found.add(w[p:p + 2 * half])
    return frozenset(Square(sq[:len(sq) // 2], sq) for sq in found)


def suffix_squares(wa: str, m: int) -> list[Square]:
    """The squares of wa that are not squares of w = wa[:-1], for m the
    length of the longest suffix of wa that occurs in w.

    Lemma (new squares): they are the square suffixes of wa longer than m,
    and each has a half h with m < 2h and h <= m. Proof sketch: a new square
    is a new factor, so a suffix longer than m (see words.cycle_counts);
    and the second half of a square suffix uu is a suffix of wa that also
    ends at |wa| - h <= |w|, so it occurs in w. At most two squares are new
    (the mirror of Fraenkel & Simpson's rightmost-occurrence lemma, JCTA
    1998).

    >>> [sq.word for sq in suffix_squares("aababa", 3)]
    ['baba']
    """
    return [Square(wa[-h:], wa[-2 * h:]) for h in range(m // 2 + 1, min(m, len(wa) // 2) + 1)
            if wa[-2 * h:-h] == wa[-h:]]


def class_representative(w: str, any_root: str) -> str:
    """The canonical name v of the class of any_root in w.

    v is conjugate to any_root, v^{2*Index} is a factor of w, and among the
    qualifying rotations v is lexicographically least under the default order.
    u and v are conjugate iff |u| == |v| and u is a factor of vv.
    """
    if not is_primitive(any_root):
        raise ValueError("root must be primitive")
    for v, _, _, _ in class_rows(distinct_squares(w)):
        if len(v) == len(any_root) and v in any_root + any_root:
            return v
    raise ValueError(f"no square of class [{any_root}] occurs in the word")


def square_classes(w: str) -> list[SquareClass]:
    """Partition of distinct_squares(w) by conjugacy of the half's root.

    The SquareClass view of class_rows: classes sorted by (root length,
    root) under the default order, each with its index and least qualifying
    root.
    """
    return [SquareClass(v, index, frozenset(sq for sq, _, _ in members))
            for v, index, _, members in class_rows(distinct_squares(w))]


def class_rows(squares, rows=()) -> list[tuple[str, int, str, list[tuple[Square, int, int]]]]:
    """The class rows of S | squares, for rows = class_rows(S) (S is empty
    by default) and squares not in S; rows and their member lists are left
    as they are.

    A row is (root, index, canon, members): the class root v and index (see
    below), canon the root's least rotation (the root of the class's
    circuits), and members the (square, i, j) of every member, sorted by
    word. Rows are sorted by (root length, root). Each new square's
    primitive root is computed once, and each class's least rotation once.

    The coordinates of a member uu are the (i, j) with
    uu = v_s(i) v^{2j-1} v_p(i), that is uu = rotation(v, i)^{2j}, with
    1 <= i <= |v| and j >= 1; rebuild_from_coordinates is their inverse.
    They are unique because v is primitive: j = |u| / |v| is the exponent of
    u's primitive root, and i - 1 the one offset below |v| at which that
    root, u[:|v|], occurs in vv, since a primitive word equals none of its
    other rotations.

    Lemma: in one class, word order is Square order. Proof sketch: the
    halves are powers of rotations of one length l; if one half is a prefix
    of the other, both are powers of one rotation, and so are the squares;
    otherwise both pairs first differ at the same position.

    The index is the largest n such that u^{2n} is a factor of the word for
    some u conjugate to the root; such a u qualifies, and the stored root is
    the least qualifying rotation. Lemma: the qualifying rotations are the
    primitive roots of the members of top exponent, so (-index, v) is the
    least (-exp, t) over the members, t the primitive root of a member's
    half and exp its exponent. Proof sketch: t^(2*index) is a factor iff it
    is one of the distinct squares, the one with half t^index.

    Lemma: a row depends only on its own class's members. Proof sketch: by
    the rules above. So a class that gains no square keeps its row, and one
    that gains some takes the least of its old (-index, v) and its new
    members' (-exp, t), then recomputes every member's (i, j) against v.
    """
    folded = {row[2]: row for row in rows}
    touched: dict[str, list] = {}
    named: dict[str, str] = {}  # each rotation (so conjugate) of a root seen -> class
    for sq in squares:
        root, exp = primitive_root(sq.half)
        if (canon := named.get(root)) is None:
            canon = least_rotation(root)
            for i in range(len(root)):
                named[root[i:] + root[:i]] = canon
        if (entry := touched.get(canon)) is None:
            v, index, _, members = folded.get(canon, (root, exp, canon, ()))
            entry = touched[canon] = [(-index, v), [m for m, _, _ in members]]
        entry[0] = min(entry[0], (-exp, root))
        entry[1].append(sq)
    for canon, ((neg, v), members) in touched.items():
        doubled, k = v + v, len(v)
        members.sort()  # by word, by the lemma above
        folded[canon] = (v, -neg, canon, [(sq, doubled.find(sq.half[:k]) + 1, len(sq.half) // k)
                                          for sq in members])
    return sorted(folded.values(), key=lambda row: (len(row[0]), row[0]))


def rebuild_from_coordinates(v: str, i: int, j: int) -> str:
    """v_s(i) v^{2j-1} v_p(i): the square with coordinates (i, j) in the
    class of root v (see class_rows)."""
    return v[i - 1:] + v * (2 * j - 1) + v[:i - 1]
