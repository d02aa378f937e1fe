"""Distinct square factors and their conjugacy classes.

A square is a factor uu. squares_and_ranges lists the distinct squares and,
off the same lag scan, the circuit order ranges. Squares are grouped by the
conjugacy class of the primitive root of the half u. One pass, class_rows,
gives each class its index, its root v and every member's coordinates
(i, j), from which rebuild_from_coordinates rebuilds the member;
square_classes is the SquareClass view of those rows. For the sweep,
suffix_squares lists the squares that one more letter adds, and class_rows
folds them into the rows.
"""
from __future__ import annotations

import re
from collections import namedtuple
from typing import NamedTuple

from .words import cycle_counts, is_primitive, least_rotation, primitive_root

_ZEROS = re.compile(rb"\x00+")


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


def _mismatches(w: str, wb: bytes | None, lag: int) -> bytes:
    # byte t is 0 iff w[t] == w[t+lag], for wb = _encode(w) and 1 <= lag < |w|
    if wb is None:  # over 256 symbols: compare symbol by symbol
        return bytes(a != b for a, b in zip(w, w[lag:]))
    k = len(w) - lag
    return (int.from_bytes(wb[:k], "big") ^ int.from_bytes(wb[lag:], "big")).to_bytes(k, "big")


def _runs(z: bytes):
    # the maximal runs (start, length) of zero bytes in z
    for m in _ZEROS.finditer(z):
        s, e = m.span()
        yield s, e - s


def _long_runs(z: bytes, least: int):
    # the maximal runs of zero bytes in z at least least long, at C speed:
    # each search resumes at a nonzero byte, so its match starts a run
    pad, s = b"\0" * least, 0
    while (s := z.find(pad, s)) >= 0:
        e = _ZEROS.match(z, s).end()
        yield s, e - s
        s = e


def match_runs(w: str, lag: int) -> list[tuple[int, int]]:
    """Maximal runs (start, length) of positions t with w[t] == w[t+lag].

    A run (s, L) certifies that w[s : s+L+lag] is periodic with period lag.
    """
    if not 1 <= lag:
        raise ValueError("lag must be positive")
    return list(_runs(_mismatches(w, _encode(w), lag))) if lag < len(w) else []


def squares_and_ranges(w: str, cycles: dict[int, int]) -> tuple[frozenset[Square],
                                                              dict[str, tuple[int, int]]]:
    """distinct_squares(w) and circuits.circuit_order_ranges(w) from one scan
    of the lags h = 1..min(LRF(w), |w|/2), each lag's runs (those of
    match_runs) read off one mismatch string; cycles is
    words.cycle_counts(w), whose largest key is LRF(w).

    Lemma (lags): a square uu with |u| = h needs 2h <= |w|, and u occurs
    twice, so h <= LRF(w); a root of length h has h distinct windows
    w[t:t+h] with w[t] == w[t+h], so h <= |w| - h; and every small circuit
    C(q, r) has |q| <= r <= LRF(w). Proof sketch: if every vertex of a
    p-cycle in Gamma_r occurred once in w, each edge u -> v would force
    pos(v) = pos(u) + 1, so going round the cycle would advance by p.

    Lemma (squares): a square of half h starts at p iff p..p+h-1 lie in one
    run (s, L) at lag h, and only the first min(rho, L-h+1) of the run's
    squares can be distinct, rho the length of the primitive root x of
    w[s:s+h]: w[s:s+L+h] has period h and starts with x^(h/rho), so period rho.

    Lemma (roots): the windows u = w[t:t+h] at the positions t of the runs
    are the ends of circuits.direct_order_ranges, so [q] with |q| = h has a
    circuit iff u -> rot(u) closes on its rotations after exactly h steps
    (fewer: u is a power); its least vertex is the root, and its orders are
    [h, m-1], m the least longest period-h extension of its windows. u at t
    extends to length s+L+h-t, and the window at t+h is u again with a
    shorter extension, so the first min(L, h) positions of a run give every
    window its longest one. Lemma (early stop): a run's loop stops at its
    first window u at t that gains nothing, as every later window gains
    nothing either. Proof sketch: the position t' that gave u an extension
    at least as long starts a stretch of period h that agrees with the one
    at t, so the window at t+j recurs at t'+j, inside its run, with an
    extension at least as long. So a power u0 = w[s:s+h] of period d | h
    recurs at s+d with a shorter extension, and no primitivity test is needed.

    Lemma (cap): when the roots found at lags below h whose orders reach h
    number at least cycles[h], no root has length h, and lag h lists only
    its runs of length >= h, for the squares. Proof sketch: one more would
    be one more small circuit of Gamma_h; its small circuits have distinct
    maximal edges (circuits.maximal_edge), so independent edge vectors, and
    number at most the dimension of its cycle space, the cyclomatic number
    cycles[h] of the weakly connected Gamma_h (see words.cycle_counts).
    """
    n, wb = len(w), _encode(w)
    found: set[str] = set()
    ranges: dict[str, tuple[int, int]] = {}
    alive, last = 0, {}  # roots whose orders reach h; counts by last order
    for h in range(1, min(max(cycles, default=0), n // 2) + 1):
        alive -= last.pop(h - 1, 0)
        z, full = _mismatches(w, wb, h), alive >= cycles[h]
        ext: dict[str, int] = {}  # window -> its longest period-h extension
        for s, run_len in _long_runs(z, h) if full else _runs(z):
            if run_len >= h:
                rho = len(primitive_root(w[s:s + h])[0])
                for p in range(s, s + min(rho, run_len - h + 1)):
                    found.add(w[p:p + 2 * h])
            if full:
                continue
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
                alive += 1
                last[m - 1] = last.get(m - 1, 0) + 1
    return frozenset(Square(sq[:len(sq) // 2], sq) for sq in found), ranges


def distinct_squares(w: str) -> frozenset[Square]:
    """All nonempty factors of w of the form uu, as words (not occurrences):
    the squares of squares_and_ranges.

    >>> sorted(sq.word for sq in distinct_squares("aababa"))
    ['aa', 'abab', 'baba']
    """
    return squares_and_ranges(w, cycle_counts(w))[0]


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
