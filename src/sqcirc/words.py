"""Elementary combinatorics on words.

Words are plain ``str`` values; a symbol is a one-character string. Positions
are 1-based throughout the public API, so ``rotation(w, 1) == w`` and the
rotation at position i is w_i..w_t w_1..w_{i-1}.
"""
from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional


class SymbolOrder(NamedTuple):
    """A total order on symbols.

    ``symbols is None`` means the natural codepoint order, which is the
    default everywhere. An explicit order is a permutation string such as
    "ba", read as b < a. Presentation helpers (extremal rotations, maximal
    edges, circuit arrangement) honour the order; structural identities
    (conjugacy, circuit roots, class partitions) never depend on it.
    """

    symbols: Optional[tuple[str, ...]] = None

    @classmethod
    def natural(cls) -> "SymbolOrder":
        return cls(None)

    @classmethod
    def from_string(cls, perm: str) -> "SymbolOrder":
        syms = tuple(perm)
        if len(set(syms)) != len(syms):
            raise ValueError(f"order string has repeated symbols: {perm!r}")
        if not syms:
            raise ValueError("order string is empty")
        return cls(syms)

    def check_covers(self, w: str) -> None:
        if self.symbols is None:
            return
        missing = sorted(set(w) - set(self.symbols))
        if missing:
            raise ValueError(f"order is missing symbols: {missing}")

    def sort_key(self, w: str):
        """Key usable with sorted/min/max; raises if a symbol is unranked."""
        if self.symbols is None:
            return w
        rank = {c: i for i, c in enumerate(self.symbols)}
        try:
            return tuple(rank[c] for c in w)
        except KeyError as exc:
            raise ValueError(f"order is missing symbol {exc.args[0]!r}") from None

    def less(self, a: str, b: str) -> bool:
        return self.sort_key(a) < self.sort_key(b)


NATURAL = SymbolOrder.natural()


class RationalExponent(namedtuple("RationalExponent", "integer_part remainder_len")):
    """An exponent a + i/|u| for powers of a base word u.

    integer_part is a >= 0 and remainder_len is i with 0 <= i < |u|, so the
    power u^alpha has the integral length a*|u| + i.
    """

    __slots__ = ()

    def __new__(cls, integer_part: int, remainder_len: int) -> "RationalExponent":
        if integer_part < 0 or remainder_len < 0:
            raise ValueError("exponent parts must be non-negative")
        return tuple.__new__(cls, (integer_part, remainder_len))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too builds through it

    @classmethod
    def from_length(cls, base_len: int, total_len: int) -> "RationalExponent":
        """The exponent alpha with alpha * base_len == total_len."""
        if base_len < 1:
            raise ValueError("empty base word")
        if total_len < 0:
            raise ValueError("negative power length")
        return cls(total_len // base_len, total_len % base_len)


def rotation(w: str, i: int) -> str:
    """Rotation starting at 1-based position i: w_i..w_t w_1..w_{i-1}.

    >>> rotation("abc", 2)
    'bca'
    """
    if not w:
        raise IndexError("empty word has no rotations")
    if not 1 <= i <= len(w):
        raise IndexError(f"rotation position {i} out of range 1..{len(w)}")
    return w[i - 1:] + w[:i - 1]


def conjugacy_class(w: str) -> frozenset[str]:
    """All rotations of w, duplicates collapsed."""
    if not w:
        raise ValueError("empty word has no conjugacy class")
    return frozenset(w[i:] + w[:i] for i in range(len(w)))


def extremal_rotation(w: str, order: SymbolOrder = NATURAL,
                      direction: str = "least") -> str:
    """The least or greatest element of the conjugacy class of w under order.

    Renaming the letters by rank, reversed for the greatest (rotations have
    one length, so that reverses their order), makes it the least rotation
    of the renamed word t, found by _least_start.
    """
    order.check_covers(w)
    if direction not in ("least", "greatest"):
        raise ValueError(f"direction must be least or greatest, got {direction!r}")
    t = w
    if order.symbols is not None or direction == "greatest":
        ranked = sorted(set(w), key=order.sort_key, reverse=direction == "greatest")
        t = w.translate({ord(x): i for i, x in enumerate(ranked)})
    at = _least_start(t)
    return w[at:] + w[:at]


def least_rotation(w: str) -> str:
    """Canonical conjugacy-class representative: least rotation, natural order.

    >>> least_rotation("cabab")
    'ababc'
    """
    at = _least_start(w)
    return w[at:] + w[:at]


def _least_start(t: str) -> int:
    """Where the least rotation of t starts, under the natural order.

    Lemma: it starts with the least letter c of t, as any rotation starting
    with c beats one that does not. So only the rotations at c's
    occurrences, found with ``str.find``, compete.
    """
    if not t:
        raise ValueError("empty word has no conjugacy class")
    n, tt, c = len(t), t + t, min(t)
    best, at, i = t, 0, t.find(c)
    while i >= 0:
        if (cand := tt[i:i + n]) < best:
            best, at = cand, i
        i = t.find(c, i + 1)
    return at


def smallest_period(w: str) -> int:
    """The least p >= 1 with w_i == w_{i+p} for every valid i.

    Candidates p are scanned upwards, jumping with ``str.find``. Lemma: with
    m = ceil((n - p) / 2), every period p' in [p, n - m] puts the prefix
    w[:m] at position p', since w[p':p'+m] == w[:m]. So the first
    occurrence q >= p of w[:m] bounds every such period from below: if q is
    a period it is the least one, and if not the scan resumes at q + 1. If
    w[:m] does not occur at or after p, no period lies in [p, n - m], and
    the scan jumps to n - m + 1, which halves the remaining n - p.

    >>> smallest_period("abaababaab")
    5
    """
    n = len(w)
    if not n:
        raise ValueError("empty word has no period")
    p = 1
    while p < n:
        m = (n - p + 1) // 2
        q = w.find(w[:m], p)
        if q < 0:
            p = n - m + 1
        elif w[q:] == w[:n - q]:
            return q
        else:
            p = q + 1
    return n


def is_primitive(w: str) -> bool:
    """True iff w is not an integer power of a strictly shorter word.

    Lemma: w is primitive iff it occurs in ww only at 0 and |w|. Proof
    sketch: w == u^k with k >= 2 puts w at |u| in ww. Conversely, w at
    0 < i < |w| in ww means w == xy == yx with |x| = i, so x and y are
    powers of one word z, and w is a power of z with |z| <= i < |w|.

    >>> is_primitive("abab"), is_primitive("aba")
    (False, True)
    """
    if not w:
        raise ValueError("empty word")
    return (w + w).find(w, 1) == len(w)


def primitive_root(w: str) -> tuple[str, int]:
    """The unique (root, exponent) with w == root**exponent and root primitive.

    The root length is the first position after 0 at which w occurs in
    ww: by the lemma of is_primitive, w occurs there at multiples of the
    root length and nowhere else before |w|.

    >>> primitive_root("abab")
    ('ab', 2)
    """
    if not w:
        raise ValueError("empty word")
    k = (w + w).find(w, 1)
    return w[:k], len(w) // k


def has_period(w: str, p: int) -> bool:
    """True iff w_i == w_{i+p} for every valid i."""
    if not 1 <= p <= len(w):
        raise ValueError(f"period {p} out of range 1..{len(w)}")
    return w[p:] == w[:-p]


def fractional_power(u: str, alpha) -> str:
    """u^alpha: u repeated, then the prefix of u of length alpha.remainder_len.

    alpha may be a RationalExponent or a plain non-negative int.

    >>> fractional_power("ab", RationalExponent(2, 1))
    'ababa'
    """
    if not u:
        raise ValueError("empty base word")
    if isinstance(alpha, int):
        alpha = RationalExponent(alpha, 0)
    if alpha.remainder_len >= len(u):
        raise ValueError("remainder length must be shorter than the base")
    return power_to_length(u, alpha.integer_part * len(u) + alpha.remainder_len)


def power_to_length(u: str, total_len: int) -> str:
    """u extended periodically to exactly total_len characters.

    This is fractional_power(u, RationalExponent.from_length(|u|, total_len)):
    total_len // |u| + 1 copies of u are at least total_len long, and their
    prefix of that length is the power.

    >>> power_to_length("abc", 7)
    'abcabca'
    """
    if not u:
        raise ValueError("empty base word")
    if total_len < 0:
        raise ValueError("negative power length")
    return (u * (total_len // len(u) + 1))[:total_len]


def factors(w: str, n: int) -> set[str]:
    """L_w(n): the distinct length-n factors of w.

    n == 0 gives {""}; n > |w| gives the empty set, so complexity vanishes
    beyond the length of the word.
    """
    if n < 0:
        raise ValueError("factor length must be non-negative")
    if n == 0:
        return {""}
    return {w[i:i + n] for i in range(len(w) - n + 1)}


def complexity(w: str, n: int) -> int:
    """C_w(n) = |L_w(n)|."""
    return len(factors(w, n))


def longest_repeated_factor(w: str) -> int:
    """LRF(w): the length of the longest factor that occurs at least twice.

    The two occurrences may overlap. LRF("") = 0, and LRF(w) = 0 means no
    letter of w repeats. It is the largest m_j of cycle_counts, as a factor
    whose second occurrence ends at j is a suffix of w[:j+1] that occurs in
    w[:j].

    >>> longest_repeated_factor("aababa")
    3
    """
    return max(cycle_counts(w), default=0)


def cycle_counts(w: str) -> dict[int, int]:
    """cycles[r] = #{j : m_j = r}, for m_j the length of the longest suffix
    of w[:j+1] that occurs in w[:j]; orders no m_j reaches are absent.

    Lemma (new factors): the factors of wa that are not factors of w are
    exactly the suffixes of wa longer than m, for m the length of the longest
    suffix of wa that occurs in w. Proof sketch: a factor that avoids the
    last letter is a factor of w, and a suffix of one that occurs in w
    occurs there too, so the suffixes that occur are those of length at
    most m.

    Lemma (cycles): cycles[0] = |Alph(w)|, and for 1 <= r <= |w|, cycles[r]
    is the cyclomatic number C_w(r+1) - C_w(r) + 1 of the connected graph
    Gamma_r(w). Proof sketch: by the new-factors lemma, letter j's new edges
    are the suffixes of w[:j+1] longer than m_j, and its new vertices the
    suffixes of length r > m_j. So it adds one edge and no vertex to
    Gamma_{m_j}, one vertex and no edge to Gamma_{j+1} (its first window),
    and as many of each to every other Gamma_r; summed over j, the connected
    Gamma_r has cycles[r] - 1 more edges than vertices. m_j = 0 exactly when
    w[j] is a new letter, so the cycles at r >= 1 sum to |w| - |Alph(w)|.
    The keys are 0..LRF(w), as m_{j+1} <= m_j + 1: a suffix of w[:j+2] that
    occurs in w[:j+1], less its last letter, is one of w[:j+1] in w[:j].

    The m_j come from the suffix automaton of w, built online in O(|w|)
    steps (Blumer et al., "The smallest automaton recognizing the subwords
    of a text", TCS 1985). The suffix link of the state of w[:j+1] leads to
    the state of its longest suffix that also occurs in w[:j], so m_j is
    the length of that state.

    >>> cycle_counts("aababa")
    {0: 2, 1: 2, 2: 1, 3: 1}
    """
    nxt, link, length = [{}], [-1], [0]
    cycles: dict[int, int] = {}
    last = 0
    for j, c in enumerate(w):
        cur = len(length)
        nxt.append({})
        link.append(0)
        length.append(j + 1)
        p = last
        while p >= 0 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p >= 0:
            q = nxt[p][c]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = len(length)
                nxt.append(nxt[q].copy())
                link.append(link[q])
                length.append(length[p] + 1)
                while p >= 0 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
        m = length[link[cur]]
        cycles[m] = cycles.get(m, 0) + 1
    return cycles


def complexity_profile(w: str) -> tuple[int, ...]:
    """C_w(n) for n = 0..|w|+1 (last entry is always 0), the prefix sums of
    cycle_counts: C_w(0) = 1 and C_w(k+1) = C_w(k) + cycles[k] - 1, by its
    cycles lemma (cycles[0] = |Alph(w)| = C_w(1), and cycles[|w|] = 0).
    """
    cycles, c, profile = cycle_counts(w), 1, [1]
    for k in range(len(w) + 1):
        c += cycles.get(k, 0) - 1
        profile.append(c)
    return tuple(profile)


def common_root(x: str, y: str) -> Optional[str]:
    """The primitive p with x, y both powers of p, if xy == yx; else None."""
    if not x or not y:
        raise ValueError("empty word")
    if x + y != y + x:
        return None
    return primitive_root(x + y)[0]


def three_words_decomposition(x: str, y: str, z: str) -> Optional[tuple[str, str, int]]:
    """Solve xy == yz: returns (u, v, k) with x=uv, y=(uv)^k u, z=vu, or None.

    Found by direct search over the cut of x; the equation forces |x| == |z|.
    """
    if not x or not y:
        raise ValueError("x and y must be nonempty")
    if x + y != y + z:
        return None
    for cut in range(len(x) + 1):
        u, v = x[:cut], x[cut:]
        if z != v + u:
            continue
        rem = len(y) - cut
        if rem < 0 or rem % len(x):
            continue
        k = rem // len(x)
        if y == x * k + u:
            return u, v, k
    return None


def alphabet(w: str) -> frozenset[str]:
    """Alph(w): the set of distinct symbols of w."""
    return frozenset(w)
