"""Reference answers the benchmark checks the program against.

These share no code with sqcirc: distinct squares by trying every start and
half length, and canonical words as restricted growth strings.
"""
from __future__ import annotations

from inputs import LETTERS


def square_count(w: str) -> int:
    """Number of distinct nonempty factors uu of w, by brute force."""
    found = set()
    n = len(w)
    for half in range(1, n // 2 + 1):
        for i in range(n - 2 * half + 1):
            if w[i:i + half] == w[i + half:i + 2 * half]:
                found.add(w[i:i + 2 * half])
    return len(found)


def canonical_words(k: int, n: int):
    """Words of length n over k letters whose letters first occur as a, b, c, ..."""
    def grow(prefix: str, used: int):
        if len(prefix) == n:
            yield prefix
            return
        for ci in range(min(used + 1, k)):
            yield from grow(prefix + LETTERS[ci], max(used, ci + 1))
    yield from grow("", 0)


def is_canonical(w: str, k: int) -> bool:
    used = 0
    for c in w:
        ci = LETTERS.find(c)
        if not 0 <= ci <= min(used, k - 1):
            return False
        used = max(used, ci + 1)
    return True


def sweep_reference(k: int, max_len: int) -> tuple[int, dict[int, int]]:
    """Canonical words of lengths 1..max_len, and the most distinct nonempty
    squares any of them has, per length."""
    count, best = 0, {}
    for n in range(1, max_len + 1):
        for w in canonical_words(k, n):
            count += 1
            best[n] = max(best.get(n, 0), square_count(w))
    return count, best
