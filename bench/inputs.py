"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed (and of the smoke flag), so the
same seed always gives the same words and the same corpus file.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The worked examples of the paper: aababa, the order-five nest and the
# twenty-two letter example.
PAPER_WORDS = ("aababa", "abaaabaabaaaaba", "baababaababbbabbabbbab")

# (family, length) of the long-words workload.  The random families are the
# only seed-dependent words; the rest are fixed and share golden digests
# across seeds.
LONG_WORDS = (("random-2", 256), ("random-2", 384), ("random-8", 256),
              ("random-8", 512), ("fibonacci", 256), ("fibonacci", 384),
              ("thue-morse", 256), ("thue-morse", 384), ("unary", 512))
SMOKE_LONG_WORDS = (("random-2", 24), ("random-8", 32), ("fibonacci", 24),
                    ("thue-morse", 24), ("unary", 32))

# (alphabet size, max length) of each exhaustive_search call in a sweep pass.
SWEEP = ((2, 13), (3, 9))
SMOKE_SWEEP = ((2, 7), (3, 5))

CORPUS_LINES = 1200
SMOKE_CORPUS_LINES = 30
# Two log-like lines per 4-letter line: the two latency modes stay far from
# 50/50, so the median falls inside the log-line mode.
LOG_SHARE = 2 / 3


@dataclass(frozen=True)
class Word:
    family: str
    word: str


def fibonacci(n: int) -> str:
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse(n: int) -> str:
    return "".join("ab"[bin(i).count("1") & 1] for i in range(n))


def long_words(seed: int, smoke: bool = False) -> list[Word]:
    rng = random.Random(seed)
    out = []
    for family, n in SMOKE_LONG_WORDS if smoke else LONG_WORDS:
        if family.startswith("random-"):
            k = int(family.split("-")[1])
            w = "".join(rng.choice(LETTERS[:k]) for _ in range(n))
        elif family == "fibonacci":
            w = fibonacci(n)
        elif family == "thue-morse":
            w = thue_morse(n)
        else:
            w = "a" * n
        out.append(Word(family, w))
    return out + [Word("paper", w) for w in PAPER_WORDS]


_LEVELS = ("info", "warn")
_VERBS = ("started", "finished", "retried")
_NOUNS = ("job", "task")


def _log_line(rng: random.Random) -> str:
    # Shared templates over a small vocabulary: about 27 distinct bytes a
    # line, 60 to 90 characters.
    stamp = (f"2024-0{rng.randint(1, 9)}-{rng.randint(10, 28)} "
             f"{rng.randint(10, 23)}:{rng.randint(10, 59)}:{rng.randint(10, 59)}")
    head = (f"{stamp} {rng.choice(_LEVELS)} worker-{rng.randint(1, 9)} "
            f"{rng.choice(_NOUNS)} {rng.randint(1000, 9999)} {rng.choice(_VERBS)}")
    tail = f" in {rng.randint(1, 999)} ms"
    while len(head) + len(tail) < rng.randint(60, 90):
        tail += f" +{rng.randint(100, 999)}"
    return (head + tail)[:90]


def corpus_lines(seed: int, smoke: bool = False) -> list[str]:
    """Log-like lines and random 4-letter lines, shuffled together."""
    rng = random.Random(seed)
    total = SMOKE_CORPUS_LINES if smoke else CORPUS_LINES
    logs = round(total * LOG_SHARE)
    lines = [_log_line(rng) for _ in range(logs)]
    lines += ["".join(rng.choice("acgt") for _ in range(rng.randint(48, 128)))
              for _ in range(total - logs)]
    rng.shuffle(lines)
    return lines
