"""Theorem checks, exhaustive sweeps, corpus runs, and report emission.

The headline check per word: the number of distinct squares S(w), counting
the empty square, satisfies S(w) <= |w| - |Alph(w)| + 1, via the chain
S(w) - 1 <= sc(w) <= |w| - |Alph(w)| where sc(w) counts small circuits.
"""
from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass

from .circuits import (
    _edge_rank,
    all_small_circuits,
    circuit_counts_by_order,
    circuit_order_ranges,
    maximal_edge,
    realize,
    small_circuits,
)
from .injection import build_injection, inject_class
from .rauzy import RauzyGraph, build_rauzy
from .squares import (
    distinct_squares,
    rebuild_from_coordinates,
    square_classes,
    square_coordinates,
)
from .words import NATURAL, SymbolOrder, complexity_profile

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class InvariantViolation(Exception):
    """A proved statement failed on concrete data, which means a bug."""


class CorpusError(Exception):
    """A corpus unit cannot be analyzed (for example, over the length cap)."""


@dataclass(frozen=True)
class TheoremReport:
    word: str
    square_count_with_empty: int
    nonempty_squares: int
    alphabet_size: int
    bound: int
    holds: bool
    small_circuit_total: int
    per_order_counts: tuple[tuple[int, int, int], ...]

    @property
    def slack(self) -> int:
        return self.bound - self.square_count_with_empty

    @property
    def chain_holds(self) -> bool:
        """S-1 <= sc <= |w| - |Alph|, and every per-order count under its cap."""
        return (self.nonempty_squares <= self.small_circuit_total
                <= len(self.word) - self.alphabet_size
                and all(sc_r <= cap for _, sc_r, cap in self.per_order_counts))


@dataclass(frozen=True)
class SearchSummary:
    alphabet_size: int
    max_len: int
    words_checked: int
    violations: tuple[str, ...]
    max_nonempty_squares_per_length: tuple[tuple[int, int], ...]
    extremal_witnesses: tuple[tuple[int, tuple[str, ...]], ...]


def theorem_check(w: str) -> TheoremReport:
    """Count squares and small circuits of w and evaluate the bound.

    >>> r = theorem_check("aababa")
    >>> (r.nonempty_squares, r.small_circuit_total, r.bound, r.holds)
    (3, 3, 5, True)
    """
    if not w:
        raise ValueError("the bound is about nonempty words")
    nonempty = len(distinct_squares(w))
    counts = circuit_counts_by_order(w)
    prof = complexity_profile(w)
    per_order = tuple((r, counts.get(r, 0), prof[r + 1] - prof[r] + 1)
                      for r in range(1, len(w) + 1))
    alph = len(set(w))
    bound = len(w) - alph + 1
    return TheoremReport(
        word=w,
        square_count_with_empty=nonempty + 1,
        nonempty_squares=nonempty,
        alphabet_size=alph,
        bound=bound,
        holds=nonempty + 1 <= bound,
        small_circuit_total=sum(counts.values()),
        per_order_counts=per_order,
    )


def verify_word(w: str) -> list[str]:
    """Every per-word invariant in one pass; returns violation messages.

    Checks the count chain, the per-order complexity cap, existence and
    distinctness of all injection images, coordinate round-trips on every
    square, agreement of the two circuit enumerators, distinct maximal edges
    per graph, and exact linear independence of each graph's circuits.
    """
    bad: list[str] = []
    n = len(w)
    classes = square_classes(w)
    nonempty = sum(len(c.members) for c in classes)
    ranges = circuit_order_ranges(w)
    counts: dict[int, int] = {}
    for lo, hi in ranges.values():
        for r in range(lo, hi + 1):
            counts[r] = counts.get(r, 0) + 1
    sc_total = sum(counts.values())
    if nonempty > sc_total:
        bad.append(f"{w}: {nonempty} squares but only {sc_total} circuits")
    if sc_total > n - len(set(w)):
        bad.append(f"{w}: circuit total {sc_total} above |w|-|Alph(w)|")
    prof = complexity_profile(w)
    for r in range(1, n + 1):
        cap = prof[r + 1] - prof[r] + 1
        if counts.get(r, 0) > cap:
            bad.append(f"{w}: order {r} has {counts[r]} circuits, cap {cap}")
    existing = {(root, r) for root, (lo, hi) in ranges.items()
                for r in range(lo, hi + 1)}
    images = []
    for cls in classes:
        for sq, circ in inject_class(w, cls):
            images.append(circ)
            if (circ.root, circ.order) not in existing:
                bad.append(f"{w}: image {circ} of {sq.word} does not exist")
        for sq in cls.members:
            co = square_coordinates(sq, cls)
            if rebuild_from_coordinates(cls.root, co) != sq.word:
                bad.append(f"{w}: coordinates ({co.i},{co.j}) do not rebuild {sq.word}")
    if len(set(images)) != len(images):
        bad.append(f"{w}: injection images collide")
    for r, expected in counts.items():
        per_r = small_circuits(w, r)
        if len(per_r) != expected:
            bad.append(f"{w}: order {r} enumerators disagree "
                       f"({len(per_r)} direct vs {expected} batched)")
        medges = [maximal_edge(c) for c in per_r]
        if len(set(medges)) != len(medges):
            bad.append(f"{w}: order {r} maximal edges collide")
        if _edge_rank(per_r) != len(per_r):
            bad.append(f"{w}: order {r} circuits are linearly dependent")
    return bad


def canonical_words(alphabet_size: int, length: int, prefix: str = ""):
    """Words of the given length, one per letter-renaming orbit.

    Canonical means the first occurrences of the distinct letters appear in
    the fixed order a, b, c, ... A prefix restricts the enumeration to its
    subtree (the prefix must itself be canonical).
    """
    if alphabet_size < 1:
        raise ValueError("alphabet size must be positive")
    used = 0
    for c in prefix:
        ix = LETTERS.index(c)
        if ix > used or ix >= alphabet_size:
            raise ValueError(f"prefix {prefix!r} is not canonical")
        used = max(used, ix + 1)
    if len(prefix) > length:
        return
    buf = list(prefix)

    def rec(used: int):
        if len(buf) == length:
            yield "".join(buf)
            return
        for ci in range(min(used + 1, alphabet_size)):
            buf.append(LETTERS[ci])
            yield from rec(used if ci < used else used + 1)
            buf.pop()

    yield from rec(used)


def canonical_count(alphabet_size: int, length: int) -> int:
    """How many canonical words of the given length exist, without listing."""
    states = [0] * (alphabet_size + 1)
    states[0] = 1
    for _ in range(length):
        nxt = [0] * (alphabet_size + 1)
        for used, ways in enumerate(states):
            if not ways:
                continue
            if used:
                nxt[used] += ways * used
            if used < alphabet_size:
                nxt[used + 1] += ways
        states = nxt
    return sum(states)


def _sweep_lengths(alphabet_size: int, lengths, prefix: str = ""):
    # shared by the serial and parallel paths
    checked = 0
    violations: list[str] = []
    best: dict[int, int] = {}
    witnesses: dict[int, list[str]] = {}
    for n in lengths:
        for w in canonical_words(alphabet_size, n, prefix):
            checked += 1
            violations.extend(verify_word(w))
            sq = len(distinct_squares(w))
            if sq > best.get(n, -1):
                best[n] = sq
                witnesses[n] = [w]
            elif sq == best[n] and len(witnesses[n]) < 16:
                witnesses[n].append(w)
    return checked, violations, best, witnesses


def _search_unit(args):
    alphabet_size, max_len, prefix, lengths = args
    return _sweep_lengths(alphabet_size, lengths, prefix)


def exhaustive_search(alphabet_size: int, max_len: int, jobs: int = 1,
                      max_words: int = 2_000_000) -> SearchSummary:
    """Verify every canonical word up to max_len; aggregate the results.

    The word space is partitioned by canonical prefixes into independent
    units, so the sweep parallelizes without shared state.
    """
    if alphabet_size < 1 or max_len < 1:
        raise ValueError("alphabet size and maximum length must be positive")
    total = sum(canonical_count(alphabet_size, n) for n in range(1, max_len + 1))
    if total > max_words:
        raise ValueError(f"search space {total} exceeds the {max_words} word budget")
    if jobs <= 1:
        parts = [_sweep_lengths(alphabet_size, range(1, max_len + 1))]
    else:
        depth = min(max_len, 6)
        units = [(alphabet_size, max_len, "", range(1, depth))]
        units += [(alphabet_size, max_len, p, range(depth, max_len + 1))
                  for p in canonical_words(alphabet_size, depth)]
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_search_unit, units)
    checked = 0
    violations: list[str] = []
    best: dict[int, int] = {}
    witnesses: dict[int, list[str]] = {}
    for part_checked, part_violations, part_best, part_wit in parts:
        checked += part_checked
        violations.extend(part_violations)
        for n, v in part_best.items():
            if v > best.get(n, -1):
                best[n] = v
                witnesses[n] = list(part_wit[n])
            elif v == best[n]:
                witnesses[n] = (witnesses[n] + part_wit[n])[:16]
    return SearchSummary(
        alphabet_size=alphabet_size,
        max_len=max_len,
        words_checked=checked,
        violations=tuple(sorted(violations)),
        max_nonempty_squares_per_length=tuple(sorted(best.items())),
        extremal_witnesses=tuple((n, tuple(sorted(ws)))
                                 for n, ws in sorted(witnesses.items())),
    )


def json_document(w: str, order: SymbolOrder = NATURAL) -> dict:
    """The machine-readable analysis of one word, with stable field names."""
    order.check_covers(w)
    report = theorem_check(w)
    classes = square_classes(w)
    circuits = sorted(all_small_circuits(w), key=lambda c: (c.order, c.root))
    injection = build_injection(w)
    return {
        "word": w,
        "length": len(w),
        "alphabet": sorted(set(w), key=order.sort_key),
        "squares": [{"half": s.half, "word": s.word}
                    for s in sorted(distinct_squares(w))],
        "classes": [{"root": c.root, "index": c.index,
                     "members": sorted(m.word for m in c.members)}
                    for c in classes],
        "circuits": [{"root": c.root, "order": c.order,
                      "vertices": sorted(realize(c).vertices),
                      "edges": sorted(realize(c).edges),
                      "maximal_edge": maximal_edge(c, order)}
                     for c in circuits],
        "injection": [{"square": sq.word,
                       "circuit": {"root": circ.root, "order": circ.order}}
                      for sq, circ in sorted(injection.assignments,
                                             key=lambda p: (len(p[0].word), p[0].word))],
        "theorem": {
            "S": report.square_count_with_empty,
            "bound": report.bound,
            "holds": report.holds,
            "sc_total": report.small_circuit_total,
            "per_order": [{"r": r, "sc_r": sc_r, "cap": cap}
                          for r, sc_r, cap in report.per_order_counts],
        },
    }


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_digraph(g: RauzyGraph) -> str:
    """Graphviz text for one Rauzy graph; edge labels carry the long factor."""
    lines = [f"digraph gamma_{g.order} {{"]
    for v in sorted(g.vertices):
        lines.append(f"  {_dot_quote(v)};")
    for e in g.edges:
        lines.append(f"  {_dot_quote(e.src)} -> {_dot_quote(e.dst)}"
                     f" [label={_dot_quote(e.label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _report_text(w: str, order: SymbolOrder) -> str:
    report = theorem_check(w)
    classes = square_classes(w)
    injection = build_injection(w)
    circuits = sorted(all_small_circuits(w), key=lambda c: (c.order, c.root))
    out = [f"word: {w}  (length {len(w)}, alphabet size {report.alphabet_size})"]
    out.append(f"nonempty squares ({report.nonempty_squares}): "
               + ", ".join(s.word for s in sorted(distinct_squares(w))))
    out.append("classes:")
    out.append("  root | index | size | members")
    for c in classes:
        members = ", ".join(sorted(m.word for m in c.members))
        out.append(f"  {c.root} | {c.index} | {len(c.members)} | {members}")
    out.append(f"small circuits ({len(circuits)}):")
    by_order: dict[int, list] = {}
    for c in circuits:
        by_order.setdefault(c.order, []).append(c)
    for r in sorted(by_order):
        row = ", ".join(f"{c} max_edge={maximal_edge(c, order)}"
                        for c in by_order[r])
        out.append(f"  r={r}: {row}")
    out.append("injection:")
    for sq, circ in sorted(injection.assignments,
                           key=lambda p: (len(p[0].word), p[0].word)):
        out.append(f"  {sq.word} -> {circ}")
    out.append(f"  injective: {injection.injective}, "
               f"images exist: {injection.all_images_exist}")
    verdict = "holds" if report.holds else "VIOLATED"
    out.append(f"theorem: S(w) = {report.square_count_with_empty} <= "
               f"{report.bound} = |w| - |Alph(w)| + 1  ... {verdict}")
    out.append(f"chain: S-1 = {report.nonempty_squares} <= sc = "
               f"{report.small_circuit_total} <= {len(w) - report.alphabet_size}"
               f" = |w| - |Alph(w)|  ... "
               + ("holds" if report.chain_holds else "VIOLATED"))
    return "\n".join(out) + "\n"


def analyze(w: str, emit: str = "report", order: SymbolOrder = NATURAL,
            r=None) -> str:
    """Render one word as a text report, DOT digraphs, or a JSON document."""
    order.check_covers(w)
    if emit == "report":
        return _report_text(w, order)
    if emit == "json":
        return json.dumps(json_document(w, order), indent=2) + "\n"
    if emit == "dot":
        if r is None:
            raise ValueError("dot output needs a graph order or 'all'")
        orders = range(1, len(w) + 1) if r == "all" else [int(r)]
        return "".join(dot_digraph(build_rauzy(w, n)) for n in orders)
    raise ValueError(f"unknown emit mode {emit!r}")


def corpus_analyze(path: str, mode: str = "per-line",
                   max_unit_len: int = 1024):
    """Yield a TheoremReport per unit of a byte corpus.

    Units are lines (per-line mode) or the whole file; bytes map one-to-one
    to symbols. Empty units are skipped; a unit over the length cap is an
    error since the analysis is meant for desk-scale words.
    """
    if mode not in ("per-line", "whole"):
        raise ValueError(f"unknown corpus mode {mode!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    if mode == "whole":
        units = [data[:-1] if data.endswith(b"\n") else data]
    else:
        units = [line.rstrip(b"\r") for line in data.split(b"\n")]
    for i, unit in enumerate(units, 1):
        if not unit:
            continue
        if len(unit) > max_unit_len:
            raise CorpusError(f"unit {i} has {len(unit)} bytes, "
                              f"cap is {max_unit_len}")
        yield theorem_check(unit.decode("latin-1"))
