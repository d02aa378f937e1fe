"""Theorem checks, exhaustive sweeps, corpus runs, and report emission.

The headline check per word: the number of distinct squares S(w), counting
the empty square, satisfies S(w) <= |w| - |Alph(w)| + 1, via the chain
S(w) - 1 <= sc(w) <= |w| - |Alph(w)| where sc(w) counts small circuits.
"""
from __future__ import annotations

import json
import os
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .circuits import (
    circuit_blocks,
    circuit_order_ranges,
    circuit_pairs,
    direct_order_ranges,
    extend_order_ranges,
    order_counts,
)
from .injection import InjectionReport, audit_injection, class_images, missing_images
from .rauzy import RauzyGraph, build_rauzy
from .squares import (
    Square,
    class_rows,
    distinct_squares,
    period_runs,
    rebuild_from_coordinates,
    suffix_squares,
)
from .words import (
    NATURAL,
    SymbolOrder,
    cycle_counts,
)

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class CorpusError(Exception):
    """A corpus unit cannot be analyzed (for example, over the length cap)."""


class TheoremReport(NamedTuple):
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


class SearchSummary(NamedTuple):
    alphabet_size: int
    max_len: int
    words_checked: int
    violations: tuple[str, ...]
    max_nonempty_squares_per_length: tuple[tuple[int, int], ...]
    extremal_witnesses: tuple[tuple[int, tuple[str, ...]], ...]


class _lazy:
    """functools.cached_property without its lock, which Python 3.11 takes on
    every first access: the value, once stored in the instance dict, shadows
    this non-data descriptor."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class WordAnalysis:
    """Everything the bound's chain knows about one word: a frozen record of
    the word alone, each field computed on first use and kept, so a report
    pays only for what it renders. The squares and the circuit order ranges
    are read off one period_runs scan, held until both have read it. The
    class rows of squares.class_rows and their images under
    injection.class_images feed the invariant battery as plain tuples. Only
    the reports read the InjectionReport and the TheoremReport, and only the
    TheoremReport needs a nonempty word. The reports render the classes from
    the rows and list the circuits through circuit_blocks.

    An analysis is built either from its word alone, by the batch engines,
    or by extend from the analysis of the word less its last letter, as the
    sweep builds every word below its walk's root.
    """

    def __init__(self, word: str) -> None:
        self.__dict__["word"] = word

    def __setattr__(self, name, value=None):  # frozen: serves as __delattr__ too
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.word == other.word if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.word,))

    def __repr__(self) -> str:
        return f"WordAnalysis(word={self.word!r})"

    def extend(self, a: str) -> WordAnalysis:
        """The analysis of word + a, its cycle counts, squares and ranges
        extended from this analysis's by the lemmas of words.cycle_counts,
        squares.suffix_squares and circuits.extend_order_ranges, for m the
        length of the longest suffix of wa that occurs in w: the letter adds
        one cycle at order m, the new squares are suffixes longer than m, and
        every new circuit has order m and the edge wa[-(m+1):].

        The class rows and their images are functions of the squares alone,
        and the circuit counts of the ranges alone; so when the child's
        squares (ranges) object is this one's, it reads this one's rows and
        images (counts), if computed. The battery's fault fields follow their
        sources: bad_coordinates is read off the rows, images_collide off the
        images, and missing off the images and the ranges, so the child reads
        this one's, if computed, exactly when it shares those sources. When
        the letter adds squares, the child's rows are this one's, if
        computed, with the new squares folded in by squares.class_rows; its
        images and their faults stay lazy.
        """
        w = self.word
        wa, m = w + a, 0
        while wa[-m - 1:] in w:  # beats an automaton here: no undo log on backtrack
            m += 1
        child = WordAnalysis(wa)
        fields, mine = vars(child), vars(self)
        cycles = fields["cycles"] = dict(self.cycles)
        cycles[m] = cycles.get(m, 0) + 1
        new = suffix_squares(wa, m)
        fields["squares"] = self.squares.union(new) if new else self.squares
        ranges = fields["ranges"] = extend_order_ranges(self.ranges, wa, m)
        same = ranges is self.ranges
        shared = ["counts"] if same else []
        if not new:
            shared += ["rows", "images", "bad_coordinates", "images_collide"]
            if same:
                shared.append("missing")
        elif "rows" in mine:
            fields["rows"] = class_rows(new, mine["rows"])
        fields.update((key, mine[key]) for key in shared if key in mine)
        return child

    @_lazy
    def cycles(self) -> dict[int, int]:
        return cycle_counts(self.word)

    def _runs_for(self, other: str) -> list[list[tuple[int, int]]]:
        # period_runs(w) for squares or ranges, held until other has read it too
        stored = self.__dict__
        if "_runs" not in stored:
            stored["_runs"] = period_runs(self.word, max(self.cycles, default=0))
        return stored.pop("_runs") if other in stored else stored["_runs"]

    @_lazy
    def squares(self) -> frozenset[Square]:
        return distinct_squares(self.word, self._runs_for("ranges"))

    @_lazy
    def ranges(self) -> dict[str, tuple[int, int]]:
        return circuit_order_ranges(self.word, self._runs_for("squares"))

    @_lazy
    def counts(self) -> dict[int, int]:
        return order_counts(self.ranges)

    @_lazy
    def rows(self) -> list[tuple[str, int, str, list[tuple[Square, int, int]]]]:
        """The class rows (root, index, canon, members) of squares.class_rows."""
        return class_rows(self.squares)

    @_lazy
    def images(self) -> list[tuple[Square, str, int]]:
        """The (square, circuit root, order) images of injection.class_images."""
        return class_images(self.rows)

    @_lazy
    def bad_coordinates(self) -> tuple[tuple[Square, int, int], ...]:
        """The (square, i, j) members of the rows whose coordinates do not
        rebuild the square (squares.rebuild_from_coordinates)."""
        return tuple((sq, i, j) for v, _, _, members in self.rows for sq, i, j in members
                     if rebuild_from_coordinates(v, i, j) != sq.word)

    @_lazy
    def images_collide(self) -> bool:
        """Whether two images name one circuit."""
        pairs = [(root, r) for _, root, r in self.images]
        return len(set(pairs)) != len(pairs)

    @_lazy
    def missing(self) -> set[tuple[str, int]]:
        """The images that name no circuit of the ranges
        (injection.missing_images)."""
        return missing_images(self.images, self.ranges)

    @_lazy
    def injection(self) -> InjectionReport:
        return audit_injection(self.images, self.ranges)

    @_lazy
    def report(self) -> TheoremReport:
        if not self.word:
            raise ValueError("the bound is about nonempty words")
        w, counts, cycles = self.word, self.counts, self.cycles
        nonempty, alph = len(self.squares), len(set(w))
        bound = len(w) - alph + 1
        return TheoremReport(
            word=w, square_count_with_empty=nonempty + 1, nonempty_squares=nonempty,
            alphabet_size=alph, bound=bound, holds=nonempty + 1 <= bound,
            small_circuit_total=sum(counts.values()),
            per_order_counts=tuple((r, counts.get(r, 0), cycles.get(r, 0))
                                   for r in range(1, len(w) + 1)))

    @_lazy
    def violations(self) -> tuple[str, ...]:
        """The messages of every invariant that fails; see verify_word.

        Reads the circuit counts, the cycle counts and the fault fields
        missing, bad_coordinates and images_collide, which a child of extend
        shares with its parent when it shares their sources; each message
        names this analysis's own word. No SmallCircuit, InjectionReport or
        TheoremReport is built unless an image is missing, and then only to
        name it.
        """
        w, counts, cycles = self.word, self.counts, self.cycles
        bad: list[str] = []
        nonempty, sc_total = len(self.squares), sum(counts.values())
        if nonempty > sc_total:
            bad.append(f"{w}: {nonempty} squares but only {sc_total} circuits")
        if sc_total > len(w) - len(set(w)):
            bad.append(f"{w}: circuit total {sc_total} above |w|-|Alph(w)|")
        for r, sc_r in sorted(counts.items()):
            if sc_r > (cap := cycles.get(r, 0)):
                bad.append(f"{w}: order {r} has {sc_r} circuits, cap {cap}")
        if missing := self.missing:  # only then name them
            bad.extend(f"{w}: image {circ} of {sq.word} does not exist"
                       for sq, circ in self.injection.assignments
                       if (circ.root, circ.order) in missing)
        bad.extend(f"{w}: coordinates ({i},{j}) do not rebuild {sq.word}"
                   for sq, i, j in self.bad_coordinates)
        if self.images_collide:
            bad.append(f"{w}: injection images collide")
        direct = direct_order_ranges(w, cycles)
        if direct != self.ranges:  # equal ranges name equal circuits at every order
            found = order_counts(direct)
            bad.extend(f"{w}: order {r} enumerators disagree ({found.get(r, 0)} direct "
                       f"vs {counts.get(r, 0)} batched)"
                       for r in sorted({r for _, r in
                                        circuit_pairs(direct) ^ circuit_pairs(self.ranges)}))
        # no check of maximal edges or rank: the lemma in circuits.maximal_edge
        # makes both hold on every engine's output
        return tuple(bad)

    def json_text(self, order: SymbolOrder) -> str:
        """The JSON document as json.dumps(document, indent=2) renders it, plus
        a newline: the join of json_parts."""
        return "".join(self.json_parts(order))

    def json_parts(self, order: SymbolOrder):
        """The parts of json_text, which `sqcirc check --json` writes in turn,
        so the document is never held whole.

        Every member is rendered from templates that lay it out as
        json.dumps(..., indent=2) nests it, one part or more per list entry.
        The circuits come from circuit_blocks, one joined block of windows per
        (root, length), each a part of its own. Every string of the document
        is a word over w's letters, so when w needs no JSON escape none does,
        and strings and blocks are quoted as they are.
        """
        w, report = self.word, self.report
        if encode_basestring_ascii(w) == f'"{w}"':
            quote = '"{}"'.format

            def block(items):
                return '"' + '",\n        "'.join(items) + '"'
        else:
            quote = encode_basestring_ascii

            def block(items):
                return ",\n        ".join(map(quote, items))

        def objects(key, rows):  # key's list of objects, one "\n    {...}" row of parts each
            sep = f',\n  "{key}": ['
            for row in rows:
                yield sep
                yield from row
                sep = ","
            yield "\n  ]" if sep == "," else sep + "]"

        yield (f'{{\n  "word": {quote(w)},\n  "length": {len(w)},\n  "alphabet": [\n    '
               + ",\n    ".join(map(quote, sorted(set(w), key=order.sort_key))) + "\n  ]")
        yield from objects("squares", (
            [f'\n    {{\n      "half": {quote(s.half)},\n      "word": {quote(s.word)}\n    }}']
            for s in sorted(self.squares)))
        yield from objects("classes", (
            [f'\n    {{\n      "root": {quote(v)},\n      "index": {index},\n      "members": '
             '[\n        ', block([sq.word for sq, _, _ in members]), '\n      ]\n    }']
            for v, index, _, members in self.rows))
        yield from objects("circuits", (
            [f'\n    {{\n      "root": {quote(q)},\n      "order": {r},\n      "vertices": '
             '[\n        ', vertices, '\n      ],\n      "edges": [\n        ', edges,
             f'\n      ],\n      "maximal_edge": {quote(top)}\n    }}']
            for q, r, vertices, edges, top in circuit_blocks(self.ranges, order, block)))
        yield from objects("injection", (
            [f'\n    {{\n      "square": {quote(sq.word)},\n      "circuit": {{\n        '
             f'"root": {quote(circ.root)},\n        "order": {circ.order}\n      }}\n    }}']
            for sq, circ in self.injection.assignments))
        yield "".join([
            f',\n  "theorem": {{\n    "S": {report.square_count_with_empty},\n    '
            f'"bound": {report.bound},\n    "holds": {str(report.holds).lower()},\n    '
            f'"sc_total": {report.small_circuit_total},\n    "per_order": [',
            ",".join(f'\n      {{\n        "r": {r},\n        "sc_r": {sc_r},\n        '
                     f'"cap": {cap}\n      }}' for r, sc_r, cap in report.per_order_counts),
            "\n    ]\n  }\n}\n"])

    def text(self, order: SymbolOrder) -> str:
        """The plain-text report printed by `sqcirc check`: the join of
        text_parts."""
        return "".join(self.text_parts(order))

    def text_parts(self, order: SymbolOrder):
        """The parts of text, which `sqcirc check` writes in turn, so the
        report is never held whole: a line each, but one part per member in
        the lists of squares and of each class's members."""
        w, report, injection = self.word, self.report, self.injection
        yield f"word: {w}  (length {len(w)}, alphabet size {report.alphabet_size})\n"
        yield f"nonempty squares ({report.nonempty_squares}): "
        yield from _listed(s.word for s in sorted(self.squares))
        yield "\nclasses:\n"
        yield from class_table(self.rows, "  ")
        yield f"small circuits ({report.small_circuit_total}):\n"
        for r, row in groupby(circuit_blocks(self.ranges, order, lambda _: None),
                              key=lambda c: c[1]):
            yield f"  r={r}: " + ", ".join(f"C({q},{r}) max_edge={top}"
                                           for q, _, _, _, top in row) + "\n"
        yield "injection:\n"
        yield from (f"  {sq.word} -> {circ}\n" for sq, circ in injection.assignments)
        yield (f"  injective: {injection.injective}, "
               f"images exist: {injection.all_images_exist}\n")
        verdict = "holds" if report.holds else "VIOLATED"
        yield (f"theorem: S(w) = {report.square_count_with_empty} <= "
               f"{report.bound} = |w| - |Alph(w)| + 1  ... {verdict}\n")
        yield (f"chain: S-1 = {report.nonempty_squares} <= sc = "
               f"{report.small_circuit_total} <= {len(w) - report.alphabet_size}"
               f" = |w| - |Alph(w)|  ... "
               + ("holds" if report.chain_holds else "VIOLATED") + "\n")


def class_table(rows, indent: str):
    """The square-class table of squares.class_rows' rows, header first,
    each line led by indent and ended by a newline, in parts: one per
    member, so no line is held whole."""
    yield f"{indent}root | index | size | members\n"
    for v, index, _, members in rows:
        yield f"{indent}{v} | {index} | {len(members)} | "
        yield from _listed(sq.word for sq, _, _ in members)
        yield "\n"


def _listed(words):
    # the parts of ", ".join(words)
    sep = ""
    for word in words:
        yield sep + word
        sep = ", "


def theorem_check(w: str) -> TheoremReport:
    """Count squares and small circuits of w and evaluate the bound.

    >>> r = theorem_check("aababa")
    >>> (r.nonempty_squares, r.small_circuit_total, r.bound, r.holds)
    (3, 3, 5, True)
    """
    return WordAnalysis(w).report


def verify_word(w: str) -> list[str]:
    """Every per-word invariant in one pass; returns violation messages.

    Checks the count chain, the per-order complexity cap, existence and
    distinctness of all injection images, coordinate round-trips on every
    square, and agreement of the two circuit engines at every order either
    one reports. Distinct maximal edges per graph, and so linear
    independence, hold by the lemma in circuits.maximal_edge.
    """
    return list(WordAnalysis(w).violations)


def canonical_words(alphabet_size: int, length: int, prefix: str = ""):
    """Words of the given length, one per letter-renaming orbit.

    Canonical means the first occurrences of the distinct letters appear in
    the fixed order a, b, c, ... A prefix restricts the enumeration to its
    subtree (the prefix must itself be canonical). The words are those of
    the given length on the sweep's walk, _canonical_walk.
    """
    return (w for w in _canonical_walk(alphabet_size, prefix, prefix, length, str.__add__)
            if len(w) == length)


def _canonical_walk(alphabet_size: int, root, word: str, max_len: int, grow):
    """The canonical word's node root, then every canonical word that
    extends it, up to max_len letters, in preorder, so those of each length
    in lexicographic order: each as the node grow(node of its parent,
    letter) makes. The one growth rule: a word that uses the first `used`
    letters continues with one of the first min(used + 1, alphabet_size)."""
    if alphabet_size < 1:
        raise ValueError("alphabet size must be positive")
    used = 0
    for c in word:
        ix = LETTERS.find(c)
        if not 0 <= ix <= used or ix >= alphabet_size:
            raise ValueError(f"prefix {word!r} is not canonical")
        used = max(used, ix + 1)

    def rec(node, n: int, used: int):
        for ci in range(min(used + 1, alphabet_size)):
            child = grow(node, LETTERS[ci])
            yield child
            if n < max_len:
                yield from rec(child, n + 1, used if ci < used else used + 1)

    yield root
    if len(word) < max_len:
        yield from rec(root, len(word) + 1, used)


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


def _offer(best: dict, witnesses: dict, n: int, value: int, words) -> None:
    # keep per length the largest value and up to 16 words that reach it
    if value > best.get(n, -1):
        best[n] = value
        witnesses[n] = list(words)[:16]
    elif value == best[n]:
        witnesses[n] = (witnesses[n] + list(words))[:16]


def _sweep_lengths(alphabet_size: int, lengths: range, prefix: str = ""):
    # one walk below prefix, shared by the serial and parallel paths: the
    # root is analyzed by the batch engines, every other word is extended
    # from its parent, and a word whose extension or check raises is
    # recorded as a crash, its subtree continuing from WordAnalysis(w)
    checked = 0
    violations: list[str] = []
    best: dict[int, int] = {}
    witnesses: dict[int, list[str]] = {}

    def check(w: str, make) -> WordAnalysis:
        nonlocal checked
        checked += 1
        try:
            analysis = make()
            violations.extend(analysis.violations)
            _offer(best, witnesses, len(w), len(analysis.squares), [w])
            return analysis
        except Exception as exc:
            violations.append(f"{w}: crash: {type(exc).__name__}: {exc}")
            return WordAnalysis(w)

    root = WordAnalysis(prefix)
    if len(prefix) in lengths:
        root = check(prefix, lambda: root)
    for _ in _canonical_walk(alphabet_size, root, prefix, lengths.stop - 1,
                             lambda parent, a: check(parent.word + a,
                                                     lambda: parent.extend(a))):
        pass
    return checked, violations, best, witnesses


def exhaustive_search(alphabet_size: int, max_len: int, jobs: int = 1,
                      max_words: int = 2_000_000) -> SearchSummary:
    """Verify every canonical word up to max_len; aggregate the results.

    The canonical words form a prefix tree, walked depth first: each word's
    WordAnalysis is extended from its parent's (WordAnalysis.extend), so the
    walk holds at most max_len analyses, and every word runs the whole
    invariant battery. A word that raises is recorded as a crash violation,
    and the sweep goes on. The word space is partitioned by canonical
    prefixes into independent units, each walked from its prefix, so the
    sweep parallelizes without shared state. The pool gets min(jobs, CPU
    count, units) processes; when that is at most 1, the sweep runs in this
    process.
    """
    if alphabet_size < 1 or max_len < 1:
        raise ValueError("alphabet size and maximum length must be positive")
    total = sum(canonical_count(alphabet_size, n) for n in range(1, max_len + 1))
    if total > max_words:
        raise ValueError(f"search space {total} exceeds the {max_words} word budget")
    depth = min(max_len, 6)  # one unit below depth, one per canonical prefix at it
    jobs = min(jobs, os.cpu_count() or 1, 1 + canonical_count(alphabet_size, depth))
    if jobs <= 1:
        parts = [_sweep_lengths(alphabet_size, range(1, max_len + 1))]
    else:
        units = [(alphabet_size, range(1, depth))]
        units += [(alphabet_size, range(depth, max_len + 1), p)
                  for p in canonical_words(alphabet_size, depth)]
        import multiprocessing  # only a parallel sweep pays for the import
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.starmap(_sweep_lengths, units)
    best: dict[int, int] = {}
    witnesses: dict[int, list[str]] = {}
    for _, _, part_best, part_wit in parts:
        for n, v in part_best.items():
            _offer(best, witnesses, n, v, part_wit[n])
    return SearchSummary(
        alphabet_size=alphabet_size,
        max_len=max_len,
        words_checked=sum(part[0] for part in parts),
        violations=tuple(sorted(v for part in parts for v in part[1])),
        max_nonempty_squares_per_length=tuple(sorted(best.items())),
        extremal_witnesses=tuple((n, tuple(sorted(ws)))
                                 for n, ws in sorted(witnesses.items())),
    )


def json_document(w: str, order: SymbolOrder = NATURAL) -> dict:
    """The machine-readable analysis of one word, with stable field names:
    WordAnalysis.json_text, the text `sqcirc check --json` prints, parsed."""
    order.check_covers(w)
    return json.loads(WordAnalysis(w).json_text(order))


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


def analyze(w: str, emit: str = "report", order: SymbolOrder = NATURAL,
            r=None) -> str:
    """Render one word as a text report, DOT digraphs, or a JSON document."""
    order.check_covers(w)
    if emit == "report":
        return WordAnalysis(w).text(order)
    if emit == "json":
        return WordAnalysis(w).json_text(order)
    if emit == "dot":
        if r is None:
            raise ValueError("dot output needs a graph order or 'all'")
        return "".join(dot_digraph(build_rauzy(w, n)) for n in graph_orders(w, r))
    raise ValueError(f"unknown emit mode {emit!r}")


def graph_orders(w: str, r):
    """The Rauzy graph orders r names: 1..|w| for 'all', else the integer r
    (an int or its decimal text; a float such as 1.5 is rejected, not cut)."""
    if r == "all":
        return range(1, len(w) + 1)
    try:
        return [int(str(r))]
    except ValueError:
        raise ValueError(f"graph order must be an integer or 'all', got {r!r}") from None


def corpus_analyze(path: str, mode: str = "per-line",
                   max_unit_len: int = 1024):
    """Yield (unit number, TheoremReport) per unit of a byte corpus.

    Units are lines (per-line mode) or the whole file; bytes map one-to-one
    to symbols. A unit's number is its line number (1 for the whole file),
    blank lines included. Empty units are skipped; a unit over the length
    cap is an error since the analysis is meant for desk-scale words.
    """
    if mode not in ("per-line", "whole"):
        raise ValueError(f"unknown corpus mode {mode!r}")
    with open(path, "rb") as fh:
        if mode == "whole":  # cap + 2 bytes kept, the rest counted in chunks
            head = fh.read(max(max_unit_len, 0) + 2)
            size, last = len(head), head[-1:]
            while chunk := fh.read(1 << 16):
                size, last = size + len(chunk), chunk[-1:]
            size -= last == b"\n"
            units = [(head[:size], size)]
        else:
            units = _capped_lines(fh, max_unit_len)
        for i, (unit, size) in enumerate(units, 1):
            if not size:
                continue
            if size > max_unit_len:
                raise CorpusError(f"unit {i} has {size} bytes, "
                                  f"cap is {max_unit_len}")
            yield i, theorem_check(unit.decode("latin-1"))


def _capped_lines(fh, cap: int):
    # (line, size) per line of a binary file, without its trailing \r and \n
    # bytes; at most cap + 2 bytes of a line are kept, so a line longer than
    # cap comes back cut, with its full size counted in bounded chunks
    while head := fh.readline(max(cap, 0) + 2):
        size = trail = 0  # trail: the \r and \n bytes ending what was read
        chunk = head
        while chunk:
            size += len(chunk)
            kept = len(chunk.rstrip(b"\r\n"))
            trail = trail + len(chunk) if not kept else len(chunk) - kept
            chunk = b"" if chunk.endswith(b"\n") else fh.readline(1 << 16)
        yield head[:size - trail], size - trail
