"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 invariant violation
(a falsified bound or a broken internal cross-check, which would be a bug).
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import groupby

from .circuits import circuit_blocks
from .rauzy import build_rauzy
from .verifier import (
    CorpusError,
    WordAnalysis,
    analyze,
    class_table,
    corpus_analyze,
    exhaustive_search,
    graph_orders,
)
from .words import NATURAL, SymbolOrder

OK, USAGE, IO, VIOLATION = 0, 1, 2, 3
# check writes its parts in batches of at least this many characters (bytes,
# with --json): under python -u or PYTHONUNBUFFERED stdout is write-through,
# and one write per part would be one system call per part
BATCH = 1 << 20
_ASCII = "".join(map(chr, range(128)))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for I/O
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", metavar="PERM", default=None,
                        help="symbol order as a permutation, least first "
                             "(example: 'ba' means b comes before a)")
    parser = _Parser(prog="sqcirc",
                     description="distinct squares, Rauzy graphs and small "
                                 "circuits of finite words")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("squares", parents=[common],
                       help="list the distinct nonempty square factors")
    p.add_argument("word")

    p = sub.add_parser("classes", parents=[common],
                       help="square classes with index, size and members")
    p.add_argument("word")

    p = sub.add_parser("rauzy", parents=[common], help="one Rauzy graph")
    p.add_argument("word")
    p.add_argument("--n", required=True, metavar="R",
                   help="graph order (an integer, or 'all')")
    p.add_argument("--dot", action="store_true", help="emit Graphviz text")

    p = sub.add_parser("circuits", parents=[common],
                       help="small circuits, all orders or one")
    p.add_argument("word")
    p.add_argument("--n", type=int, default=None, metavar="R")

    p = sub.add_parser("inject", parents=[common],
                       help="the square-to-circuit injection")
    p.add_argument("word")

    p = sub.add_parser("check", parents=[common],
                       help="verify the bound S(w) <= |w| - |Alph(w)| + 1")
    p.add_argument("word")
    p.add_argument("--json", action="store_true",
                   help="emit the full JSON document")

    p = sub.add_parser("search", parents=[common],
                       help="exhaustively verify all words up to a length")
    p.add_argument("--alphabet", type=int, required=True, metavar="K")
    p.add_argument("--max-len", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="J")
    p.add_argument("--max-words", type=int, default=2_000_000)

    p = sub.add_parser("corpus", parents=[common],
                       help="theorem reports for each unit of a byte corpus")
    p.add_argument("path")
    p.add_argument("--per-line", action="store_true",
                   help="one unit per line instead of the whole file")
    p.add_argument("--max-unit-len", type=int, default=1024)
    return parser


_PARSER = _build_parser()  # static, and each build costs milliseconds


def _order_of(args) -> SymbolOrder:
    return SymbolOrder.from_string(args.order) if args.order is not None else NATURAL


def _cmd_squares(args, order) -> int:
    for sq in sorted(WordAnalysis(args.word).squares, key=lambda s: (len(s.word), s.word)):
        print(f"{sq.word} = ({sq.half})^2")
    return OK


def _cmd_classes(args, order) -> int:
    sys.stdout.write("".join(class_table(WordAnalysis(args.word).rows, "")))
    return OK


def _cmd_rauzy(args, order) -> int:
    w = args.word
    if args.dot:
        sys.stdout.write(analyze(w, "dot", order, args.n))
        return OK
    for n in graph_orders(w, args.n):
        g = build_rauzy(w, n)
        print(f"Gamma_{n}: {len(g.vertices)} vertices, {len(g.edges)} edges")
        for v in sorted(g.vertices):
            print(f"  vertex {v}")
        for e in g.edges:
            print(f"  edge {e.label}: {e.src} -> {e.dst}")
    return OK


def _cmd_circuits(args, order) -> int:
    w, n = args.word, args.n
    ranges = WordAnalysis(w).ranges
    if n is not None:
        if not 1 <= n <= len(w):
            raise ValueError(f"graph order {n} out of range 1..{len(w)}")
        ranges = {q: (n, n) for q, (lo, hi) in ranges.items() if lo <= n <= hi}
    for r, row in groupby(circuit_blocks(ranges, order, ", ".join), key=lambda c: c[1]):
        for q, _, vertices, edges, top in sorted(row, key=lambda c: order.sort_key(c[4])):
            print(f"C({q},{r}) vertices={{{vertices}}} edges={{{edges}}} max_edge={top}")
    return OK


def _cmd_inject(args, order) -> int:
    report = WordAnalysis(args.word).injection
    for sq, circ in report.assignments:
        print(f"{sq.word} -> {circ}")
    print(f"injective: {report.injective}, images exist: {report.all_images_exist}, "
          f"{report.square_count} squares, {report.circuit_count} circuits")
    return OK if report.injective and report.all_images_exist else VIOLATION


def _cmd_check(args, order) -> int:
    analysis = WordAnalysis(args.word)
    report, bad = analysis.report, analysis.violations
    if args.json:
        _write_batches(analysis.json_parts(order), _bytes_writer())
    else:
        _write_batches(analysis.text_parts(order), lambda batch: sys.stdout.write("".join(batch)))
        for msg in bad:
            print(f"violation: {msg}")
    return OK if report.holds and report.chain_holds and not bad else VIOLATION


def _write_batches(parts, write) -> None:
    # write(batch) per batch of str or bytes parts of at least BATCH characters,
    # so the document is never held whole
    batch, size = [], 0
    for part in parts:
        batch.append(part)
        size += len(part)
        if size >= BATCH:
            write(batch)
            batch, size = [], 0
    write(batch)


def _bytes_writer():
    """The function that writes a batch of ASCII bytes parts to stdout.

    It hands the parts to os.writev on stdout's descriptor, after flushing
    the text layer, so no batch is joined or encoded: the kernel copies each
    part from where it lies. Where those bytes could differ from what the
    text layer would write, it decodes the batch and writes the text
    instead: a stream with no descriptor (an io.StringIO), an encoding that
    does not write ASCII as itself (UTF-16), or a platform without
    os.writev.
    """
    out = sys.stdout
    try:
        fd = out.fileno()
        direct = hasattr(os, "writev") and _ASCII.encode(out.encoding) == _ASCII.encode()
    except (AttributeError, LookupError, OSError, ValueError):
        direct = False
    if not direct:
        return lambda batch: out.write(b"".join(batch).decode())
    out.flush()
    return lambda batch: _writev_all(fd, batch)


def _writev_all(fd: int, parts: list) -> None:
    # os.writev of every part, resumed after a short write; a batch of
    # json_parts holds at most about 2 * BATCH / RUN parts, within the
    # 1,024 buffers one call takes on Linux and macOS
    while parts:
        n, i = os.writev(fd, parts), 0
        while i < len(parts) and n >= len(parts[i]):
            n -= len(parts[i])
            i += 1
        parts = parts[i:]
        if n:
            parts[0] = memoryview(parts[0])[n:]


def _cmd_search(args, order) -> int:
    summary = exhaustive_search(args.alphabet, args.max_len,
                                jobs=args.jobs, max_words=args.max_words)
    print(f"checked {summary.words_checked} canonical words, "
          f"alphabet {summary.alphabet_size}, lengths 1..{summary.max_len}")
    wit = dict(summary.extremal_witnesses)
    for n, most in summary.max_nonempty_squares_per_length:
        words = ", ".join(wit[n])
        print(f"length {n}: max nonempty squares {most} ({words})")
    if summary.violations:
        for v in summary.violations:
            print(f"violation: {v}")
        return VIOLATION
    print("violations: none")
    return OK


def _cmd_corpus(args, order) -> int:
    if args.max_unit_len < 1:
        raise ValueError(f"--max-unit-len must be at least 1, got {args.max_unit_len}")
    mode = "per-line" if args.per_line else "whole"
    worst = None
    tightest = None
    units = 0
    bad = 0
    for unit, report in corpus_analyze(args.path, mode, args.max_unit_len):
        units += 1
        verdict = "holds" if report.holds else "VIOLATED"
        print(f"unit {unit}: len={len(report.word)} S={report.square_count_with_empty} "
              f"bound={report.bound} slack={report.slack} {verdict}")
        if not report.holds or not report.chain_holds:
            bad += 1
        if worst is None or report.slack > worst.slack:
            worst = report
        if tightest is None or report.slack < tightest.slack:
            tightest = report
    if units == 0:
        print("summary: 0 units")
        return OK
    print(f"summary: {units} units, max slack {worst.slack} "
          f"(word {worst.word!r}), min slack {tightest.slack} "
          f"(word {tightest.word!r})")
    return VIOLATION if bad else OK


_COMMANDS = {
    "squares": _cmd_squares,
    "classes": _cmd_classes,
    "rauzy": _cmd_rauzy,
    "circuits": _cmd_circuits,
    "inject": _cmd_inject,
    "check": _cmd_check,
    "search": _cmd_search,
    "corpus": _cmd_corpus,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        order = _order_of(args)
        if hasattr(args, "word"):
            order.check_covers(args.word)
        if sys.stdout is None:  # started with stdout closed
            raise OSError(errno.EBADF, "standard output is closed")
        return _COMMANDS[args.command](args, order)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE
    except (ValueError, IndexError) as exc:
        print(f"sqcirc: error: {exc}", file=sys.stderr)
        return USAGE
    except CorpusError as exc:
        print(f"sqcirc: corpus error: {exc}", file=sys.stderr)
        return IO
    except OSError as exc:
        print(f"sqcirc: i/o error: {exc}", file=sys.stderr)
        return IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
