"""The JSON renderer against the document it replaced, byte for byte.

The oracle builds the document as a dict, its classes from square_classes
and its circuits one by one from all_small_circuits with realize and
maximal_edge, and json.dumps renders it;
WordAnalysis.json_text renders it from templates, with the circuits from
circuits.circuit_blocks' shared window blocks, and must give the same text,
which `sqcirc check --json` writes in batches of its parts.
"""
import io
import json
import os
import random
import sys
import tracemalloc

import pytest

from sqcirc import cli
from sqcirc.cli import main
from sqcirc.circuits import all_small_circuits, maximal_edge, realize
from sqcirc.squares import square_classes
from sqcirc.verifier import WordAnalysis, analyze, canonical_words, json_document
from sqcirc.words import NATURAL, SymbolOrder

from oracles import fibonacci, thue_morse


def oracle_document(a: WordAnalysis, order: SymbolOrder) -> dict:
    w, report = a.word, a.report
    return {
        "word": w, "length": len(w),
        "alphabet": sorted(set(w), key=order.sort_key),
        "squares": [{"half": s.half, "word": s.word} for s in sorted(a.squares)],
        "classes": [{"root": c.root, "index": c.index,
                     "members": sorted(m.word for m in c.members)}
                    for c in square_classes(w)],
        "circuits": [{"root": c.root, "order": c.order,
                      "vertices": sorted(real.vertices),
                      "edges": sorted(real.edges),
                      "maximal_edge": maximal_edge(c, order)}
                     for c in sorted(all_small_circuits(w), key=lambda c: (c.order, c.root))
                     for real in [realize(c)]],
        "injection": [{"square": sq.word,
                       "circuit": {"root": circ.root, "order": circ.order}}
                      for sq, circ in a.injection.assignments],
        "theorem": {
            "S": report.square_count_with_empty, "bound": report.bound,
            "holds": report.holds, "sc_total": report.small_circuit_total,
            "per_order": [{"r": r, "sc_r": sc_r, "cap": cap}
                          for r, sc_r, cap in report.per_order_counts],
        },
    }


# words whose strings JSON escapes: a quote and a backslash, control
# characters, letters outside ASCII and outside the BMP
ESCAPED = ["ñaña", 'a"b\\a"b\\', "a\tb\x01a\tb\x01a\tb", "\U0001d11ea\U0001d11ea"]

GROUPS = {
    "binary10": lambda: (w for n in range(1, 11) for w in canonical_words(2, n)),
    "ternary7": lambda: (w for n in range(1, 8) for w in canonical_words(3, n)),
    "random": lambda: ("".join(rng.choice("abcd"[:rng.randint(1, 4)])
                               for _ in range(rng.randint(1, 60)))
                       for rng in [random.Random(90)] for _ in range(100)),
    "families": lambda: [fibonacci(128), thue_morse(128), "a" * 64, "aababa",
                         "abaaabaabaaaaba", "baababaababbbabbabbbab"],
    "escaped": lambda: ESCAPED,
}


def orders(w: str):
    return NATURAL, SymbolOrder.from_string("".join(sorted(set(w), reverse=True)))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_json_text_equals_oracle(group):
    for w in GROUPS[group]():
        a = WordAnalysis(w)
        for order in orders(w):
            expected = oracle_document(a, order)
            assert a.json_text(order) == json.dumps(expected, indent=2) + "\n", (w, order)
            assert json.loads(a.json_text(order)) == expected, (w, order)


def test_one_renderer_behind_every_json_path():
    for w in ESCAPED + [fibonacci(64)]:
        for order in orders(w):
            text = WordAnalysis(w).json_text(order)
            assert analyze(w, "json", order) == text
            assert json_document(w, order) == json.loads(text)


def test_escaped_words_render_escapes():
    text = WordAnalysis('a"b\\a"b\\').json_text(NATURAL)
    assert '"a\\"b\\\\a\\"b\\\\"' in text
    assert "\\u00f1" in WordAnalysis("ñaña").json_text(NATURAL)


class TestCheckJson:
    """`sqcirc check --json` prints json_parts in batches, from templates only."""

    @pytest.mark.parametrize("w", [fibonacci(300), ESCAPED[1]], ids=["fib300", "escaped"])
    def test_no_json_encoder_call(self, monkeypatch, capsys, w):
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
        monkeypatch.setattr(json.JSONEncoder, "iterencode",
                            counted("iterencode", json.JSONEncoder.iterencode))
        assert main(["check", w, "--json"]) == 0
        assert capsys.readouterr().out == WordAnalysis(w).json_text(NATURAL)
        assert calls == []

    @pytest.mark.parametrize("batch", [1, cli.BATCH])
    @pytest.mark.parametrize("w", [fibonacci(200), "aababa", *ESCAPED],
                             ids=["fib200", "aababa", "escaped0", "escaped1",
                                  "escaped2", "escaped3"])
    def test_batches_join_to_json_text(self, monkeypatch, w, batch):
        writes = []

        class Recorder(io.StringIO):
            def write(self, s):
                writes.append(len(s))
                return super().write(s)
        monkeypatch.setattr(cli, "BATCH", batch)
        for order in orders(w):
            writes.clear()
            monkeypatch.setattr(sys, "stdout", Recorder())
            flags = [] if order is NATURAL else ["--order", "".join(order.symbols)]
            assert main(["check", w, "--json", *flags]) == 0
            assert sys.stdout.getvalue() == WordAnalysis(w).json_text(order), (w, order)
            # every write but the last is a full batch; a batch of one
            # character writes each part on its own
            assert all(n >= batch for n in writes[:-1]), writes
            assert len(writes) > 1 or batch > 1

    def test_peak_memory_below_the_payload(self, monkeypatch):
        # the parts share each window block between two circuits, and a batch
        # holds about 1 MiB, so no whole copy of the text or its bytes is made
        w = fibonacci(512)
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                assert main(["check", w, "--json"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        payload = len(WordAnalysis(w).json_text(NATURAL))
        assert payload > 17_000_000
        assert peak < payload, (peak, payload)
