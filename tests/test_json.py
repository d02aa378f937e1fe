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
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from sqcirc import cli
from sqcirc.cli import main
from sqcirc.circuits import all_small_circuits, maximal_edge, realize
from sqcirc.squares import square_classes
from sqcirc.verifier import RUN, WordAnalysis, analyze, canonical_words, json_document
from sqcirc.words import NATURAL, SymbolOrder

from oracles import fibonacci, thue_morse

WRITEV = getattr(os, "writev", None)
IOV_MAX = 1024  # the most buffers one os.writev call takes on Linux and macOS
needs_writev = pytest.mark.skipif(WRITEV is None, reason="needs os.writev")
ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}


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

    @needs_writev
    @pytest.mark.parametrize("w", [fibonacci(384), "a" * 512], ids=["fib384", "unary512"])
    def test_one_writev_per_batch_on_a_file(self, monkeypatch, tmp_path, w):
        # on a descriptor each batch is one os.writev call of at least BATCH
        # bytes but the last; json_parts' parts under RUN bytes are each
        # followed by one of at least RUN, so a call takes at most about
        # 2 * BATCH / RUN parts, within IOV_MAX
        calls = []

        def writev(fd, parts):
            calls.append((len(parts), sum(map(len, parts))))
            return WRITEV(fd, parts)
        monkeypatch.setattr(os, "writev", writev)
        path = tmp_path / "out.json"
        with open(path, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["check", w, "--json"]) == 0
        assert path.read_bytes() == WordAnalysis(w).json_text(NATURAL).encode()
        assert len(calls) == -(-path.stat().st_size // cli.BATCH), calls
        assert all(size >= cli.BATCH for _, size in calls[:-1]), calls
        assert all(n <= 2 * cli.BATCH // RUN + 2 <= IOV_MAX for n, _ in calls), calls

    @needs_writev
    @pytest.mark.parametrize("k", [1, 5, 4096])
    @pytest.mark.parametrize("batch", [100, cli.BATCH])
    def test_short_writes_resume(self, monkeypatch, tmp_path, batch, k):
        # an os.writev that writes at most k bytes a call loses nothing
        def writev(fd, parts):
            assert len(parts) <= IOV_MAX
            head = bytearray()
            for part in parts:
                head += part[:k - len(head)]
            return os.write(fd, head)
        monkeypatch.setattr(os, "writev", writev)
        monkeypatch.setattr(cli, "BATCH", batch)
        for w in [fibonacci(64), "aababa", ESCAPED[1]]:
            path = tmp_path / "out.json"
            with open(path, "w") as out:
                monkeypatch.setattr(sys, "stdout", out)
                assert main(["check", w, "--json"]) == 0
            assert path.read_bytes() == WordAnalysis(w).json_text(NATURAL).encode(), w

    def test_without_writev_takes_the_text_layer(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "writev", raising=False)
        w = fibonacci(64)
        path = tmp_path / "out.json"
        with open(path, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["check", w, "--json"]) == 0
        assert path.read_bytes() == WordAnalysis(w).json_text(NATURAL).encode()

    def test_peak_memory_below_the_payload(self, monkeypatch):
        # the parts share each window block between two circuits, a batch
        # holds about 1 MiB, and os.writev writes its parts where they are, so
        # no batch is joined or encoded and no copy of the text is made
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
        assert peak < payload / 8, (peak, payload)


class TestCheckJsonProcess:
    """`python -u -m sqcirc.cli check WORD --json` as the benchmark runs it:
    a fresh unbuffered process whose stdout is a pipe or a file."""

    CMD = [sys.executable, "-u", "-m", "sqcirc.cli", "check"]

    def test_pipe_carries_json_text(self):
        w = fibonacci(384)
        proc = subprocess.run([*self.CMD, w, "--json"], env=ENV, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == WordAnalysis(w).json_text(NATURAL).encode()

    def test_reader_that_closes_early_is_an_io_error(self):
        w = fibonacci(384)
        proc = subprocess.Popen([*self.CMD, w, "--json"], env=ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert head == WordAnalysis(w).json_text(NATURAL)[:20].encode()
        assert err == "sqcirc: i/o error: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_an_io_error(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([*self.CMD, fibonacci(64), "--json"], env=ENV,
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "sqcirc: i/o error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("w", ["aababa", "ñaña", fibonacci(128)],
                             ids=["aababa", "nonascii", "fib128"])
    def test_utf16_stdout_takes_the_text_layer(self, w):
        # UTF-16 does not write ASCII as itself, so check --json writes its
        # text, as plain check does: UTF-16 in native byte order, without the
        # BOM, as Python writes it to a standard stream
        env = {**ENV, "PYTHONIOENCODING": "utf-16"}
        a = WordAnalysis(w)
        for flags, text in ([], a.text(NATURAL)), (["--json"], a.json_text(NATURAL)):
            proc = subprocess.run([*self.CMD, w, *flags], env=env, capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout == text.encode("utf-16")[2:], flags
