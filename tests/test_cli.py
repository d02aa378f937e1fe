"""Command line interface tests, run in process through main()."""
import io
import json
import sys

import pytest

from sqcirc import cli
from sqcirc.cli import main
from sqcirc.verifier import WordAnalysis
from sqcirc.words import NATURAL, SymbolOrder

from oracles import fibonacci

EXAMPLE_22 = "baababaababbbabbabbbab"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSquares:
    def test_lists_squares(self, capsys):
        code, out, _ = run(capsys, "squares", "aababa")
        assert code == 0
        assert out.splitlines() == ["aa = (a)^2", "abab = (ab)^2", "baba = (ba)^2"]

    def test_square_free(self, capsys):
        code, out, _ = run(capsys, "squares", "abc")
        assert code == 0
        assert out == ""


class TestClasses:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "classes", EXAMPLE_22)
        assert code == 0
        assert "root | index | size | members" in out
        assert "abb | 1 | 3 | abbabb, babbab, bbabba" in out


class TestRauzy:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "rauzy", "aababa", "--n", "2")
        assert code == 0
        assert "Gamma_2: 3 vertices, 3 edges" in out
        assert "  edge aab: aa -> ab" in out

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "rauzy", "aababa", "--n", "2", "--dot")
        assert code == 0
        assert out.startswith("digraph gamma_2 {")
        assert out.count("->") == 3

    def test_dot_all(self, capsys):
        code, out, _ = run(capsys, "rauzy", "aba", "--n", "all", "--dot")
        assert code == 0
        assert out.count("digraph") == 3

    def test_bad_order_value(self, capsys):
        code, _, err = run(capsys, "rauzy", "aababa", "--n", "9")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("dot", [[], ["--dot"]])
    @pytest.mark.parametrize("n", ["x", "1.5"])
    def test_order_not_an_integer(self, capsys, n, dot):
        code, out, err = run(capsys, "rauzy", "aababa", "--n", n, *dot)
        assert (code, out) == (1, "")
        assert err == f"sqcirc: error: graph order must be an integer or 'all', got '{n}'\n"

    def test_missing_n(self, capsys):
        code, _, _ = run(capsys, "rauzy", "aababa")
        assert code == 1


class TestCircuits:
    def test_all_orders(self, capsys):
        code, out, _ = run(capsys, "circuits", "aababa")
        assert code == 0
        assert "C(a,1)" in out and "C(ab,2)" in out and "C(ab,3)" in out

    def test_single_order_with_flipped_order_flag(self, capsys):
        code, out, _ = run(capsys, "circuits", "abaaabaabaaaaba",
                           "--n", "5", "--order", "ba")
        assert code == 0
        lines = out.splitlines()
        assert [l.split()[0] for l in lines] == ["C(aab,5)", "C(aaab,5)", "C(aaaab,5)"]
        assert "max_edge=aaaaba" in lines[2]

    def test_order_missing_symbol(self, capsys):
        code, _, err = run(capsys, "circuits", "abc", "--order", "ba")
        assert code == 1
        assert "missing" in err

    def test_empty_word_lists_nothing(self, capsys):
        assert run(capsys, "circuits", "") == (0, "", "")

    @pytest.mark.parametrize("w,n,top", [("", "1", 0), ("aababa", "0", 6)])
    def test_order_out_of_range(self, capsys, w, n, top):
        code, out, err = run(capsys, "circuits", w, "--n", n)
        assert (code, out) == (1, "")
        assert err == f"sqcirc: error: graph order {n} out of range 1..{top}\n"

    def test_order_above_longest_repeated_factor(self, capsys):
        assert run(capsys, "circuits", "aababa", "--n", "6") == (0, "", "")


class TestInject:
    def test_mapping(self, capsys):
        code, out, _ = run(capsys, "inject", "aababa")
        assert code == 0
        assert "aa -> C(a,1)" in out
        assert "injective: True, images exist: True" in out


class TestCheck:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "check", EXAMPLE_22)
        assert code == 0
        assert "S(w) = 14 <= 21" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "aababa", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["word"] == "aababa"
        assert doc["theorem"]["holds"] is True

    @pytest.mark.parametrize("batch", [1, cli.BATCH])
    @pytest.mark.parametrize("w", [fibonacci(200), "aababa", EXAMPLE_22, "ñaña", "a" * 40],
                             ids=["fib200", "aababa", "paper22", "nonascii", "unary40"])
    def test_text_batches_join_to_text(self, monkeypatch, w, batch):
        # the plain report is written as the JSON document is: text_parts in
        # batches of at least BATCH characters, every write but the last full
        writes = []

        class Recorder(io.StringIO):
            def write(self, s):
                writes.append(len(s))
                return super().write(s)
        monkeypatch.setattr(cli, "BATCH", batch)
        for order in (NATURAL, SymbolOrder.from_string("".join(sorted(set(w), reverse=True)))):
            writes.clear()
            monkeypatch.setattr(sys, "stdout", Recorder())
            flags = [] if order is NATURAL else ["--order", "".join(order.symbols)]
            assert main(["check", w, *flags]) == 0
            assert sys.stdout.getvalue() == WordAnalysis(w).text(order), (w, order)
            assert all(n >= batch for n in writes[:-1]), writes
            assert len(writes) > 1 or batch > 1

    def test_empty_word_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "")
        assert code == 1
        assert "error" in err


class TestSearch:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "search", "--alphabet", "2", "--max-len", "5")
        assert code == 0
        assert "checked 31 canonical words" in out
        assert "violations: none" in out

    def test_budget_error(self, capsys):
        code, _, err = run(capsys, "search", "--alphabet", "3",
                           "--max-len", "16", "--max-words", "100")
        assert code == 1
        assert "budget" in err


class TestCorpus:
    def test_per_line(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("aababa\nabab\n")
        code, out, _ = run(capsys, "corpus", str(path), "--per-line")
        assert code == 0
        assert "unit 1: len=6" in out
        assert "summary: 2 units" in out

    def test_units_are_numbered_by_line(self, capsys, tmp_path):
        # a blank line keeps its number, in the report and in the cap error
        path = tmp_path / "c.txt"
        path.write_bytes(b"ab\n\nabc\n" + b"x" * 15 + b"\n")
        code, out, _ = run(capsys, "corpus", str(path), "--per-line")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()[:3]] == [
            "unit 1", "unit 3", "unit 4"]
        assert "unit 4: len=15" in out
        assert "summary: 3 units" in out
        code, out, err = run(capsys, "corpus", str(path), "--per-line",
                             "--max-unit-len", "10")
        assert code == 2
        assert err == "sqcirc: corpus error: unit 4 has 15 bytes, cap is 10\n"

    def test_whole(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("aababa\n")
        code, out, _ = run(capsys, "corpus", str(path))
        assert code == 0
        assert "summary: 1 units" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "corpus", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "i/o error" in err

    def test_unit_cap_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("a" * 20 + "\n")
        code, _, err = run(capsys, "corpus", str(path),
                           "--per-line", "--max-unit-len", "10")
        assert code == 2
        assert "corpus error" in err

    def test_unit_cap_without_newline(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_bytes(b"a" * 200_000)
        code, out, err = run(capsys, "corpus", str(path), "--per-line")
        assert code == 2
        assert out == ""
        assert err == "sqcirc: corpus error: unit 1 has 200000 bytes, cap is 1024\n"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"")
        code, out, _ = run(capsys, "corpus", str(path))
        assert code == 0
        assert "summary: 0 units" in out

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("text", ["", "aababa\n"], ids=["empty", "one-unit"])
    def test_unit_cap_below_one_is_a_usage_error(self, capsys, tmp_path, cap, text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        for mode in ([], ["--per-line"]):
            code, out, err = run(capsys, "corpus", str(path), *mode, "--max-unit-len", cap)
            assert (code, out) == (1, "")
            assert err == f"sqcirc: error: --max-unit-len must be at least 1, got {cap}\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, reason", [
        (("circuits", "ab", "--n", "x"),
         "sqcirc circuits: error: argument --n: invalid int value: 'x'"),
        (("search", "--alphabet", "2"),
         "sqcirc search: error: the following arguments are required: --max-len"),
        (("bogus",), "sqcirc: error: argument command: invalid choice: 'bogus'"),
    ], ids=["bad-value", "missing-flag", "unknown-command"])
    def test_usage_error_names_its_reason(self, capsys, argv, reason):
        # the usage line, then argparse's reason, and exit 1 (not argparse's 2)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: sqcirc") and err.splitlines()[-1].startswith(reason)

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "squares" in out

    def test_repeated_order_symbols(self, capsys):
        code, _, err = run(capsys, "squares", "aa", "--order", "aa")
        assert code == 1
        assert "repeated" in err

    def test_empty_order_is_rejected(self, capsys):
        # an empty order string is a usage error, not the natural order
        assert run(capsys, "check", "ab", "--order", "") == (
            1, "", "sqcirc: error: order string is empty\n")
