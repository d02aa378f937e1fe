"""Unit tests for theorem checks, sweeps, corpus runs, and report emission."""
import json
import multiprocessing
import random
import tracemalloc

import pytest

from sqcirc import verifier
from sqcirc.verifier import (
    CorpusError,
    analyze,
    canonical_count,
    canonical_words,
    corpus_analyze,
    dot_digraph,
    exhaustive_search,
    json_document,
    theorem_check,
    verify_word,
)
from sqcirc.rauzy import build_rauzy
from sqcirc.words import SymbolOrder, complexity_profile

EXAMPLE_22 = "baababaababbbabbabbbab"


class TestTheoremCheck:
    def test_twenty_two_letter_example(self):
        r = theorem_check(EXAMPLE_22)
        assert r.square_count_with_empty == 14
        assert r.nonempty_squares == 13
        assert r.bound == 21
        assert r.holds
        assert r.chain_holds
        assert r.small_circuit_total == 14

    def test_small_example(self):
        r = theorem_check("aababa")
        assert (r.nonempty_squares, r.small_circuit_total, r.bound) == (3, 3, 5)
        assert r.holds

    def test_single_letter_tight(self):
        r = theorem_check("a")
        assert r.square_count_with_empty == 1
        assert r.bound == 1
        assert r.holds and r.slack == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theorem_check("")

    def test_per_order_rows_cover_every_order(self):
        r = theorem_check("aababa")
        assert [row[0] for row in r.per_order_counts] == list(range(1, 7))
        assert dict((a, b) for a, b, _ in r.per_order_counts) == {
            1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0}

    def test_counts_include_empty_square(self):
        rng = random.Random(61)
        for _ in range(100):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 20)))
            r = theorem_check(w)
            assert r.square_count_with_empty == r.nonempty_squares + 1
            assert r.slack == r.bound - r.square_count_with_empty


class TestVerifyWord:
    def test_clean_on_reference_words(self):
        for w in ("a", "aababa", "abaaabaabaaaaba", EXAMPLE_22, "abcabcabcabca"):
            assert verify_word(w) == []


class TestCanonicalWords:
    def test_binary_length_five(self):
        words = list(canonical_words(2, 5))
        assert len(words) == 16
        assert all(w.startswith("a") for w in words)
        assert len(set(words)) == 16

    def test_counts_match_enumeration(self):
        for k in (1, 2, 3):
            for n in range(0, 8):
                assert canonical_count(k, n) == sum(1 for _ in canonical_words(k, n))

    def test_first_occurrences_in_letter_order(self):
        for w in canonical_words(3, 6):
            firsts = []
            for c in w:
                if c not in firsts:
                    firsts.append(c)
            assert firsts == sorted(firsts)

    def test_prefix_subtree(self):
        full = set(canonical_words(2, 6))
        split = set(canonical_words(2, 6, "aa")) | set(canonical_words(2, 6, "ab"))
        assert split == full

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            list(canonical_words(2, 4, "b"))
        with pytest.raises(ValueError):
            list(canonical_words(2, 4, "abc"))
        with pytest.raises(ValueError, match="is not canonical"):
            list(canonical_words(2, 3, "A"))


class TestExhaustiveSearch:
    def test_binary_up_to_five(self):
        s = exhaustive_search(2, 5)
        assert s.words_checked == 31
        assert s.violations == ()
        assert dict(s.max_nonempty_squares_per_length)[4] == 2

    def test_unary_matches_closed_form(self):
        s = exhaustive_search(1, 6)
        assert s.violations == ()
        assert s.max_nonempty_squares_per_length == tuple(
            (n, n // 2) for n in range(1, 7))

    def test_parallel_merge_equals_serial(self):
        serial = exhaustive_search(2, 7)
        parallel = exhaustive_search(2, 7, jobs=2)
        assert serial.words_checked == parallel.words_checked
        assert serial.max_nonempty_squares_per_length == \
            parallel.max_nonempty_squares_per_length
        assert serial.extremal_witnesses == parallel.extremal_witnesses
        assert serial.violations == parallel.violations == ()

    @pytest.mark.parametrize("jobs,cpus,size", [(10_000, 4, 4), (3, 8, 3), (2, 1, 1),
                                                (10_000, None, 1), (500, 64, 33)])
    def test_jobs_clamped_before_pool(self, monkeypatch, jobs, cpus, size):
        # a fake Pool records its size and runs the units in this process, so
        # a silly --jobs value starts no process at all
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, units):
                return [fn(*unit) for unit in units]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: cpus)
        # binary length 7 splits into 1 + 32 units (prefixes of length 6)
        summary = exhaustive_search(2, 7, jobs=jobs)
        # a clamp to one process runs in this process, without a pool
        assert sizes == ([size] if size > 1 else [])
        assert summary == exhaustive_search(2, 7)

    def test_one_cpu_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep clamped to one process must not start a pool")

        serial = exhaustive_search(2, 8)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 1)
        assert exhaustive_search(2, 8, jobs=4) == serial

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_stay_serial(self, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a serial sweep must not start a pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert exhaustive_search(2, 6, jobs=jobs) == exhaustive_search(2, 6)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            exhaustive_search(3, 16, max_words=1000)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            exhaustive_search(0, 3)
        with pytest.raises(ValueError):
            exhaustive_search(2, 0)

    def test_witness_lists_are_capped_and_extremal(self):
        s = exhaustive_search(2, 8)
        best = dict(s.max_nonempty_squares_per_length)
        for n, words in s.extremal_witnesses:
            assert 1 <= len(words) <= 16
            for w in words:
                assert len(w) == n
                assert theorem_check(w).nonempty_squares == best[n]


class TestJsonDocument:
    def test_schema_fields(self):
        doc = json_document("aababa")
        assert sorted(doc) == ["alphabet", "circuits", "classes", "injection",
                               "length", "squares", "theorem", "word"]
        assert doc["word"] == "aababa"
        assert doc["length"] == 6
        assert doc["alphabet"] == ["a", "b"]
        assert doc["squares"] == [{"half": "a", "word": "aa"},
                                  {"half": "ab", "word": "abab"},
                                  {"half": "ba", "word": "baba"}]
        assert doc["classes"][1] == {"root": "ab", "index": 1,
                                     "members": ["abab", "baba"]}
        assert doc["circuits"][0] == {"root": "a", "order": 1,
                                      "vertices": ["a"], "edges": ["aa"],
                                      "maximal_edge": "aa"}
        assert doc["injection"][0] == {"square": "aa",
                                       "circuit": {"root": "a", "order": 1}}
        theorem = doc["theorem"]
        assert (theorem["S"], theorem["bound"], theorem["holds"]) == (4, 5, True)
        assert theorem["sc_total"] == 3
        assert theorem["per_order"][0] == {"r": 1, "sc_r": 1, "cap": 2}

    def test_round_trip_through_text(self):
        for w in ("a", "aababa", EXAMPLE_22):
            assert json.loads(analyze(w, "json")) == json_document(w)

    def test_single_letter_document(self):
        doc = json_document("a")
        assert doc["squares"] == []
        assert doc["circuits"] == []
        assert doc["theorem"]["holds"] is True

    def test_order_changes_presentation_only(self):
        plain = json_document(EXAMPLE_22)
        flipped = json_document(EXAMPLE_22, SymbolOrder.from_string("ba"))
        assert flipped["alphabet"] == ["b", "a"]
        strip = lambda d: [{k: v for k, v in c.items() if k != "maximal_edge"}
                           for c in d["circuits"]]
        assert strip(plain) == strip(flipped)
        assert plain["classes"] == flipped["classes"]
        assert plain["injection"] == flipped["injection"]
        assert plain["theorem"] == flipped["theorem"]


class TestDot:
    def test_order_two_graph(self):
        text = analyze("aababa", "dot", r=2)
        assert text.startswith("digraph gamma_2 {")
        assert text.count(" -> ") == 3
        assert '"aa" -> "ab" [label="aab"];' in text
        assert '"ab" -> "ba" [label="aba"];' in text
        assert '"ba" -> "ab" [label="bab"];' in text

    def test_counts_match_complexity(self):
        rng = random.Random(62)
        for _ in range(50):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 15)))
            prof = complexity_profile(w)
            for r in range(1, len(w) + 1):
                text = dot_digraph(build_rauzy(w, r))
                node_lines = [l for l in text.splitlines()
                              if l.endswith(";") and "->" not in l]
                edge_lines = [l for l in text.splitlines() if "->" in l]
                assert len(node_lines) == prof[r]
                assert len(edge_lines) == prof[r + 1]

    def test_all_orders(self):
        text = analyze("aba", "dot", r="all")
        assert text.count("digraph") == 3

    def test_quoting(self):
        text = dot_digraph(build_rauzy('a"a', 1))
        assert '"\\""' in text

    def test_missing_order_rejected(self):
        with pytest.raises(ValueError):
            analyze("aababa", "dot")

    @pytest.mark.parametrize("r,shown", [("x", "'x'"), ("1.5", "'1.5'"), (1.5, "1.5")])
    def test_order_not_an_integer(self, r, shown):
        with pytest.raises(ValueError) as err:
            analyze("aababa", "dot", r=r)
        assert str(err.value) == f"graph order must be an integer or 'all', got {shown}"


class TestReport:
    def test_class_table(self):
        text = analyze(EXAMPLE_22, "report")
        assert "root | index | size | members" in text
        assert "  abb | 1 | 3 | abbabb, babbab, bbabba" in text
        assert "  babbbab | 1 | 1 | babbbabbabbbab" in text
        assert "S(w) = 14 <= 21" in text
        assert "holds" in text

    def test_unknown_emit_mode(self):
        with pytest.raises(ValueError):
            analyze("ab", "yaml")


class TestCorpus:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("aababa\nabab\n")
        units = list(corpus_analyze(str(path)))
        assert [(n, r.word) for n, r in units] == [(1, "aababa"), (2, "abab")]
        assert all(r.holds for _, r in units)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        assert list(corpus_analyze(str(path))) == []

    def test_example_line_reproduces_report(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text(EXAMPLE_22 + "\n")
        assert list(corpus_analyze(str(path))) == [(1, theorem_check(EXAMPLE_22))]

    def test_whole_mode_keeps_newlines_inside(self, tmp_path):
        path = tmp_path / "whole.txt"
        path.write_text("aababa\nabab\n")
        ((n, report),) = corpus_analyze(str(path), "whole")
        assert (n, report.word) == (1, "aababa\nabab")

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"aa\r\n\r\nbb\n")
        units = corpus_analyze(str(path))
        assert [(n, r.word) for n, r in units] == [(1, "aa"), (3, "bb")]

    def test_crlf_blank_line_and_unterminated_last_line(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_bytes(b"aababa\r\n\r\nabab\nbaab")
        assert list(corpus_analyze(str(path))) == [
            (n, theorem_check(w)) for n, w in ((1, "aababa"), (3, "abab"), (4, "baab"))]
        # blank lines keep their number, and the last line counts too
        path.write_bytes(b"aa\r\n\r\n" + b"a" * 50)
        with pytest.raises(CorpusError, match="unit 3 has 50 bytes, cap is 49"):
            list(corpus_analyze(str(path), max_unit_len=49))

    def test_unit_length_cap(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("a" * 50 + "\n")
        with pytest.raises(CorpusError, match="unit 1"):
            list(corpus_analyze(str(path), max_unit_len=49))

    def test_over_cap_line_without_newline_is_counted_in_bounded_memory(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_bytes(b"ab\n" + b"a" * 3_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(CorpusError) as exc:
                list(corpus_analyze(str(path), max_unit_len=1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "unit 2 has 3000000 bytes, cap is 1024"
        assert peak < 512 * 1024

    def test_over_cap_whole_file_is_counted_in_bounded_memory(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_bytes(b"ab\n" + b"a" * 3_000_000 + b"\n")
        tracemalloc.start()
        try:
            with pytest.raises(CorpusError) as exc:
                list(corpus_analyze(str(path), "whole", max_unit_len=1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "unit 1 has 3000003 bytes, cap is 1024"
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("data, word", [
        (b"ab\r\n", "ab\r"), (b"aababa\n", "aababa"), (b"aababa", "aababa"),
        (b"ab\n\n", "ab\n"), (b"\n", None), (b"a" * 8 + b"\n", "a" * 8)])
    def test_whole_mode_drops_one_trailing_newline(self, tmp_path, data, word):
        path = tmp_path / "whole.txt"
        path.write_bytes(data)
        units = corpus_analyze(str(path), "whole", max_unit_len=8)
        assert [(n, r.word) for n, r in units] == ([(1, word)] if word else [])

    def test_whole_mode_cap_counts_past_what_it_keeps(self, tmp_path):
        path = tmp_path / "whole.txt"
        for data, size in [(b"a" * 9, 9), (b"a" * 9 + b"\n", 9), (b"a" * 70_000, 70_000)]:
            path.write_bytes(data)
            with pytest.raises(CorpusError) as exc:
                list(corpus_analyze(str(path), "whole", max_unit_len=8))
            assert str(exc.value) == f"unit 1 has {size} bytes, cap is 8"

    @pytest.mark.parametrize("cap, line", [
        (4, b"abcd\r\r\r\r\r\n"), (4, b"abcd\r\r"), (4, b"abcd\r"), (4, b"abcde\r"),
        (4, b"abcde" + b"\r" * 70_000 + b"\n"), (4, b"a" * 70_000 + b"\r\n"),
        (4, b"a" * 70_000 + b"\r" * 70_000), (0, b"a\n"), (-1, b"a\n"), (-5, b"ab")])
    def test_unit_size_is_the_line_without_its_ending(self, tmp_path, cap, line):
        # the line follows a blank one and ends the file
        path = tmp_path / "edge.txt"
        path.write_bytes(b"\n" + line)
        unit = line.rstrip(b"\r\n")
        if len(unit) > cap:
            with pytest.raises(CorpusError) as exc:
                list(corpus_analyze(str(path), max_unit_len=cap))
            assert str(exc.value) == f"unit 2 has {len(unit)} bytes, cap is {cap}"
        else:
            units = corpus_analyze(str(path), max_unit_len=cap)
            assert [(n, r.word) for n, r in units] == [(2, unit.decode("latin-1"))]

    def test_bytes_map_to_symbols(self, tmp_path):
        path = tmp_path / "bytes.txt"
        path.write_bytes(bytes([0xE9, 0xE9, 0x61, 0x61]) + b"\n")
        ((_, report),) = corpus_analyze(str(path))
        assert report.alphabet_size == 2
        assert report.nonempty_squares == 2

    def test_unknown_mode(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("ab\n")
        with pytest.raises(ValueError):
            list(corpus_analyze(str(path), "chunked"))
