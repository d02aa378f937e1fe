"""WordAnalysis: each word is analyzed once, and every field matches the
standalone function that computes the same quantity."""
import random
from collections import Counter

import pytest

import sqcirc.circuits as circuits
import sqcirc.squares as squares
import sqcirc.verifier as verifier
import sqcirc.words as words
from sqcirc.circuits import (
    SmallCircuit,
    all_small_circuits,
    circuit_counts_by_order,
    circuit_order_ranges,
    circuit_pairs,
    order_counts,
)
from sqcirc.cli import main
from sqcirc.injection import (InjectionReport, build_injection, class_images,
                              missing_images)
from sqcirc.squares import class_rows, distinct_squares, period_runs, square_classes
from sqcirc.verifier import (
    TheoremReport,
    WordAnalysis,
    analyze,
    canonical_count,
    canonical_words,
    exhaustive_search,
    json_document,
    theorem_check,
    verify_word,
)
from sqcirc.words import (
    cycle_counts,
    is_primitive,
    least_rotation,
    longest_repeated_factor,
)

from oracles import (
    fibonacci,
    maximal_edge_pass,
    random_word,
    replace_everywhere,
    squares_scan,
    thue_morse,
    tribonacci,
)

EXAMPLE_22 = "baababaababbbabbabbbab"


def count_calls(monkeypatch, *functions) -> Counter:
    """Count calls to the functions under every name that the package binds
    them to, so a second call from any module shows."""
    counts = Counter()
    for original in functions:
        def counted(w, *rest, _name=original.__name__, _original=original):
            counts[_name] += 1
            return _original(w, *rest)
        replace_everywhere(monkeypatch, original, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Count calls to the engines that WordAnalysis's fields are read off:
    the period runs, the squares and circuit ranges read off them, and the
    cycle counts, which LRF is read off."""
    return count_calls(monkeypatch, period_runs, distinct_squares,
                       circuit_order_ranges, cycle_counts)


def forbid(monkeypatch, target, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    monkeypatch.setattr(target, name, fail)


class TestOncePerWord:
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    @pytest.mark.parametrize("w", ["aababa", EXAMPLE_22, "a" * 30, "ñaña"])
    def test_check_computes_each_engine_once(self, calls, capsys, w, flags):
        assert main(["check", w, *flags]) == 0
        capsys.readouterr()
        assert calls == {"period_runs": 1, "distinct_squares": 1,
                         "circuit_order_ranges": 1, "cycle_counts": 1}

    @pytest.mark.parametrize("command", ["inject", "classes", "squares", "circuits"])
    def test_word_commands_scan_once(self, calls, capsys, command):
        # each command reads only the engines its fields need
        read = {"inject": ["distinct_squares", "circuit_order_ranges"],
                "classes": ["distinct_squares"], "squares": ["distinct_squares"],
                "circuits": ["circuit_order_ranges"]}[command]
        assert main([command, EXAMPLE_22 * 3]) == 0
        capsys.readouterr()
        assert calls == dict.fromkeys(
            ["period_runs", "cycle_counts", *read], 1)

    @pytest.mark.parametrize("command,w", [("check", fibonacci(300)),
                                           ("circuits", EXAMPLE_22 * 3)],
                             ids=["check-fib300", "circuits-example22x3"])
    def test_one_maximal_edge_per_circuit(self, monkeypatch, capsys, command, w):
        # the listing finds each root's greatest rotation once and reads every
        # maximal edge off it; the battery reads them off the edge sets
        counts = count_calls(monkeypatch, circuits.maximal_edge)
        greatest, extremal = Counter(), words.extremal_rotation

        def counted(q, *args, **kwargs):
            if "greatest" in (*args, kwargs.get("direction")):
                greatest[q] += 1
            return extremal(q, *args, **kwargs)
        replace_everywhere(monkeypatch, extremal, counted)
        assert main([command, w]) == 0
        capsys.readouterr()
        assert counts["maximal_edge"] == 0
        assert greatest and set(greatest) <= {c.root for c in all_small_circuits(w)}
        assert max(greatest.values()) == 1

    def test_one_least_rotation_per_class(self, monkeypatch, capsys):
        # class_rows names each class once, and the classes, the injection
        # and the battery all read its rows
        w = fibonacci(300)
        classes = len(square_classes(w))
        counts = count_calls(monkeypatch, words.least_rotation)
        assert main(["check", w]) == 0
        capsys.readouterr()
        assert counts["least_rotation"] == classes

    def test_sweep_words_name_each_class_once(self, monkeypatch):
        sweep = [w for n in range(1, 11) for w in canonical_words(2, n)]
        classes = sum(len(square_classes(w)) for w in sweep)
        counts = count_calls(monkeypatch, words.least_rotation)
        for w in sweep:
            assert verify_word(w) == []
        assert counts["least_rotation"] == classes

    def test_check_scans_each_lag_once(self, monkeypatch, capsys):
        # one match_runs call per lag 1..min(LRF, |w|/2), shared by squares
        # and circuits
        w = fibonacci(300)
        counts = count_calls(monkeypatch, squares.match_runs)
        assert main(["check", w]) == 0
        capsys.readouterr()
        assert counts["match_runs"] == min(longest_repeated_factor(w), len(w) // 2)

    def test_sweep_computes_squares_once_per_word(self, monkeypatch, calls):
        # the batch engines analyze each walk's root, and every other word is
        # extended from its parent: once, serially or below a --jobs prefix
        new = count_calls(monkeypatch, squares.suffix_squares)
        summary = exhaustive_search(2, 8)
        words = sum(canonical_count(2, n) for n in range(1, 9))
        assert summary.words_checked == words == new["suffix_squares"]
        assert calls == dict.fromkeys(["period_runs", "distinct_squares",
                                       "circuit_order_ranges", "cycle_counts"], 1)
        calls.clear()
        new.clear()
        roots = list(canonical_words(2, 6))
        units = [verifier._sweep_lengths(2, range(6, 9), p) for p in roots]
        words = sum(canonical_count(2, n) for n in range(6, 9))
        assert sum(unit[0] for unit in units) == words == new["suffix_squares"] + len(roots)
        assert calls == dict.fromkeys(
            ["period_runs", "distinct_squares", "circuit_order_ranges",
             "cycle_counts"], len(roots))

    def test_sweep_runs_the_battery_once_per_word(self, monkeypatch):
        # the battery's direct engine runs once per word, on every word
        checked = Counter()

        def counted(w, cycles, _original=verifier.direct_order_ranges):
            checked[w] += 1
            return _original(w, cycles)
        monkeypatch.setattr(verifier, "direct_order_ranges", counted)
        summary = exhaustive_search(2, 8)
        assert len(checked) == summary.words_checked == sum(checked.values())

    def test_theorem_check_builds_no_classes_injection_or_circuits(self, monkeypatch):
        forbid(monkeypatch, squares, "square_classes")
        forbid(monkeypatch, verifier, "class_rows")
        forbid(monkeypatch, verifier, "class_images")
        forbid(monkeypatch, verifier, "audit_injection")
        forbid(monkeypatch, SmallCircuit, "__new__")
        for w in ("aababa", EXAMPLE_22, "abcabcabcabca", "a" * 20):
            assert theorem_check(w).holds

    @pytest.mark.parametrize("argv", [["check"], ["check", "--json"], ["classes"]])
    def test_reports_build_no_square_class(self, monkeypatch, capsys, argv):
        # the class table, the JSON classes and class_representative read
        # squares.class_rows
        forbid(monkeypatch, squares, "SquareClass")
        for w in ("aababa", EXAMPLE_22, "abcabcabcabca", "ñaña"):
            assert main([argv[0], w, *argv[1:]]) == 0
        capsys.readouterr()
        assert squares.class_representative("abcabcabcabca", "bca") == "abc"

    def test_lazy_fields_are_computed_once(self, monkeypatch):
        analysis = WordAnalysis(EXAMPLE_22)
        first = analysis.injection
        forbid(monkeypatch, verifier, "audit_injection")
        assert analysis.injection is first
        assert analysis.violations == ()

    def test_no_production_path_builds_a_profile(self, monkeypatch, capsys, tmp_path):
        # the caps, LRF and C_w(p) are all read off the cycle counts
        def fail(*args, **kwargs):
            raise AssertionError("complexity_profile was called")
        replace_everywhere(monkeypatch, words.complexity_profile, fail)
        path = tmp_path / "corpus.txt"
        path.write_text("aababa\nabcabcab\n" + EXAMPLE_22 + "\n")
        for argv in (["check", EXAMPLE_22], ["check", EXAMPLE_22, "--json"],
                     ["corpus", str(path), "--per-line"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert exhaustive_search(2, 8).violations == ()

    def test_period_runs_kept_until_squares_and_ranges_read_them(self, calls):
        analysis = WordAnalysis(EXAMPLE_22)
        assert analysis.squares and "_runs" in vars(analysis)
        assert analysis.ranges
        assert set(vars(analysis)) == {"word", "cycles", "squares", "ranges"}
        assert calls["period_runs"] == 1


class TestIncrementalWalk:
    @pytest.mark.parametrize("depth", [0, 6], ids=["serial", "jobs-prefixes"])
    @pytest.mark.parametrize("k,max_len", [(2, 13), (3, 9)])
    def test_extended_fields_equal_the_batch_engines(self, k, max_len, depth):
        # every word the sweep's walk reaches, from the empty root or from
        # each --jobs unit's prefix; the shared fields are read on each word
        # before its children are extended, as the battery reads them; every
        # root meets the maximal-edge lemma's hypotheses (primitive, a least
        # rotation, its range starting at its length), and the oracle pass
        # finds no collision
        walked = 0
        for root in canonical_words(k, depth):
            for a in verifier._canonical_walk(k, WordAnalysis(root), root, max_len,
                                              WordAnalysis.extend):
                if a.word == root:
                    continue
                w, walked = a.word, walked + 1
                assert a.cycles == cycle_counts(w), w
                assert a.squares == distinct_squares(w), w
                assert {sq.word for sq in a.squares} == squares_scan(w), w
                assert a.ranges == circuit_order_ranges(w), w
                assert a.rows == class_rows(a.squares), w
                assert a.images == class_images(a.rows), w
                assert missing_images(a.images, a.ranges) == set(), w
                assert {(q, r) for _, q, r in a.images} <= circuit_pairs(a.ranges), w
                assert a.counts == order_counts(a.ranges), w
                for q, (lo, hi) in a.ranges.items():
                    assert is_primitive(q) and q == least_rotation(q), w
                    assert lo == len(q) <= hi, w
                assert maximal_edge_pass(w, a.ranges) == [], w
        assert walked == sum(canonical_count(k, n) for n in range(depth + 1, max_len + 1))

    @pytest.mark.parametrize("w", [fibonacci(200), thue_morse(128), "a" * 40, "ab" * 30,
                                   random_word(random.Random(5), "abc", 90, 90),
                                   tribonacci(300),
                                   *(random_word(random.Random(seed), letters, 40, 60)
                                     for seed, letters in ((21, "ab"), (22, "abc"), (23, "abcd")))],
                             ids=["fib200", "tm128", "unary40", "ab30", "random-ternary90",
                                  "trib300", "random-binary", "random-ternary", "random-4ary"])
    def test_every_prefix_of_a_long_word(self, w):
        # each range the letter changes is (|q|, m), extending an old one
        # that stopped at m - 1 (the order-m lemma of extend_order_ranges);
        # the rows are read at every step, so each child that adds squares
        # folds them into its parent's rows (squares.class_rows); the oracle
        # maximal-edge pass finds no collision on any prefix
        a = WordAnalysis("")
        assert a.rows == []
        for c in w:
            parent, a = a, a.extend(c)
            x = a.word
            m = next(m for m in range(len(x)) if x[-m - 1:] not in parent.word)
            assert a.cycles == cycle_counts(x), x
            assert a.squares == distinct_squares(x), x
            assert a.ranges == circuit_order_ranges(x), x
            assert a.rows == class_rows(a.squares), x
            assert a.images == class_images(a.rows), x
            assert maximal_edge_pass(x, a.ranges) == [], x
            for q, span in a.ranges.items():
                old = parent.ranges.get(q)
                if span != old:
                    assert span == (len(q), m), x
                    assert old is None or old[1] == m - 1, x

    # a child keeps its parent's fields of what did not change, and the
    # battery's faults of those fields, extends the rows by its new squares,
    # and leaves the rest to be computed on use
    @pytest.mark.parametrize("w,a,kept,extended,lazy", [
        ("abacbab", "a", ("counts",), ("rows",),
         ("images", "bad_coordinates", "images_collide", "missing")),  # adds baba
        ("aa", "a", ("rows", "images", "bad_coordinates", "images_collide"), (),
         ("counts", "missing")),  # adds C(a,2)
    ])
    def test_a_child_reads_the_fields_its_parent_computed(self, w, a, kept, extended, lazy):
        parent = WordAnalysis(w)
        assert parent.violations == ()
        child = parent.extend(a)
        assert all(vars(child)[key] is vars(parent)[key] for key in kept)
        assert all(key in vars(child) and vars(child)[key] is not vars(parent)[key]
                   for key in extended)
        if extended:  # from the parent's rows, which stay as they were
            assert child.rows == class_rows(child.squares) != parent.rows
            assert parent.rows == class_rows(parent.squares)
        assert not set(lazy) & set(vars(child))
        assert child.violations == ()

    @pytest.mark.parametrize("engine", ["direct_order_ranges", "extend_order_ranges"])
    def test_a_crash_is_recorded_and_the_sweep_goes_on(self, monkeypatch, capsys, engine):
        # a word whose check or extension raises is named once, and its
        # subtree is still swept, from a plain analysis
        original = getattr(verifier, engine)

        def flaky(*args):
            if "abba" in args:
                raise RuntimeError("boom")
            return original(*args)
        monkeypatch.setattr(verifier, engine, flaky)
        summary = exhaustive_search(2, 8)
        assert summary.words_checked == sum(canonical_count(2, n) for n in range(1, 9))
        assert summary.violations == ("abba: crash: RuntimeError: boom",)
        assert main(["search", "--alphabet", "2", "--max-len", "6"]) == 3
        assert "violation: abba: crash: RuntimeError: boom\n" in capsys.readouterr().out


class TestBattery:
    @staticmethod
    def fake_direct_engine(monkeypatch, edit):
        # the battery's direct engine reports the ranges edit makes of its own
        original = verifier.direct_order_ranges
        monkeypatch.setattr(verifier, "direct_order_ranges",
                            lambda w, cycles: edit(original(w, cycles)))
        assert original("aababa", cycle_counts("aababa")) == {"a": (1, 1), "ab": (2, 3)}

    # the direct engine finds C(b,1) in place of C(a,1), keeping the count,
    # or finds nothing at order 1
    @pytest.mark.parametrize("found,counts", [({"b": (1, 1)}, "1 direct"),
                                              ({}, "0 direct")])
    def test_enumerators_compared_as_sets(self, monkeypatch, found, counts):
        self.fake_direct_engine(monkeypatch, lambda ranges: {
            **{q: span for q, span in ranges.items() if q != "a"}, **found})
        assert verify_word("aababa") == [
            f"aababa: order 1 enumerators disagree ({counts} vs 1 batched)"]

    def test_order_only_the_direct_engine_reports(self, monkeypatch):
        self.fake_direct_engine(monkeypatch, lambda ranges: {**ranges, "b": (4, 4)})
        assert verify_word("aababa") == [
            "aababa: order 4 enumerators disagree (1 direct vs 0 batched)"]

    # at order 2 the faked root joins C(ab, 2), whose edges are aba and bab:
    # ba names the same class, so the edge sets are equal and the rank is 1;
    # babaa's greatest rotation also starts with bab, but its edges add baa
    # and aab; aab's maximal edge baa differs from bab in its last letter only.
    # The battery names the disagreement alone, as roots that break the
    # maximal-edge lemma's hypotheses make the engines disagree; the oracle
    # pass still sees each collision in the faked ranges
    @pytest.mark.parametrize("extra,messages", [
        ("ba", ["maximal edges collide", "circuits are linearly dependent"]),
        ("babaa", ["maximal edges collide"]),
        ("aab", [])])
    def test_maximal_edges_and_rank(self, monkeypatch, extra, messages):
        def edit(ranges):
            return {**ranges, extra: (2, 2)}
        self.fake_direct_engine(monkeypatch, edit)
        assert verify_word("aababa") == [
            "aababa: order 2 enumerators disagree (2 direct vs 1 batched)"]
        assert maximal_edge_pass("aababa", edit(circuit_order_ranges("aababa"))) == [
            f"aababa: order 2 {m}" for m in messages]

    @staticmethod
    def faked_battery(monkeypatch, target, name, fake) -> list[str]:
        # the battery's messages for aababa with target.name replaced by
        # fake(original, *args)
        original = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *args: fake(original, *args))
        return verify_word("aababa")

    def test_missing_image(self, monkeypatch):
        # the ranges the battery looks the images up in stop [ab] at order 2,
        # so they lack C(ab,3), the image of baba; the counts and the direct
        # engine keep their own, so only the lookup can name it
        a = WordAnalysis("aababa")
        assert a.counts == {1: 1, 2: 1, 3: 1}
        a.__dict__["ranges"] = {**a.ranges, "ab": (2, 2)}
        self.fake_direct_engine(monkeypatch, lambda ranges: {**ranges, "ab": (2, 2)})
        assert a.violations == ("aababa: image C(ab,3) of baba does not exist",)
        assert not a.injection.all_images_exist

    def test_colliding_images(self, monkeypatch):
        # every member of a class goes to its first member's image
        def collide(original, rows):
            first = {}
            return [(sq, *first.setdefault(root, (root, r)))
                    for sq, root, r in original(rows)]
        assert self.faked_battery(monkeypatch, verifier, "class_images", collide) == [
            "aababa: injection images collide"]

    def test_coordinates_that_do_not_rebuild(self, monkeypatch):
        # baba's row gets j = 2; its class has index 1, so its image stays
        def shifted(original, squares):
            return [(v, index, canon, [(sq, i, j + (sq.word == "baba"))
                                       for sq, i, j in members])
                    for v, index, canon, members in original(squares)]
        assert self.faked_battery(monkeypatch, verifier, "class_rows", shifted) == [
            "aababa: coordinates (2,2) do not rebuild baba"]

    def test_a_sweep_names_a_shared_fault_with_each_word(self, monkeypatch):
        # baba's row gets j = 2 in every word that has baba, whether its rows
        # come from the batch engines or are folded from its parent's; a
        # child that shares its parent's rows shares the fault, and each
        # word that has baba names it once, with its own word
        sweep = [w for n in range(1, 9) for w in canonical_words(2, n) if "baba" in w]
        expected = sorted(f"{w}: coordinates ({i},2) do not rebuild baba"
                          for w in sweep for _, _, _, members in class_rows(distinct_squares(w))
                          for sq, i, _ in members if sq.word == "baba")
        assert len(expected) == len(sweep) > 0
        original = verifier.class_rows

        def faked(*args):
            return [(v, index, canon, [(sq, i, 2 if sq.word == "baba" else j)
                                       for sq, i, j in members])
                    for v, index, canon, members in original(*args)]
        monkeypatch.setattr(verifier, "class_rows", faked)
        assert exhaustive_search(2, 8).violations == tuple(expected)

    # both engines report the extra circuits, so only the caps can catch them;
    # the caps sum to |w| - |Alph(w)|, so a total above it breaks one of them
    @pytest.mark.parametrize("extra,messages", [
        ({"b": (5, 5)}, ["order 5 has 1 circuits, cap 0"]),
        ({"b": (4, 5)}, ["circuit total 5 above |w|-|Alph(w)|",
                         "order 4 has 1 circuits, cap 0",
                         "order 5 has 1 circuits, cap 0"])])
    def test_circuits_over_the_caps(self, monkeypatch, extra, messages):
        self.fake_direct_engine(monkeypatch, lambda ranges: {**ranges, **extra})
        assert self.faked_battery(
            monkeypatch, verifier, "circuit_order_ranges",
            lambda original, w, runs: {**original(w, runs), **extra}) == [
            f"aababa: {m}" for m in messages]

    def test_check_runs_no_per_order_enumeration_or_rank(self, monkeypatch, capsys):
        # one engine call covers every order
        counts = count_calls(monkeypatch, circuits.small_circuits,
                             circuits.direct_order_ranges)
        assert main(["check", fibonacci(300)]) == 0
        assert "injective: True" in capsys.readouterr().out
        assert counts == {"direct_order_ranges": 1}


class TestLeanBattery:
    def test_battery_builds_no_circuit_or_report(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("_canonical_circuit was called")
        replace_everywhere(monkeypatch, circuits._canonical_circuit, fail)
        forbid(monkeypatch, SmallCircuit, "__new__")
        forbid(monkeypatch, InjectionReport, "__init__")
        forbid(monkeypatch, TheoremReport, "__init__")
        for n in range(1, 11):
            for w in canonical_words(2, n):
                assert verify_word(w) == []

    def test_every_cap_is_nonnegative(self):
        # the battery checks the caps only at orders with circuits
        rng = random.Random(20221019)
        randoms = ["".join(rng.choice("abcd"[:k]) for _ in range(rng.randint(1, 40)))
                   for k in (rng.randint(1, 4) for _ in range(200))]
        for w in [*(w for n in range(1, 11) for w in canonical_words(2, n)), *randoms]:
            assert all(cap >= 0 for _, _, cap in theorem_check(w).per_order_counts), w


class TestFieldsMatchStandaloneFunctions:
    @staticmethod
    def check(w: str) -> None:
        a = WordAnalysis(w)
        circuits = all_small_circuits(w)
        assert a.squares == distinct_squares(w)
        assert a.counts == circuit_counts_by_order(w)
        assert circuit_pairs(a.ranges) == {(c.root, c.order) for c in circuits}
        assert a.injection.circuit_count == len(circuits)
        assert a.injection == build_injection(w)
        assert a.report == theorem_check(w)
        assert list(a.violations) == verify_word(w) == []

    def test_canonical_binary_words_to_length_10(self):
        for n in range(1, 11):
            for w in canonical_words(2, n):
                self.check(w)

    def test_random_words(self):
        rng = random.Random(20220421)
        for _ in range(200):
            k = rng.randint(1, 4)
            self.check("".join(rng.choice("abcd"[:k]) for _ in range(rng.randint(1, 40))))


class TestContract:
    def test_empty_word_rejected(self, capsys):
        # only the theorem report needs a nonempty word, so every entry point
        # that reports the bound rejects the empty one
        for report in (lambda: WordAnalysis("").report, lambda: theorem_check(""),
                       lambda: json_document(""), lambda: analyze(""),
                       lambda: analyze("", "json")):
            with pytest.raises(ValueError, match="the bound is about nonempty words"):
                report()
        assert main(["check", ""]) == main(["check", "", "--json"]) == 1
        assert capsys.readouterr() == (
            "", "sqcirc: error: the bound is about nonempty words\n" * 2)

    def test_empty_word_has_no_violations(self):
        a = WordAnalysis("")
        assert verify_word("") == list(a.violations) == []
        assert (a.squares, a.rows, a.ranges) == (frozenset(), [], {})
        assert a.injection == build_injection("")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WordAnalysis("aababa").word = "ab"
