"""Unit tests for distinct squares and square classes."""
import random
from collections import Counter

import pytest

from sqcirc.squares import (
    Square,
    class_representative,
    class_rows,
    distinct_squares,
    match_runs,
    rebuild_from_coordinates,
    square_classes,
    squares_and_ranges,
    suffix_squares,
    _encode,
)
import sqcirc.squares as squares_module
from sqcirc.circuits import circuit_order_ranges, direct_order_ranges
from sqcirc.verifier import canonical_words
from sqcirc.words import conjugacy_class, cycle_counts, factors, longest_repeated_factor, rotation

from oracles import (coordinates_oracle, fibonacci, random_word, ranges_all_lags, squares_scan,
                     thue_morse)

EXAMPLE_22 = "baababaababbbabbabbbab"
EXAMPLE_22_SQUARES = {
    "aa", "bb", "abab", "baba", "abaaba", "bbabba", "babbab", "abbabb",
    "babbbabb", "bbabbbab", "baababaaba", "aababaabab", "babbbabbabbbab",
}


class TestLongWordClosedForms:
    """Square counts known in closed form, far beyond the brute oracle's reach."""

    def test_fibonacci_square_count(self):
        # Fraenkel & Simpson (TCS 1999): with F_1 = F_2 = 1, the Fibonacci
        # word's prefix of length F_k has 2(F_(k-2) - 1) distinct nonempty
        # squares for k >= 6; at k = 5 (length 5) it has 1, not 2
        fib = [0, 1, 1]
        while len(fib) <= 19:
            fib.append(fib[-1] + fib[-2])
        assert len(distinct_squares(fibonacci(fib[5]))) == 1
        for k in range(6, 20):  # lengths 8 .. 4,181
            assert len(distinct_squares(fibonacci(fib[k]))) == 2 * (fib[k - 2] - 1), k

    def test_thue_morse_square_halves(self):
        # every half length is 2^k or 3 * 2^k; the prefix of length 4,096
        # has two squares of each up to 512 and one of half 1,024
        halves = Counter(len(sq.half) for sq in distinct_squares(thue_morse(4096)))
        expected = {h: 2 for k in range(10) for h in (2 ** k, 3 * 2 ** k) if h <= 512}
        assert halves == {**expected, 1024: 1}


class TestSquareType:
    def test_word_must_double_half(self):
        with pytest.raises(ValueError):
            Square("ab", "abba")

    def test_half_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Square("", "")

    def test_well_formed(self):
        sq = Square("ab", "abab")
        assert (sq.half, sq.word) == ("ab", "abab")


class TestDistinctSquares:
    def test_twenty_two_letter_example(self):
        assert {s.word for s in distinct_squares(EXAMPLE_22)} == EXAMPLE_22_SQUARES

    def test_nested_letter_power(self):
        assert {s.word for s in distinct_squares("aaaa")} == {"aa", "aaaa"}

    def test_small_example(self):
        assert {s.word for s in distinct_squares("aababa")} == {"aa", "abab", "baba"}

    def test_empty_and_square_free(self):
        assert distinct_squares("") == frozenset()
        assert distinct_squares("abc") == frozenset()

    def test_halves_are_consistent(self):
        for sq in distinct_squares(EXAMPLE_22):
            assert sq.word == sq.half * 2

    def test_against_brute_oracle_binary(self):
        # every binary word of length <= 12
        for n in range(13):
            for code in range(1 << n):
                w = "".join("ab"[(code >> i) & 1] for i in range(n))
                assert {s.word for s in distinct_squares(w)} == squares_scan(w)

    def test_against_brute_oracle_ternary(self):
        rng = random.Random(21)
        for _ in range(400):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 12)))
            assert {s.word for s in distinct_squares(w)} == squares_scan(w)


class TestRunBasedScan:
    def test_match_runs_certify_periodicity(self):
        rng = random.Random(22)
        for _ in range(200):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(2, 40)))
            for lag in range(1, len(w)):
                runs = match_runs(w, lag)
                marked = set()
                for s, length in runs:
                    assert length >= 1
                    for t in range(s, s + length):
                        assert w[t] == w[t + lag]
                        marked.add(t)
                    # maximality on both sides
                    assert s == 0 or w[s - 1] != w[s - 1 + lag]
                    end = s + length
                    assert end == len(w) - lag or w[end] != w[end + lag]
                for t in range(len(w) - lag):
                    assert (w[t] == w[t + lag]) == (t in marked)

    @staticmethod
    def agreement_words():
        rng = random.Random(23)
        words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 120)))
                 for letters in ("ab", "abc") for _ in range(150)]
        # the short words the quadratic scan used to serve
        words += [w for n in range(1, 13) for w in canonical_words(2, n)]
        words += [w for n in range(1, 9) for w in canonical_words(3, n)]
        # past 256 letters: repetitive words, whose longest repeated factor is
        # long, random ones, whose longest repeated factor is short, and a
        # square whose half is exactly the longest repeated factor
        u = "".join(rng.choice("abc") for _ in range(150))
        words += [fibonacci(300), "a" * 300, ("abaab" * 70)[:333], thue_morse(300),
                  "".join(rng.choice("abc") for _ in range(400)), u + u]
        return words

    def test_scan_and_runs_agree(self):
        for w in self.agreement_words():
            assert {s.word for s in distinct_squares(w)} == squares_scan(w), w

    def test_scan_reads_match_runs_to_lrf(self, monkeypatch):
        # each lag 1..min(LRF, |w|/2) once, its every run the run of
        # match_runs, its long runs those at least the lag long
        seen = []

        def mismatches(w, wb, lag, _original=squares_module._mismatches):
            z = _original(w, wb, lag)
            seen.append((lag, list(squares_module._runs(z)),
                         list(squares_module._long_runs(z, lag))))
            return z
        monkeypatch.setattr(squares_module, "_mismatches", mismatches)
        for w in self.agreement_words() + [""]:
            seen.clear()
            squares_and_ranges(w, cycle_counts(w))
            top = min(longest_repeated_factor(w), len(w) // 2)
            scanned = seen[:]  # match_runs below scans too
            assert [lag for lag, _, _ in scanned] == list(range(1, top + 1)), w
            for lag, runs, long_runs in scanned:
                assert runs == match_runs(w, lag)
                assert long_runs == [(s, k) for s, k in runs if k >= lag]

    def test_one_scan_gives_squares_and_ranges(self):
        for w in self.agreement_words():
            squares, ranges = squares_and_ranges(w, cycle_counts(w))
            assert squares == distinct_squares(w)
            assert ranges == circuit_order_ranges(w) == direct_order_ranges(w, cycle_counts(w))

    def test_pure_python_path_past_256_symbols(self):
        # over 256 distinct symbols, match_runs falls back to plain comparison
        rng = random.Random(26)
        syms = [chr(0x100 + i) for i in range(300)]
        pieces = list(syms)
        for _ in range(12):
            u = "".join(rng.choice(syms[:8]) for _ in range(rng.randint(1, 6)))
            pieces.insert(rng.randrange(len(pieces) + 1), u * rng.randint(2, 3))
        w = "".join(pieces)
        assert _encode(w) is None
        for lag in range(1, len(w)):
            covered = [t for s, length in match_runs(w, lag)
                       for t in range(s, s + length)]
            assert covered == [t for t in range(len(w) - lag)
                               if w[t] == w[t + lag]]
        assert {s.word for s in distinct_squares(w)} == squares_scan(w)
        # the circuits too, at the lags the cap lemma skips and at the others
        assert circuit_order_ranges(w) == direct_order_ranges(w, cycle_counts(w)) \
            == ranges_all_lags(w)

    def test_long_words_use_run_path(self):
        rng = random.Random(24)
        for _ in range(5):
            w = "".join(rng.choice("ab") for _ in range(300))
            assert {s.word for s in distinct_squares(w)} == squares_scan(w)

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            match_runs("abab", 0)
        assert match_runs("ab", 5) == []


def classes_by_substring_rule(w):
    """Oracle for each class's (root, index): the index is the largest n with
    t^(2n) a factor of w for a rotation t, and the root is the least such t,
    both found by searching w for the powers of every rotation."""
    out = []
    for cls in square_classes(w):
        rots = conjugacy_class(cls.root)
        index = max(n for n in range(1, len(w) + 1)
                    if any(t * (2 * n) in w for t in rots))
        out.append((min(t for t in rots if t * (2 * index) in w), index))
    return out


class TestSquareClasses:
    def test_representatives_equal_substring_rule(self):
        words = [w for size, top in ((2, 12), (3, 8))
                 for n in range(1, top + 1) for w in canonical_words(size, n)]
        words += ["abcabcabcabca", EXAMPLE_22, EXAMPLE_22 * 3, "ab" * 9 + "ba" * 9]
        for w in words:
            assert ([(c.root, c.index) for c in square_classes(w)]
                    == classes_by_substring_rule(w)), w

    def test_twenty_two_letter_class_table(self):
        classes = square_classes(EXAMPLE_22)
        table = [(c.root, len(c.members)) for c in classes]
        # aabab is the least rotation whose square occurs; baaba names the
        # same class
        assert table == [("a", 1), ("b", 1), ("ab", 2), ("aba", 1),
                         ("abb", 3), ("babb", 2), ("aabab", 2), ("babbbab", 1)]
        assert all(c.index == 1 for c in classes)
        assert "aabab" in conjugacy_class("baaba")

    def test_repetition_class(self):
        classes = square_classes("abcabcabcabca")
        assert len(classes) == 1
        cls = classes[0]
        assert cls.root == "abc"
        assert {m.word for m in cls.members} == {
            "abcabc", "bcabca", "cabcab", "abcabcabcabc", "bcabcabcabca"}
        # the deepest square is (abc)^4 = root^(2*index)
        assert cls.index == 2
        assert "abc" * (2 * cls.index) in "abcabcabcabca"

    def test_square_free_word(self):
        assert square_classes("ab") == []

    def test_partition(self):
        rng = random.Random(25)
        for _ in range(200):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 24)))
            classes = square_classes(w)
            union = [m for c in classes for m in c.members]
            assert len(union) == len(set(union))
            assert set(union) == set(distinct_squares(w))

    def test_index_witness(self):
        rng = random.Random(26)
        for _ in range(200):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 24)))
            for cls in square_classes(w):
                witness = cls.root * (2 * cls.index)
                assert witness in {m.word for m in cls.members}
                deeper = 2 * (cls.index + 1) * len(cls.root)
                assert all(t * (2 * (cls.index + 1)) not in w
                           for t in conjugacy_class(cls.root)) or deeper > len(w)

    def test_index_one_class_size_bound(self):
        rng = random.Random(27)
        for _ in range(300):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 20)))
            for cls in square_classes(w):
                if cls.index == 1:
                    assert len(cls.members) <= len(cls.root)


class TestClassRepresentative:
    def test_rejects_disqualified_rotation(self):
        # cab's fourth power is not a factor, so cab never names the class
        assert class_representative("abcabcabcabca", "cab") == "abc"
        assert class_representative("abcabcabcabca", "bca") == "abc"

    def test_least_qualifying_rotation(self):
        assert class_representative("aababa", "ba") == "ab"

    def test_letter_class(self):
        assert class_representative("aaaa", "a") == "a"

    def test_root_must_be_primitive(self):
        with pytest.raises(ValueError):
            class_representative("aaaa", "aa")

    def test_missing_class(self):
        with pytest.raises(ValueError):
            class_representative("aababa", "abc")

    def test_representative_qualifies(self):
        rng = random.Random(28)
        for _ in range(200):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 20)))
            for cls in square_classes(w):
                assert cls.root * (2 * cls.index) in w


class TestCoordinates:
    def test_rows_match_coordinate_oracle(self):
        rng = random.Random(30)
        words = [w for size, top in ((2, 10), (3, 7))
                 for n in range(1, top + 1) for w in canonical_words(size, n)]
        words += [random_word(rng, "abcd"[:rng.randint(1, 4)], 1, 30) for _ in range(300)]
        for w in words:
            rows = class_rows(distinct_squares(w))
            for v, _, _, members in rows:
                for sq, i, j in members:
                    assert (i, j) == coordinates_oracle(v, sq.word), w
            assert self.folded_rows(w) == rows, w

    @staticmethod
    def folded_rows(w: str):
        # w's rows built letter by letter: each prefix's new squares
        # (suffix_squares) folded into the rows of the prefix before it,
        # which stay as they were
        rows = []
        for n in range(1, len(w) + 1):
            x = w[:n]
            m = next(m for m in range(n) if x[-m - 1:] not in x[:-1])
            before = [(v, index, canon, list(members)) for v, index, canon, members in rows]
            folded = class_rows(suffix_squares(x, m), rows)
            assert rows == before, x
            rows = folded
        return rows

    @staticmethod
    def coordinates(w: str, word: str) -> tuple[str, int, int]:
        # the class root and coordinates that class_rows gives the square word
        return next((v, i, j) for v, _, _, members in class_rows(distinct_squares(w))
                    for sq, i, j in members if sq.word == word)

    def test_deep_square_of_rotated_root(self):
        assert self.coordinates("abcabcabcabca", "bcabcabcabca") == ("abc", 2, 2)

    def test_aligned_square(self):
        assert self.coordinates("abcabcabcabca", "abcabc") == ("abc", 1, 1)

    def test_offset_square(self):
        assert self.coordinates("aababa", "baba") == ("ab", 2, 1)

    def test_round_trip_everywhere(self):
        rng = random.Random(29)
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 24)))
            for v, index, _, members in class_rows(distinct_squares(w)):
                for sq, i, j in members:
                    assert 1 <= i <= len(v)
                    assert 1 <= j <= index
                    assert rebuild_from_coordinates(v, i, j) == sq.word
                    assert sq.word == rotation(v, i) * (2 * j)

    def test_rebuild_formula(self):
        assert rebuild_from_coordinates("ab", 2, 1) == "baba"
        assert rebuild_from_coordinates("abc", 1, 2) == "abcabcabcabc"
