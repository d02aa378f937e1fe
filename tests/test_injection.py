"""Unit tests for the square-to-circuit injection."""
import random

import pytest

from sqcirc.circuits import SmallCircuit, all_small_circuits
from sqcirc.injection import build_injection, inject_class
from sqcirc.squares import distinct_squares, square_classes
from sqcirc.verifier import canonical_words

EXAMPLE_22 = "baababaababbbabbabbbab"
EXAMPLE_22_IMAGES = {
    SmallCircuit("a", 1), SmallCircuit("b", 1),
    SmallCircuit("ab", 2), SmallCircuit("ab", 3),
    SmallCircuit("aba", 3),
    SmallCircuit("abb", 3), SmallCircuit("abb", 4), SmallCircuit("abb", 5),
    SmallCircuit("babb", 4), SmallCircuit("babb", 5),
    SmallCircuit("baaba", 5), SmallCircuit("baaba", 6),
    SmallCircuit("babbbab", 7),
}


def thue_like_square_free(length):
    """Prefix of the fixed point of a -> abc, b -> ac, c -> b (square-free)."""
    w = "a"
    rules = {"a": "abc", "b": "ac", "c": "b"}
    while len(w) < length:
        w = "".join(rules[c] for c in w)
    return w[:length]


class TestInjectClass:
    def test_index_one_class_fans_out_from_root_length(self):
        cls = next(c for c in square_classes(EXAMPLE_22) if c.root == "abb")
        pairs = inject_class(cls)
        assert {c for _, c in pairs} == {
            SmallCircuit("abb", 3), SmallCircuit("abb", 4), SmallCircuit("abb", 5)}
        # ranks follow the lexicographic order of the members
        by_word = {sq.word: c.order for sq, c in pairs}
        assert by_word == {"abbabb": 3, "babbab": 4, "bbabba": 5}

    def test_single_member_class(self):
        cls = next(c for c in square_classes(EXAMPLE_22) if c.root == "a")
        assert inject_class(cls) == [
            (next(iter(cls.members)), SmallCircuit("a", 1))]

    def test_deep_class_uses_coordinates(self):
        cls = square_classes("abcabcabcabca")[0]
        image = {sq.word: circ for sq, circ in inject_class(cls)}
        assert image["abcabcabcabc"] == SmallCircuit("abc", 6)
        assert image["bcabcabcabca"] == SmallCircuit("abc", 7)
        assert image["abcabc"] == SmallCircuit("abc", 3)
        assert image["bcabca"] == SmallCircuit("abc", 4)
        assert image["cabcab"] == SmallCircuit("abc", 5)

    def test_coordinate_order_arithmetic_is_injective(self):
        # j1*l + i1 - 1 == j2*l + i2 - 1 forces equal pairs when 1 <= i <= l
        for l in range(1, 8):
            seen = {}
            for j in range(1, 5):
                for i in range(1, l + 1):
                    key = j * l + i - 1
                    assert key not in seen
                    seen[key] = (i, j)


class TestBuildInjection:
    def test_twenty_two_letter_example(self):
        report = build_injection(EXAMPLE_22)
        assert report.injective
        assert report.all_images_exist
        assert report.square_count == 13
        assert {c for _, c in report.assignments} == EXAMPLE_22_IMAGES

    def test_images_exist_among_all_circuits(self):
        circuits = all_small_circuits(EXAMPLE_22)
        assert EXAMPLE_22_IMAGES <= circuits

    def test_square_free_word(self):
        w = thue_like_square_free(18)
        assert distinct_squares(w) == frozenset()
        report = build_injection(w)
        assert report.assignments == ()
        assert report.injective and report.all_images_exist
        assert report.square_count == 0

    def test_small_example(self):
        report = build_injection("aababa")
        assert {c for _, c in report.assignments} == {
            SmallCircuit("a", 1), SmallCircuit("ab", 2), SmallCircuit("ab", 3)}
        assert report.injective and report.all_images_exist
        assert report.circuit_count == 3

    def test_squares_never_outnumber_circuits(self):
        rng = random.Random(51)
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 24)))
            assert len(distinct_squares(w)) <= len(all_small_circuits(w))

    def test_assignment_domain_is_every_square(self):
        rng = random.Random(52)
        for _ in range(200):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 18)))
            report = build_injection(w)
            assert {sq for sq, _ in report.assignments} == set(distinct_squares(w))
            assert report.injective and report.all_images_exist


class TestExhaustiveInjectivity:
    def test_ternary_words_up_to_length_twelve(self):
        # one representative per letter renaming; injectivity and image
        # existence are renaming-invariant
        for n in range(1, 13):
            for w in canonical_words(3, n):
                report = build_injection(w)
                assert report.injective, w
                assert report.all_images_exist, w
