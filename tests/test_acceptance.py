"""Acceptance checks: worked examples plus exhaustive desk-scale verification.

Each test prints one PASS/FAIL line so the run reads as a checklist. The
sweeps re-verify every invariant on every canonical word in their ranges;
a single violation anywhere fails the matching criterion.
"""
import math
import random
import time
from contextlib import contextmanager

import pytest

from sqcirc.circuits import (
    SmallCircuit,
    all_small_circuits,
    independence_rank,
    maximal_edge,
    realize,
    small_circuits,
)
from sqcirc.injection import build_injection
from sqcirc.rauzy import build_rauzy
from sqcirc.squares import (
    class_representative,
    class_rows,
    distinct_squares,
    rebuild_from_coordinates,
    square_classes,
)
from sqcirc.verifier import canonical_count, canonical_words, exhaustive_search, theorem_check
from sqcirc.words import (
    RationalExponent,
    SymbolOrder,
    common_root,
    factors,
    fractional_power,
    has_period,
    is_primitive,
)

from oracles import _edge_rank, elementary_cycles_oracle, squares_scan, word_with_periods

B_BEFORE_A = SymbolOrder.from_string("ba")
WORD_U = "aababa"
WORD_V = "abaaabaabaaaaba"
WORD_W = "baababaababbbabbabbbab"
WORD_R = "abcabcabcabca"

RESULTS = {}


@contextmanager
def announce(capsys, num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: PASS  {description}  [{elapsed:.2f}s]")


def test_criterion_1_small_circuits_of_aababa(capsys):
    with announce(capsys, 1, "aababa: exact circuit set, oracle separates the non-small cycle"):
        start = time.perf_counter()
        assert all_small_circuits(WORD_U) == {
            SmallCircuit("a", 1), SmallCircuit("ab", 2), SmallCircuit("ab", 3)}
        cycles = elementary_cycles_oracle(build_rauzy(WORD_U, 1), 2)
        assert frozenset({"ab", "ba"}) in cycles
        assert cycles == {frozenset({"aa"}), frozenset({"ab", "ba"})}
        assert {realize(c).edges for c in small_circuits(WORD_U, 1)} == {
            frozenset({"aa"})}
        assert time.perf_counter() - start < 1.0


def test_criterion_2_nested_circuits_order_five(capsys):
    with announce(capsys, 2, "abaaabaabaaaaba, r=5, b<a: circuits, maximal edges, rank"):
        start = time.perf_counter()
        got = small_circuits(WORD_V, 5)
        assert got == {SmallCircuit("aaaab", 5), SmallCircuit("aaab", 5),
                       SmallCircuit("aab", 5)}
        assert {maximal_edge(c, B_BEFORE_A) for c in got} == {
            "aaaaba", "aaabaa", "aabaab"}
        assert independence_rank(WORD_V, 5) == 3
        assert _edge_rank([realize(c).edges for c in got]) == 3
        # the three circuits account for the whole cycle space of the graph
        g = build_rauzy(WORD_V, 5)
        assert len(g.vertices) == 8 and len(g.edges) == 10
        assert {"aaaaba", "aaabaa", "aabaab"} <= g.labels
        # dropping one letter of the long a-run loses the aaaa factors and
        # with them the widest of the three circuits
        assert small_circuits("abaaabaabaaaba", 5) == {
            SmallCircuit("aaab", 5), SmallCircuit("aab", 5)}
        assert time.perf_counter() - start < 1.0


def test_criterion_3_twenty_two_letter_example(capsys):
    with announce(capsys, 3, "22-letter example: 13 squares, 8 classes, exact injection images"):
        start = time.perf_counter()
        squares = {s.word for s in distinct_squares(WORD_W)}
        assert squares == {
            "aa", "bb", "abab", "baba", "abaaba", "bbabba", "babbab",
            "abbabb", "babbbabb", "bbabbbab", "baababaaba", "aababaabab",
            "babbbabbabbbab"}
        classes = square_classes(WORD_W)
        assert [len(c.members) for c in classes] == [1, 1, 2, 1, 3, 2, 2, 1]
        report = build_injection(WORD_W)
        assert report.injective and report.all_images_exist
        # circuit identity normalizes conjugate spellings of the same root
        assert {c for _, c in report.assignments} == {
            SmallCircuit("a", 1), SmallCircuit("b", 1),
            SmallCircuit("ab", 2), SmallCircuit("ab", 3),
            SmallCircuit("aba", 3),
            SmallCircuit("abb", 3), SmallCircuit("abb", 4), SmallCircuit("abb", 5),
            SmallCircuit("babb", 4), SmallCircuit("babb", 5),
            SmallCircuit("baaba", 5), SmallCircuit("baaba", 6),
            SmallCircuit("babbbab", 7)}
        check = theorem_check(WORD_W)
        assert check.square_count_with_empty == 14
        assert check.bound == 21 and check.holds
        assert time.perf_counter() - start < 1.0


def test_criterion_4_repetition_class(capsys):
    with announce(capsys, 4, "abcabcabcabca: one class, fourth power reached, never named cab"):
        classes = square_classes(WORD_R)
        assert len(classes) == 1
        cls = classes[0]
        # the class contains the fourth power of its root and nothing deeper,
        # so the maximal even exponent is 4 and the index (its half) is 2
        assert "abc" * 4 in {m.word for m in cls.members}
        assert all(t * 6 not in WORD_R for t in ("abc", "bca", "cab"))
        assert cls.index == 2
        assert 2 * cls.index == 4
        assert cls.root in {"abc", "bca"}
        assert class_representative(WORD_R, "cab") != "cab"
        assert class_representative(WORD_R, "cab") == "abc"
        assert class_representative(WORD_R, "bca") == "abc"


def test_criterion_5_theorem_sweep(capsys):
    with announce(capsys, 5, "sweep: binary len<=16 and ternary len<=11, all invariants"):
        start = time.perf_counter()
        binary = exhaustive_search(2, 16)
        assert binary.violations == ()
        assert binary.words_checked == sum(
            canonical_count(2, n) for n in range(1, 17))
        ternary = exhaustive_search(3, 11)
        assert ternary.violations == ()
        assert ternary.words_checked == sum(
            canonical_count(3, n) for n in range(1, 12))
        assert time.perf_counter() - start < 600
        RESULTS["sweep_clean"] = True


def test_criterion_6_oracle_equivalence(capsys):
    with announce(capsys, 6, "periodicity enumeration == cycle search, ternary len<=10, all r"):
        for n in range(1, 11):
            for w in canonical_words(3, n):
                every = all_small_circuits(w)
                for r in range(1, n + 1):
                    mine = {realize(c).edges for c in every if c.order == r}
                    oracle = elementary_cycles_oracle(build_rauzy(w, r), r)
                    assert mine == set(oracle), (w, r)
        # renaming a word renames the circuits and nothing else
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(2, 12)
            w = "".join(rng.choice("abc") for _ in range(n))
            perm = dict(zip("abc", rng.sample("abc", 3)))
            v = "".join(perm[c] for c in w)
            renamed = {SmallCircuit("".join(perm[c] for c in circ.root), circ.order)
                       for circ in all_small_circuits(w)}
            assert renamed == all_small_circuits(v), (w, v)


def test_criterion_7_property_suites(capsys):
    with announce(capsys, 7, "property suites: two periods, commutation, powers, coordinates"):
        rng = random.Random(72)

        for _ in range(10_000):
            k = rng.randint(2, 11)
            l = rng.randint(2, 11)
            g = math.gcd(k, l)
            n = k + l - g + rng.randint(0, 4)
            w = word_with_periods(n, k, l, rng)
            assert has_period(w, k) and has_period(w, l) and has_period(w, g)

        for _ in range(10_000):
            if rng.random() < 0.5:
                p = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                x, y = p * rng.randint(1, 3), p * rng.randint(1, 3)
            else:
                x = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
                y = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
            got = common_root(x, y)
            if x + y == y + x:
                assert got is not None and is_primitive(got)
                assert x == got * (len(x) // len(got))
                assert y == got * (len(y) // len(got))
            else:
                assert got is None

        for _ in range(10_000):
            u = "".join(rng.choice("abc") for _ in range(rng.randint(1, 9)))
            alpha = RationalExponent(rng.randint(1, 5), rng.randint(0, len(u) - 1))
            p = fractional_power(u, alpha)
            assert len(p) == alpha.integer_part * len(u) + alpha.remainder_len
            assert has_period(p, len(u))

        # coordinate round-trips run inside the criterion-5 sweep on every
        # square there; when this test runs alone, sweep a smaller range here
        if not RESULTS.get("sweep_clean"):
            for n in range(1, 13):
                for w in canonical_words(2, n):
                    _roundtrip_squares(w)
        for _ in range(300):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
            _roundtrip_squares(w)


def test_criterion_8_unary_closed_form(capsys):
    with announce(capsys, 8, "unary words len<=64: squares and circuits match closed forms"):
        for n in range(1, 65):
            w = "a" * n
            squares = {s.word for s in distinct_squares(w)}
            assert len(squares) == n // 2
            assert squares == squares_scan(w)
            assert squares == {"a" * (2 * k) for k in range(1, n // 2 + 1)}
            every = all_small_circuits(w)
            for r in range(1, n + 1):
                circ = {c for c in every if c.order == r}
                if r <= n - 1:
                    assert circ == {SmallCircuit("a", r)}
                else:
                    assert circ == frozenset()
            report = theorem_check(w)
            assert report.holds
            assert report.small_circuit_total == n - 1
            assert report.slack == n - n // 2 - 1


def _roundtrip_squares(w):
    for v, _, _, members in class_rows(distinct_squares(w)):
        for sq, i, j in members:
            assert rebuild_from_coordinates(v, i, j) == sq.word

