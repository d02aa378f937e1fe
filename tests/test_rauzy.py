"""Unit tests for Rauzy graph construction and shape."""
import itertools
import random

import pytest

from sqcirc.circuits import independence_rank
from sqcirc.rauzy import (
    RauzyEdge,
    RauzyGraph,
    VectorCycle,
    build_rauzy,
    cyclomatic_number,
    is_weakly_connected,
)
from sqcirc.words import complexity_profile

from oracles import _int_rank, elementary_cycles_oracle

# carries three nested circuits over aab, aaab, aaaab at order five
NEST_WORD = "abaaabaabaaaaba"
NEST_WORD_VERTICES = {"aaaba", "aabaa", "baaab", "abaaa",
                      "aaaab", "baaaa", "baaba", "abaab"}
NEST_WORD_EDGES = {"aaaaba", "baaaab", "abaaaa", "aaabaa", "aabaaa",
                   "abaaab", "baaaba", "aabaab", "abaaba", "baabaa"}


class TestBuildRauzy:
    def test_order_two_graph(self):
        g = build_rauzy("aababa", 2)
        assert g.vertices == {"aa", "ab", "ba"}
        assert {(e.label, e.src, e.dst) for e in g.edges} == {
            ("aab", "aa", "ab"), ("aba", "ab", "ba"), ("bab", "ba", "ab")}

    def test_top_order_has_no_edges(self):
        g = build_rauzy("aababa", 6)
        assert g.vertices == {"aababa"}
        assert g.edges == ()

    def test_nest_word_graph_of_order_five(self):
        g = build_rauzy(NEST_WORD, 5)
        assert g.vertices == NEST_WORD_VERTICES
        assert g.labels == NEST_WORD_EDGES

    def test_twenty_two_letter_word_order_five(self):
        g = build_rauzy("baababaababbbabbabbbab", 5)
        assert len(g.vertices) == 12
        assert len(g.edges) == 14
        assert {"babba", "abbab"} <= g.vertices

    @pytest.mark.parametrize("n", [0, 7, -1])
    def test_order_out_of_range(self, n):
        with pytest.raises(ValueError):
            build_rauzy("aababa", n)

    def test_edge_endpoints_follow_label(self):
        rng = random.Random(31)
        for _ in range(100):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 20)))
            for n in range(1, len(w) + 1):
                g = build_rauzy(w, n)
                labels = [e.label for e in g.edges]
                assert len(labels) == len(set(labels))
                for e in g.edges:
                    assert e.label[:-1] == e.src and e.label[1:] == e.dst
                    assert {e.src, e.dst} <= g.vertices

    def test_counts_match_complexity(self):
        rng = random.Random(32)
        for _ in range(100):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 20)))
            prof = complexity_profile(w)
            for n in range(1, len(w) + 1):
                g = build_rauzy(w, n)
                assert len(g.vertices) == prof[n]
                assert len(g.edges) == prof[n + 1]


class TestConnectivity:
    def test_order_two_example(self):
        assert is_weakly_connected(build_rauzy("aababa", 2))

    def test_single_vertex(self):
        assert is_weakly_connected(build_rauzy("a", 1))

    def test_empty_graph(self):
        assert is_weakly_connected(RauzyGraph(1, frozenset(), ()))

    def test_every_binary_word_up_to_ten(self):
        for n in range(1, 11):
            for tup in itertools.product("ab", repeat=n):
                w = "".join(tup)
                for r in range(1, n + 1):
                    assert is_weakly_connected(build_rauzy(w, r))

    def test_detects_disconnection(self):
        g = RauzyGraph(1, frozenset({"a", "b"}), ())
        assert not is_weakly_connected(g)


class TestCyclomaticNumber:
    def test_order_one(self):
        assert cyclomatic_number(build_rauzy("aababa", 1)) == 2

    def test_order_two(self):
        assert cyclomatic_number(build_rauzy("aababa", 2)) == 1

    def test_tree_like_top(self):
        assert cyclomatic_number(build_rauzy("aababa", 6)) == 0

    def test_nest_word_order_five(self):
        assert cyclomatic_number(build_rauzy(NEST_WORD, 5)) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cyclomatic_number(RauzyGraph(1, frozenset(), ()))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            cyclomatic_number(RauzyGraph(1, frozenset({"a", "b"}), ()))

    def test_equals_max_independent_cycles(self):
        # chi matches the exact rank of all elementary cycles, and the small
        # circuits alone never exceed it
        for n in range(1, 9):
            for tup in itertools.product("ab", repeat=n):
                w = "".join(tup)
                for r in range(1, n + 1):
                    g = build_rauzy(w, r)
                    chi = cyclomatic_number(g)
                    assert chi >= 0
                    cycles = elementary_cycles_oracle(g, len(g.vertices))
                    labels = sorted(g.labels)
                    rows = [[1 if lab in cyc else 0 for lab in labels]
                            for cyc in cycles]
                    assert _int_rank(rows) == chi
                    assert independence_rank(w, r) <= chi


class TestVectorCycle:
    def test_as_dict(self):
        vc = VectorCycle((("aab", 0), ("aba", 1)))
        assert vc.as_dict() == {"aab": 0, "aba": 1}


class TestRauzyEdgeOrdering:
    def test_edges_sorted_by_label(self):
        g = build_rauzy("baababaababbbabbabbbab", 3)
        labels = [e.label for e in g.edges]
        assert labels == sorted(labels)

    def test_edge_is_value_object(self):
        assert RauzyEdge("aab", "aa", "ab") == RauzyEdge("aab", "aa", "ab")
