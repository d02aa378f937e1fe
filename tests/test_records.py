"""The 13 record types: immutable, hashed and ordered by their field tuple,
with the repr text and validation errors they always had, and picklable."""
import pickle
import re

import pytest

from sqcirc import build_injection, build_rauzy, exhaustive_search, theorem_check
from sqcirc.circuits import CircuitRealization, SmallCircuit
from sqcirc.injection import InjectionReport
from sqcirc.rauzy import RauzyEdge, RauzyGraph, VectorCycle
from sqcirc.squares import Square, SquareClass
from sqcirc.verifier import SearchSummary, TheoremReport, WordAnalysis
from sqcirc.words import RationalExponent, SymbolOrder

SQ = Square("ab", "abab")

# (record, its field tuple, its repr); no repr lists a set of two or more
# elements, whose order would vary with the string hash seed
RECORDS = [
    (SymbolOrder.from_string("ba"), (("b", "a"),), "SymbolOrder(symbols=('b', 'a'))"),
    (RationalExponent(2, 1), (2, 1), "RationalExponent(integer_part=2, remainder_len=1)"),
    (SQ, ("ab", "abab"), "Square(half='ab', word='abab')"),
    (SquareClass("ab", 1, frozenset({SQ})), ("ab", 1, frozenset({SQ})),
     "SquareClass(root='ab', index=1, members=frozenset({Square(half='ab', word='abab')}))"),
    (SmallCircuit("ba", 3), ("ab", 3), "SmallCircuit(root='ab', order=3)"),
    (CircuitRealization(frozenset({"aba"}), frozenset({"abab"})),
     (frozenset({"aba"}), frozenset({"abab"})),
     "CircuitRealization(vertices=frozenset({'aba'}), edges=frozenset({'abab'}))"),
    (build_injection("aab"),
     (((Square("a", "aa"), SmallCircuit("a", 1)),), True, True, 1, 1),
     "InjectionReport(assignments=((Square(half='a', word='aa'), SmallCircuit(root='a', "
     "order=1)),), injective=True, all_images_exist=True, square_count=1, circuit_count=1)"),
    (RauzyEdge("aab", "aa", "ab"), ("aab", "aa", "ab"),
     "RauzyEdge(label='aab', src='aa', dst='ab')"),
    (build_rauzy("aaa", 1), (1, frozenset({"a"}), (RauzyEdge("aa", "a", "a"),)),
     "RauzyGraph(order=1, vertices=frozenset({'a'}), "
     "edges=(RauzyEdge(label='aa', src='a', dst='a'),))"),
    (VectorCycle((("ab", 1), ("ba", 0))), ((("ab", 1), ("ba", 0)),),
     "VectorCycle(entries=(('ab', 1), ('ba', 0)))"),
    (theorem_check("aab"), ("aab", 2, 1, 2, 2, True, 1, ((1, 1, 1), (2, 0, 0), (3, 0, 0))),
     "TheoremReport(word='aab', square_count_with_empty=2, nonempty_squares=1, "
     "alphabet_size=2, bound=2, holds=True, small_circuit_total=1, "
     "per_order_counts=((1, 1, 1), (2, 0, 0), (3, 0, 0)))"),
    (exhaustive_search(2, 3),
     (2, 3, 7, (), ((1, 0), (2, 1), (3, 1)), ((1, ("a",)), (2, ("aa",)), (3, ("aaa", "aab", "abb")))),
     "SearchSummary(alphabet_size=2, max_len=3, words_checked=7, violations=(), "
     "max_nonempty_squares_per_length=((1, 0), (2, 1), (3, 1)), "
     "extremal_witnesses=((1, ('a',)), (2, ('aa',)), (3, ('aaa', 'aab', 'abb'))))"),
    (WordAnalysis("aab"), ("aab",), "WordAnalysis(word='aab')"),
]
IDS = [type(rec).__name__ for rec, _, _ in RECORDS]


def test_every_record_type_is_covered():
    assert sorted(IDS) == sorted({
        "SymbolOrder", "RationalExponent", "Square", "SquareClass", "SmallCircuit",
        "CircuitRealization", "InjectionReport", "RauzyEdge", "RauzyGraph",
        "VectorCycle", "TheoremReport", "SearchSummary", "WordAnalysis"})


@pytest.mark.parametrize("rec, fields, text", RECORDS, ids=IDS)
class TestRecord:
    def test_assignment_raises(self, rec, fields, text):
        first = text[text.index("(") + 1:text.index("=")]  # the repr names it
        with pytest.raises(AttributeError):
            setattr(rec, first, fields[0])
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_hash_is_the_field_tuple_hash(self, rec, fields, text):
        assert hash(rec) == hash(fields)

    def test_repr(self, rec, fields, text):
        assert repr(rec) == text

    def test_pickle_round_trip(self, rec, fields, text):
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and back == rec and hash(back) == hash(rec)


@pytest.mark.parametrize("make, fields", [
    (Square, [("b", "bb"), ("ab", "abab"), ("a", "aa"), ("ba", "baba")]),
    (SmallCircuit, [("abb", 3), ("b", 1), ("ab", 2), ("a", 4), ("ab", 3)]),
    (RauzyEdge, [("ba", "b", "a"), ("ab", "a", "b"), ("aa", "a", "a")]),
], ids=["Square", "SmallCircuit", "RauzyEdge"])
def test_ordered_by_field_tuple(make, fields):
    records = [make(*f) for f in fields]
    assert sorted(records) == [make(*f) for f in sorted(fields)]


@pytest.mark.parametrize("make, message", [
    (lambda: Square("", ""), "a square is half + half with a nonempty half"),
    (lambda: Square("ab", "abba"), "a square is half + half with a nonempty half"),
    (lambda: SmallCircuit("", 1), "empty circuit root"),
    (lambda: SmallCircuit("abab", 4), "circuit root must be primitive: 'abab'"),
    (lambda: SmallCircuit("ab", 1), "a small circuit needs |root| <= order"),
    (lambda: RationalExponent(-1, 0), "exponent parts must be non-negative"),
    (lambda: RationalExponent(1, -1), "exponent parts must be non-negative"),
], ids=["empty-half", "not-half-twice", "empty-root", "imprimitive-root", "order-below-root",
        "negative-integer-part", "negative-remainder"])
def test_validation_errors(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Square("a", "aa")._replace(word="ab"), "a square is half + half with a nonempty half"),
    (lambda: Square._make(["", ""]), "a square is half + half with a nonempty half"),
    (lambda: SmallCircuit("ab", 2)._replace(root="abab"), "circuit root must be primitive: 'abab'"),
    (lambda: SmallCircuit._make(["ba", 1]), "a small circuit needs |root| <= order"),
    (lambda: RationalExponent._make([-1, -5]), "exponent parts must be non-negative"),
    (lambda: RationalExponent(2, 1)._replace(remainder_len=-1), "exponent parts must be non-negative"),
], ids=["square-replace", "square-make", "circuit-replace", "circuit-make", "exponent-make",
        "exponent-replace"])
def test_make_and_replace_validate(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_make_and_replace_normalize_the_circuit_root():
    assert SmallCircuit("ab", 2)._replace(root="ba") == ("ab", 2)
    assert SmallCircuit._make(["cab", 3]).root == "abc"
    assert Square._make(["ab", "abab"]) == SQ and type(Square._make(SQ)) is Square


def test_small_circuit_normalizes_by_keyword_too():
    assert SmallCircuit(root="ba", order=2) == SmallCircuit("ab", 2)
    assert SmallCircuit("bca", 3).root == "abc"


def test_analysis_equality_is_keyed_by_word():
    a = WordAnalysis("aab")
    a.report  # a computed field does not take part
    assert a == WordAnalysis("aab") != WordAnalysis("aba")
    assert a != ("aab",)
    with pytest.raises(AttributeError):
        del a.word
