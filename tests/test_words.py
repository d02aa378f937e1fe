"""Unit tests for the elementary word operations."""
import itertools
import math
import random
import tracemalloc

import pytest

from sqcirc import canonical_words
from sqcirc.rauzy import build_rauzy, cyclomatic_number
from sqcirc.words import (
    NATURAL,
    RationalExponent,
    SymbolOrder,
    alphabet,
    common_root,
    complexity,
    complexity_profile,
    conjugacy_class,
    cycle_counts,
    extremal_rotation,
    factors,
    fractional_power,
    has_period,
    is_primitive,
    least_rotation,
    longest_repeated_factor,
    power_to_length,
    primitive_root,
    rotation,
    smallest_period,
    three_words_decomposition,
)

from oracles import fibonacci, random_word, thue_morse, tribonacci, word_with_periods

B_BEFORE_A = SymbolOrder.from_string("ba")


class TestRotation:
    def test_position_one_is_identity(self):
        assert rotation("abc", 1) == "abc"

    def test_middle_position(self):
        assert rotation("abcde", 3) == "cdeab"

    def test_last_position(self):
        assert rotation("abc", 3) == "cab"

    @pytest.mark.parametrize("i", [0, 4, -1])
    def test_position_out_of_range(self, i):
        with pytest.raises(IndexError):
            rotation("abc", i)

    def test_empty_word(self):
        with pytest.raises(IndexError):
            rotation("", 1)

    def test_group_law(self):
        # rotating by i then j lands where a single combined rotation does
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(rng, "abc", 1, 24)
            n = len(w)
            i, j = rng.randint(1, n), rng.randint(1, n)
            combined = ((i - 1 + j - 1) % n) + 1
            assert rotation(rotation(w, i), j) == rotation(w, combined)


class TestConjugacyClass:
    def test_three_letters(self):
        assert conjugacy_class("abc") == {"abc", "bca", "cab"}

    def test_period_two_word_collapses(self):
        assert conjugacy_class("abab") == {"abab", "baba"}

    def test_five_rotations(self):
        assert conjugacy_class("aaaab") == {"aaaab", "aaaba", "aabaa", "abaaa", "baaaa"}

    def test_empty_word(self):
        with pytest.raises(ValueError):
            conjugacy_class("")

    def test_size_equals_root_length(self):
        rng = random.Random(12)
        for _ in range(300):
            w = random_word(rng, "ab", 1, 24)
            assert len(conjugacy_class(w)) == len(primitive_root(w)[0])


class TestPrimitiveRoot:
    def test_square_word(self):
        assert primitive_root("abab") == ("ab", 2)

    def test_letter_power(self):
        assert primitive_root("aaaa") == ("a", 4)

    def test_prime_length_fractional_repetition(self):
        w = "abcabcabcabca"
        assert primitive_root(w) == (w, 1)
        # oracle: no proper period divides the length
        assert all(not has_period(w, p) or len(w) % p for p in range(1, len(w)))

    def test_reconstruction(self):
        rng = random.Random(13)
        for _ in range(300):
            w = random_word(rng, "ab", 1, 24)
            root, exp = primitive_root(w)
            assert root * exp == w
            assert is_primitive(root)

    def test_smallest_period_consistency(self):
        rng = random.Random(14)
        for _ in range(200):
            w = random_word(rng, "ab", 1, 24)
            p = smallest_period(w)
            assert has_period(w, p)
            assert all(not has_period(w, q) for q in range(1, p))


def _oracle_words():
    # every short binary and ternary word, the factors of four repetitive
    # words, and words past ASCII and past 256 code points
    words = {"".join(t) for letters, top in (("ab", 12), ("abc", 8))
             for n in range(1, top + 1) for t in itertools.product(letters, repeat=n)}
    for long in (fibonacci(384), thue_morse(384), "a" * 300 + "b", "ab" * 150 + "a"):
        words |= {long[i:i + n] for n in range(1, 301, 5)
                  for i in range(len(long) - n + 1)}
    wide = "".join(chr(0x100 + i) for i in range(300))
    rng = random.Random(16)
    words |= {"ñaña", "ñ" * 7, wide, wide + wide, wide + wide[:77],
              "".join(rng.choice(wide[:3]) for _ in range(280))}
    return sorted(words)


ORACLE_WORDS = _oracle_words()


class TestPrimitivesAgainstDefinitions:
    """The str.find-driven primitives agree with their brute definitions."""

    def test_smallest_period(self):
        for w in ORACLE_WORDS:
            assert smallest_period(w) == next(
                p for p in range(1, len(w) + 1) if has_period(w, p)), w

    def test_is_primitive(self):
        for w in ORACLE_WORDS:
            n = len(w)
            assert is_primitive(w) == (not any(
                n % d == 0 and w[:d] * (n // d) == w for d in range(1, n))), w

    def test_primitive_root(self):
        for w in ORACLE_WORDS:
            p = smallest_period(w)
            assert primitive_root(w) == ((w[:p], len(w) // p) if len(w) % p == 0
                                         else (w, 1)), w

    def test_least_rotation(self):
        for w in ORACLE_WORDS:
            assert least_rotation(w) == min(conjugacy_class(w)), w

    def test_power_to_length(self):
        for u in ORACLE_WORDS:
            k = len(u)
            for n in (0, 1, k - 1, k, k + 1, 2 * k + 3):
                assert power_to_length(u, n) == fractional_power(
                    u, RationalExponent.from_length(k, n)), (u, n)

    def test_errors(self):
        for f in (smallest_period, is_primitive, primitive_root, least_rotation):
            with pytest.raises(ValueError):
                f("")
        with pytest.raises(ValueError, match="empty base word"):
            power_to_length("", 3)
        with pytest.raises(ValueError, match="negative power length"):
            power_to_length("ab", -1)


class TestHasPeriod:
    def test_true_period(self):
        assert has_period("aabaab", 3)

    def test_false_period(self):
        assert not has_period("aabaab", 2)

    def test_almost_full_period(self):
        # only one position pair left to compare
        assert has_period("aaaaba", 5)

    def test_full_length_is_vacuous(self):
        assert has_period("abc", 3)

    @pytest.mark.parametrize("p", [0, 7])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            has_period("aabaab", p)


class TestFractionalPower:
    def test_two_and_a_half(self):
        assert fractional_power("ab", RationalExponent(2, 1)) == "ababa"

    def test_one_and_one_fifth(self):
        assert fractional_power("aaaab", RationalExponent(1, 1)) == "aaaaba"

    def test_exact_square(self):
        assert fractional_power("aab", RationalExponent(2, 0)) == "aabaab"

    def test_plain_int_exponent(self):
        assert fractional_power("ab", 3) == "ababab"

    def test_remainder_must_be_proper(self):
        with pytest.raises(ValueError):
            fractional_power("ab", RationalExponent(1, 2))

    def test_empty_base(self):
        with pytest.raises(ValueError):
            fractional_power("", 2)

    def test_period_and_length_contract(self):
        rng = random.Random(15)
        for _ in range(300):
            u = random_word(rng, "abc", 1, 8)
            alpha = RationalExponent(rng.randint(1, 4), rng.randint(0, len(u) - 1))
            p = fractional_power(u, alpha)
            assert len(p) == alpha.integer_part * len(u) + alpha.remainder_len
            assert has_period(p, len(u))

    def test_power_to_length(self):
        assert power_to_length("aab", 7) == "aabaaba"
        assert power_to_length("ab", 2) == "ab"


class TestRationalExponent:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RationalExponent(-1, 0)
        with pytest.raises(ValueError):
            RationalExponent(0, -2)

    def test_from_length(self):
        assert RationalExponent.from_length(3, 7) == RationalExponent(2, 1)
        assert RationalExponent.from_length(5, 5) == RationalExponent(1, 0)

    def test_from_length_validation(self):
        with pytest.raises(ValueError):
            RationalExponent.from_length(0, 3)
        with pytest.raises(ValueError):
            RationalExponent.from_length(3, -1)


class TestFactors:
    def test_length_two(self):
        assert factors("aababa", 2) == {"aa", "ab", "ba"}

    def test_whole_word(self):
        assert factors("aababa", 6) == {"aababa"}

    def test_beyond_length_is_empty(self):
        assert factors("aababa", 7) == set()

    def test_zero_gives_empty_word(self):
        assert factors("aababa", 0) == {""}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factors("ab", -1)


class TestComplexity:
    def test_letter_count(self):
        assert complexity("aababa", 1) == 2

    def test_length_three(self):
        assert complexity("aababa", 3) == 3

    def test_vanishes_past_length(self):
        assert complexity("aababa", 7) == 0

    def test_profile_matches_direct_counts(self):
        rng = random.Random(16)
        words = [w for k, top in ((2, 12), (3, 8)) for n in range(top + 1)
                 for w in canonical_words(k, n)]
        words += ["".join(chr(rng.randrange(300)) for _ in range(rng.randint(1, 60)))
                  for _ in range(200)]
        words += ["ñaña", "a\U0001F600ab\U0001F600a", "a" * 300, fibonacci(384),
                  thue_morse(384)]
        for w in words:
            prof = complexity_profile(w)
            assert len(prof) == len(w) + 2
            assert prof == tuple(complexity(w, n) for n in range(len(w) + 2)), w

    def test_cycle_counts_are_the_cyclomatic_numbers(self):
        # the cycles lemma of cycle_counts, against the Rauzy graphs
        # themselves; the keys run from 0 to LRF, the largest k with
        # C_w(k) < |w|-k+1 (fewer distinct length-k windows than windows),
        # tried for every k
        rng = random.Random(25)
        words = [w for k, top in ((2, 10), (3, 7)) for n in range(1, top + 1)
                 for w in canonical_words(k, n)]
        words += [random_word(rng, "abcd"[:rng.randint(1, 4)], 1, 40) for _ in range(200)]
        assert cycle_counts("") == {}
        for w in words:
            n, cycles = len(w), cycle_counts(w)
            for r in range(1, n + 1):
                assert cycles.get(r, 0) == cyclomatic_number(build_rauzy(w, r)), (w, r)
            assert cycles[0] == len(set(w)), w
            assert sum(cycles.values()) - cycles[0] == n - len(set(w)), w
            brute = max((k for k in range(1, n + 1) if complexity(w, k) < n - k + 1),
                        default=0)
            assert sorted(cycles) == list(range(brute + 1)), w

    def test_profile_of_empty_word(self):
        assert complexity_profile("") == (1, 0)

    def test_growth_bound_and_tail(self):
        rng = random.Random(17)
        for _ in range(100):
            w = random_word(rng, "abc", 1, 24)
            prof = complexity_profile(w)
            k = len(set(w))
            assert prof[len(w) + 1] == 0
            assert all(prof[n + 1] <= k * prof[n] for n in range(len(w) + 1))

    @pytest.mark.parametrize("n,top", [(6765, 2585), (121393, 46369)])
    def test_sturmian_closed_form(self, n, top):
        # Morse & Hedlund (1940): C(r) = r + 1 on a Sturmian word; the
        # Fibonacci prefix of length n keeps it up to r = top
        prof = complexity_profile(fibonacci(n))
        assert all(prof[r] == r + 1 for r in range(top + 1))

    @pytest.mark.parametrize("n,top", [(8000, 2031), (100000, 23249)])
    def test_arnoux_rauzy_closed_form(self, n, top):
        # Arnoux & Rauzy (1991): C(r) = 2r + 1 on the Tribonacci word; its
        # prefix of length n keeps it up to r = top
        prof = complexity_profile(tribonacci(n))
        assert all(prof[r] == 2 * r + 1 for r in range(top + 1))

    def test_thue_morse_closed_form(self):
        # Brlek (1989): for r = 2^k + p + 1 with 0 < p <= 2^k, C(r) is
        # 6*2^(k-1) + 4p if p <= 2^(k-1), else 8*2^(k-1) + 2p; the prefix of
        # length 2^17 keeps it up to r = 32,769
        def closed(r):
            if r < 3:
                return (1, 2, 4)[r]
            k = (r - 2).bit_length() - 1
            p = r - 1 - 2 ** k
            return 3 * 2 ** k + 4 * p if 2 * p <= 2 ** k else 4 * 2 ** k + 2 * p
        prof = complexity_profile(thue_morse(2 ** 17))
        assert all(prof[r] == closed(r) for r in range(32770))

    def test_fibonacci_cycles(self):
        # Rauzy (1982): C(r) = r + 1 on a Sturmian word, so its Rauzy graphs
        # have cyclomatic number 2; the prefix's graphs near LRF have 1 or 2
        w = fibonacci(121393)
        cycles = cycle_counts(w)
        assert sorted(cycles) == list(range(longest_repeated_factor(w) + 1))
        assert cycles[0] == 2
        assert set(cycles.values()) <= {1, 2}

    def test_thue_morse_cycles(self):
        # Brlek (1989): C(r+1) - C(r) is 2 or 4 for r >= 1, so every Rauzy
        # graph of Thue-Morse has cyclomatic number 3 or 5
        w = thue_morse(2 ** 17)
        cycles = cycle_counts(w)
        assert sorted(cycles) == list(range(longest_repeated_factor(w) + 1))
        assert {cycles[r] for r in cycles if r} <= {3, 5}

    def test_profile_memory(self):
        # the automaton's O(|w|) states take about 9 MiB here; an engine
        # holding whole suffix slices, n^2/2 characters, takes over 128 MiB
        rng = random.Random(1)
        w = "".join(rng.choice("ab") for _ in range(16384))
        tracemalloc.start()
        try:
            complexity_profile(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestCommonRoot:
    def test_nested_powers(self):
        assert common_root("ab", "abab") == "ab"

    def test_letter_runs(self):
        assert common_root("aa", "aaa") == "a"

    def test_non_commuting(self):
        assert common_root("ab", "ba") is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            common_root("", "a")

    def test_present_iff_commutation(self):
        rng = random.Random(18)
        for _ in range(500):
            x = random_word(rng, "ab", 1, 8)
            y = random_word(rng, "ab", 1, 8)
            got = common_root(x, y)
            if x + y == y + x:
                assert got is not None
                assert is_primitive(got)
                assert x == got * (len(x) // len(got))
                assert y == got * (len(y) // len(got))
            else:
                assert got is None


class TestExtremalRotation:
    def test_least_natural(self):
        assert extremal_rotation("bca") == "abc"

    def test_greatest_with_b_before_a(self):
        assert extremal_rotation("aaaab", B_BEFORE_A, "greatest") == "aaaab"

    def test_singleton_class(self):
        assert extremal_rotation("aa", B_BEFORE_A, "greatest") == "aa"

    def test_least_rotation_shortcut(self):
        assert least_rotation("baaba") == "aabab"

    def test_equals_extremes_of_class(self):
        # every word over {a,b} to length 12 and over {a,b,c} to length 8
        cab = SymbolOrder.from_string("cab")
        for letters, top, orders in (("ab", 12, (NATURAL, B_BEFORE_A, cab)),
                                     ("abc", 8, (NATURAL, cab))):
            for n in range(1, top + 1):
                for t in itertools.product(letters, repeat=n):
                    w = "".join(t)
                    rots = conjugacy_class(w)
                    for order in orders:
                        for direction, pick in (("least", min), ("greatest", max)):
                            assert (extremal_rotation(w, order, direction)
                                    == pick(rots, key=order.sort_key)), (w, order, direction)

    def test_empty_word(self):
        with pytest.raises(ValueError, match="empty word has no conjugacy class"):
            extremal_rotation("", NATURAL, "greatest")
        with pytest.raises(ValueError, match="empty word has no conjugacy class"):
            least_rotation("")

    def test_missing_symbol(self):
        with pytest.raises(ValueError):
            extremal_rotation("abc", B_BEFORE_A)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            extremal_rotation("ab", NATURAL, "middle")


class TestSymbolOrder:
    def test_natural_key_is_word(self):
        assert NATURAL.sort_key("abc") == "abc"

    def test_explicit_order_flips_comparisons(self):
        assert B_BEFORE_A.less("b", "a")
        assert not B_BEFORE_A.less("a", "b")
        assert sorted(["ab", "ba"], key=B_BEFORE_A.sort_key) == ["ba", "ab"]

    def test_repeated_symbols_rejected(self):
        with pytest.raises(ValueError):
            SymbolOrder.from_string("aba")

    def test_empty_order_rejected(self):
        with pytest.raises(ValueError):
            SymbolOrder.from_string("")

    def test_check_covers(self):
        B_BEFORE_A.check_covers("abba")
        with pytest.raises(ValueError):
            B_BEFORE_A.check_covers("abc")


class TestThreeWordsDecomposition:
    def test_recovers_constructed_solutions(self):
        # x = uv, y = (uv)^k u, z = vu always satisfies xy = yz
        rng = random.Random(19)
        for _ in range(300):
            u = random_word(rng, "ab", 0, 4)
            v = random_word(rng, "ab", 0, 4)
            if not u + v:
                continue
            k = rng.randint(0, 3)
            x, y, z = u + v, (u + v) * k + u, v + u
            if not y:
                continue
            assert x + y == y + z
            got = three_words_decomposition(x, y, z)
            assert got is not None
            gu, gv, gk = got
            assert gu + gv == x
            assert (gu + gv) * gk + gu == y
            assert gv + gu == z

    def test_no_solution(self):
        assert three_words_decomposition("ab", "ba", "ab") is None

    def test_plain_example(self):
        assert three_words_decomposition("ab", "ababa", "ba") == ("a", "b", 2)


class TestFineWilf:
    def test_two_periods_force_gcd(self):
        # words long enough for both periods also admit their gcd
        rng = random.Random(20)
        for _ in range(200):
            k = rng.randint(2, 9)
            l = rng.randint(2, 9)
            g = math.gcd(k, l)
            if k == l:
                continue
            n = k + l - g + rng.randint(0, 3)
            w = word_with_periods(n, k, l, rng)
            assert has_period(w, k) and has_period(w, l)
            assert has_period(w, g)


class TestAlphabet:
    def test_distinct_symbols(self):
        assert alphabet("aababa") == {"a", "b"}
        assert alphabet("") == frozenset()
