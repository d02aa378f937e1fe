"""Unit tests for small-circuit enumeration and arrangement."""
import random
from itertools import combinations, product
from math import gcd

import pytest

import sqcirc.circuits as circuits_module
from sqcirc.circuits import (
    SmallCircuit,
    _powers,
    all_small_circuits,
    cao_less,
    circuit_counts_by_order,
    circuit_order_ranges,
    direct_order_ranges,
    independence_rank,
    maximal_edge,
    realize,
    small_circuits,
    vector_cycle,
)
from sqcirc.rauzy import build_rauzy, cyclomatic_number
from sqcirc.squares import match_runs, period_runs
from sqcirc.verifier import canonical_words
from sqcirc.words import (
    NATURAL,
    SymbolOrder,
    complexity,
    complexity_profile,
    conjugacy_class,
    cycle_counts,
    extremal_rotation,
    factors,
    has_period,
    is_primitive,
    least_rotation,
    longest_repeated_factor,
    power_to_length,
)

from oracles import (
    _edge_rank,
    elementary_cycles_oracle,
    fibonacci,
    random_word,
    replace_everywhere,
    thue_morse,
)

B_BEFORE_A = SymbolOrder.from_string("ba")
# B_BEFORE_A extended to ternary words: every letter comparison reversed
REVERSED = SymbolOrder.from_string("cba")
# carries three nested circuits over aab, aaab, aaaab at order five
NEST_WORD = "abaaabaabaaaaba"


def small_canonical_words():
    # every canonical binary word to length 12 and ternary word to length 8
    for size, top in ((2, 12), (3, 8)):
        for n in range(1, top + 1):
            yield from canonical_words(size, n)


class TestSmallCircuitType:
    def test_root_normalizes_to_least_rotation(self):
        assert SmallCircuit("babb", 4) == SmallCircuit("abbb", 4)
        assert SmallCircuit("baaba", 5).root == "aabab"
        assert str(SmallCircuit("ba", 3)) == "C(ab,3)"

    def test_root_must_be_primitive(self):
        with pytest.raises(ValueError):
            SmallCircuit("abab", 4)

    def test_root_must_fit_order(self):
        with pytest.raises(ValueError):
            SmallCircuit("abc", 2)

    def test_empty_root(self):
        with pytest.raises(ValueError):
            SmallCircuit("", 1)


class TestSmallCircuits:
    def test_order_one_excludes_bigger_cycle(self):
        # the two-letter cycle through ab/ba is a circuit of size 2 > 1
        assert small_circuits("aababa", 1) == {SmallCircuit("a", 1)}

    def test_nest_word_order_five(self):
        got = small_circuits(NEST_WORD, 5)
        assert got == {SmallCircuit("aaaab", 5), SmallCircuit("aaab", 5),
                       SmallCircuit("aab", 5)}

    def test_order_three(self):
        got = small_circuits("aababa", 3)
        assert got == {SmallCircuit("ab", 3)}
        real = realize(next(iter(got)))
        assert real.vertices == {"aba", "bab"}
        assert real.edges == {"abab", "baba"}

    def test_top_order_is_empty(self):
        assert small_circuits("aababa", 6) == frozenset()

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            small_circuits("ab", 3)


class TestAllSmallCircuits:
    def test_small_example(self):
        assert all_small_circuits("aababa") == {
            SmallCircuit("a", 1), SmallCircuit("ab", 2), SmallCircuit("ab", 3)}

    def test_single_letter_word_has_none(self):
        assert all_small_circuits("a") == frozenset()

    def test_agrees_with_per_order_enumeration(self):
        rng = random.Random(41)
        for _ in range(150):
            w = random_word(rng, "abc", 1, 20)
            brute = frozenset(c for r in range(1, len(w) + 1)
                              for c in small_circuits_brute(w, r))
            assert all_small_circuits(w) == brute

    def test_order_ranges_are_contiguous_floors(self):
        rng = random.Random(42)
        for _ in range(150):
            w = random_word(rng, "ab", 1, 20)
            for root, (lo, hi) in circuit_order_ranges(w).items():
                assert lo == len(root) <= hi
                assert SmallCircuit(root, lo) in small_circuits_brute(w, lo)
                assert SmallCircuit(root, hi) in small_circuits_brute(w, hi)
                if hi < len(w):
                    assert SmallCircuit(root, hi + 1) not in small_circuits_brute(w, hi + 1)

    def test_counts_by_order(self):
        assert circuit_counts_by_order("aababa") == {1: 1, 2: 1, 3: 1}


def ranges_all_lags(w):
    """circuit_order_ranges without the LRF cut: every lag 1..|w|-1."""
    coverage = {}
    for lag in range(1, len(w)):
        for s, run_len in match_runs(w, lag):
            base = w[s:s + lag]
            if not is_primitive(base):
                continue
            canon = least_rotation(base)
            off = (canon + canon).find(base)
            arr = coverage.setdefault(canon, [0] * lag)
            for phi in range(min(lag, run_len)):
                g = (off + phi) % lag
                arr[g] = max(arr[g], run_len + lag - phi)
    return {canon: (len(canon), min(arr) - 1)
            for canon, arr in coverage.items() if min(arr) - 1 >= len(canon)}


def brute_lrf(w):
    """Largest k such that some length-k window of w occurs twice."""
    return max((k for k in range(1, len(w))
                if len({w[i:i + k] for i in range(len(w) - k + 1)}) < len(w) - k + 1),
               default=0)


def lag_cut_words():
    # the small canonical words, then seeded random words over 1-4 letters
    # up to length 80
    yield from small_canonical_words()
    rng = random.Random(50)
    for _ in range(300):
        yield random_word(rng, "abcd"[:rng.randint(1, 4)], 1, 80)


class TestLagCut:
    def test_cut_ranges_equal_uncut_oracle(self):
        for w in lag_cut_words():
            assert circuit_order_ranges(w) == ranges_all_lags(w), w

    # abaXbab: C(ab, 2) joins aba and bab, each from a run of length 1 < 2
    @pytest.mark.parametrize("w", [fibonacci(384), thue_morse(384), "a" * 300,
                                   "ab" * 150, "abaXbab"],
                             ids=["fib384", "tm384", "a300", "ab150", "abaXbab"])
    def test_long_and_pieced_words_equal_uncut_oracle(self, w):
        assert circuit_order_ranges(w) == ranges_all_lags(w)

    def test_no_primitivity_test(self, monkeypatch):
        # the early-stop lemma: a run's loop stops at its first window that
        # gains nothing, and a power's orbit closes in fewer than lag steps
        w = fibonacci(300)
        runs = period_runs(w)
        calls = []

        def counted(u, _original=is_primitive):
            calls.append(u)
            return _original(u)
        replace_everywhere(monkeypatch, is_primitive, counted)
        ranges = circuit_order_ranges(w, runs)
        assert calls == []
        assert ranges == ranges_all_lags(w)

    def test_no_repeated_factor_no_circuits(self):
        for w in ("a", "abc"):
            assert longest_repeated_factor(w) == 0
            assert circuit_order_ranges(w) == {} == ranges_all_lags(w)

    def test_longest_repeated_factor_brute(self):
        assert longest_repeated_factor("") == 0 == brute_lrf("")
        for w in lag_cut_words():
            assert longest_repeated_factor(w) == brute_lrf(w), w


def small_circuits_brute(w, r):
    """Every primitive q read off any period p <= r of any edge, kept when
    every rotation extends to an edge, and named by its least rotation."""
    edges = factors(w, r + 1)
    return {SmallCircuit(least_rotation(e[:p]), r)
            for e in edges for p in range(1, r + 1)
            if has_period(e, p) and is_primitive(e[:p])
            and all(power_to_length(t, r + 1) in edges for t in conjugacy_class(e[:p]))}


class TestDirectEnumerator:
    def test_equals_brute_enumerator(self):
        for w in small_canonical_words():
            every = all_small_circuits(w)
            for r in range(1, len(w) + 1):
                got = {c for c in every if c.order == r}
                assert got == small_circuits_brute(w, r), (w, r)
            # roots come back canonical without SmallCircuit's normalization
            assert all(c.root == least_rotation(c.root) for c in every), w

    def test_engines_call_no_least_rotation(self, monkeypatch):
        calls = []

        def counted(w, _original=least_rotation):
            calls.append(w)
            return _original(w)
        replace_everywhere(monkeypatch, least_rotation, counted)
        w = fibonacci(300)
        assert circuit_order_ranges(w)
        assert calls == []


def factor_test_words():
    # the small canonical words, 200 seeded random words over 1-4 letters,
    # Fibonacci and Thue-Morse 384, unary words and the paper's words
    yield from small_canonical_words()
    rng = random.Random(51)
    for _ in range(200):
        yield random_word(rng, "abcd"[:rng.randint(1, 4)], 1, 80)
    yield from (fibonacci(384), thue_morse(384))
    yield from ("a" * n for n in range(1, 65))
    yield from ("aababa", NEST_WORD, "baababaababbbabbabbbab")


class TestFactorTestEngine:
    def test_equals_batched_engine(self):
        for w in factor_test_words():
            assert direct_order_ranges(w, cycle_counts(w)) == \
                circuit_order_ranges(w), w

    def test_roots_longer_than_the_complexity_are_skipped(self, monkeypatch):
        # C_w(p) < p leaves no room for p distinct rotations, so on a unary
        # word only p = 1 reads its ends off the word; on every word, exactly
        # the root lengths p <= min(LRF, |w|/2) with C_w(p) >= p do. A scan
        # of lag p calls range(n - p), the engine's only range call with one
        # argument, even when it finds no ends
        calls = []

        def counted(*args):
            if len(args) == 1:
                calls.append(args)
            return range(*args)
        monkeypatch.setattr(circuits_module, "range", counted, raising=False)
        w = "a" * 512
        assert direct_order_ranges(w, cycle_counts(w)) == {"a": (1, 511)}
        assert calls == [(511,)]
        for w in ("ababc", "aababa", "abcabcabc", fibonacci(200), thue_morse(128),
                  *(random_word(random.Random(seed), "abcd", 20, 40) for seed in range(20))):
            calls.clear()
            ranges = direct_order_ranges(w, cycle_counts(w))
            top = min(longest_repeated_factor(w), len(w) // 2)
            assert calls == [(len(w) - p,) for p in range(1, top + 1)
                             if complexity(w, p) >= p], w
            assert ranges == circuit_order_ranges(w), w

    @pytest.mark.parametrize("w,most", [(fibonacci(2048), 4000), ("a" * 65536, 64)],
                             ids=["fib2048", "unary65536"])
    def test_factor_tests_per_word(self, w, most):
        # the min-extension lemma: rotation 0 gallops, and each other rotation
        # costs one test that passes plus one per unit the minimum drops. A
        # bisection testing every window per probe took 16,351 tests on
        # Fibonacci 2,048; a linear walk up rotation 0 would take 65,535 on
        # unary 65,536
        class Counted(str):
            tests = 0

            def __contains__(self, x):
                Counted.tests += 1
                return super().__contains__(x)
        ranges = direct_order_ranges(Counted(w), cycle_counts(w))
        assert Counted.tests <= most
        assert ranges == ({"a": (1, 65535)} if len(set(w)) == 1 else circuit_order_ranges(w))

    def test_distinct_maximal_edges_mean_full_rank(self):
        # the maximal-edge and triangle lemmas, at every order of every word
        checked = 0
        for w in factor_test_words():
            per_order = {}
            for root, (lo, hi) in circuit_order_ranges(w).items():
                for r in range(lo, hi + 1):
                    per_order.setdefault(r, []).append(_powers(root, r + 1))
            for edges in per_order.values():
                checked += 1
                assert len({max(e) for e in edges}) == len(edges), w
                assert _edge_rank(edges) == len(edges), w
        assert checked


class TestRealize:
    def test_two_letter_circuit(self):
        real = realize(SmallCircuit("ab", 2))
        assert real.vertices == {"ab", "ba"}
        assert real.edges == {"aba", "bab"}

    def test_loop_circuit(self):
        real = realize(SmallCircuit("a", 1))
        assert real.vertices == {"a"}
        assert real.edges == {"aa"}

    def test_nest_word_circuit_edges(self):
        real = realize(SmallCircuit("aab", 5))
        assert real.edges == {"aabaab", "abaaba", "baabaa"}

    def test_powers_match_definition(self):
        # the powers of every rotation of root to the given length
        for w in small_canonical_words():
            if len(w) <= 7:
                for length in range(1, 2 * len(w) + 3):
                    assert _powers(w, length) == frozenset(
                        power_to_length(t, length) for t in conjugacy_class(w)), (w, length)

    def test_cardinality_equals_root_length(self):
        rng = random.Random(43)
        for _ in range(150):
            w = random_word(rng, "abc", 1, 20)
            for c in all_small_circuits(w):
                real = realize(c)
                assert len(real.vertices) == len(real.edges) == len(c.root)


class TestMaximalEdge:
    def test_nest_word_maximal_edges(self):
        assert maximal_edge(SmallCircuit("aaaab", 5), B_BEFORE_A) == "aaaaba"
        assert maximal_edge(SmallCircuit("aaab", 5), B_BEFORE_A) == "aaabaa"
        assert maximal_edge(SmallCircuit("aab", 5), B_BEFORE_A) == "aabaab"

    def test_singleton_edge_set(self):
        assert maximal_edge(SmallCircuit("a", 1)) == "aa"
        assert maximal_edge(SmallCircuit("a", 1), B_BEFORE_A) == "aa"

    def test_natural_order_differs(self):
        assert maximal_edge(SmallCircuit("aab", 5)) == "baabaa"

    def test_is_the_unique_argmax(self):
        rng = random.Random(44)
        for order in (None, B_BEFORE_A):
            for _ in range(100):
                w = random_word(rng, "ab", 1, 20)
                for c in all_small_circuits(w):
                    edges = realize(c).edges
                    if order is None:
                        top = maximal_edge(c)
                        assert top in edges
                        assert all(e <= top for e in edges)
                    else:
                        top = maximal_edge(c, order)
                        assert top in edges
                        key = order.sort_key
                        assert all(key(e) <= key(top) for e in edges)

    def test_distinct_across_circuits_of_one_graph(self):
        for order in (NATURAL, REVERSED):
            rng = random.Random(45)
            for _ in range(150):
                w = random_word(rng, "abc", 1, 20)
                for r in range(1, len(w) + 1):
                    tops = [maximal_edge(c, order) for c in small_circuits(w, r)]
                    assert len(tops) == len(set(tops))

    def test_shared_windows_obey_the_fine_wilf_bound(self):
        # roots q, q' of lengths p, p' share a window of length r+1 of their
        # powers only if p != p' and r + 2 <= p + p' - gcd(p, p'), and it is
        # tight; yet the windows at their greatest rotations never coincide
        # (the maximal-edge lemma), under either order
        roots = [q for n in range(1, 7) for q in map("".join, product("abc", repeat=n))
                 if is_primitive(q) and least_rotation(q) == q]
        assert len(roots) == 196
        tops = [{q: extremal_rotation(q, order, "greatest") for q in roots}
                for order in (NATURAL, REVERSED)]
        shared = tight = 0
        for q, q2 in combinations(roots, 2):
            p, p2 = len(q), len(q2)
            for r in range(max(p, p2), p + p2 + 1):
                windows = [{(x * (r + 2))[i:i + r + 1] for i in range(len(x))}
                           for x in (q, q2)]
                if windows[0] & windows[1]:
                    shared += 1
                    assert p != p2 and r + 2 <= p + p2 - gcd(p, p2), (q, q2, r)
                    tight += r + 2 == p + p2 - gcd(p, p2)
                for top in tops:
                    assert (power_to_length(top[q], r + 1)
                            != power_to_length(top[q2], r + 1)), (q, q2, r)
        assert (shared, tight) == (132, 42)


class TestCao:
    def test_nest_word_arrangement(self):
        assert cao_less(SmallCircuit("aab", 5), SmallCircuit("aaab", 5), B_BEFORE_A)
        assert not cao_less(SmallCircuit("aaab", 5), SmallCircuit("aab", 5), B_BEFORE_A)

    def test_irreflexive(self):
        c = SmallCircuit("ab", 3)
        assert not cao_less(c, c)

    def test_trichotomy_within_graph(self):
        circs = sorted(small_circuits(NEST_WORD, 5))
        for a in circs:
            for b in circs:
                if a == b:
                    continue
                assert cao_less(a, b, B_BEFORE_A) != cao_less(b, a, B_BEFORE_A)

    def test_rejects_different_graphs(self):
        with pytest.raises(ValueError):
            cao_less(SmallCircuit("ab", 2), SmallCircuit("ab", 3))


class TestVectorCycle:
    def test_two_letter_circuit_vector(self):
        g = build_rauzy("aababa", 2)
        vc = vector_cycle(SmallCircuit("ab", 2), g)
        assert vc.as_dict() == {"aab": 0, "aba": 1, "bab": 1}

    def test_loop_vector(self):
        g = build_rauzy("aababa", 1)
        vc = vector_cycle(SmallCircuit("a", 1), g)
        assert vc.as_dict() == {"aa": 1, "ab": 0, "ba": 0}

    def test_support_size_is_root_length(self):
        rng = random.Random(46)
        for _ in range(100):
            w = random_word(rng, "ab", 1, 20)
            for r in range(1, len(w) + 1):
                g = build_rauzy(w, r)
                for c in small_circuits(w, r):
                    vc = vector_cycle(c, g)
                    assert sum(vc.as_dict().values()) == len(c.root)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            vector_cycle(SmallCircuit("ab", 3), build_rauzy("aababa", 2))

    def test_foreign_graph(self):
        with pytest.raises(ValueError):
            vector_cycle(SmallCircuit("ab", 2), build_rauzy("aacaca", 2))


class TestIndependenceRank:
    def test_nest_word_rank(self):
        assert independence_rank(NEST_WORD, 5) == 3

    def test_single_circuit(self):
        assert independence_rank("aababa", 2) == 1

    def test_no_circuits(self):
        assert independence_rank("abcabc", 1) == 0

    def test_equals_circuit_count(self):
        # the exact rank of the circuits' edge sets, by the oracle
        rng = random.Random(47)
        for _ in range(150):
            w = random_word(rng, "abc", 1, 20)
            for r in range(1, len(w) + 1):
                edges = [realize(c).edges for c in small_circuits(w, r)]
                assert independence_rank(w, r) == _edge_rank(edges) == len(edges), (w, r)


class TestCyclesOracle:
    def test_size_one_only_sees_loop(self):
        g = build_rauzy("aababa", 1)
        assert elementary_cycles_oracle(g, 1) == {frozenset({"aa"})}

    def test_size_two_adds_nonsmall_cycle(self):
        g = build_rauzy("aababa", 1)
        assert elementary_cycles_oracle(g, 2) == {
            frozenset({"aa"}), frozenset({"ab", "ba"})}

    def test_order_two_graph(self):
        g = build_rauzy("aababa", 2)
        assert elementary_cycles_oracle(g, 2) == {frozenset({"aba", "bab"})}

    def test_cycle_count_guard(self):
        g = build_rauzy("aababa", 1)
        with pytest.raises(RuntimeError):
            elementary_cycles_oracle(g, 2, max_cycles=1)

    def test_matches_periodicity_enumeration(self):
        rng = random.Random(48)
        for _ in range(80):
            w = random_word(rng, "abc", 1, 10)
            for r in range(1, len(w) + 1):
                g = build_rauzy(w, r)
                mine = {realize(c).edges for c in small_circuits(w, r)}
                assert mine == set(elementary_cycles_oracle(g, r))


class TestCountingBounds:
    def test_per_order_and_total(self):
        rng = random.Random(49)
        for _ in range(200):
            w = random_word(rng, "abc", 1, 18)
            prof = complexity_profile(w)
            counts = circuit_counts_by_order(w)
            for r in range(1, len(w) + 1):
                sc_r = counts.get(r, 0)
                assert sc_r <= prof[r + 1] - prof[r] + 1
                assert sc_r <= cyclomatic_number(build_rauzy(w, r))
            assert sum(counts.values()) <= len(w) - len(set(w))
