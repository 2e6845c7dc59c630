"""The per-space memo of canonical cyclic words and the per-context memo
of splices: equal to the uncached computations, never holding a
word whose letters failed their check, never shared between spaces, and
safe to fill from several threads at once."""

import random
import sys
import threading

import pytest

from ncbv import operators
from ncbv.algebras import sigma_a_space
from ncbv.element import CYCLIC, Element
from ncbv.operators import OperatorContext, bracket_words
from ncbv.reduction import XI, X
from ncbv.space import GradedSymplecticSpace, hyperbolic_space
from ncbv.verify import _random_cases, random_cyclic_element
from ncbv.words import (canonicalize_cyclic, prefix_parities, rotation_sign, word_parity,
                        word_period)


def reference_canonical(letters, space):
    """The uncached canonicalization: ``(word, sign)`` or ``None``."""
    word = tuple(letters)
    if not word:
        raise ValueError("cyclic words are nonempty; the empty word is the nu variable")
    prefix = prefix_parities(space, word)
    best_word, best_i = word, 0
    for i in range(1, len(word)):
        rotated = word[i:] + word[:i]
        if rotated == word:
            if rotation_sign(prefix, i) < 0:
                return None
            break
        if rotated < best_word:
            best_word, best_i = rotated, i
    return best_word, rotation_sign(prefix, best_i)


def reference_parity(space, word):
    return sum(space.parities[letter] for letter in word) % 2


def reference_period(word):
    """The smallest p with word[p:] + word[:p] == word."""
    return next(p for p in range(1, len(word) + 1) if word[p:] + word[:p] == word)


def random_words(rng, space, count=12):
    """Random words and periodic words u^m, so zero classes occur."""
    for _ in range(count):
        word = [rng.randrange(space.dim) for _ in range(rng.randint(1, 7))]
        yield word
        yield word[: rng.randint(1, 3)] * rng.randint(2, 4)


def test_memoized_classes_equal_the_uncached_reference():
    zeros = hits = 0
    for _, rng, space, _ in _random_cases(120, 211):
        for word in random_words(rng, space):
            expected = reference_canonical(word, space)
            raw = tuple(word)
            hits += raw in space._words
            for _ in range(2):  # the first call may fill the memo, the second reads it
                assert canonicalize_cyclic(word, space) == expected
            parity = reference_parity(space, raw)
            period = None if expected is None else reference_period(raw)
            if expected is None:
                zeros += 1
                assert space._words[raw] is None
            else:
                canon, sign = expected
                assert space._words[raw] == ((canon, sign), parity, period)
                assert space._words[canon] == ((canon, 1), parity, period)
            assert word_parity(space, raw) == parity
            assert word_period(space, raw) == period
    assert zeros and hits


def test_an_out_of_range_letter_raises_on_every_call():
    rng = random.Random(5)
    for _, _, space, ctx in _random_cases(20, 223):
        for word in random_words(rng, space):
            canonicalize_cyclic(word, space)
        stored = len(space._words)
        for letter in (-1, space.dim, space.dim + 5):
            for bad in ([0, letter], [letter], [letter, 0, 0]):
                for _ in range(2):
                    with pytest.raises(ValueError, match="out of range"):
                        canonicalize_cyclic(bad, space)
                    with pytest.raises(ValueError, match="out of range"):
                        ctx._splice_words((0,), tuple(bad))
                assert tuple(bad) not in space._words
                assert ((0,), tuple(bad)) not in ctx._splices
        assert len(space._words) == stored


def test_letters_equal_to_ints_are_not_stored():
    space = sigma_a_space()
    space._words.clear()
    assert canonicalize_cyclic([True, 0], space) == reference_canonical([True, 0], space)
    assert space._words == {}
    canon = canonicalize_cyclic([1, 0], space)
    assert canon == ((0, 1), 1) and all(type(letter) is int for letter in canon[0])
    with pytest.raises(TypeError):
        canonicalize_cyclic([0.5, 0], space)


def test_spaces_with_other_degrees_keep_their_own_entries():
    even = hyperbolic_space([(("u", 0), ("v", 1), 1)])
    odd = hyperbolic_space([(("u", 1), ("v", 0), 1)])
    assert even.letters == odd.letters and even != odd
    for first, second in ((even, odd), (odd, even)):
        first._words.clear()
        second._words.clear()
        assert canonicalize_cyclic([0, 0], first) == reference_canonical([0, 0], first)
        assert canonicalize_cyclic([0, 0], second) == reference_canonical([0, 0], second)
    assert canonicalize_cyclic([0, 0], even) == ((0, 0), 1)
    assert canonicalize_cyclic([0, 0], odd) is None  # u odd: (u u) is a zero class
    assert canonicalize_cyclic([1, 0], even) == ((0, 1), 1)
    assert canonicalize_cyclic([1, 0], odd) == ((0, 1), 1)
    assert word_parity(even, (0, 1)) == word_parity(odd, (0, 1)) == 1
    assert even._words is not odd._words
    assert even._words[(0, 0)] == (((0, 0), 1), 0, 1) and odd._words[(0, 0)] is None


def test_memoized_splices_are_bracket_words_terms_and_distinct(monkeypatch):
    """The memo holds bracket_words' terms as they come, in order, one
    spliced word each, and no two of them share a splice, so the raw map
    of ``_pairs`` is the one place they are summed."""
    calls = []
    uncounted = operators.bracket_words

    def counted(space, u, v):
        calls.append((u, v))
        return uncounted(space, u, v)

    monkeypatch.setattr(operators, "bracket_words", counted)
    pairs = 0
    for _, rng, space, ctx in _random_cases(60, 227):
        words = [canonicalize_cyclic(word, space) for word in random_words(rng, space, 4)]
        words = [canon[0] for canon in words if canon is not None]
        for u in words:
            for v in words:
                terms = uncounted(space, u, v)
                memoized = ctx._splice_words(u, v)
                assert all(len(merged) == 1 and c for c, merged in memoized)
                assert [(c, merged[0]) for c, merged in memoized] == terms
                assert len({merged for _, merged in memoized}) == len(memoized)
                before = len(calls)
                assert ctx._splice_words(u, v) is memoized
                assert len(calls) == before
                pairs += 1
    assert pairs


@pytest.mark.parametrize("l, m", [(2, 1), (5, 3), (20, 20)])
def test_equal_splices_are_one_entry(l, m):
    """The m splices of {x^{l-1} xi, x^m} are the one word x^{l+m-2},
    spliced once: x^m has period 1."""
    ctx = OperatorContext(sigma_a_space())
    pivot, power = (X,) * (l - 1) + (XI,), (X,) * m
    assert bracket_words(ctx.space, pivot, power) == [(m, (X,) * (l + m - 2))]
    assert ctx._splice_words(pivot, power) == [(m, ((X,) * (l + m - 2),))]


def _operator_results(space, ctx, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(12):
        a = random_cyclic_element(rng, space, max_terms=3, max_words=3, max_len=4)
        b = random_cyclic_element(rng, space, max_terms=3, max_words=3, max_len=4)
        out.append(ctx.nc_bracket(a, b))
        out.append(ctx.nc_cobracket(a))
        out.append(ctx.delta_K(b))
    return out


def test_threads_sharing_one_space_and_context_match_a_serial_run():
    """Four threads fill one fresh space's and context's memos at once,
    with a short switch interval, and get the serial run's results."""
    for _, rng, space, _ in _random_cases(6, 229):
        seeds = [rng.randrange(1 << 30) for _ in range(4)]
        serial_space = GradedSymplecticSpace(space.letters, space.degrees, space.pairing)
        assert serial_space == space and serial_space._words is not space._words
        serial_ctx = OperatorContext(serial_space)
        expected = [_operator_results(serial_space, serial_ctx, seed) for seed in seeds]
        shared_ctx = OperatorContext(space)
        results = [None] * len(seeds)

        def run(k):
            results[k] = _operator_results(space, shared_ctx, seeds[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(seeds))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert all(isinstance(e, Element) and e.flavor == CYCLIC for r in results for e in r)
