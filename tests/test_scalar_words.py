"""Exact scalars and canonical signed word forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbv import Scalar, canonicalize_cyclic, canonicalize_monomial, format_scalar, parse_scalar
from ncbv.algebras import sigma_a_space
from ncbv.space import hyperbolic_space
from ncbv.verify import random_space

SPACE = sigma_a_space()  # letters: x (even), xi (odd)
X, XI = 0, 1

# a four-letter space with two even and two odd letters
MIXED = hyperbolic_space(
    [(("x", 0), ("xi", -1), 1), (("y", 2), ("eta", 1), 1)]
)

big_ints = st.integers(min_value=-(10**30), max_value=10**30)
nonzero = st.integers(min_value=1, max_value=10**30)


@given(a=big_ints, b=nonzero, c=big_ints, d=nonzero)
@settings(deadline=None)
def test_scalar_addition_exact(a, b, c, d):
    left = Scalar(a, b) + Scalar(c, d)
    right = Scalar(a * d + c * b, b * d)
    assert left - right == 0
    assert left.denominator > 0


@given(a=big_ints, b=nonzero)
@settings(deadline=None)
def test_scalar_reduced_and_roundtrips(a, b):
    q = Scalar(a, b)
    from math import gcd

    assert gcd(q.numerator, q.denominator) == 1 or q.numerator == 0
    assert parse_scalar(format_scalar(q)) == q


def brute_canonical(letters, space):
    """Independent reference: enumerate rotations, fold the one-step
    Koszul sign, select the minimal sequence, detect sign-flip fixers."""
    word = tuple(letters)
    seen = {}
    rotations = []
    current, sign = word, 1
    for _ in range(len(word)):
        rotations.append((current, sign))
        if current in seen and seen[current] != sign:
            return None
        seen.setdefault(current, sign)
        head, rest = current[0], current[1:]
        rest_par = sum(space.degrees[l] for l in rest) % 2
        if space.degrees[head] % 2 and rest_par:
            sign = -sign
        current = rest + (head,)
    if current in seen and seen[current] != sign:
        return None
    best = min(rot for rot, _ in rotations)
    best_sign = next(s for rot, s in rotations if rot == best)
    return best, best_sign


def rotate_and_remember(letters, space):
    """Exact reference: the rotate-and-remember loop that remembers the
    sign of every rotation seen and calls the class zero when a rotation
    comes back with the other sign."""
    word = tuple(letters)
    parities = [space.degrees[letter] % 2 for letter in word]
    total = sum(parities) % 2
    best_word, best_sign = word, 1
    rotated, sign = word, 1
    seen_sign = {word: 1}
    for _ in range(len(word) - 1):
        first_parity = space.degrees[rotated[0]] % 2
        if first_parity and (total - first_parity) % 2:
            sign = -sign
        rotated = rotated[1:] + rotated[:1]
        if rotated in seen_sign:
            if seen_sign[rotated] != sign:
                return None
        else:
            seen_sign[rotated] = sign
        if rotated < best_word:
            best_word, best_sign = rotated, sign
    return best_word, best_sign


def test_smallest_period_matches_rotate_and_remember():
    """Random words and periodic words u^m over random spaces, odd
    periods (zero classes) included."""
    rng = random.Random(41)
    zeros = periodic_zeros = 0
    for _ in range(300):
        space = random_space(rng)
        for _ in range(5):
            word = [rng.randrange(space.dim) for _ in range(rng.randint(1, 8))]
            expected = rotate_and_remember(word, space)
            assert canonicalize_cyclic(word, space) == expected
            zeros += expected is None
            unit = word[: rng.randint(1, 3)]
            for m in range(1, 5):
                expected = rotate_and_remember(unit * m, space)
                assert canonicalize_cyclic(unit * m, space) == expected
                periodic_zeros += expected is None
    assert zeros and periodic_zeros


def test_single_letter_is_its_own_representative():
    assert canonicalize_cyclic([X], SPACE) == ((X,), 1)


def test_odd_letter_squared_is_zero():
    assert canonicalize_cyclic([XI, XI], SPACE) is None


def test_rotation_to_minimal_with_sign():
    # [xi, x, x]: all three rotations have sign +1, minimum is (x, x, xi)
    assert brute_canonical((XI, X, X), SPACE) == ((X, X, XI), 1)
    assert canonicalize_cyclic([XI, X, X], SPACE) == ((X, X, XI), 1)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=5))
@settings(deadline=None)
def test_rotation_soundness(letters, shift):
    """Canonicalizing any rotation agrees up to the rotation sign."""
    base = canonicalize_cyclic(letters, MIXED)
    assert base == brute_canonical(tuple(letters), MIXED)
    shift %= len(letters)
    rotated = letters[shift:] + letters[:shift]
    other = canonicalize_cyclic(rotated, MIXED)
    if base is None:
        assert other is None
        return
    assert other is not None
    assert other[0] == base[0]
    # accumulate the one-step signs along the shift
    sign = 1
    current = tuple(letters)
    for _ in range(shift):
        head, rest = current[0], current[1:]
        rest_par = sum(MIXED.degrees[l] for l in rest) % 2
        if MIXED.degrees[head] % 2 and rest_par:
            sign = -sign
        current = rest + (head,)
    assert other[1] == base[1] * sign


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
@settings(deadline=None)
def test_canonicalization_idempotent(letters):
    once = canonicalize_cyclic(letters, MIXED)
    if once is not None:
        assert canonicalize_cyclic(once[0], MIXED) == (once[0], 1)


def test_invalid_letter_rejected():
    with pytest.raises(ValueError):
        canonicalize_cyclic([0, 9], SPACE)
    with pytest.raises(ValueError):
        canonicalize_cyclic([], SPACE)


def test_monomial_odd_word_squared_is_zero():
    assert canonicalize_monomial(SPACE, 0, 0, [(XI,), (XI,)]) is None


def test_monomial_even_words_commute():
    forward = canonicalize_monomial(SPACE, 0, 0, [(X,), (X,)])
    assert forward == (type(forward[0])(0, 0, ((X,), (X,))), 1)


def test_nu_is_central():
    a = canonicalize_monomial(SPACE, 0, 2, [(X, X)])
    b = canonicalize_monomial(SPACE, 0, 0, [(X, X), (), ()])
    assert a == b


def test_odd_swap_sign():
    # sorting (eta)(xi) -> (xi)(eta) across two odd words flips the sign
    eta = MIXED.index("eta")
    xi = MIXED.index("xi")
    monomial, sign = canonicalize_monomial(MIXED, 0, 0, [(eta,), (xi,)])
    assert monomial.words == ((xi,), (eta,))
    assert sign == -1
