"""Canonical signed normal forms for cyclic words and their products.

A cyclic word is stored as the lexicographically minimal rotation of its
letter-index sequence (ties broken by the earliest rotation).  Rotating
one letter past the rest costs the Koszul sign (-1)^{|first|.|rest|};
``rotation_signs`` accumulates these signs and is the one place the
rotation sign is computed (the operators reuse it).  Every rotation that
fixes a word is a power of the rotation by its smallest period p, so the
class is zero exactly when rotating by p carries sign -1; such classes
are reported as zero here rather than ever being stored.

A monomial is a product gamma^i nu^j w_1 ... w_n of canonical cyclic
words; the word list is kept sorted (plain tuple order), accumulating
the Koszul sign (-1)^{|u||v|} per transposition, and a repeated word of
odd parity makes the monomial zero.  The formal variables nu (the empty
cyclic word) and gamma (the genus weight) are even and central.
"""

from typing import NamedTuple, Optional

Word = tuple[int, ...]


class Monomial(NamedTuple):
    gamma: int
    nu: int
    words: tuple[Word, ...]


UNIT = Monomial(0, 0, ())


def word_parity(space, word: Word) -> int:
    return sum(map(space.parities.__getitem__, word)) % 2


def rotation_signs(space, word) -> list[int]:
    """sign[i] = Koszul sign rotating word so position i comes first."""
    parities = space.parities
    total = word_parity(space, word)
    signs = [1] * len(word)
    sign = 1
    for i in range(1, len(word)):
        p = parities[word[i - 1]]
        if p and (total - p) % 2:
            sign = -sign
        signs[i] = sign
    return signs


def canonicalize_cyclic(letters, space) -> Optional[tuple[Word, int]]:
    """Canonical rotation representative of a raw letter sequence.

    Returns ``(word, sign)`` or ``None`` when the rotation class is zero
    (the rotation by the smallest period fixes the sequence with Koszul
    sign -1).
    """
    word = tuple(letters)
    if not word:
        raise ValueError("cyclic words are nonempty; the empty word is the nu variable")
    space.check_letters(word)
    signs = rotation_signs(space, word)
    best_word, best_sign = word, 1
    for i in range(1, len(word)):
        rotated = word[i:] + word[:i]
        if rotated == word:
            # i is the smallest period; later rotations repeat the first i
            if signs[i] < 0:
                return None
            break
        if rotated < best_word:
            best_word, best_sign = rotated, signs[i]
    return best_word, best_sign


def sort_words(space, words) -> Optional[tuple[tuple[Word, ...], int]]:
    """Sort canonical words into monomial order, tracking Koszul swaps.

    Returns ``(sorted_words, sign)`` or ``None`` when a word of odd
    parity repeats (odd square), which kills the monomial.
    """
    items = list(words)
    sign = 1
    # insertion sort; adjacent transposition of words u,v costs (-1)^{|u||v|}
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            if word_parity(space, items[j]) and word_parity(space, items[j - 1]):
                sign = -sign
            items[j], items[j - 1] = items[j - 1], items[j]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b and word_parity(space, a):
            return None
    return tuple(items), sign


def canonicalize_monomial(space, gamma: int, nu: int, raw_words) -> Optional[tuple[Monomial, int]]:
    """Canonicalize every word and the word multiset; ``None`` when zero.

    Empty entries in ``raw_words`` are absorbed into the nu power.
    """
    if gamma < 0 or nu < 0:
        raise ValueError("gamma and nu powers must be nonnegative")
    sign = 1
    words = []
    for raw in raw_words:
        raw = tuple(raw)
        if not raw:
            nu += 1
            continue
        canon = canonicalize_cyclic(raw, space)
        if canon is None:
            return None
        word, rot_sign = canon
        sign *= rot_sign
        words.append(word)
    sorted_words = sort_words(space, words)
    if sorted_words is None:
        return None
    words, sort_sign = sorted_words
    return Monomial(gamma, nu, words), sign * sort_sign
