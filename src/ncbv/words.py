"""Canonical signed normal forms for cyclic words and their products.

A cyclic word is stored as the lexicographically minimal rotation of its
letter-index sequence (ties broken by the earliest rotation).  Every
Koszul sign of the words layer starts from one array, the prefix
parities of ``prefix_parities``: P_i is the parity of the letters
w[:i], and T = P_k is the parity of the word.  It is also the one place
letters are checked against the space, in the same pass.

Rotating w so that position i comes first moves the prefix w[:i] past
the rest, which costs (-1)^{P_i (T - P_i)}.  As P_i^2 = P_i mod 2 this is
(-1)^{P_i} for an even word and +1 for an odd word, so no per-rotation
sign list is needed (``rotation_sign``).  Every rotation that fixes a
word is a power of the rotation by its smallest period p, so the class
is zero exactly when the word is even and P_p is odd; such classes are
reported as zero here rather than ever being stored.

A monomial is a product gamma^i nu^j w_1 ... w_n of canonical cyclic
words; the word list is kept sorted (plain tuple order), and each
transposition of two words u, v costs (-1)^{|u||v|}, so the sign of the
sort is (-1)^{number of pairs of odd words that sorting reverses}.  A
repeated word of odd parity makes the monomial zero.  The formal
variables nu (the empty cyclic word) and gamma (the genus weight) are
even and central.

Each space memoizes its words: ``canonicalize_cyclic`` stores, in the
space's private dict ``_words``, every raw word it canonicalizes as
((canonical word, rotation sign), parity, smallest period), or ``None``
for a zero class, and every canonical word under itself with sign +1.
The period is the one ``_class_entry`` stops its rotation scan at (the
length for an aperiodic word).  The entry is a pure function of the word
and the space, so ``sort_words``, ``word_parity`` and the operators read
a canonical word's parity, and ``word_period`` its period, from it
instead of walking its letters again.  A word is stored only after its
letters passed ``prefix_parities``, and only when they are ints
(``True`` and ``1.0`` would otherwise share the entry of 1); one with a
letter out of range raises and is never stored.
"""

from typing import NamedTuple, Optional

Word = tuple[int, ...]
_UNSEEN = object()  # marks a word absent from a space's memo


class Monomial(NamedTuple):
    gamma: int
    nu: int
    words: tuple[Word, ...]


def word_parity(space, word: Word) -> int:
    """Parity of ``word``: read from its memo entry (every word canonicalized
    over this space has one), else summed from its letters."""
    entry = space._words.get(word)
    if entry is not None:
        return entry[1]
    return sum(map(space.parities.__getitem__, word)) % 2


def prefix_parities(space, word) -> list[int]:
    """prefix[i] = parity of the letters word[:i]; prefix[-1] is the
    parity of the word.  Raises ``ValueError`` on a letter outside
    0..dim-1, checked in the same pass."""
    parities = space.parities
    dim = len(parities)
    out = [0] * (len(word) + 1)
    parity = 0
    for i, letter in enumerate(word):
        if not 0 <= letter < dim:
            raise ValueError(f"letter index {letter} out of range for this space")
        parity ^= parities[letter]
        out[i + 1] = parity
    return out


def rotation_sign(prefix, i) -> int:
    """Koszul sign rotating a word so position i comes first, read from
    the word's prefix parities: -1 iff the word is even and P_i odd."""
    return -1 if prefix[i] and not prefix[-1] else 1


def canonicalize_cyclic(letters, space) -> Optional[tuple[Word, int]]:
    """Canonical rotation representative of a raw letter sequence.

    Returns ``(word, sign)`` or ``None`` when the rotation class is zero
    (the rotation by the smallest period fixes the sequence with Koszul
    sign -1).  The answer is memoized in ``space._words``.
    """
    word = tuple(letters)
    memo = space._words
    entry = memo.get(word, _UNSEEN)
    if entry is _UNSEEN:
        entry = _class_entry(space, word)
        # True and 1.0 equal 1 as keys, so only words of ints are stored
        if all(type(letter) is int for letter in word):
            memo[word] = entry
            if entry is not None:
                canonical = entry[0][0]
                memo[canonical] = ((canonical, 1),) + entry[1:]
    return None if entry is None else entry[0]


def word_period(space, word: Word) -> Optional[int]:
    """Smallest period of ``word`` (its length when aperiodic), or ``None``
    for a zero class: read from its memo entry (every word canonicalized
    over this space has one), else from ``_class_entry``, which checks the
    letters."""
    entry = space._words.get(word, _UNSEEN)
    if entry is _UNSEEN:
        entry = _class_entry(space, word)
    return None if entry is None else entry[2]


def _class_entry(space, word) -> Optional[tuple[tuple[Word, int], int, int]]:
    """((canonical word, rotation sign), parity, smallest period) of a raw
    word, or ``None`` for a zero class; the letters are checked by
    ``prefix_parities``."""
    if not word:
        raise ValueError("cyclic words are nonempty; the empty word is the nu variable")
    prefix = prefix_parities(space, word)
    best_word, best_i = word, 0
    period = len(word)
    for i in range(1, len(word)):
        rotated = word[i:] + word[:i]
        if rotated == word:
            # i is the smallest period; later rotations repeat the first i
            if rotation_sign(prefix, i) < 0:
                return None
            period = i
            break
        if rotated < best_word:
            best_word, best_i = rotated, i
    return (best_word, rotation_sign(prefix, best_i)), prefix[-1], period


def sort_words(space, words) -> Optional[tuple[tuple[Word, ...], int]]:
    """Sort canonical words into monomial order, tracking Koszul swaps.

    Returns ``(sorted_words, sign)`` or ``None`` when a word of odd
    parity repeats (odd square), which kills the monomial.
    """
    words = tuple(words)
    if len(words) < 2:
        return words, 1
    odd = [w for w in words if word_parity(space, w)]
    sign = 1
    for i, u in enumerate(odd):
        for v in odd[i + 1 :]:
            if v == u:
                return None
            if v < u:
                sign = -sign
    return tuple(sorted(words)), sign


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
