"""Reduction of multi-trace observables to polynomials in nu.

The observable prod_j Tr(X^{i_j}) is the cocycle (x^{i_1})...(x^{i_k})
in the symmetric algebra of cyclic words over the suspended
two-dimensional algebra.  Its class in the complex with differential
(d* + delta + cobracket) is a unique polynomial in nu, found by
repeatedly trading a factor (x^i) for the exact term:

    (x^i).rest = -d*((x^{i-1} xi).rest)
               ~ (delta + cobracket)((x^{i-1} xi).rest),

which removes two letters per step.  Each surviving term pairs the xi
against an x, so the state stays a product of pure x-powers times a nu
power; states are memoized by their sorted tuple of word lengths.

Three pivot choices are available; their agreement (confluence) is a
tested property of the engine, not an assumption.
"""

import random
import threading

from .algebras import sigma_a_context, sigma_a_space
from .element import CYCLIC, Element
from .nupoly import NuPolynomial
from .scalar import Scalar

PIVOT_STRATEGIES = ("leftmost", "largest", "random")

X, XI = 0, 1  # letter indices in the suspended space


def canonical_index(idx) -> tuple[int, ...]:
    """Sorted multi-index; the represented observable is order-free."""
    parts = tuple(sorted(int(i) for i in idx))
    if parts and parts[0] < 0:
        raise ValueError("multi-index entries are nonnegative")
    return parts


class GueReducer:
    """Reduces multi-indices to nu-polynomials with a fixed pivot strategy."""

    def __init__(self, pivot: str = "leftmost", seed: int = 0):
        if pivot not in PIVOT_STRATEGIES:
            raise ValueError(f"unknown pivot strategy {pivot!r}")
        self.pivot = pivot
        self.seed = seed
        self.space = sigma_a_space()
        self.ctx = sigma_a_context()
        self._cache: dict[tuple[int, ...], NuPolynomial] = {(): NuPolynomial.constant(1)}

    def reduce(self, idx) -> NuPolynomial:
        """The moment polynomial p_idx; zero exponents contribute nu."""
        parts = canonical_index(idx)
        zeros = sum(1 for i in parts if i == 0)
        state = tuple(i for i in parts if i > 0)
        return self._reduce_state(state).shift(zeros)

    def _reduce_state(self, state: tuple[int, ...]) -> NuPolynomial:
        cached = self._cache.get(state)
        if cached is not None:
            return cached
        pivot = self._choose_pivot(state)
        element = self._pivot_element(state, pivot)
        image = self.ctx.ce_delta(element) + self.ctx.nc_cobracket(element)
        total = NuPolynomial.zero()
        for monomial, coeff in image.terms.items():
            lengths = tuple(sorted(len(word) for word in monomial.words))
            part = self._reduce_state(lengths).shift(monomial.nu)
            total = total + part.scale(coeff)
        self._cache[state] = total
        return total

    def _choose_pivot(self, state: tuple[int, ...]) -> int:
        if self.pivot == "leftmost":
            return 0
        if self.pivot == "largest":
            return max(range(len(state)), key=lambda t: state[t])
        return random.Random(f"{self.seed}:{state}").randrange(len(state))

    def _pivot_element(self, state: tuple[int, ...], pivot: int) -> Element:
        words = []
        for t, length in enumerate(state):
            if t == pivot:
                words.append((X,) * (length - 1) + (XI,))
            else:
                words.append((X,) * length)
        return Element.from_terms(self.space, CYCLIC, [(0, 0, words, Scalar(1))])


_default_reducer: GueReducer | None = None
_default_reducer_lock = threading.Lock()


def default_reducer() -> GueReducer:
    """The one shared leftmost-pivot reducer, built on first use."""
    global _default_reducer
    with _default_reducer_lock:
        if _default_reducer is None:
            _default_reducer = GueReducer()
        return _default_reducer


def reduce_to_polynomial(idx, pivot: str = "leftmost", seed: int = 0) -> NuPolynomial:
    """Module-level entry point; the default strategy shares one cache."""
    if pivot == "leftmost" and seed == 0:
        return default_reducer().reduce(idx)
    return GueReducer(pivot, seed).reduce(idx)
