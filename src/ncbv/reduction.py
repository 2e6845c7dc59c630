"""Reduction of multi-trace observables to polynomials in nu.

The observable prod_j Tr(X^{i_j}) is the cocycle (x^{i_1})...(x^{i_k})
in the symmetric algebra of cyclic words over the suspended
two-dimensional algebra.  Its class in the complex with differential
(d* + delta + cobracket) is a unique polynomial in nu, found by
repeatedly trading a factor (x^l) for the exact term:

    (x^l).rest = -d*((x^{l-1} xi).rest)
               ~ (delta + cobracket)((x^{l-1} xi).rest),

which removes two letters per step.  This is the recurrence the BV
formalism gives for every multi-point correlator.  The inverse form
pairs x only with xi, so both operators kill pure x-words and delta
vanishes on one word; the x^m being even, the second-order identity
gives, for the pivot P_l = x^{l-1} xi and rest = x^{m_1}...x^{m_k},

    image(P_l . rest) = cobracket(P_l) . rest
                        + sum_i {P_l, x^{m_i}} . rest without x^{m_i}.

Both tables are the GUE loop equations (Tutte's recursion), against
which the tests check them, with Tr X^0 = nu:

    cobracket(x^{l-1} xi) = sum_{a+b=l-2} Tr X^a . Tr X^b,
    {x^{l-1} xi, x^m}     = m . Tr X^{l+m-2}.

They depend on the lengths alone: ``_pivot_image(l)`` and
``_pair_image(l, m)`` are cached once per process, for every reducer,
and read through ``MultiTraceFunctional.from_element`` (the trace-map
image) as sparse maps {(nu power, sorted trace powers): coeff}, so a
state is a memoized sorted tuple of word lengths and its successors
are built without any Element.  Equal lengths in a state share one
table read, scaled by their multiplicity, and the states are driven
from an explicit work stack, so the depth of a reduction is not
bounded by Python's recursion limit.

Three pivot choices are available; their agreement (confluence) is a
tested property of the engine, not an assumption.
"""

import random
import threading
from functools import cache

from .algebras import sigma_a_context, sigma_a_space
from .element import CYCLIC, Element
from .multitrace import MultiTraceFunctional, observable
from .nupoly import NuPolynomial
from .scalar import Scalar, add_to

PIVOT_STRATEGIES = ("leftmost", "largest", "random")

X, XI = 0, 1  # letter indices in the suspended space


class GueReducer:
    """Reduces multi-indices to nu-polynomials with a fixed pivot strategy."""

    def __init__(self, pivot: str = "leftmost", seed: int = 0):
        if pivot not in PIVOT_STRATEGIES:
            raise ValueError(f"unknown pivot strategy {pivot!r}")
        self.pivot = pivot
        self.seed = seed
        self._cache: dict[tuple[int, ...], NuPolynomial] = {(): NuPolynomial.constant(1)}

    def reduce(self, idx) -> NuPolynomial:
        """The moment polynomial p_idx; zero exponents contribute nu."""
        zeros, state = observable(idx)
        return self._resolve(state).shift(zeros)

    def _resolve(self, root: tuple[int, ...]) -> NuPolynomial:
        """The polynomial of ``root``, every new state below it driven from an
        explicit work stack: as in a depth-first recursion, each successor is
        looked up, and finished, before the next.  A frame holds a new state,
        its remaining successors, its partial total and the (nu shift,
        coefficient) with which its total enters the frame below."""
        found = self._reduce_state(root)
        if not isinstance(found, dict):
            return found
        stack = [(root, iter(found.items()), NuPolynomial(), 0, 1)]
        while True:
            state, successors, total, nu, coeff = stack[-1]
            for (shift, lengths), c in successors:
                found = self._reduce_state(lengths)
                if isinstance(found, dict):
                    stack.append((lengths, iter(found.items()), NuPolynomial(), shift, c))
                    break
                _add_shifted(total, found, shift, c)
            else:
                stack.pop()
                self._cache[state] = total
                if not stack:
                    return total
                _add_shifted(stack[-1][2], total, nu, coeff)

    def _reduce_state(self, state: tuple[int, ...]) -> NuPolynomial | dict:
        """One state lookup: the cached polynomial of ``state``, or, for a new
        state, its successors {(nu shift, successor state): coefficient}.

        ``rest`` is sorted, so equal factors are adjacent: each distinct
        length reads its pair table once, scaled by its multiplicity."""
        cached = self._cache.get(state)
        if cached is not None:
            return cached
        pivot = self._choose_pivot(state)
        length = state[pivot]
        rest = state[:pivot] + state[pivot + 1 :]
        successors: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        for (nu, lengths), coeff in _pivot_image(length).items():
            add_to(successors, (nu, tuple(sorted(lengths + rest))), coeff)
        for i, other in enumerate(rest):
            if i and rest[i - 1] == other:
                continue
            count = rest.count(other)
            others = rest[:i] + rest[i + 1 :]
            for (nu, lengths), coeff in _pair_image(length, other).items():
                add_to(successors, (nu, tuple(sorted(lengths + others))), count * coeff)
        return successors

    def _choose_pivot(self, state: tuple[int, ...]) -> int:
        if self.pivot == "leftmost":
            return 0
        if self.pivot == "largest":
            return max(range(len(state)), key=lambda t: state[t])
        return random.Random(f"{self.seed}:{state}").randrange(len(state))


@cache
def _pivot_image(length: int) -> dict:
    """cobracket(P_l) for l = ``length``, as {(nu, lengths): coeff}."""
    image = sigma_a_context().nc_cobracket(_word(_pivot_word(length)))
    return MultiTraceFunctional.from_element(image).terms


@cache
def _pair_image(length: int, other: int) -> dict:
    """{P_l, x^m} for (l, m) = (``length``, ``other``), as {(nu, lengths): coeff}."""
    image = sigma_a_context().nc_bracket(_word(_pivot_word(length)), _word((X,) * other))
    return MultiTraceFunctional.from_element(image).terms


def _add_shifted(total: NuPolynomial, poly: NuPolynomial, nu: int, coeff) -> None:
    """Add coeff * nu^nu * poly to ``total`` in place."""
    for exp, c in poly.coeffs.items():
        add_to(total.coeffs, exp + nu, coeff * c)


def _word(word) -> Element:
    """One word of the engine's own letters, an internal result."""
    return Element._from_raw(sigma_a_space(), CYCLIC, {(0, 0, (word,)): 1})


def _pivot_word(length: int) -> tuple[int, ...]:
    """P_l = x^{l-1} xi, the odd word that replaces the factor x^l."""
    return (X,) * (length - 1) + (XI,)


_default_reducer: GueReducer | None = None
_default_reducer_lock = threading.Lock()


def default_reducer() -> GueReducer:
    """The one shared leftmost-pivot reducer, built on first use."""
    global _default_reducer
    with _default_reducer_lock:
        if _default_reducer is None:
            _default_reducer = GueReducer()
        return _default_reducer


def reduce_to_polynomial(idx) -> NuPolynomial:
    """The moment polynomial p_idx on the shared default reducer."""
    return default_reducer().reduce(idx)
