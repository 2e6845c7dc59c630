"""Multi-trace functionals: images of cyclic-side elements under the
trace map, and their numeric evaluation on explicit matrices.

A functional is a rational combination of terms nu^j Tr(X^{i_1}) ...
Tr(X^{i_k}); evaluating at an N x N matrix substitutes Tr(X^i)
numerically and nu = N (the trace of the empty word).
"""

import numpy as np

from .element import CYCLIC, Element
from .scalar import Scalar, add_to, format_scalar, parse_scalar


class MultiTraceFunctional:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # canonical term key: (nu_power, sorted trace powers)
        self.terms: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        if terms:
            for (nu_power, traces), coeff in terms.items():
                key = (int(nu_power), tuple(sorted(int(t) for t in traces)))
                if any(t < 1 for t in key[1]):
                    raise ValueError("trace powers must be positive; zeros are nu factors")
                add_to(self.terms, key, Scalar(coeff))

    @classmethod
    def from_multi_index(cls, idx) -> "MultiTraceFunctional":
        """The observable prod_j Tr(X^{i_j}); zero entries become nu."""
        idx = [int(i) for i in idx]
        if any(i < 0 for i in idx):
            raise ValueError("multi-index entries are nonnegative")
        zeros = sum(1 for i in idx if i == 0)
        powers = tuple(sorted(i for i in idx if i > 0))
        return cls({(zeros, powers): Scalar(1)})

    @classmethod
    def from_element(cls, element: Element) -> "MultiTraceFunctional":
        """Read a cyclic-side element whose words are powers of a single
        even letter as a multi-trace functional (the trace-map image)."""
        if element.flavor != CYCLIC:
            raise ValueError("multi-trace functionals come from cyclic-side elements")
        out = cls()
        for monomial, coeff in element.terms.items():
            if monomial.gamma:
                raise ValueError("genus-weighted monomials have no trace realization here")
            powers = []
            for word in monomial.words:
                letters = set(word)
                if len(letters) != 1:
                    raise ValueError("words must be powers of a single letter")
                letter = word[0]
                if element.space.degrees[letter] % 2:
                    raise ValueError("trace slots require an even letter")
                powers.append(len(word))
            add_to(out.terms, (monomial.nu, tuple(sorted(powers))), coeff)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiTraceFunctional) and self.terms == other.terms

    def evaluate(self, matrix, size=None) -> float:
        """Substitute Tr(X^i) and nu = N for an explicit square matrix."""
        X = np.asarray(matrix)
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ValueError("the argument must be a square matrix")
        n = X.shape[0]
        if size is not None and size != n:
            raise ValueError(f"matrix is {n}x{n}, expected {size}x{size}")
        max_power = max((max(tr, default=0) for _, tr in self.terms), default=0)
        traces = {0: complex(n)}
        power = np.eye(n, dtype=complex)
        for i in range(1, max_power + 1):
            power = power @ X
            traces[i] = complex(np.trace(power))
        total = 0j
        for (nu_power, trs), coeff in self.terms.items():
            value = complex(coeff) * n**nu_power
            for t in trs:
                value *= traces[t]
            total += value
        if abs(total.imag) <= 1e-9 * max(1.0, abs(total.real)):
            return total.real
        return total

    def to_json(self) -> dict:
        out = []
        for (nu_power, trs) in sorted(self.terms):
            out.append(
                {
                    "nu_power": nu_power,
                    "traces": list(trs),
                    "coeff": format_scalar(self.terms[(nu_power, trs)]),
                }
            )
        return {"terms": out}

    @classmethod
    def from_json(cls, data: dict) -> "MultiTraceFunctional":
        terms = {}
        for item in data["terms"]:
            key = (int(item["nu_power"]), tuple(item["traces"]))
            add_to(terms, key, parse_scalar(item["coeff"]))
        return cls(terms)

