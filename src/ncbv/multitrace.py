"""Multi-trace observables: the one reader of a multi-index (i_1, ...,
i_k), which names prod_j Tr(X^{i_j}) with Tr X^0 = nu, the trace of the
empty word; and functionals, rational combinations of terms nu^j
Tr(X^{i_1}) ... Tr(X^{i_k}), read off cyclic-side elements by the trace
map and evaluated at an N x N matrix with nu = N.

``np`` is the package's one handle on numpy, shared by ``ncbv.wick`` and
``ncbv.sampling``: numpy loads on the first attribute read, not at
import, so the exact commands never load it.
"""

from .element import CYCLIC, Element
from .scalar import Scalar, _field, add_to, as_int, format_scalar, parse_scalar


class _Numpy:
    """numpy, imported on the first attribute read; each attribute read is
    stored on the handle, so later reads are plain attribute reads."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


def index_entries(idx) -> tuple[int, ...]:
    """The entries of a multi-index, checked nonnegative integers, in order."""
    entries = tuple(as_int(i, "multi-index entry") for i in idx)
    if any(i < 0 for i in entries):
        raise ValueError("multi-index entries are nonnegative")
    return entries


def canonical_index(idx) -> tuple[int, ...]:
    """Sorted multi-index; the represented observable is order-free."""
    return tuple(sorted(index_entries(idx)))


def observable(idx) -> tuple[int, tuple[int, ...]]:
    """(nu power, sorted positive trace powers); each zero entry is Tr X^0 = nu."""
    parts = canonical_index(idx)
    zeros = parts.count(0)
    return zeros, parts[zeros:]


def _key(nu_power, traces) -> tuple[int, tuple[int, ...]]:
    """The canonical term key (nu_power, sorted trace powers), checked
    before any entry is summed into it."""
    key = (as_int(nu_power, "nu power"),
           tuple(sorted(as_int(t, "trace power") for t in traces)))
    if key[0] < 0:
        raise ValueError("nu exponents are nonnegative")
    if any(t < 1 for t in key[1]):
        raise ValueError("trace powers must be positive; zeros are nu factors")
    return key


class MultiTraceFunctional:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        if terms:
            for (nu_power, traces), coeff in terms.items():
                add_to(self.terms, _key(nu_power, traces), Scalar(coeff))

    @classmethod
    def from_multi_index(cls, idx) -> "MultiTraceFunctional":
        """The observable prod_j Tr(X^{i_j}); zero entries become nu."""
        return cls({observable(idx): Scalar(1)})

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
        out = cls()
        for i, item in enumerate(_field(data, "terms", "the trace functional", list)):
            what = f"trace functional term {i}"
            key = _key(_field(item, "nu_power", what), _field(item, "traces", what, list))
            add_to(out.terms, key, parse_scalar(_field(item, "coeff", what)))
        return out

