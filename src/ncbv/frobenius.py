"""Frobenius algebras and the surface-labeled multilinear forms.

A Frobenius algebra here is unital, associative, concentrated in degree
zero, with an invariant symmetric nondegenerate form.  The tensor for a
genus g surface with b free boundaries and m marked boundaries carrying
k_1, ..., k_m inputs is assembled from

    t_k(c_1, ..., c_k) = <c_1 ... c_{k-1}, c_k>      (empty product = unit),
    mu^{0,0}(...) = t_m(x_{i_m}, ..., x_{i_1})
                    t_{k_1+...+k_m+m}(y^{i_1}, c_11, ..., y^{i_m}, c_m1, ...),
    beta(c) = x_i y^i c,   gamma(c) = x_i x_j y^i y^j c,

where <.,.>^{-1} = x_i (x) y^i, and mu^{g,b} applies beta^b gamma^g to
any single argument (the value is independent of which; that
independence is a tested property).  By associativity, the unit and
invariance (checked on construction) t_k(c_1, ..., c_k) = eps(c_1 ... c_k)
for the counit eps(a) = <a, 1>, and beta, gamma are left multiplication by
H = x_i y^i and G = x_i x_j y^i y^j.  Summing out i_1 by <R, x_i><y^i, Q>
= <R, Q> joins the two t's into one eps, in which, by its cyclicity, each
later pair reads x_i (...) y^i = C(...) for the Casimir map C(a) = x_i a y^i:

    mu^{0,0}(...) = eps(C(... C(C(A_1) A_2) ...) A_m),   A_l = c_l1 ... c_lk_l,

so H = C(1), G = x_i C(y^i), and mu costs m - 1 applications of C, not a
walk over all n^m handle choices.  For the matrix algebra the tensors
collapse to N^b Tr(A^11...A^1k_1) ... Tr(A^m1...A^mk_m), which
``matrix_trace_product`` evaluates directly.
"""

from functools import reduce

from .morita import decorate, decorate_map, decorate_unit
from .scalar import ONE, ZERO, Scalar, _field, add_to, as_int, format_scalar, parse_scalar
from .space import (_check_unit, _checked_pairing, _form_json, _map_json, _read_form, _read_map,
                    _sized, _structure_map)

Vector = tuple[Scalar, ...]
Sparse = dict[int, Scalar]  # {basis index: nonzero coefficient}


def _sparse(values) -> Sparse:
    return {k: c for k, c in enumerate(map(Scalar, values)) if c}


class FrobeniusAlgebra:
    """``mult`` is the product as a map {(i, j): {k: c}}, the format of
    ``CyclicAInfinity.ops[2]``, checked by ``space._structure_map`` and
    kept with nonzero entries only, in JSON as m_2 is.  The unit is given
    as a coefficient vector; it, the counit, H and G are sparse vectors."""

    def __init__(self, basis, mult, pairing, unit):
        self.basis = tuple(basis)
        n = len(self.basis)
        self.mult = _structure_map(mult, n, 2, "the product")
        self._by_left, self._by_right = {}, {}  # cells as (k, c) pairs: faster than dict views
        for (i, j), cell in self.mult.items():
            cell = tuple(cell.items())
            self._by_left.setdefault(i, []).append((j, cell))
            self._by_right.setdefault(j, []).append((i, cell))
        self.pairing, self.inverse = _checked_pairing(pairing, self.basis, 1)
        self._index = {name: i for i, name in enumerate(self.basis)}  # distinct: checked above
        self.unit = _sparse(_sized(unit, n, "the unit"))
        self._check()
        self.counit = _sparse(self._form({i: ONE}, self.unit) for i in range(n))
        # H = x_i y^i = C(1) and G = x_i x_j y^i y^j = x_i C(y^i)
        self.H, self.G = self._conjugate(self.unit), {}
        for i, y in enumerate(self.inverse):
            self._mul({i: ONE}, self._conjugate(y), self.G)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self) -> None:
        _check_unit({2: self.mult}, self.unit, self.dim)
        # The associator (e_i e_j) e_k - e_i (e_j e_k) for one middle factor
        # e_j at a time, as {(i, k, out): c}: N^2 terms for Mat_N, not the
        # whole associator's N^4.  The e_i with e_i e_j != 0 come from
        # _by_right[j], the e_k with e_j e_k != 0 from _by_left[j].
        for j in range(self.dim):
            associator = {}
            for i, cell in self._by_right.get(j, ()):
                for l, c in cell:
                    for k, product in self._by_left.get(l, ()):
                        for out, d in product:
                            add_to(associator, (i, k, out), c * d)
            for k, cell in self._by_left.get(j, ()):
                for l, c in cell:
                    for i, product in self._by_right.get(l, ()):
                        for out, d in product:
                            add_to(associator, (i, k, out), -c * d)
            if associator:
                raise ValueError("multiplication is not associative")
        # The invariance defect <e_i e_j, e_k> - <e_i, e_j e_k> over the
        # nonzero products e_a e_b = sum c e_l, taken once as the left pair
        # (i, j) and once as the right one (j, k); <e_i, e_l> = <e_l, e_i>
        # by the symmetry checked on construction.
        defect = {}
        for (a, b), cell in self.mult.items():
            for l, c in cell.items():
                for t, g in self.pairing[l].items():
                    add_to(defect, (a, b, t), c * g)
                    add_to(defect, (t, a, b), -c * g)
        if defect:
            raise ValueError("pairing is not invariant: <ab,c> != <a,bc>")

    def _dense(self, vec: Sparse) -> Vector:
        return tuple(vec.get(k, ZERO) for k in range(self.dim))

    def coerce(self, value) -> Sparse:
        """A basis index, a basis name or a coefficient vector, as a sparse vector."""
        if isinstance(value, int):
            value = as_int(value, "basis index")  # rejects a boolean
            if not 0 <= value < self.dim:
                raise ValueError(f"basis index {value} is out of range for dimension {self.dim}")
            return {value: ONE}
        if isinstance(value, str):
            if value not in self._index:
                raise ValueError(f"unknown basis name {value!r}")
            return {self._index[value]: ONE}
        return _sparse(_sized(value, self.dim, "the vector"))

    # Exact arithmetic on coerced vectors; the public methods coerce once.

    def _mul(self, left: Sparse, right: Sparse, out: Sparse | None = None) -> Sparse:
        """Add the product ``left right`` into ``out``, a new vector by default."""
        out = {} if out is None else out
        for i, a in left.items():
            for j, cell in self._by_left.get(i, ()):
                b = right.get(j)
                if b:
                    for k, c in cell:
                        add_to(out, k, a * b * c)
        return out

    def _power_times(self, left: Sparse, power: int, vec: Sparse) -> Sparse:
        """left^power vec by repeated squaring: at most ``power`` products,
        about 2 log2(power), and by associativity exactly the vector that
        ``power`` left multiplications give."""
        while power:
            if power & 1:
                vec = self._mul(left, vec)
            power >>= 1
            if power:
                left = self._mul(left, left)
        return vec

    def _conjugate(self, vec: Sparse) -> Sparse:
        """The Casimir map C(a) = x_i a y^i over the handles (e_i, ``inverse[i]``),
        summed over the support of a: C(a) = sum_k a_k sum_{i: e_i e_k != 0} (e_i e_k) y^i."""
        out = {}
        for k, a in vec.items():
            for i, cell in self._by_right.get(k, ()):
                self._mul({l: a * c for l, c in cell}, self.inverse[i], out)
        return out

    def _form(self, left: Sparse, right: Sparse) -> Scalar:
        return Scalar(sum(a * right[j] * g for i, a in left.items()
                          for j, g in self.pairing[i].items() if j in right))

    def _eps(self, vec: Sparse) -> Scalar:
        return Scalar(sum(a * self.counit[k] for k, a in vec.items() if k in self.counit))

    def multiply(self, left, right) -> Vector:
        return self._dense(self._mul(self.coerce(left), self.coerce(right)))

    def form(self, left, right) -> Scalar:
        return self._form(self.coerce(left), self.coerce(right))

    def trace_form(self, vectors) -> Scalar:
        """t_k(c_1, ..., c_k) = <c_1 ... c_{k-1}, c_k> = eps(c_1 ... c_k)."""
        vectors = [self.coerce(v) for v in vectors]
        if not vectors:
            raise ValueError("t_k needs at least one argument")
        return self._eps(reduce(self._mul, vectors))

    def free_boundary(self, vec) -> Vector:
        """beta(c) = x_i y^i c = H c."""
        return self._dense(self._mul(self.H, self.coerce(vec)))

    def genus_map(self, vec) -> Vector:
        """gamma(c) = x_i x_j y^i y^j c = G c."""
        return self._dense(self._mul(self.G, self.coerce(vec)))

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis),
            "mult": _map_json(self.mult),
            "pairing": _form_json(self.pairing),
            "unit": [format_scalar(c) for c in self._dense(self.unit)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FrobeniusAlgebra":
        what = "the Frobenius algebra"
        basis = _field(data, "basis", what, list, each=str)
        return cls(basis, _read_map(_field(data, "mult", what), "the product"),
                   _read_form(_field(data, "pairing", what), len(basis), "the pairing"),
                   [parse_scalar(c) for c in _field(data, "unit", what, list)])


def otft_mu(frob: FrobeniusAlgebra, genus: int, free_boundaries: int, boundaries,
            apply_at=(0, 0)) -> Scalar:
    """Evaluate the surface tensor mu^{g,b} on boundary argument lists.

    ``boundaries`` is a list of m nonempty lists of algebra elements
    (indices, names or coefficient vectors).  ``apply_at`` selects which
    argument receives beta^b gamma^g; the boundaries are then folded
    through the Casimir map.
    """
    if genus < 0 or free_boundaries < 0:
        raise ValueError("genus and free boundary counts are nonnegative")
    if not boundaries or any(len(b) == 0 for b in boundaries):
        raise ValueError("need m >= 1 boundaries with k_i >= 1 arguments each")
    args = [[frob.coerce(c) for c in boundary] for boundary in boundaries]
    bi, ki = apply_at
    if not (0 <= bi < len(args) and 0 <= ki < len(args[bi])):
        raise ValueError("apply_at is out of range for the boundary arguments")
    args[bi][ki] = frob._power_times(frob.H, free_boundaries,
                                     frob._power_times(frob.G, genus, args[bi][ki]))

    products = [reduce(frob._mul, boundary) for boundary in args]
    return frob._eps(reduce(lambda vec, a: frob._mul(frob._conjugate(vec), a), products))


def matrix_frobenius(size: int) -> FrobeniusAlgebra:
    """Square matrices with the trace pairing; basis E_pq row-major.

    The Mat_N decoration of the line E with E E = E: its N^3 nonzero
    products are E_pq E_qs = E_ps and its unit is the identity."""
    basis, _, pairing = decorate(("E",), (0,), ({0: ONE},), size)
    mult = decorate_map({(0, 0): {0: ONE}}, size)
    return FrobeniusAlgebra(basis, mult, pairing, decorate_unit((ONE,), size))


def matrix_trace_product(size: int, free_boundaries: int, matrices):
    """The closed form of mu^{g,b} over Mat_N for boundary arguments
    given as square matrices (``matrices[i][t][p][q]``).

    Returns the boundary arguments flattened row-major onto the E_pq
    basis, ready for ``otft_mu``, and N^b prod_i Tr(A^i1 ... A^ik_i).
    """
    boundaries = [
        [tuple(Scalar(entry) for row in mat for entry in row) for mat in bd]
        for bd in matrices
    ]
    expected = Scalar(size) ** free_boundaries
    for bd in matrices:
        prod = [[int(p == q) for q in range(size)] for p in range(size)]
        for mat in bd:
            prod = [
                [
                    sum(prod[p][t] * mat[t][q] for t in range(size))
                    for q in range(size)
                ]
                for p in range(size)
            ]
        expected *= sum(prod[p][p] for p in range(size))
    return boundaries, Scalar(expected)


def ground_field() -> FrobeniusAlgebra:
    """The trivial Frobenius line with <1,1> = 1."""
    return FrobeniusAlgebra(("1",), {(0, 0): {0: ONE}}, ((ONE,),), (ONE,))


def truncated_polynomials(depth: int, trace_values) -> FrobeniusAlgebra:
    """K[t]/(t^depth) with pairing <t^a, t^b> = trace(t^{a+b}).

    ``trace_values[j]`` is the value of the trace functional on t^j for
    j < depth (zero beyond); the top value must be nonzero for the
    pairing to be invertible.
    """
    if depth < 1:
        raise ValueError("the truncation depth must be at least 1")
    if len(trace_values) != depth:
        raise ValueError("need one trace value per power below the truncation")
    values = [Scalar(v) for v in trace_values]
    if not values[-1]:
        raise ValueError("the top trace value must be nonzero")
    basis = [f"t^{a}" for a in range(depth)]
    mult = {(a, b): {a + b: ONE} for a in range(depth) for b in range(depth - a)}
    pairing = [{b: values[a + b] for b in range(depth - a)} for a in range(depth)]
    unit = [int(a == 0) for a in range(depth)]
    return FrobeniusAlgebra(basis, mult, pairing, unit)
