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
H = x_i y^i and G = x_i x_j y^i y^j.  For the matrix algebra the tensors
collapse to N^b Tr(A^11...A^1k_1) ... Tr(A^m1...A^mk_m), which
``matrix_trace_product`` evaluates directly.
"""

from collections.abc import Mapping
from functools import reduce

from .morita import decorate, index_chains, matrix_index
from .scalar import ONE, ZERO, Scalar, add_to, format_scalar, parse_scalar
from .space import invert_matrix

Vector = tuple[Scalar, ...]


def _sized(values, n: int, what: str) -> tuple:
    values = tuple(values)
    if len(values) != n:
        raise ValueError(f"{what} has {len(values)} entries; the algebra has dimension {n}")
    return values


def _sum(vectors) -> Vector:
    return tuple(sum(column, ZERO) for column in zip(*vectors))


def _products(mult, n: int) -> dict:
    """The nonzero products {(i, j): ((k, c), ...)} of a dense table
    ``mult[i][j]`` or of a mapping {(i, j): {k: c}}."""
    if not isinstance(mult, Mapping):
        mult = {
            (i, j): dict(enumerate(_sized(cell, n, f"the product e_{i} e_{j}")))
            for i, row in enumerate(_sized(mult, n, "mult"))
            for j, cell in enumerate(_sized(row, n, f"row {i} of mult"))
        }
    table = {}
    for (i, j), cell in mult.items():
        cell = {k: Scalar(c) for k, c in dict(cell).items()}
        if not all(0 <= t < n for t in (i, j, *cell)):
            raise ValueError(f"the product e_{i} e_{j} leaves the basis indices 0..{n - 1}")
        if any(cell.values()):
            table[i, j] = tuple((k, c) for k, c in sorted(cell.items()) if c)
    return table


class FrobeniusAlgebra:
    """``mult[i][j]`` is the coefficient vector of e_i e_j, or a mapping
    {(i, j): {k: c}} gives the nonzero products alone; those are kept as
    ``self.mult[i, j] = ((k, c), ...)``.  The handles (x_i, y^i) =
    (e_i, ``self.inverse[i]``) of the inverse form, the counit, H and G are
    built here."""

    def __init__(self, basis, mult, pairing, unit):
        self.basis = tuple(basis)
        n = len(self.basis)
        self._index = {}
        for i, name in enumerate(self.basis):
            if self._index.setdefault(name, i) != i:
                raise ValueError(f"duplicate basis name {name!r}")
        self.mult = _products(mult, n)
        self.pairing = tuple(
            tuple(map(Scalar, _sized(row, n, "a pairing row")))
            for row in _sized(pairing, n, "the pairing")
        )
        self.inverse = invert_matrix(self.pairing)
        self.unit = tuple(map(Scalar, _sized(unit, n, "the unit")))
        e = tuple(tuple(Scalar(int(t == i)) for t in range(n)) for i in range(n))
        self._basis_vectors = e
        self._check()
        self.handles = handles = tuple(zip(e, self.inverse))
        self.counit = tuple(self._form(vec, self.unit) for vec in e)
        self.H = _sum(self._mul(x, y) for x, y in handles)
        self.G = _sum(reduce(self._mul, (x, u, y, v)) for x, y in handles for u, v in handles)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self) -> None:
        n = self.dim
        e = self._basis_vectors
        if any(self.pairing[i][j] != self.pairing[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Frobenius pairing must be symmetric")
        for vec in e:
            if self._mul(self.unit, vec) != vec:
                raise ValueError("declared unit fails 1.a = a")
            if self._mul(vec, self.unit) != vec:
                raise ValueError("declared unit fails a.1 = a")
        # The associator (e_i e_j) e_k - e_i (e_j e_k) and the invariance
        # defect <e_i e_j, e_k> - <e_i, e_j e_k> as sparse tensors over the
        # nonzero products e_a e_b = sum c e_l, taken once as the left
        # factor (a, b) = (i, j) and once as the right one (a, b) = (j, k);
        # <e_i, e_l> = <e_l, e_i> by the symmetry checked above.
        by_left, by_right = {}, {}
        for (i, j), cell in self.mult.items():
            by_left.setdefault(i, []).append((j, cell))
            by_right.setdefault(j, []).append((i, cell))
        paired = [[(k, g) for k, g in enumerate(row) if g] for row in self.pairing]
        associator, defect = {}, {}
        for (a, b), cell in self.mult.items():
            for l, c in cell:
                for k, product in by_left.get(l, ()):
                    for out, d in product:
                        add_to(associator, (a, b, k, out), c * d)
                for i, product in by_right.get(l, ()):
                    for out, d in product:
                        add_to(associator, (i, a, b, out), -c * d)
                for t, g in paired[l]:
                    add_to(defect, (a, b, t), c * g)
                    add_to(defect, (t, a, b), -c * g)
        if associator:
            raise ValueError("multiplication is not associative")
        if defect:
            raise ValueError("pairing is not invariant: <ab,c> != <a,bc>")

    def coerce(self, value) -> Vector:
        """A basis index, a basis name or a coefficient vector, as a vector."""
        if isinstance(value, int):
            if not 0 <= value < self.dim:
                raise ValueError(f"basis index {value} is out of range for dimension {self.dim}")
            return self._basis_vectors[value]
        if isinstance(value, str):
            if value not in self._index:
                raise ValueError(f"unknown basis name {value!r}")
            return self._basis_vectors[self._index[value]]
        return tuple(map(Scalar, _sized(value, self.dim, "the vector")))

    # Exact arithmetic on coerced vectors; the public methods coerce once.

    def _mul(self, left: Vector, right: Vector) -> Vector:
        out = [ZERO] * len(left)
        right = [(j, b) for j, b in enumerate(right) if b]
        for i, a in enumerate(left):
            if a:
                for j, b in right:
                    for k, c in self.mult.get((i, j), ()):
                        out[k] += a * b * c
        return tuple(out)

    def _form(self, left: Vector, right: Vector) -> Scalar:
        rows = ((a, row) for a, row in zip(left, self.pairing) if a)
        return sum((a * b * g for a, row in rows for b, g in zip(right, row) if b), ZERO)

    def _eps(self, vec: Vector) -> Scalar:
        return sum((a * c for a, c in zip(vec, self.counit) if a), ZERO)

    def multiply(self, left, right) -> Vector:
        return self._mul(self.coerce(left), self.coerce(right))

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
        return self._mul(self.H, self.coerce(vec))

    def genus_map(self, vec) -> Vector:
        """gamma(c) = x_i x_j y^i y^j c = G c."""
        return self._mul(self.G, self.coerce(vec))

    def to_json(self) -> dict:
        def cell(i, j):
            vec = [ZERO] * self.dim
            for k, c in self.mult.get((i, j), ()):
                vec[k] = c
            return [format_scalar(c) for c in vec]

        return {
            "basis": list(self.basis),
            "mult": [[cell(i, j) for j in range(self.dim)] for i in range(self.dim)],
            "pairing": [[format_scalar(c) for c in row] for row in self.pairing],
            "unit": [format_scalar(c) for c in self.unit],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FrobeniusAlgebra":
        mult = [[[parse_scalar(c) for c in cell] for cell in row] for row in data["mult"]]
        pairing = [[parse_scalar(c) for c in row] for row in data["pairing"]]
        unit = [parse_scalar(c) for c in data["unit"]]
        return cls(tuple(data["basis"]), mult, pairing, unit)


def otft_mu(frob: FrobeniusAlgebra, genus: int, free_boundaries: int, boundaries,
            apply_at=(0, 0)) -> Scalar:
    """Evaluate the surface tensor mu^{g,b} on boundary argument lists.

    ``boundaries`` is a list of m nonempty lists of algebra elements
    (indices, names or coefficient vectors).  ``apply_at`` selects which
    argument receives beta^b gamma^g.
    """
    if genus < 0 or free_boundaries < 0:
        raise ValueError("genus and free boundary counts are nonnegative")
    if not boundaries or any(len(b) == 0 for b in boundaries):
        raise ValueError("need m >= 1 boundaries with k_i >= 1 arguments each")
    args = [[frob.coerce(c) for c in boundary] for boundary in boundaries]
    bi, ki = apply_at
    if not (0 <= bi < len(args) and 0 <= ki < len(args[bi])):
        raise ValueError("apply_at is out of range for the boundary arguments")
    vec = args[bi][ki]
    for _ in range(genus):
        vec = frob._mul(frob.G, vec)
    for _ in range(free_boundaries):
        vec = frob._mul(frob.H, vec)
    args[bi][ki] = vec

    # level l picks a handle (x_i, y^i): x_i joins the outer product on the
    # left, y^i A_l (A_l = the product of boundary l) the inner on the right
    steps = [[(x, reduce(frob._mul, boundary, y)) for x, y in frob.handles] for boundary in args]

    def walk(level, outer, inner):
        if level == len(steps):
            return frob._eps(outer) * frob._eps(inner)
        total = ZERO
        for x, tail in steps[level]:
            head = frob._mul(x, outer)
            if any(head):
                total += walk(level + 1, head, frob._mul(inner, tail))
        return total

    return walk(0, frob.unit, frob.unit)


def matrix_frobenius(size: int) -> FrobeniusAlgebra:
    """Square matrices with the trace pairing; basis E_pq row-major.

    The basis and pairing are the Mat_N decoration of the line ((1,),);
    the N^3 nonzero products are E_pq E_qs = E_ps."""
    basis, _, pairing = decorate(("E",), (0,), ((ONE,),), size)
    mult = {
        (matrix_index(0, p, q, size), matrix_index(0, q, s, size)):
            {matrix_index(0, p, s, size): ONE}
        for p, q, s in index_chains(size, 3)
    }
    unit = [Scalar(int(p == q)) for p, q in index_chains(size, 2)]
    return FrobeniusAlgebra(basis, mult, pairing, unit)


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
        prod = [[Scalar(int(p == q)) for q in range(size)] for p in range(size)]
        for mat in bd:
            prod = [
                [
                    sum((prod[p][t] * mat[t][q] for t in range(size)), Scalar(0))
                    for q in range(size)
                ]
                for p in range(size)
            ]
        expected *= sum((prod[p][p] for p in range(size)), Scalar(0))
    return boundaries, expected


def ground_field() -> FrobeniusAlgebra:
    """The trivial Frobenius line with <1,1> = 1."""
    return FrobeniusAlgebra(("1",), (((ONE,),),), ((ONE,),), (ONE,))


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
    pairing = [
        [values[a + b] if a + b < depth else ZERO for b in range(depth)]
        for a in range(depth)
    ]
    unit = [Scalar(int(a == 0)) for a in range(depth)]
    return FrobeniusAlgebra(basis, mult, pairing, unit)
