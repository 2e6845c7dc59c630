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
independence is a tested property).  For the matrix algebra the tensors
collapse to N^b Tr(A^11...A^1k_1) ... Tr(A^m1...A^mk_m), which
``matrix_trace_product`` evaluates directly.
"""

from .morita import decorate, index_chains, matrix_index
from .scalar import Scalar
from .space import invert_matrix

Vector = tuple[Scalar, ...]


class FrobeniusAlgebra:
    def __init__(self, basis, mult, pairing, unit, check=True):
        """``mult[i][j]`` is the coefficient vector of e_i e_j."""
        self.basis = tuple(basis)
        n = len(self.basis)
        self.mult = tuple(
            tuple(tuple(Scalar(c) for c in mult[i][j]) for j in range(n)) for i in range(n)
        )
        self.pairing = tuple(tuple(Scalar(c) for c in row) for row in pairing)
        self.inverse = invert_matrix(self.pairing)
        self.unit = tuple(Scalar(c) for c in unit)
        if check:
            self._check()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self) -> None:
        n = self.dim
        for i in range(n):
            for j in range(n):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise ValueError("Frobenius pairing must be symmetric")
        for i in range(n):
            basis_i = self.basis_vector(i)
            if self.multiply(self.unit, basis_i) != basis_i:
                raise ValueError("declared unit fails 1.a = a")
            if self.multiply(basis_i, self.unit) != basis_i:
                raise ValueError("declared unit fails a.1 = a")
            for j in range(n):
                for k in range(n):
                    left = self.multiply(self.mult[i][j], self.basis_vector(k))
                    right = self.multiply(self.basis_vector(i), self.mult[j][k])
                    if left != right:
                        raise ValueError("multiplication is not associative")
                    if self.form(self.mult[i][j], self.basis_vector(k)) != self.form(
                        self.basis_vector(i), self.mult[j][k]
                    ):
                        raise ValueError("pairing is not invariant: <ab,c> != <a,bc>")

    def basis_vector(self, index: int) -> Vector:
        return tuple(Scalar(int(t == index)) for t in range(self.dim))

    def coerce(self, value) -> Vector:
        if isinstance(value, int):
            return self.basis_vector(value)
        if isinstance(value, str):
            return self.basis_vector(self.basis.index(value))
        vec = tuple(Scalar(c) for c in value)
        if len(vec) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        return vec

    def multiply(self, left, right) -> Vector:
        left, right = self.coerce(left), self.coerce(right)
        out = [Scalar(0)] * self.dim
        for i, a in enumerate(left):
            if not a:
                continue
            for j, b in enumerate(right):
                if not b:
                    continue
                for k, c in enumerate(self.mult[i][j]):
                    if c:
                        out[k] += a * b * c
        return tuple(out)

    def product(self, vectors) -> Vector:
        acc = self.unit
        for vec in vectors:
            acc = self.multiply(acc, vec)
        return acc

    def form(self, left, right) -> Scalar:
        left, right = self.coerce(left), self.coerce(right)
        total = Scalar(0)
        for i, a in enumerate(left):
            if not a:
                continue
            for j, b in enumerate(right):
                if b:
                    total += a * b * self.pairing[i][j]
        return total

    def trace_form(self, vectors) -> Scalar:
        """t_k: multiply all but the last argument, pair with the last."""
        vectors = [self.coerce(v) for v in vectors]
        if not vectors:
            raise ValueError("t_k needs at least one argument")
        return self.form(self.product(vectors[:-1]), vectors[-1])

    def handle_pairs(self):
        """Nonzero entries (i, j, h_ij) of the inverse form x_i (x) y^i."""
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                if self.inverse[i][j]:
                    out.append((i, j, self.inverse[i][j]))
        return out

    def free_boundary(self, vec) -> Vector:
        """beta(c) = x_i y^i c."""
        vec = self.coerce(vec)
        out = [Scalar(0)] * self.dim
        for i, j, h in self.handle_pairs():
            piece = self.multiply(self.mult[i][j], vec)
            for t, c in enumerate(piece):
                if c:
                    out[t] += h * c
        return tuple(out)

    def genus_map(self, vec) -> Vector:
        """gamma(c) = x_i x_j y^i y^j c."""
        vec = self.coerce(vec)
        out = [Scalar(0)] * self.dim
        pairs = self.handle_pairs()
        for i, j, h1 in pairs:
            for k, l, h2 in pairs:
                piece = self.product([self.basis_vector(t) for t in (i, k, j, l)] + [vec])
                for t, c in enumerate(piece):
                    if c:
                        out[t] += h1 * h2 * c
        return tuple(out)

    def to_json(self) -> dict:
        from .scalar import format_scalar

        return {
            "basis": list(self.basis),
            "mult": [
                [[format_scalar(c) for c in self.mult[i][j]] for j in range(self.dim)]
                for i in range(self.dim)
            ],
            "pairing": [[format_scalar(c) for c in row] for row in self.pairing],
            "unit": [format_scalar(c) for c in self.unit],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FrobeniusAlgebra":
        from .scalar import parse_scalar

        mult = [
            [tuple(parse_scalar(c) for c in cell) for cell in row] for row in data["mult"]
        ]
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
        vec = frob.genus_map(vec)
    for _ in range(free_boundaries):
        vec = frob.free_boundary(vec)
    args[bi][ki] = vec

    m = len(args)
    pairs = frob.handle_pairs()
    total = Scalar(0)
    chosen = [None] * m

    def walk(level, weight):
        nonlocal total
        if level == m:
            xs = [frob.basis_vector(i) for i, _ in chosen]
            outer = frob.trace_form(list(reversed(xs)))
            if not outer:
                return
            flat = []
            for (_, j), boundary in zip(chosen, args):
                flat.append(frob.basis_vector(j))
                flat.extend(boundary)
            total += weight * outer * frob.trace_form(flat)
            return
        for i, j, h in pairs:
            chosen[level] = (i, j)
            walk(level + 1, weight * h)

    walk(0, Scalar(1))
    return total


def matrix_frobenius(size: int) -> FrobeniusAlgebra:
    """Square matrices with the trace pairing; basis E_pq row-major.

    The basis and pairing are the Mat_N decoration of the line ((1,),)."""
    basis, _, pairing = decorate(("E",), (0,), ((Scalar(1),),), size)
    n = size * size
    mult = [[None] * n for _ in range(n)]
    for p, q, r, s in index_chains(size, 4):
        vec = [Scalar(0)] * n
        if q == r:
            vec[matrix_index(0, p, s, size)] = Scalar(1)
        mult[matrix_index(0, p, q, size)][matrix_index(0, r, s, size)] = tuple(vec)
    unit = [Scalar(0)] * n
    for p in range(size):
        unit[matrix_index(0, p, p, size)] = Scalar(1)
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
    one = Scalar(1)
    return FrobeniusAlgebra(("1",), (((one,),),), ((one,),), (one,))


def truncated_polynomials(depth: int, trace_values) -> FrobeniusAlgebra:
    """K[t]/(t^depth) with pairing <t^a, t^b> = trace(t^{a+b}).

    ``trace_values[j]`` is the value of the trace functional on t^j for
    j < depth (zero beyond); the top value must be nonzero for the
    pairing to be invertible.
    """
    if len(trace_values) != depth:
        raise ValueError("need one trace value per power below the truncation")
    values = [Scalar(v) for v in trace_values]
    if not values[-1]:
        raise ValueError("the top trace value must be nonzero")
    basis = [f"t^{a}" for a in range(depth)]
    mult = [
        [
            tuple(Scalar(int(c == a + b)) for c in range(depth))
            for b in range(depth)
        ]
        for a in range(depth)
    ]
    pairing = [
        [values[a + b] if a + b < depth else Scalar(0) for b in range(depth)]
        for a in range(depth)
    ]
    unit = [Scalar(int(a == 0)) for a in range(depth)]
    return FrobeniusAlgebra(basis, mult, pairing, unit)
