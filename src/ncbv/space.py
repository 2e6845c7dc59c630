"""Graded vector spaces with an odd symplectic pairing.

A space is a finite ordered basis with integer degrees together with the
matrix of the odd symplectic form on it.  The inverse form lives on the
dual basis (the "letters" out of which cyclic words and polynomials are
built) and is the single source of truth for every bracket, cobracket
and Laplacian in the package.

Sign conventions.  The pairing is supported on pairs of basis vectors
whose degrees sum to an odd number and is plainly antisymmetric there.
The inverse form on letters is obtained as

    B = P^{-1} . diag((-1)^{deg e_i}),

which is the matrix solving the commuting-triangle definition of the
inverse once the Koszul sign of applying (left-slot, right-slot) dual
maps to a tensor is taken into account.  On an odd pairing's support
this B is plainly symmetric.  Construction asserts the odd degree and
antisymmetry of P, the symmetry of B and P . B = diag((-1)^{deg e_i}),
each over nonzero entries only, whether B was supplied or solved for.
"""

from dataclasses import dataclass, field

from .scalar import ONE, ZERO, Scalar, add_to, format_scalar, parse_scalar

Matrix = tuple[tuple[Scalar, ...], ...]


def _to_matrix(rows) -> Matrix:
    return tuple(tuple(Scalar(entry) for entry in row) for row in rows)


def _scalar(value) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar(value)


def _sparse_rows(rows, n: int, what: str):
    """``rows`` as an n x n Matrix, coercing only entries that are not
    Scalars, and each row's nonzero entries as (column, value) pairs."""
    matrix, support = [], []
    for row in rows:
        row = tuple(map(_scalar, row))
        if len(row) != n:
            raise ValueError(f"the {what} has a row of {len(row)} entries; the space has {n} letters")
        matrix.append(row)
        support.append([(j, entry) for j, entry in enumerate(row) if entry])
    if len(matrix) != n:
        raise ValueError(f"the {what} has {len(matrix)} rows; the space has {n} letters")
    return tuple(matrix), support


def invert_matrix(rows: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(rows)
    aug = [list(row) + [Scalar(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular pairing: matrix is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Scalar(1) / aug[col][col]
        aug[col] = [entry * inv for entry in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class GradedSymplecticSpace:
    """Finite graded basis with an odd nondegenerate pairing.

    ``letters`` names the dual basis; ``pairing[i][j]`` is the form on
    the basis itself.  ``dual_scales`` records an optional rescaling of
    the letters relative to the plain dual basis of a suspended algebra
    (for example xi = -b* over the two-dimensional algebra); it affects
    only how structure tensors are expressed in these letters.
    ``parities[i]`` is ``degrees[i] % 2``, the only way letter degrees
    enter a sign.  ``inverse`` is solved by Gauss-Jordan unless given;
    a given inverse is checked, not trusted.
    """

    letters: tuple[str, ...]
    degrees: tuple[int, ...]
    pairing: Matrix
    inverse: Matrix = field(compare=False, default=None)
    dual_scales: tuple[Scalar, ...] = field(compare=False, default=None)
    parities: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.letters)
        if len(set(self.letters)) != n:
            raise ValueError("letter names must be distinct")
        if len(self.degrees) != n or len(self.pairing) != n:
            raise ValueError("letters, degrees and pairing sizes disagree")
        parities = tuple(d % 2 for d in self.degrees)
        object.__setattr__(self, "parities", parities)
        # Every check runs over nonzero entries: a zero entry can fail only
        # through its nonzero transpose, which the same scan visits.
        pairing, support = _sparse_rows(self.pairing, n, "pairing")
        object.__setattr__(self, "pairing", pairing)
        for i, row in enumerate(support):
            for j, entry in row:
                if parities[i] == parities[j]:
                    raise ValueError(
                        f"pairing <{self.letters[i]},{self.letters[j]}> is nonzero "
                        "on an even-degree pair; the form must have odd degree"
                    )
                if pairing[j][i] != -entry:
                    raise ValueError("pairing must be antisymmetric")
        if self.dual_scales is None:
            object.__setattr__(self, "dual_scales", (ONE,) * n)
        else:
            object.__setattr__(self, "dual_scales", tuple(map(_scalar, self.dual_scales)))
        if self.inverse is None:
            object.__setattr__(self, "inverse", inverse_pairing(pairing, self.degrees))
        inverse, inverse_support = _sparse_rows(self.inverse, n, "inverse pairing")
        object.__setattr__(self, "inverse", inverse)
        # The inverse form of an odd pairing is symmetric; fail loudly otherwise.
        for i, row in enumerate(inverse_support):
            for j, entry in row:
                if inverse[j][i] != entry:
                    raise ValueError("inverse pairing failed its symmetry check")
        # P . B = diag((-1)^deg), the definition of B, row by row.
        for i, row in enumerate(support):
            product = {}
            for k, p in row:
                for j, b in inverse_support[k]:
                    add_to(product, j, p * b)
            if product != {i: -1 if parities[i] else 1}:
                raise ValueError(
                    f"inverse pairing is not the inverse of the pairing at {self.letters[i]!r}"
                )

    @property
    def dim(self) -> int:
        return len(self.letters)

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise ValueError(f"unknown letter {name!r}") from None

    def check_letters(self, letters) -> None:
        for letter in letters:
            if not 0 <= letter < self.dim:
                raise ValueError(f"letter index {letter} out of range for this space")

    def to_json(self) -> dict:
        return {
            "letters": [
                {"name": name, "degree": deg} for name, deg in zip(self.letters, self.degrees)
            ],
            "pairing": [[format_scalar(entry) for entry in row] for row in self.pairing],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GradedSymplecticSpace":
        letters = tuple(item["name"] for item in data["letters"])
        degrees = tuple(int(item["degree"]) for item in data["letters"])
        pairing = tuple(tuple(parse_scalar(entry) for entry in row) for row in data["pairing"])
        return cls(letters, degrees, pairing)


def inverse_pairing(pairing: Matrix, degrees) -> Matrix:
    """Inverse form on letters: P^{-1} times the degree-sign diagonal."""
    pinv = invert_matrix(_to_matrix(pairing))
    n = len(pinv)
    return tuple(
        tuple(pinv[i][j] * (1 if degrees[j] % 2 == 0 else -1) for j in range(n))
        for i in range(n)
    )


def hyperbolic_space(names_degrees) -> GradedSymplecticSpace:
    """Space built from hyperbolic pairs ((u, deg_u), (v, deg_v), c) with <u,v> = c.

    Each argument is a triple of two (name, degree) pairs and a nonzero
    scalar; degrees in a pair must have odd sum.  The inverse is written
    pair by pair: [[0, c], [-c, 0]]^{-1} times the degree signs puts
    (-1)^{deg u} / c at both (u, v) and (v, u).
    """
    letters, degrees = [], []
    pairs = []
    for (name_u, deg_u), (name_v, deg_v), coeff in names_degrees:
        coeff = _scalar(coeff)
        if not coeff:
            raise ValueError(f"hyperbolic pair ({name_u}, {name_v}) has coefficient zero")
        i = len(letters)
        letters.extend([name_u, name_v])
        degrees.extend([deg_u, deg_v])
        pairs.append((i, i + 1, coeff, (-1 if deg_u % 2 else 1) / coeff))
    n = len(letters)
    rows = [[ZERO] * n for _ in range(n)]
    inverse = [[ZERO] * n for _ in range(n)]
    for i, j, coeff, dual in pairs:
        rows[i][j] = coeff
        rows[j][i] = -coeff
        inverse[i][j] = inverse[j][i] = dual
    return GradedSymplecticSpace(tuple(letters), tuple(degrees), rows, inverse=inverse)
