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
this B is plainly symmetric; both facts are asserted at construction.
"""

from dataclasses import dataclass, field

from .scalar import Scalar, format_scalar, parse_scalar

Matrix = tuple[tuple[Scalar, ...], ...]


def _to_matrix(rows) -> Matrix:
    return tuple(tuple(Scalar(entry) for entry in row) for row in rows)


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
    enter a sign.
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
        object.__setattr__(self, "pairing", _to_matrix(self.pairing))
        object.__setattr__(self, "parities", tuple(d % 2 for d in self.degrees))
        for i in range(n):
            for j in range(n):
                entry = self.pairing[i][j]
                if entry != 0 and (self.degrees[i] + self.degrees[j]) % 2 == 0:
                    raise ValueError(
                        f"pairing <{self.letters[i]},{self.letters[j]}> is nonzero "
                        "on an even-degree pair; the form must have odd degree"
                    )
                if entry != -self.pairing[j][i]:
                    raise ValueError("pairing must be antisymmetric")
        if self.dual_scales is None:
            object.__setattr__(self, "dual_scales", tuple(Scalar(1) for _ in range(n)))
        else:
            object.__setattr__(self, "dual_scales", tuple(Scalar(s) for s in self.dual_scales))
        if self.inverse is None:
            object.__setattr__(self, "inverse", inverse_pairing(self.pairing, self.degrees))
        # The inverse form of an odd pairing is symmetric; fail loudly otherwise.
        inv = self.inverse
        for i in range(n):
            for j in range(n):
                if inv[i][j] != inv[j][i]:
                    raise ValueError("inverse pairing failed its symmetry check")

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
    scalar; degrees in a pair must have odd sum.
    """
    letters, degrees = [], []
    pairs = []
    for (name_u, deg_u), (name_v, deg_v), coeff in names_degrees:
        i = len(letters)
        letters.extend([name_u, name_v])
        degrees.extend([deg_u, deg_v])
        pairs.append((i, i + 1, Scalar(coeff)))
    n = len(letters)
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i, j, coeff in pairs:
        rows[i][j] = coeff
        rows[j][i] = -coeff
    return GradedSymplecticSpace(tuple(letters), tuple(degrees), tuple(map(tuple, rows)))
